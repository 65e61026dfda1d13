#include "characterize/report_io.hpp"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "circuit/gate.hpp"
#include "util/error.hpp"

namespace charter::characterize {

namespace {

// v1: initial schema — germ ladder, per-gate decay curves, channel fits,
// bootstrap intervals, SPAM context, and the exec block shared with the
// Charter report format.
// v2: exec drops the model-predicted nanoseconds (the Charter report's v4
// change).
constexpr int kSchemaVersion = 2;

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_doubles(std::string& out, const std::vector<double>& vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    append_double(out, vs[i]);
  }
  out += ']';
}

void append_ci(std::string& out, const stats::BootstrapCI& ci) {
  out += '[';
  append_double(out, ci.lower);
  out += ',';
  append_double(out, ci.upper);
  out += ']';
}

/// Largest double below which every integer is exact (2^53).
constexpr double kMaxWhole = 9007199254740992.0;

/// \p v as a whole number in [0, max]; a negative, fractional, non-finite
/// or larger value throws InvalidArgument before any integer cast sees it.
double whole(double v, double max = kMaxWhole) {
  require(std::isfinite(v) && v >= 0.0 && v <= max && v == std::floor(v),
          "characterization report: expected a whole number in [0, " +
              std::to_string(static_cast<std::uint64_t>(max)) + "]");
  return v;
}

/// Strict cursor over the writer's own output format (the same
/// fixture-loader shape as core/report_io.cpp — not a general JSON
/// library).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    require(pos_ < text_.size() && text_[pos_] == c,
            std::string("characterization report: expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Reads `"key":` and returns key.
  std::string key() {
    const std::string k = string();
    expect(':');
    return k;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') out += text_[pos_++];
    expect('"');
    return out;
  }

  double number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    require(end != start, "characterization report: expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  std::size_t size() { return static_cast<std::size_t>(whole(number())); }
  int integer() { return static_cast<int>(whole(number(), INT_MAX)); }

  std::vector<double> doubles() {
    std::vector<double> out;
    expect('[');
    if (consume(']')) return out;
    do {
      out.push_back(number());
    } while (consume(','));
    expect(']');
    return out;
  }

  stats::BootstrapCI ci() {
    const std::vector<double> vs = doubles();
    require(vs.size() == 2,
            "characterization report: interval must have two bounds");
    return {vs[0], vs[1]};
  }

  void done() {
    skip_ws();
    require(pos_ == text_.size(),
            "characterization report: trailing content");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string characterization_to_json(const CharacterizationReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\n\"schema\":";
  out += std::to_string(kSchemaVersion);
  out += ",\n\"depths\":[";
  for (std::size_t i = 0; i < report.depths.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(report.depths[i]);
  }
  out += "],\n\"severity_reversals\":" +
         std::to_string(report.severity_reversals);
  out += ",\n\"total_sequences\":" + std::to_string(report.total_sequences);
  out += ",\n\"rank_agreement\":";
  append_double(out, report.rank_agreement);
  out += ",\n\"original_distribution\":";
  append_doubles(out, report.original_distribution);
  out += ",\n\"gates\":[";
  for (std::size_t k = 0; k < report.gates.size(); ++k) {
    const GateCharacterization& g = report.gates[k];
    out += (k == 0) ? "\n" : ",\n";
    out += "{\"op_index\":" + std::to_string(g.op_index);
    out += ",\"gate\":\"" + circ::gate_name(g.kind) + "\"";
    out += ",\"qubits\":[";
    for (int q = 0; q < g.num_qubits; ++q) {
      if (q > 0) out += ',';
      out += std::to_string(g.qubits[static_cast<std::size_t>(q)]);
    }
    out += "],\"charter_tvd\":";
    append_double(out, g.charter_tvd);
    out += ",\"decay_depths\":[";
    for (std::size_t i = 0; i < g.decay.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(g.decay[i].depth);
    }
    out += "],\"decay_tvds\":[";
    for (std::size_t i = 0; i < g.decay.size(); ++i) {
      if (i > 0) out += ',';
      append_double(out, g.decay[i].tvd);
    }
    out += "],\"rho\":";
    append_double(out, g.fit.rho);
    out += ",\"phi\":";
    append_double(out, g.fit.phi);
    out += ",\"saturation\":";
    append_double(out, g.fit.saturation);
    out += ",\"coherent_amplitude\":";
    append_double(out, g.fit.coherent_amplitude);
    out += ",\"residual_rms\":";
    append_double(out, g.fit.residual_rms);
    out += ",\"depol_per_application\":";
    append_double(out, g.fit.depol_per_application());
    out += ",\"severity\":";
    append_double(out, g.severity);
    out += ",\"depol_ci\":";
    append_ci(out, g.ci.depol);
    out += ",\"rotation_ci\":";
    append_ci(out, g.ci.rotation);
    out += ",\"severity_ci\":";
    append_ci(out, g.ci.severity);
    out += ",\"spam_p01\":";
    append_double(out, g.spam_p01);
    out += ",\"spam_p10\":";
    append_double(out, g.spam_p10);
    out += '}';
  }
  out += "\n],\n\"exec\":{";
  const exec::BatchRunner::Stats& exec_stats = report.exec_stats;
  out += "\"jobs\":" + std::to_string(exec_stats.jobs);
  out += ",\"cache_hits\":" + std::to_string(exec_stats.cache_hits);
  out += ",\"cache_memory_hits\":" +
         std::to_string(exec_stats.cache_memory_hits);
  out += ",\"cache_disk_hits\":" + std::to_string(exec_stats.cache_disk_hits);
  out += ",\"checkpointed\":" + std::to_string(exec_stats.checkpointed);
  out += ",\"trajectory_checkpointed\":" +
         std::to_string(exec_stats.trajectory_checkpointed);
  out += ",\"full_runs\":" + std::to_string(exec_stats.full_runs);
  out += ",\"checkpoint_fallbacks\":" +
         std::to_string(exec_stats.checkpoint_fallbacks);
  out += ",\"strategy_jobs\":{";
  out += "\"dm_exact\":" + std::to_string(exec_stats.strategy_jobs.dm_exact);
  out += ",\"dm_fused\":" +
         std::to_string(exec_stats.strategy_jobs.dm_fused);
  out += ",\"dm_fused_wide\":" +
         std::to_string(exec_stats.strategy_jobs.dm_fused_wide);
  out += ",\"trajectory\":" +
         std::to_string(exec_stats.strategy_jobs.trajectory);
  out += ",\"checkpoint_splice\":" +
         std::to_string(exec_stats.strategy_jobs.checkpoint_splice);
  out += "},\"actual_ns\":";
  append_double(out, exec_stats.actual_ns);
  out += "}\n}\n";
  return out;
}

CharacterizationReport characterization_from_json(const std::string& json) {
  CharacterizationReport out;
  Parser p(json);
  p.expect('{');
  require(p.key() == "schema", "characterization report: missing schema");
  require(p.integer() == kSchemaVersion,
          "characterization report: schema version mismatch (regenerate "
          "the fixture)");
  p.expect(',');
  require(p.key() == "depths", "characterization report: missing depths");
  for (const double d : p.doubles())
    out.depths.push_back(static_cast<int>(whole(d, INT_MAX)));
  p.expect(',');
  require(p.key() == "severity_reversals",
          "characterization report: missing severity_reversals");
  out.severity_reversals = p.integer();
  p.expect(',');
  require(p.key() == "total_sequences",
          "characterization report: missing total_sequences");
  out.total_sequences = p.size();
  p.expect(',');
  require(p.key() == "rank_agreement",
          "characterization report: missing rank_agreement");
  out.rank_agreement = p.number();
  p.expect(',');
  require(p.key() == "original_distribution",
          "characterization report: missing original_distribution");
  out.original_distribution = p.doubles();
  p.expect(',');
  require(p.key() == "gates", "characterization report: missing gates");
  p.expect('[');
  if (!p.consume(']')) {
    do {
      GateCharacterization g;
      p.expect('{');
      require(p.key() == "op_index",
              "characterization report: missing op_index");
      g.op_index = p.size();
      p.expect(',');
      require(p.key() == "gate", "characterization report: missing gate");
      g.kind = circ::gate_kind_from_name(p.string());
      p.expect(',');
      require(p.key() == "qubits",
              "characterization report: missing qubits");
      const std::vector<double> qs = p.doubles();
      require(qs.size() <= g.qubits.size(),
              "characterization report: too many qubits");
      g.num_qubits = static_cast<int>(qs.size());
      for (std::size_t q = 0; q < qs.size(); ++q)
        g.qubits[q] = static_cast<std::int16_t>(whole(qs[q], INT16_MAX));
      p.expect(',');
      require(p.key() == "charter_tvd",
              "characterization report: missing charter_tvd");
      g.charter_tvd = p.number();
      p.expect(',');
      require(p.key() == "decay_depths",
              "characterization report: missing decay_depths");
      const std::vector<double> depths = p.doubles();
      p.expect(',');
      require(p.key() == "decay_tvds",
              "characterization report: missing decay_tvds");
      const std::vector<double> tvds = p.doubles();
      require(depths.size() == tvds.size(),
              "characterization report: decay depth/tvd length mismatch");
      g.decay.reserve(depths.size());
      for (std::size_t i = 0; i < depths.size(); ++i)
        g.decay.push_back(
            {static_cast<int>(whole(depths[i], INT_MAX)), tvds[i]});
      p.expect(',');
      require(p.key() == "rho", "characterization report: missing rho");
      g.fit.rho = p.number();
      p.expect(',');
      require(p.key() == "phi", "characterization report: missing phi");
      g.fit.phi = p.number();
      p.expect(',');
      require(p.key() == "saturation",
              "characterization report: missing saturation");
      g.fit.saturation = p.number();
      p.expect(',');
      require(p.key() == "coherent_amplitude",
              "characterization report: missing coherent_amplitude");
      g.fit.coherent_amplitude = p.number();
      p.expect(',');
      require(p.key() == "residual_rms",
              "characterization report: missing residual_rms");
      g.fit.residual_rms = p.number();
      p.expect(',');
      // Derived from rho on write; validated against it on read so a
      // hand-edited fixture cannot carry an inconsistent pair.
      require(p.key() == "depol_per_application",
              "characterization report: missing depol_per_application");
      const double depol = p.number();
      require(std::abs(depol - g.fit.depol_per_application()) < 1e-12,
              "characterization report: depol_per_application does not "
              "match rho");
      p.expect(',');
      require(p.key() == "severity",
              "characterization report: missing severity");
      g.severity = p.number();
      p.expect(',');
      require(p.key() == "depol_ci",
              "characterization report: missing depol_ci");
      g.ci.depol = p.ci();
      p.expect(',');
      require(p.key() == "rotation_ci",
              "characterization report: missing rotation_ci");
      g.ci.rotation = p.ci();
      p.expect(',');
      require(p.key() == "severity_ci",
              "characterization report: missing severity_ci");
      g.ci.severity = p.ci();
      p.expect(',');
      require(p.key() == "spam_p01",
              "characterization report: missing spam_p01");
      g.spam_p01 = p.number();
      p.expect(',');
      require(p.key() == "spam_p10",
              "characterization report: missing spam_p10");
      g.spam_p10 = p.number();
      p.expect('}');
      out.gates.push_back(std::move(g));
    } while (p.consume(','));
    p.expect(']');
  }
  p.expect(',');
  require(p.key() == "exec", "characterization report: missing exec");
  p.expect('{');
  require(p.key() == "jobs", "characterization report: missing exec.jobs");
  out.exec_stats.jobs = p.size();
  p.expect(',');
  require(p.key() == "cache_hits",
          "characterization report: missing exec.cache_hits");
  out.exec_stats.cache_hits = p.size();
  p.expect(',');
  require(p.key() == "cache_memory_hits",
          "characterization report: missing exec.cache_memory_hits");
  out.exec_stats.cache_memory_hits = p.size();
  p.expect(',');
  require(p.key() == "cache_disk_hits",
          "characterization report: missing exec.cache_disk_hits");
  out.exec_stats.cache_disk_hits = p.size();
  p.expect(',');
  require(p.key() == "checkpointed",
          "characterization report: missing exec.checkpointed");
  out.exec_stats.checkpointed = p.size();
  p.expect(',');
  require(p.key() == "trajectory_checkpointed",
          "characterization report: missing exec.trajectory_checkpointed");
  out.exec_stats.trajectory_checkpointed = p.size();
  p.expect(',');
  require(p.key() == "full_runs",
          "characterization report: missing exec.full_runs");
  out.exec_stats.full_runs = p.size();
  p.expect(',');
  require(p.key() == "checkpoint_fallbacks",
          "characterization report: missing exec.checkpoint_fallbacks");
  out.exec_stats.checkpoint_fallbacks = p.size();
  p.expect(',');
  require(p.key() == "strategy_jobs",
          "characterization report: missing exec.strategy_jobs");
  p.expect('{');
  require(p.key() == "dm_exact", "characterization report: missing dm_exact");
  out.exec_stats.strategy_jobs.dm_exact = p.size();
  p.expect(',');
  require(p.key() == "dm_fused", "characterization report: missing dm_fused");
  out.exec_stats.strategy_jobs.dm_fused = p.size();
  p.expect(',');
  require(p.key() == "dm_fused_wide",
          "characterization report: missing dm_fused_wide");
  out.exec_stats.strategy_jobs.dm_fused_wide = p.size();
  p.expect(',');
  require(p.key() == "trajectory",
          "characterization report: missing trajectory");
  out.exec_stats.strategy_jobs.trajectory = p.size();
  p.expect(',');
  require(p.key() == "checkpoint_splice",
          "characterization report: missing checkpoint_splice");
  out.exec_stats.strategy_jobs.checkpoint_splice = p.size();
  p.expect('}');
  p.expect(',');
  require(p.key() == "actual_ns",
          "characterization report: missing exec.actual_ns");
  out.exec_stats.actual_ns = p.number();
  p.expect('}');
  p.expect('}');
  p.done();
  return out;
}

}  // namespace charter::characterize
