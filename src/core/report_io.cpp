#include "core/report_io.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "circuit/gate.hpp"
#include "util/error.hpp"

namespace charter::core {

namespace {

// v2: exec gains the cache-tier split (cache_memory_hits/cache_disk_hits)
// introduced with the two-tier RunCache.
// v3: exec gains the strategy portfolio's accounting — the per-strategy
// job classification (strategy_jobs), model-predicted vs measured
// nanoseconds, and adaptive early-termination savings
// (trajectories_budgeted/executed, gates_settled_early).
// v4: exec drops the model-predicted nanoseconds along with the model;
// strategy_jobs and actual_ns are filled on every run.
constexpr int kSchemaVersion = 4;

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

/// Strict cursor over the writer's own output format.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    require(pos_ < text_.size() && text_[pos_] == c,
            std::string("golden report: expected '") + c + "'");
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
    require(end != start, "golden report: expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  std::size_t size() { return static_cast<std::size_t>(number()); }

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

  void done() {
    skip_ws();
    require(pos_ == text_.size(), "golden report: trailing content");
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

std::string report_to_json(const CharterReport& report,
                           const exec::BatchRunner::Stats& exec_stats) {
  std::string out;
  out.reserve(4096);
  out += "{\n\"schema\":";
  out += std::to_string(kSchemaVersion);
  out += ",\n\"total_gates\":" + std::to_string(report.total_gates);
  out += ",\n\"eligible_gates\":" + std::to_string(report.eligible_gates);
  out += ",\n\"analyzed_gates\":" + std::to_string(report.analyzed_gates);
  out += ",\n\"original_distribution\":";
  append_doubles(out, report.original_distribution);
  out += ",\n\"ideal_distribution\":";
  append_doubles(out, report.ideal_distribution);
  out += ",\n\"impacts\":[";
  for (std::size_t k = 0; k < report.impacts.size(); ++k) {
    const GateImpact& g = report.impacts[k];
    out += (k == 0) ? "\n" : ",\n";
    out += "{\"op_index\":" + std::to_string(g.op_index);
    out += ",\"gate\":\"" + circ::gate_name(g.kind) + "\"";
    out += ",\"qubits\":[";
    for (int q = 0; q < g.num_qubits; ++q) {
      if (q > 0) out += ',';
      out += std::to_string(g.qubits[static_cast<std::size_t>(q)]);
    }
    out += "],\"layer\":" + std::to_string(g.layer);
    out += ",\"tvd\":";
    append_double(out, g.tvd);
    out += ",\"tvd_vs_ideal\":";
    append_double(out, g.tvd_vs_ideal);
    out += '}';
  }
  out += "\n],\n\"exec\":{";
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
  out += ",\"trajectories_budgeted\":" +
         std::to_string(exec_stats.trajectories_budgeted);
  out += ",\"trajectories_executed\":" +
         std::to_string(exec_stats.trajectories_executed);
  out += ",\"gates_settled_early\":" +
         std::to_string(exec_stats.gates_settled_early);
  out += "}\n}\n";
  return out;
}

GoldenReport report_from_json(const std::string& json) {
  GoldenReport out;
  Parser p(json);
  p.expect('{');
  require(p.key() == "schema", "golden report: missing schema");
  require(static_cast<int>(p.number()) == kSchemaVersion,
          "golden report: schema version mismatch (regenerate the fixture)");
  p.expect(',');
  require(p.key() == "total_gates", "golden report: missing total_gates");
  out.report.total_gates = p.size();
  p.expect(',');
  require(p.key() == "eligible_gates", "golden report: missing eligible_gates");
  out.report.eligible_gates = p.size();
  p.expect(',');
  require(p.key() == "analyzed_gates", "golden report: missing analyzed_gates");
  out.report.analyzed_gates = p.size();
  p.expect(',');
  require(p.key() == "original_distribution",
          "golden report: missing original_distribution");
  out.report.original_distribution = p.doubles();
  p.expect(',');
  require(p.key() == "ideal_distribution",
          "golden report: missing ideal_distribution");
  out.report.ideal_distribution = p.doubles();
  p.expect(',');
  require(p.key() == "impacts", "golden report: missing impacts");
  p.expect('[');
  if (!p.consume(']')) {
    do {
      GateImpact g;
      p.expect('{');
      require(p.key() == "op_index", "golden report: missing op_index");
      g.op_index = p.size();
      p.expect(',');
      require(p.key() == "gate", "golden report: missing gate");
      g.kind = circ::gate_kind_from_name(p.string());
      p.expect(',');
      require(p.key() == "qubits", "golden report: missing qubits");
      const std::vector<double> qs = p.doubles();
      require(qs.size() <= g.qubits.size(), "golden report: too many qubits");
      g.num_qubits = static_cast<int>(qs.size());
      for (std::size_t q = 0; q < qs.size(); ++q)
        g.qubits[q] = static_cast<std::int16_t>(qs[q]);
      p.expect(',');
      require(p.key() == "layer", "golden report: missing layer");
      g.layer = static_cast<int>(p.number());
      p.expect(',');
      require(p.key() == "tvd", "golden report: missing tvd");
      g.tvd = p.number();
      p.expect(',');
      require(p.key() == "tvd_vs_ideal", "golden report: missing tvd_vs_ideal");
      g.tvd_vs_ideal = p.number();
      p.expect('}');
      out.report.impacts.push_back(g);
    } while (p.consume(','));
    p.expect(']');
  }
  p.expect(',');
  require(p.key() == "exec", "golden report: missing exec");
  p.expect('{');
  require(p.key() == "jobs", "golden report: missing exec.jobs");
  out.exec.jobs = p.size();
  p.expect(',');
  require(p.key() == "cache_hits", "golden report: missing exec.cache_hits");
  out.exec.cache_hits = p.size();
  p.expect(',');
  require(p.key() == "cache_memory_hits",
          "golden report: missing exec.cache_memory_hits");
  out.exec.cache_memory_hits = p.size();
  p.expect(',');
  require(p.key() == "cache_disk_hits",
          "golden report: missing exec.cache_disk_hits");
  out.exec.cache_disk_hits = p.size();
  p.expect(',');
  require(p.key() == "checkpointed",
          "golden report: missing exec.checkpointed");
  out.exec.checkpointed = p.size();
  p.expect(',');
  require(p.key() == "trajectory_checkpointed",
          "golden report: missing exec.trajectory_checkpointed");
  out.exec.trajectory_checkpointed = p.size();
  p.expect(',');
  require(p.key() == "full_runs", "golden report: missing exec.full_runs");
  out.exec.full_runs = p.size();
  p.expect(',');
  require(p.key() == "checkpoint_fallbacks",
          "golden report: missing exec.checkpoint_fallbacks");
  out.exec.checkpoint_fallbacks = p.size();
  p.expect(',');
  require(p.key() == "strategy_jobs",
          "golden report: missing exec.strategy_jobs");
  p.expect('{');
  require(p.key() == "dm_exact", "golden report: missing dm_exact");
  out.exec.strategy_jobs.dm_exact = p.size();
  p.expect(',');
  require(p.key() == "dm_fused", "golden report: missing dm_fused");
  out.exec.strategy_jobs.dm_fused = p.size();
  p.expect(',');
  require(p.key() == "dm_fused_wide", "golden report: missing dm_fused_wide");
  out.exec.strategy_jobs.dm_fused_wide = p.size();
  p.expect(',');
  require(p.key() == "trajectory", "golden report: missing trajectory");
  out.exec.strategy_jobs.trajectory = p.size();
  p.expect(',');
  require(p.key() == "checkpoint_splice",
          "golden report: missing checkpoint_splice");
  out.exec.strategy_jobs.checkpoint_splice = p.size();
  p.expect('}');
  p.expect(',');
  require(p.key() == "actual_ns", "golden report: missing exec.actual_ns");
  out.exec.actual_ns = p.number();
  p.expect(',');
  require(p.key() == "trajectories_budgeted",
          "golden report: missing exec.trajectories_budgeted");
  out.exec.trajectories_budgeted = p.size();
  p.expect(',');
  require(p.key() == "trajectories_executed",
          "golden report: missing exec.trajectories_executed");
  out.exec.trajectories_executed = p.size();
  p.expect(',');
  require(p.key() == "gates_settled_early",
          "golden report: missing exec.gates_settled_early");
  out.exec.gates_settled_early = p.size();
  p.expect('}');
  p.expect('}');
  p.done();
  return out;
}

}  // namespace charter::core
