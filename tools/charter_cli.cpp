// charter — command-line interface to the library, built on the public
// charter::Session facade (include/charter/).
//
// Subcommands:
//   list                          show the built-in benchmark algorithms
//   version                       build/runtime diagnostics (SIMD dispatch,
//                                 OpenMP width, engine cutoffs)
//   inspect  --algo <key>         compiled-circuit statistics + diagram
//   analyze  --algo <key>         per-gate criticality ranking
//                                 (--progress for live status, --json for
//                                 machine-readable job output)
//   analyze  --qasm-dir <dir>     bulk ingestion: one async job per *.qasm
//                                 file, per-file error isolation
//   characterize --algo <key>     error-channel estimation (depolarizing +
//                                 coherent rotation + SPAM bounds) for the
//                                 top-k gates of the criticality ranking
//   input    --algo <key>         input-block reversal impact
//   mitigate --algo <key>         serialize top layers, report error change
//   qasm     --algo <key>         emit the compiled circuit as OpenQASM 2.0
//   worker   --fd <n>             multi-process sweep child (internal; the
//                                 exec layer spawns these for --workers N)
//
// Every subcommand accepts --help; the analysis ones accept
// --backend lagos|guadalupe (default by size), --reversals, --shots,
// --seed, --top, --threads, --strategy auto|dm|trajectory, and --adaptive.
// An unknown --algo key lists the valid keys and exits 2.

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <charter/charter.hpp>

#include "characterize/report_io.hpp"
#include "circuit/qasm_parser.hpp"
#include "exec/worker.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/program.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace co = charter::core;
using charter::util::Cli;
using charter::util::Table;

/// The run cache's disk tier is attached only here at the tool level (via
/// flag or environment); the library's RunCache::global() stays
/// memory-only so tests and embedders are hermetic by default.
std::string default_cache_dir() {
  const char* dir = std::getenv("CHARTER_CACHE_DIR");
  return dir != nullptr ? dir : "";
}

void add_common_flags(Cli& cli) {
  cli.add_flag("algo", std::string("qft3"),
               "benchmark key (see `charter list`)");
  cli.add_flag("backend", std::string("auto"),
               "lagos, guadalupe, or auto (by circuit size)");
  cli.add_flag("reversals", std::int64_t{5}, "reversed pairs per gate");
  cli.add_flag("shots", std::int64_t{8192}, "shots per run (0 = exact)");
  cli.add_flag("seed", std::int64_t{2022}, "master seed");
  cli.add_flag("top", std::int64_t{15}, "rows to print in rankings");
  cli.add_flag("max-gates", std::int64_t{0},
               "cap analyzed gates (0 = all eligible)");
  cli.add_flag("threads", std::int64_t{0},
               "analysis worker-pool width (0 = all hardware threads; "
               "results are identical at every value)");
  cli.add_flag("workers", std::int64_t{0},
               "fan the sweep out to N `charter worker` child processes "
               "(0 = in-process; results are identical at every value)");
  cli.add_flag("cache-dir", default_cache_dir(),
               "persistent run-cache directory (default $CHARTER_CACHE_DIR; "
               "empty = memory-only)");
  cli.add_flag("strategy", std::string("auto"),
               "execution strategy: auto (static rule), dm (density "
               "matrix, exact tape), or trajectory");
  cli.add_flag("adaptive", false,
               "adaptive trajectory budgets: stop unravelling a gate once "
               "its impact rank settles (fixed budgets by default)");
}

/// Looks up --algo, and on an unknown key prints the valid ones and exits
/// nonzero instead of surfacing a bare NotFound.
charter::algos::AlgoSpec find_spec(const Cli& cli) {
  const std::string key = cli.get_string("algo");
  try {
    return charter::algos::find_benchmark(key);
  } catch (const charter::NotFound&) {
    std::fprintf(stderr, "charter: unknown benchmark key '%s'\n",
                 key.c_str());
    std::fprintf(stderr, "valid keys (see `charter list`):\n");
    for (const auto& spec : charter::algos::paper_benchmarks())
      std::fprintf(stderr, "  %-12s %s\n", spec.key.c_str(),
                   spec.name.c_str());
    std::exit(2);
  }
}

cb::FakeBackend make_backend(const Cli& cli,
                             const charter::algos::AlgoSpec& spec) {
  const std::string name = cli.get_string("backend");
  if (name == "lagos") return cb::FakeBackend::lagos();
  if (name == "guadalupe") return cb::FakeBackend::guadalupe();
  if (name == "auto")
    return spec.qubits <= 7 ? cb::FakeBackend::lagos()
                            : cb::FakeBackend::guadalupe();
  throw charter::InvalidArgument("unknown backend: " + name +
                                 " (expected lagos, guadalupe, or auto)");
}

charter::SessionConfig make_config(const Cli& cli) {
  const int workers = static_cast<int>(cli.get_int("workers"));
  const std::string strategy_name = cli.get_string("strategy");
  const auto strategy = charter::exec::strategy_from_name(strategy_name);
  if (!strategy.has_value())
    throw charter::InvalidArgument(
        "unknown --strategy '" + strategy_name +
        "' (expected one of: auto, dm, trajectory)");
  charter::SessionConfig config = charter::SessionConfig()
      .reversals(static_cast<int>(cli.get_int("reversals")))
      .max_gates(static_cast<int>(cli.get_int("max-gates")))
      .shots(cli.get_int("shots"))
      .seed(static_cast<std::uint64_t>(cli.get_int("seed")));
  config.execution()
      .threads(static_cast<int>(cli.get_int("threads")))
      .workers(workers)
      .cache_dir(cli.get_string("cache-dir"))
      .strategy(*strategy)
      .adaptive(cli.get_bool("adaptive"));
  // Workers fork+exec this very binary (`charter worker --fd N`): the
  // children get a fresh address space instead of a forked image.
  if (workers > 0) config.execution().worker_exe("/proc/self/exe");
  return config;
}

/// The `charter worker` subcommand: serve work units on an inherited
/// socketpair fd until the parent closes it.  Spawned by the exec layer,
/// never by hand.
int cmd_worker(int argc, const char* const* argv) {
  Cli cli("charter worker: multi-process sweep child (internal)");
  cli.add_flag("fd", std::int64_t{-1},
               "inherited socketpair file descriptor to serve on");
  if (!cli.parse(argc, argv)) return 0;
  const int fd = static_cast<int>(cli.get_int("fd"));
  if (fd < 0) {
    std::fprintf(stderr, "charter worker: --fd is required\n");
    return 2;
  }
  return charter::exec::worker_serve(fd);
}

int cmd_version(int argc, const char* const* argv) {
  Cli cli("charter version: build/runtime diagnostics");
  cli.add_flag("verbose", false,
               "also report run-cache configuration and per-tier counters");
  if (!cli.parse(argc, argv)) return 0;
  namespace simd = charter::math::simd;
  std::printf("charter %s (Charter reproduction, C++%ld)\n",
              CHARTER_VERSION_STRING,
              static_cast<long>(__cplusplus / 100 % 100));
  std::printf("  simd dispatch : %s\n",
              simd::path_name(simd::active_path()));
  std::printf("  simd available: %s\n", simd::available_paths().c_str());
  std::printf("  simd override : %s\n",
              std::getenv("CHARTER_SIMD") != nullptr
                  ? std::getenv("CHARTER_SIMD")
                  : "(none; set CHARTER_SIMD=scalar|sse2|neon|avx2|avx512)");
  std::printf("  fusion width  : %d%s\n", charter::noise::fusion_width(),
              std::getenv("CHARTER_FUSION_WIDTH") != nullptr
                  ? " (from CHARTER_FUSION_WIDTH)"
                  : " (default; set CHARTER_FUSION_WIDTH=2|3)");
  std::printf("  environment   : %s\n",
              cb::run_environment_summary().c_str());
  if (cli.get_bool("verbose")) {
    // Attach the disk tier exactly as the analysis subcommands would, so
    // the entry/byte counts describe the directory a run would hit.
    const std::string cache_dir = default_cache_dir();
    if (!cache_dir.empty())
      charter::exec::RunCache::global().set_disk_tier(cache_dir);
    const auto stats = charter::Session::cache_stats();
    std::printf("  cache dir     : %s\n",
                cache_dir.empty() ? "(memory-only; set CHARTER_CACHE_DIR)"
                                  : cache_dir.c_str());
    std::printf("  cache memory  : %zu entries, %zu bytes "
                "(%zu hits, %zu misses, %zu evictions)\n",
                stats.memory.entries, stats.memory.bytes, stats.memory.hits,
                stats.memory.misses, stats.memory.evictions);
    std::printf("  cache disk    : %zu entries, %zu bytes "
                "(%zu hits, %zu misses, %zu evictions)\n",
                stats.disk.entries, stats.disk.bytes, stats.disk.hits,
                stats.disk.misses, stats.disk.evictions);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// charter client — drive a running charterd over its socket
// ---------------------------------------------------------------------------

int cmd_client(int argc, const char* const* argv) {
  namespace cs = charter::service;
  const std::string ops =
      "ping|submit|characterize|status|wait|fetch|cancel|stats|shutdown";
  if (argc < 2) {
    std::fprintf(stderr, "usage: charter client <%s> [flags]\n", ops.c_str());
    return 2;
  }
  const std::string op = argv[1];
  Cli cli("charter client " + op + ": one request to a running charterd");
  cli.add_flag("socket", cs::Client::default_socket_path(),
               "charterd socket path");
  cli.add_flag("tenant", std::string("default"),
               "tenant name for fair-share scheduling (submit)");
  cli.add_flag("algo", std::string(""),
               "benchmark key to submit (see `charter list`)");
  cli.add_flag("qasm-file", std::string(""),
               "submit an OpenQASM 2.0 file instead of --algo");
  cli.add_flag("job", std::int64_t{0}, "job id (status/wait/fetch/cancel)");
  cli.add_flag("detach", false,
               "keep the job running after this client disconnects");
  cli.add_flag("wait", false, "after submit, block until the job finishes");
  cli.add_flag("shots", std::int64_t{-1}, "override shots (-1 = daemon default)");
  cli.add_flag("seed", std::int64_t{-1}, "override seed (-1 = daemon default)");
  cli.add_flag("reversals", std::int64_t{-1},
               "override reversed pairs (-1 = daemon default)");
  cli.add_flag("max-gates", std::int64_t{-1},
               "override analyzed-gate cap (-1 = daemon default)");
  cli.add_flag("top-k", std::int64_t{-1},
               "characterize: gates to characterize (-1 = daemon default)");
  if (!cli.parse(argc - 1, argv + 1)) return 0;

  std::string request;
  if (op == "ping" || op == "stats" || op == "shutdown") {
    request = "{\"op\":\"" + op + "\"}";
  } else if (op == "status" || op == "wait" || op == "fetch" ||
             op == "cancel") {
    if (cli.get_int("job") <= 0) {
      std::fprintf(stderr, "charter client %s needs --job <id>\n",
                   op.c_str());
      return 2;
    }
    request = "{\"op\":\"" + op +
              "\",\"job\":" + std::to_string(cli.get_int("job")) + "}";
  } else if (op == "submit" || op == "characterize") {
    const std::string algo = cli.get_string("algo");
    const std::string qasm_file = cli.get_string("qasm-file");
    if (algo.empty() == qasm_file.empty()) {
      std::fprintf(stderr,
                   "charter client %s needs exactly one of --algo or "
                   "--qasm-file\n",
                   op.c_str());
      return 2;
    }
    request = "{\"op\":\"" + op + "\",\"tenant\":\"" +
              cs::json_escape(cli.get_string("tenant")) + "\"";
    if (!algo.empty()) {
      request += ",\"benchmark\":\"" + cs::json_escape(algo) + "\"";
    } else {
      std::FILE* f = std::fopen(qasm_file.c_str(), "rb");
      if (f == nullptr) {
        std::fprintf(stderr, "charter: cannot read %s\n", qasm_file.c_str());
        return 1;
      }
      std::string source;
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        source.append(buf, n);
      std::fclose(f);
      request += ",\"qasm\":\"" + cs::json_escape(source) + "\"";
    }
    if (cli.get_bool("detach")) request += ",\"detach\":true";
    for (const char* field : {"shots", "seed", "reversals", "max-gates"}) {
      if (cli.get_int(field) >= 0) {
        const std::string key =
            std::strcmp(field, "max-gates") == 0 ? "max_gates" : field;
        request += ",\"" + key + "\":" + std::to_string(cli.get_int(field));
      }
    }
    if (op == "characterize" && cli.get_int("top-k") >= 1)
      request += ",\"top_k\":" + std::to_string(cli.get_int("top-k"));
    request += "}";
  } else {
    std::fprintf(stderr, "charter client: unknown op '%s' (expected %s)\n",
                 op.c_str(), ops.c_str());
    return 2;
  }

  cs::Client client(cli.get_string("socket"));
  std::string response = client.call_raw(request);
  std::printf("%s\n", response.c_str());

  cs::JsonValue parsed = cs::parse_json(response);
  const cs::JsonValue* ok = parsed.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->boolean) return 1;

  if ((op == "submit" || op == "characterize") && cli.get_bool("wait")) {
    const cs::JsonValue* id = parsed.find("job");
    if (id == nullptr || !id->is_number()) return 1;
    response = client.call_raw(
        "{\"op\":\"wait\",\"job\":" +
        std::to_string(static_cast<std::int64_t>(id->number)) + "}");
    std::printf("%s\n", response.c_str());
    parsed = cs::parse_json(response);
    const cs::JsonValue* status = parsed.find("status");
    if (status == nullptr || !status->is_string() ||
        status->string != "done")
      return 1;
  }
  return 0;
}

int cmd_list(int argc, const char* const* argv) {
  Cli cli("charter list: the built-in benchmark algorithms");
  if (!cli.parse(argc, argv)) return 0;
  Table table("Built-in benchmark algorithms (paper Table II + extensions):");
  table.set_header({"Key", "Name", "Qubits", "Gates (logical)"});
  for (const auto& spec : charter::algos::extended_benchmarks()) {
    table.add_row({spec.key, spec.name, std::to_string(spec.qubits),
                   std::to_string(spec.build().size())});
  }
  table.print();
  return 0;
}

int cmd_inspect(int argc, const char* const* argv) {
  Cli cli("charter inspect: compiled-circuit statistics");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto spec = find_spec(cli);
  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());

  const auto count = [&](cc::GateKind k) {
    return prog.physical.count_kind(k);
  };
  std::printf("%s on %s\n", spec.name.c_str(), backend.name().c_str());
  std::printf("  gates: rz=%zu sx=%zu x=%zu cx=%zu (depth %d)\n",
              count(cc::GateKind::RZ), count(cc::GateKind::SX),
              count(cc::GateKind::X), count(cc::GateKind::CX),
              prog.physical.depth());
  std::printf("  schedule length: %.0f ns\n",
              backend.duration_ns(prog));
  std::printf("  layout (logical -> physical):");
  for (int q = 0; q < prog.num_logical; ++q)
    std::printf(" %d->%d", q, prog.final_layout[static_cast<std::size_t>(q)]);
  std::printf("\n\n%s", cc::to_ascii(prog.physical, 60).c_str());
  return 0;
}

/// Bulk QASM ingestion: every *.qasm file in \p dir becomes one async
/// Session job.  A file that fails to parse, compile, or analyze is
/// reported and skipped — it never aborts the batch (per-file error
/// isolation).  Returns 0 when at least one file succeeded.
int analyze_qasm_dir(const Cli& cli, const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "charter: cannot open directory %s\n", dir.c_str());
    return 1;
  }
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".qasm") == 0)
      files.push_back(name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "charter: no *.qasm files in %s\n", dir.c_str());
    return 1;
  }

  // Parse every file first (isolated: a bad file is a table row, not an
  // abort), then pick one device that admits the widest good circuit.
  struct Entry {
    std::string file;
    cc::Circuit circuit{1};
    std::string error;
    charter::JobHandle job;
  };
  std::vector<Entry> entries;
  int max_qubits = 0;
  for (const std::string& file : files) {
    Entry e;
    e.file = file;
    try {
      e.circuit = cc::parse_qasm_file(dir + "/" + file);
      max_qubits = std::max(max_qubits, e.circuit.num_qubits());
    } catch (const charter::Error& err) {
      e.error = err.what();
    }
    entries.push_back(std::move(e));
  }
  const cb::FakeBackend backend = max_qubits <= 7
                                      ? cb::FakeBackend::lagos()
                                      : cb::FakeBackend::guadalupe();
  charter::Session session(backend, make_config(cli));

  // One async job per parsed file; compile errors are isolated the same
  // way.  Submission order fixes job ids, so output order is stable.
  for (Entry& e : entries) {
    if (!e.error.empty()) continue;
    try {
      e.job = session.submit(session.compile(e.circuit));
    } catch (const charter::Error& err) {
      e.error = err.what();
    }
  }

  Table table("Bulk analysis of " + dir + " on " + backend.name() + ":");
  table.set_header({"File", "Status", "Gates", "Top impact (TVD)"});
  std::size_t succeeded = 0;
  for (Entry& e : entries) {
    if (e.error.empty() && e.job.valid()) {
      const charter::JobResult& r = e.job.wait();
      if (r.status == charter::JobStatus::kDone) {
        ++succeeded;
        const auto ranked = r.report.sorted_by_impact();
        table.add_row({e.file, "done",
                       std::to_string(r.report.analyzed_gates),
                       ranked.empty() ? "-" : Table::fmt(ranked[0].tvd, 3)});
        continue;
      }
      e.error = r.error.empty() ? charter::to_string(r.status) : r.error;
    }
    table.add_row({e.file, "failed", "-", "-"});
    std::fprintf(stderr, "charter: %s: %s\n", e.file.c_str(),
                 e.error.c_str());
  }
  table.add_footnote(std::to_string(succeeded) + " of " +
                     std::to_string(entries.size()) + " files analyzed");
  table.print();
  return succeeded > 0 ? 0 : 1;
}

int cmd_analyze(int argc, const char* const* argv) {
  Cli cli("charter analyze: per-gate criticality via amplified reversals");
  add_common_flags(cli);
  cli.add_flag("progress", false, "stream job progress to stderr");
  cli.add_flag("json", false,
               "emit the full report as JSON on stdout (job id/status, "
               "impacts, exec stats) instead of the table");
  cli.add_flag("qasm-dir", std::string(""),
               "analyze every *.qasm file in this directory (one async job "
               "per file; a bad file is reported and skipped)");
  if (!cli.parse(argc, argv)) return 0;
  if (!cli.get_string("qasm-dir").empty())
    return analyze_qasm_dir(cli, cli.get_string("qasm-dir"));
  const auto spec = find_spec(cli);
  const bool progress = cli.get_bool("progress");
  const bool json = cli.get_bool("json");

  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());

  charter::JobCallbacks callbacks;
  if (progress) {
    callbacks.on_progress = [](const charter::JobProgress& p) {
      std::fprintf(stderr, "\rcharter: %zu/%zu runs", p.completed, p.total);
      if (p.completed == p.total) std::fputc('\n', stderr);
    };
  }
  const charter::JobHandle job = session.submit(prog, callbacks);
  const charter::JobResult& result = job.wait();
  if (result.status != charter::JobStatus::kDone) {
    std::fprintf(stderr, "charter: job %llu %s%s%s\n",
                 static_cast<unsigned long long>(job.id()),
                 charter::to_string(result.status).c_str(),
                 result.error.empty() ? "" : ": ",
                 result.error.c_str());
    return 1;
  }
  const co::CharterReport& report = result.report;

  if (json) {
    std::printf("{\"job\": {\"id\": %llu, \"status\": \"%s\", "
                "\"algo\": \"%s\", \"backend\": \"%s\"},\n\"report\": ",
                static_cast<unsigned long long>(job.id()),
                charter::to_string(result.status).c_str(),
                spec.key.c_str(), backend.name().c_str());
    std::fputs(co::report_to_json(report, report.exec_stats).c_str(),
               stdout);
    std::fputs("}\n", stdout);
    return 0;
  }

  Table table(spec.name + " on " + backend.name() +
              " -- gates ranked by error impact:");
  table.set_header({"Rank", "Gate", "Phys qubits", "Layer", "Impact (TVD)"});
  const auto ranked = report.sorted_by_impact();
  const std::size_t rows = std::min<std::size_t>(
      static_cast<std::size_t>(cli.get_int("top")), ranked.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& g = ranked[i];
    std::string qubits = std::to_string(g.qubits[0]);
    if (g.num_qubits == 2) qubits += "," + std::to_string(g.qubits[1]);
    table.add_row({std::to_string(i + 1), cc::gate_name(g.kind), qubits,
                   std::to_string(g.layer), Table::fmt(g.tvd, 3)});
  }
  const auto corr = report.layer_correlation();
  table.add_footnote(std::to_string(report.analyzed_gates) + " of " +
                     std::to_string(report.total_gates) +
                     " gates analyzed (RZ skipped); impact-vs-layer corr " +
                     Table::fmt(corr.r, 2) +
                     " (p=" + Table::fmt_pvalue(corr.p_value) + ")");
  table.print();
  return 0;
}

int cmd_characterize(int argc, const char* const* argv) {
  Cli cli("charter characterize: error-channel estimation for the top-k "
          "gates of the criticality ranking");
  add_common_flags(cli);
  cli.add_flag("top-k", std::int64_t{3},
               "gates to characterize, from the Charter ranking");
  cli.add_flag("progress", false, "stream job progress to stderr");
  cli.add_flag("json", false,
               "emit the CharacterizationReport as JSON on stdout");
  if (!cli.parse(argc, argv)) return 0;
  const auto spec = find_spec(cli);
  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());

  charter::JobCallbacks callbacks;
  if (cli.get_bool("progress")) {
    callbacks.on_progress = [](const charter::JobProgress& p) {
      std::fprintf(stderr, "\rcharter: %zu/%zu runs", p.completed, p.total);
      if (p.completed == p.total) std::fputc('\n', stderr);
    };
  }
  const co::CharterReport report = session.analyze(prog);
  const charter::JobHandle job = session.submit_characterization(
      prog, report, static_cast<int>(cli.get_int("top-k")), callbacks);
  const charter::JobResult& result = job.wait();
  if (result.status != charter::JobStatus::kDone) {
    std::fprintf(stderr, "charter: job %llu %s%s%s\n",
                 static_cast<unsigned long long>(job.id()),
                 charter::to_string(result.status).c_str(),
                 result.error.empty() ? "" : ": ", result.error.c_str());
    return 1;
  }
  const charter::characterize::CharacterizationReport& ch =
      result.characterization;

  if (cli.get_bool("json")) {
    std::fputs(charter::characterize::characterization_to_json(ch).c_str(),
               stdout);
    return 0;
  }

  Table table(spec.name + " on " + backend.name() +
              " -- error channels of the top-" +
              std::to_string(ch.gates.size()) + " gates:");
  table.set_header({"Gate", "Phys qubits", "Charter TVD", "Depol/app",
                    "Rotation (rad)", "Severity @r", "SPAM p01/p10"});
  for (const auto& g : ch.gates) {
    std::string qubits = std::to_string(g.qubits[0]);
    if (g.num_qubits == 2) qubits += "," + std::to_string(g.qubits[1]);
    table.add_row(
        {cc::gate_name(g.kind), qubits, Table::fmt(g.charter_tvd, 3),
         Table::fmt(g.fit.depol_per_application(), 4) + " [" +
             Table::fmt(g.ci.depol.lower, 4) + ", " +
             Table::fmt(g.ci.depol.upper, 4) + "]",
         Table::fmt(g.fit.phi, 4) + " [" + Table::fmt(g.ci.rotation.lower, 4) +
             ", " + Table::fmt(g.ci.rotation.upper, 4) + "]",
         Table::fmt(g.severity, 3),
         Table::fmt(g.spam_p01, 3) + "/" + Table::fmt(g.spam_p10, 3)});
  }
  table.add_footnote(
      "germ depths {" + [&] {
        std::string s;
        for (std::size_t i = 0; i < ch.depths.size(); ++i)
          s += (i != 0 ? "," : "") + std::to_string(ch.depths[i]);
        return s;
      }() + "}; severity at r=" + std::to_string(ch.severity_reversals) +
      "; GST-vs-Charter rank agreement " + Table::fmt(ch.rank_agreement, 2));
  table.print();
  return 0;
}

int cmd_input(int argc, const char* const* argv) {
  Cli cli("charter input: combined impact of the input-preparation block");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto spec = find_spec(cli);
  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());
  std::printf("%s input-block reversal impact: %.4f TVD\n",
              spec.name.c_str(), session.input_impact(prog));
  return 0;
}

int cmd_mitigate(int argc, const char* const* argv) {
  Cli cli("charter mitigate: serialize high-impact layers");
  add_common_flags(cli);
  cli.add_flag("fraction", 0.1, "top-impact gate fraction to serialize");
  if (!cli.parse(argc, argv)) return 0;
  const auto spec = find_spec(cli);
  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());
  const co::CharterReport report = session.analyze(prog);

  cb::CompiledProgram mitigated = prog;
  mitigated.physical = co::serialize_high_impact(
      prog.physical, report, cli.get_double("fraction"));

  cb::RunOptions run;
  run.shots = 0;
  run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto ideal = backend.ideal(prog);
  const double before =
      charter::stats::tvd(backend.run(prog, run), ideal);
  const double after =
      charter::stats::tvd(backend.run(mitigated, run), ideal);
  std::printf("%s: output TVD vs ideal %.4f -> %.4f (%+.1f points), "
              "schedule %.0f -> %.0f ns\n",
              spec.name.c_str(), before, after, 100.0 * (after - before),
              backend.duration_ns(prog), backend.duration_ns(mitigated));
  return 0;
}

int cmd_qasm(int argc, const char* const* argv) {
  Cli cli("charter qasm: emit the compiled circuit as OpenQASM 2.0");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto spec = find_spec(cli);
  const cb::FakeBackend backend = make_backend(cli, spec);
  charter::Session session(backend, make_config(cli));
  const cb::CompiledProgram prog = session.compile(spec.build());
  std::fputs(cc::to_qasm(prog.physical).c_str(), stdout);
  return 0;
}

void usage() {
  std::fputs(
      "usage: charter <list|version|inspect|analyze|characterize|input|"
      "mitigate|qasm|client> [flags]\n"
      "run `charter <command> --help` for the command's flags\n"
      "`charter client <op>` talks to a running charterd (see charterd "
      "--help)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list(argc - 1, argv + 1);
    if (cmd == "version" || cmd == "--version")
      return cmd_version(argc - 1, argv + 1);
    if (cmd == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (cmd == "analyze") return cmd_analyze(argc - 1, argv + 1);
    if (cmd == "characterize") return cmd_characterize(argc - 1, argv + 1);
    if (cmd == "input") return cmd_input(argc - 1, argv + 1);
    if (cmd == "mitigate") return cmd_mitigate(argc - 1, argv + 1);
    if (cmd == "qasm") return cmd_qasm(argc - 1, argv + 1);
    if (cmd == "client") return cmd_client(argc - 1, argv + 1);
    if (cmd == "worker") return cmd_worker(argc - 1, argv + 1);
    usage();
    return 2;
  } catch (const charter::Error& e) {
    std::fprintf(stderr, "charter: %s\n", e.what());
    return 1;
  }
}
