// perfbench_harness: runs one benchmark workload against the charter
// library for a fixed wall-clock window and prints raw JSON-lines records
// (set-up times, one record per analysis, spans, per-layer values, host
// metadata).  perfbench/run.py builds this program, runs it, checks every
// analysis against the stored references, and reduces the records to the
// benchmark's metrics.  See perfbench/README.md for the workloads.
//
//   perfbench_harness --workload dm-sweep --seed 3 --seconds 20 --trace 0
//       --charterd <path> --work-dir <dir>
//   perfbench_harness --workload service-repeat --reference 1 ...

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "charter/session.hpp"
#include "core/analyzer.hpp"
#include "core/report_io.hpp"
#include "core/reversal.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "exec/checkpoint.hpp"
#include "exec/disk_cache.hpp"
#include "exec/strategy.hpp"
#include "exec/worker.hpp"
#include "noise/executor.hpp"
#include "noise/program.hpp"
#include "noise/serialize.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "sim/density_matrix.hpp"
#include "sim/snapshot.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace {

using namespace charter;
using perfbench::Line;
using perfbench::now_s;
using perfbench::Span;
using perfbench::Tracer;

// Every analysis runs on 2 exec threads (set explicitly: 0 would mean
// "all cores" and make results host-dependent in speed).
constexpr int kThreads = 2;
constexpr std::int64_t kShots = 8192;
constexpr int kReversals = 5;
// service-repeat's cold set-ups (charterd start-ups) per run, half before
// and half after the timed window; setup_s is their median.
constexpr int kSetupReps = 31;
// Untraced Session runs make at least this many passes over their
// circuits, so every circuit's median analysis time has 5 samples.  A 20 s
// window holds about 6 passes of either Session workload.
constexpr std::size_t kMinPasses = 5;
// Analysis seeds of the Session workloads: 2022 + (seed mod 8).  The
// stored references cover exactly these.
constexpr std::uint64_t kSeedBase = 2022;
constexpr std::uint64_t kSeedPool = 8;
// service-repeat: fresh (circuit, seed) pairs per tenant and circuit.
// Tenant t draws seeds kServiceSeedBase + 2*i + t, i < kServicePool.  A
// 20 s window uses one per tenant, circuit and request block, about 70.  A
// tenant that runs out fails the run rather than turning fresh requests
// into repeats.
constexpr std::uint64_t kServiceSeedBase = 5000;
constexpr std::uint64_t kServicePool = 400;

struct Case {
  std::string key;
  int max_gates = 0;
};

struct Workload {
  std::string name;
  std::vector<Case> cases;
};

const std::vector<Case> kServiceCircuits = {
    {"qft3", 0}, {"grover3", 0}, {"adder4", 0}, {"tfim4", 0}, {"xy4", 0},
    {"hlf5", 0}, {"mult5", 0},   {"qaoa5", 0},  {"qaoa5p1", 0}};

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "dm-sweep")
    return Workload{name, {{"qft7", 32}, {"tfim8", 8}, {"adder9", 4}}};
  if (name == "trajectory-sweep")
    return Workload{name, {{"qaoa10p1", 1}, {"qaoa10", 1}}};
  if (name == "service-repeat") return Workload{name, kServiceCircuits};
  return std::nullopt;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
  std::string charterd;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--reference") a.reference = v == "1";
    else if (k == "--charterd") a.charterd = v;
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  return a;
}

// Mirrors the analyzer's per-circuit seed derivation (core/analyzer.cpp),
// so the decomposed probe reproduces a report bit for bit.  If the
// analyzer's derivation changes, the decomposition check fails loudly.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (tag + 1));
  return util::splitmix64(s);
}

// ---------------------------------------------------------------------------
// Host metadata (recorded per run, never a metric)
// ---------------------------------------------------------------------------

std::vector<long long> proc_stat_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::vector<long long> v;
  long long x = 0;
  while (v.size() < 10 && in >> x) v.push_back(x);
  return v;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// A fixed scalar loop in the benchmark's own code: its time tracks how
/// fast this host runs right now, independent of the library.
double reference_loop_s() {
  const double t0 = now_s();
  double x = 1.0;
  std::uint64_t s = 88172645463325252ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = x * 0.999999 + static_cast<double>(s & 0xff) * 1e-9;
  }
  const double t = now_s() - t0;
  if (x < 0) std::fprintf(stderr, "%g\n", x);  // keeps the loop alive
  return t;
}

void emit_host(const char* phase, const std::vector<long long>& cpu0) {
  const std::vector<long long> cpu1 = proc_stat_cpu();
  const auto delta = [&](std::size_t i) -> long long {
    return i < cpu0.size() && i < cpu1.size() ? cpu1[i] - cpu0[i] : 0;
  };
  std::string omp = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) != 0 && std::strncmp(*e, "GOMP_", 5) != 0)
      continue;
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    if (omp.size() > 1) omp += ',';
    omp += "\"" + service::json_escape(kv.substr(0, eq)) + "\":\"" +
           service::json_escape(kv.substr(eq + 1)) + "\"";
  }
  omp += "}";
  Line("host")
      .str("phase", phase)
      .num("reference_loop_s", reference_loop_s())
      .integer("steal_jiffies", delta(7))
      .integer("busy_jiffies", delta(0) + delta(2))
      .str("loadavg", read_first_line("/proc/loadavg"))
      .raw("omp_env", omp)
      .str("environment", backend::run_environment_summary())
      .emit();
}

// ---------------------------------------------------------------------------
// Analysis records
// ---------------------------------------------------------------------------

std::string strategy_jobs_json(const exec::BatchRunner::Stats& s) {
  const auto& j = s.strategy_jobs;
  return "[" + std::to_string(j.dm_exact) + "," + std::to_string(j.dm_fused) +
         "," + std::to_string(j.dm_fused_wide) + "," +
         std::to_string(j.trajectory) + "," +
         std::to_string(j.checkpoint_splice) + "]";
}

std::string impacts_json(const std::vector<std::size_t>& ops,
                         const std::vector<double>& tvd, bool want_ops) {
  std::string out = "[";
  char buf[40];
  for (std::size_t k = 0; k < (want_ops ? ops.size() : tvd.size()); ++k) {
    if (k) out += ',';
    if (want_ops) {
      out += std::to_string(ops[k]);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", tvd[k]);
      out += buf;
    }
  }
  return out + "]";
}

struct AnalysisInfo {
  std::string circuit;
  std::uint64_t seed = 0;
  double start = 0.0;
  double latency = 0.0;
  bool traced = false;
  int tenant = -1;
  bool repeat = false;
  std::size_t fetch_bytes = 0;
  std::string kind = "analysis";
};

void emit_analysis(const AnalysisInfo& info, const core::CharterReport& r) {
  std::vector<std::size_t> ops;
  std::vector<double> tvd;
  for (const core::GateImpact& g : r.impacts) {
    ops.push_back(g.op_index);
    tvd.push_back(g.tvd);
  }
  const exec::BatchRunner::Stats& s = r.exec_stats;
  Line(info.kind.c_str())
      .str("circuit", info.circuit)
      .integer("seed", static_cast<std::int64_t>(info.seed))
      .num("start", info.start)
      .num("latency_s", info.latency)
      .boolean("traced", info.traced)
      .integer("tenant", info.tenant)
      .boolean("repeat", info.repeat)
      .boolean("hit", s.jobs > 0 && s.cache_hits == s.jobs)
      .integer("jobs", static_cast<std::int64_t>(s.jobs))
      .integer("cache_hits", static_cast<std::int64_t>(s.cache_hits))
      .num("actual_ns", s.actual_ns)
      .integer("gates", static_cast<std::int64_t>(r.analyzed_gates))
      .integer("fetch_bytes", static_cast<std::int64_t>(info.fetch_bytes))
      .raw("sj", strategy_jobs_json(s))
      .raw("op", impacts_json(ops, tvd, true))
      .raw("tvd", impacts_json(ops, tvd, false))
      .emit();
}

void emit_error(const std::string& where, const std::string& what) {
  Line("error").str("where", where).str("what", what).emit();
}

void emit_check(const std::string& what, bool ok) {
  Line("check").str("what", what).boolean("ok", ok).emit();
}

// ---------------------------------------------------------------------------
// Session workloads: dm-sweep, trajectory-sweep
// ---------------------------------------------------------------------------

struct Prepared {
  Case c;
  std::shared_ptr<const backend::FakeBackend> backend;
  backend::CompiledProgram program;
  SessionConfig config;
  std::unique_ptr<Session> session;
  std::optional<core::CharterReport> last_report;  ///< from the timed loop
};

/// Caching is off, so every pass over the circuits does identical work.
SessionConfig session_config(const Case& c, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.shots(kShots).seed(seed).reversals(kReversals).max_gates(c.max_gates);
  cfg.execution()
      .threads(kThreads)
      .caching(false)
      .strategy(exec::StrategyKind::kAuto);
  return cfg;
}

/// One cold set-up: device construction, circuit build + compile, and one
/// Session per circuit.  Compile spans go to \p tr.
std::vector<Prepared> setup_sessions(const Workload& w, std::uint64_t seed,
                                     Tracer& tr) {
  std::vector<Prepared> out;
  std::shared_ptr<const backend::FakeBackend> lagos;
  std::shared_ptr<const backend::FakeBackend> guadalupe;
  const Span root(tr, "setup");
  for (const Case& c : w.cases) {
    const algos::AlgoSpec spec = algos::find_benchmark(c.key);
    // The CLI's device rule: up to 7 qubits on lagos, larger on guadalupe.
    auto& dev = spec.qubits <= 7 ? lagos : guadalupe;
    if (!dev)
      dev = std::make_shared<const backend::FakeBackend>(
          spec.qubits <= 7 ? backend::FakeBackend::lagos()
                           : backend::FakeBackend::guadalupe());
    backend::CompiledProgram program = [&] {
      const Span s(tr, "transpile.compile", root.id());
      return dev->compile(spec.build());
    }();
    const SessionConfig cfg = session_config(c, seed);
    auto session = std::make_unique<Session>(
        std::shared_ptr<const backend::Backend>(dev), cfg);
    out.push_back(Prepared{c, dev, std::move(program), cfg, std::move(session),
                           std::nullopt});
  }
  return out;
}

/// Closed loop over the workload's circuits: each analysis is submitted
/// only after the previous report arrived.  Runs until \p seconds have
/// passed, and at least \p min_passes whole passes over the circuits.
/// \p between runs before each analysis, outside its latency.
void session_loop(std::vector<Prepared>& ps, double seconds,
                  std::size_t min_passes, Tracer& tr, std::uint64_t& job,
                  const std::function<void()>& between) {
  const std::size_t n = ps.size();
  const double start = now_s();
  const double deadline = start + seconds;
  for (std::size_t k = 0;; ++k) {
    if (k >= min_passes * n && now_s() >= deadline) break;
    between();
    Prepared& p = ps[k % n];
    AnalysisInfo info;
    info.circuit = p.c.key;
    info.seed = p.config.seed();
    info.traced = tr.on();
    ++job;
    try {
      info.start = now_s();
      core::CharterReport report;
      if (tr.on()) {
        const Span a(tr, "session.analyze", -1, job);
        std::atomic<bool> seen{false};
        std::atomic<double> first{0.0};
        JobCallbacks cb;
        cb.on_progress = [&](const JobProgress&) {
          if (!seen.exchange(true)) first.store(now_s());
        };
        const double t_submit = now_s();
        const JobHandle h = p.session->submit(p.program, cb);
        const JobResult& r = h.wait();
        const double t_done = now_s();
        if (r.status != JobStatus::kDone)
          throw std::runtime_error("job " + to_string(r.status) + ": " +
                                   r.error);
        const double t_first = seen.load() ? first.load() : t_done;
        tr.record("session.prepare", t_submit, t_first, a.id(), job);
        tr.record("session.sweep", t_first, t_done, a.id(), job);
        report = r.report;
      } else {
        report = p.session->analyze(p.program);
      }
      info.latency = now_s() - info.start;
      emit_analysis(info, report);
      p.last_report = std::move(report);
    } catch (const std::exception& e) {
      emit_error("analyze " + p.c.key, e.what());
    }
  }
  Line("window").num("start", start).num("end", now_s()).emit();
}

// ---- per-layer probes (traced runs only) -----------------------------------

const char* kind_name(noise::TapeOpKind k) {
  switch (k) {
    case noise::TapeOpKind::kUnitary1q: return "unitary1q";
    case noise::TapeOpKind::kDiag1q: return "diag1q";
    case noise::TapeOpKind::kCx: return "cx";
    case noise::TapeOpKind::kDiag2q: return "diag2q";
    case noise::TapeOpKind::kThermal: return "thermal";
    case noise::TapeOpKind::kDepol1q: return "depol1q";
    case noise::TapeOpKind::kDepol2q: return "depol2q";
    case noise::TapeOpKind::kBitflip: return "bitflip";
    case noise::TapeOpKind::kKraus1q: return "kraus1q";
    case noise::TapeOpKind::kUnitary2q: return "unitary2q";
    case noise::TapeOpKind::kUnitary3q: return "unitary3q";
  }
  return "other";
}

/// Times every op of the exact base tape on its own via
/// NoiseProgram::run(engine, i, i+1) and reports time and calls per kind.
/// Bytes are computed, not measured: each op reads and writes all of
/// vec(rho), 2 * 16 * 4^n bytes.
void probe_kernels(const Prepared& p, const noise::NoiseProgram& tape) {
  const int n = tape.num_qubits();
  sim::DensityMatrixEngine engine(n);
  engine.reset();
  constexpr int kKinds = 11;
  double secs[kKinds] = {};
  std::size_t calls[kKinds] = {};
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const double t0 = now_s();
    tape.run(engine, i, i + 1);
    const int k = static_cast<int>(tape.op(i).kind);
    secs[k] += now_s() - t0;
    ++calls[k];
  }
  const double rho_bytes = 16.0 * std::pow(4.0, n);
  double total = 0.0;
  std::size_t total_calls = 0;
  for (int k = 0; k < kKinds; ++k) {
    total += secs[k];
    total_calls += calls[k];
    if (calls[k] == 0) continue;
    const std::string base =
        std::string("sim.dm_") + kind_name(static_cast<noise::TapeOpKind>(k));
    perfbench::layer((base + "_s").c_str(), secs[k]);
    perfbench::layer((base + "_calls").c_str(),
                     static_cast<double>(calls[k]));
    Line("detail")
        .str("circuit", p.c.key)
        .str("name", base + "_s")
        .num("value", secs[k])
        .emit();
  }
  perfbench::layer("sim.dm_all_s", total);
  perfbench::layer("sim.dm_bytes",
                   2.0 * rho_bytes * static_cast<double>(total_calls));
  Line("detail")
      .str("circuit", p.c.key)
      .str("name", "sim.dm_all_s")
      .num("value", total)
      .emit();
}

/// What probe_dm computed: the TVDs, which must equal the Session report's
/// bit for bit, and the analysis's jobs (original + reversed), ready for
/// exec::BatchRunner.  The jobs point into \p rev and the probed program.
struct DmProbe {
  std::vector<double> tvd;
  std::vector<backend::CompiledProgram> rev;
  std::vector<exec::AnalysisJob> jobs;
};

/// The analyzer's DM path taken apart: reversal, lowering, the checkpoint
/// base sweep, splice + replay per gate, finalize, and TVD — each phase in
/// its own span.  With \p ws set, every prepared resume is also serialized
/// and run by a worker child (the `--workers` IPC path).  Ends with the
/// per-op kernel timing.
DmProbe probe_dm(const Prepared& p, Tracer& tr, std::uint64_t job,
                 exec::WorkerSet* ws) {
  DmProbe out;
  const circ::Circuit& c = p.program.physical;
  const Span root(tr, "probe.dm", -1, job);
  const std::vector<std::size_t> chosen = core::subsample_evenly(
      core::reversible_ops(c, p.config.skip_rz()), p.c.max_gates);

  backend::RunOptions run = p.config.resolved().run;
  exec::strategy(exec::StrategyKind::kDmExact).prepare(run);
  const std::uint64_t base_seed = p.config.seed();

  std::vector<backend::CompiledProgram>& rev = out.rev;
  rev.assign(chosen.size(), p.program);
  {
    const Span s(tr, "core.reversal", root.id(), job);
    for (std::size_t k = 0; k < chosen.size(); ++k)
      rev[k].physical = core::insert_reversed_pairs(c, chosen[k], kReversals,
                                                    p.config.isolate());
  }
  std::optional<backend::LoweredRun> lowered_slot;
  std::optional<noise::NoiseProgram> base_tape;
  {
    const Span s(tr, "backend.lower", root.id(), job);
    backend::RunOptions lo;
    lo.drift = 0.0;
    lowered_slot = p.backend->lower(p.program, lo);
    base_tape = noise::lower(lowered_slot->model, lowered_slot->local);
  }
  const backend::LoweredRun& lowered = *lowered_slot;
  const noise::NoisyExecutor executor(lowered.model, noise::OptLevel::kExact,
                                      0);
  std::vector<std::size_t> prefix_lens;
  for (const std::size_t op : chosen) prefix_lens.push_back(op + 1);
  std::optional<exec::CheckpointPlan> plan;
  {
    const Span s(tr, "exec.base_sweep", root.id(), job);
    plan.emplace(executor, lowered.local, prefix_lens,
                 p.config.execution().checkpoint_memory_bytes());
  }

  const int n = lowered.local.num_qubits();
  sim::DensityMatrixEngine engine(n);
  std::vector<std::vector<double>> dists(chosen.size());
  double tape_ops = 0.0;
  std::size_t fallbacks = 0;
  bool workers_match = true;
  double shipped_tape_bytes = 0.0;
  double shipped_snap_bytes = 0.0;
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    backend::RunOptions run_k = run;
    run_k.seed = derive_seed(base_seed, chosen[k] + 1);
    const circ::Circuit derived =
        backend::compact_to(rev[k].physical, lowered.kept);
    std::optional<exec::CheckpointPlan::PreparedResume> prep;
    {
      const Span s(tr, "noise.splice", root.id(), job);
      prep = plan->prepare_shared(derived, chosen[k] + 1);
    }
    std::vector<double> probs;
    {
      const Span s(tr, "exec.replay", root.id(), job);
      if (prep) {
        engine.load_state(*prep->snapshot);
        prep->tape.run(engine, prep->resume_pos, prep->tape.size());
        tape_ops += static_cast<double>(prep->tape.size() - prep->resume_pos);
      } else {
        executor.run(derived, engine);
        ++fallbacks;
      }
      probs = engine.probabilities();
    }
    if (ws != nullptr && prep) {
      std::vector<std::uint8_t> tape_bytes;
      std::vector<std::uint8_t> snap_bytes;
      {
        const Span s(tr, "noise.tape_serialize", root.id(), job);
        tape_bytes = noise::serialize_tape(prep->tape);
      }
      {
        const Span s(tr, "sim.snapshot_serialize", root.id(), job);
        snap_bytes = sim::serialize_snapshot(n, *prep->snapshot);
      }
      {
        const Span s(tr, "noise.tape_deserialize", root.id(), job);
        (void)noise::deserialize_tape(tape_bytes);
      }
      {
        const Span s(tr, "sim.snapshot_deserialize", root.id(), job);
        (void)sim::deserialize_snapshot(snap_bytes);
      }
      shipped_tape_bytes += static_cast<double>(tape_bytes.size());
      shipped_snap_bytes += static_cast<double>(snap_bytes.size());
      std::optional<std::vector<double>> remote;
      {
        const Span s(tr, "exec.worker_unit", root.id(), job);
        remote = ws->worker(k % ws->size())
                     .run_tape(tape_bytes, prep->resume_pos, snap_bytes);
      }
      workers_match = workers_match && remote.has_value() && *remote == probs;
    }
    {
      const Span s(tr, "backend.finalize", root.id(), job);
      dists[k] = p.backend->finalize(std::move(probs), lowered, rev[k], run_k);
    }
  }
  backend::RunOptions orig_run = run;
  orig_run.seed = derive_seed(base_seed, 0);
  std::vector<double> orig;
  {
    const Span s(tr, "backend.finalize", root.id(), job);
    orig = p.backend->finalize(plan->base_probabilities(), lowered, p.program,
                               orig_run);
  }
  for (const std::vector<double>& d : dists)
    out.tvd.push_back(stats::tvd(orig, d));

  const exec::CheckpointPlan::Stats ps = plan->stats();
  perfbench::layer("noise.tape_ops", tape_ops);
  perfbench::layer("exec.replayed_ops", static_cast<double>(ps.replayed_ops));
  perfbench::layer("exec.resumed", static_cast<double>(ps.resumed));
  perfbench::layer("exec.resume_jobs", static_cast<double>(chosen.size()));
  Line("layer_max")
      .str("name", "exec.snapshot_mb")
      .num("value", static_cast<double>(plan->num_checkpoints()) * 16.0 *
                        std::pow(4.0, n) / (1 << 20))
      .emit();
  if (ws != nullptr) {
    perfbench::layer("noise.tape_bytes", shipped_tape_bytes);
    perfbench::layer("sim.snapshot_bytes", shipped_snap_bytes);
    emit_check("worker units equal in-process replay " + p.c.key,
               workers_match);
  }
  if (fallbacks > 0) emit_error("probe " + p.c.key, "checkpoint fallback");
  probe_kernels(p, *base_tape);
  out.jobs.push_back({&p.program, orig_run, c.size()});
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    backend::RunOptions run_k = run;
    run_k.seed = derive_seed(base_seed, chosen[k] + 1);
    out.jobs.push_back({&rev[k], run_k, chosen[k] + 1});
  }
  return out;
}

/// The trajectory path taken apart for the original circuit: lowering,
/// wide fusion (measured, not used by the exact tape), and each unravelling
/// group.  Returns the finalized original distribution, which must equal
/// the Session report's.
std::vector<double> probe_trajectory(const Prepared& p, Tracer& tr,
                                     std::uint64_t job) {
  const circ::Circuit& c = p.program.physical;
  const Span root(tr, "probe.trajectory", -1, job);
  const std::vector<std::size_t> chosen = core::subsample_evenly(
      core::reversible_ops(c, p.config.skip_rz()), p.c.max_gates);
  {
    const Span s(tr, "core.reversal", root.id(), job);
    for (const std::size_t op : chosen)
      (void)core::insert_reversed_pairs(c, op, kReversals, p.config.isolate());
  }
  backend::RunOptions run = p.config.resolved().run;
  exec::strategy(exec::StrategyKind::kTrajectory).prepare(run);
  run.seed = derive_seed(p.config.seed(), 0);

  std::optional<backend::LoweredRun> lowered;
  std::optional<noise::NoiseProgram> tape;
  {
    const Span s(tr, "backend.lower", root.id(), job);
    lowered = p.backend->lower(p.program, run);
    tape = noise::NoisyExecutor(lowered->model, noise::OptLevel::kExact)
               .lower(lowered->local);
  }
  {
    const Span s(tr, "noise.fused_wide", root.id(), job);
    const noise::NoiseProgram wide = noise::fused_wide(*tape);
    perfbench::layer("noise.fused_wide_ops_in",
                     static_cast<double>(tape->size()));
    perfbench::layer("noise.fused_wide_ops_out",
                     static_cast<double>(wide.size()));
  }
  const int n = lowered->local.num_qubits();
  const int groups = sim::num_trajectory_groups(run.trajectories);
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(groups));
  const util::Rng seeder(run.seed ^ backend::kTrajectorySeedSalt);
  for (int g = 0; g < groups; ++g) {
    const int begin = g * sim::kTrajectoryGroupSize;
    const int end = std::min(begin + sim::kTrajectoryGroupSize,
                             run.trajectories);
    const Span s(tr, "sim.traj_group", root.id(), job);
    partial[static_cast<std::size_t>(g)] = sim::run_trajectory_group(
        n, begin, end, seeder,
        [&](sim::NoisyEngine& engine) { tape->execute(engine); });
  }
  perfbench::layer("noise.tape_ops",
                   static_cast<double>(tape->size()) * run.trajectories);
  const Span s(tr, "backend.finalize", root.id(), job);
  return p.backend->finalize(
      sim::fold_trajectory_groups(partial, std::uint64_t{1} << n,
                                  run.trajectories),
      *lowered, p.program, run);
}

/// api.overhead_s: Session::analyze minus a direct CharterAnalyzer::analyze
/// of the same program and configuration, the median of 3 such pairs.  The
/// untraced Session analyses are recorded too: against the traced loop's
/// analyses of the same circuit they give the tracing overhead.
void probe_api_overhead(Prepared& p) {
  const core::CharterAnalyzer direct(*p.backend, p.config.resolved());
  std::vector<double> diffs;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    (void)direct.analyze(p.program);
    const double direct_s = now_s() - t0;
    AnalysisInfo info;
    info.circuit = p.c.key;
    info.seed = p.config.seed();
    info.start = now_s();
    const core::CharterReport report = p.session->analyze(p.program);
    info.latency = now_s() - info.start;
    emit_analysis(info, report);
    diffs.push_back(info.latency - direct_s);
  }
  std::sort(diffs.begin(), diffs.end());
  perfbench::layer("api.overhead_s", diffs[1]);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Decomposes every circuit's DM analysis (probe_dm) and checks it bit for
/// bit against the circuit's Session report.  With \p worker_exe set, every
/// unit also goes through 2 `<worker_exe> worker --fd N` children, as
/// `--workers 2` ships them.  The decomposition runs on a util::ThreadPool
/// worker, so its kernels run serially, as on the Session's pool workers.
void probe_dm_cases(std::vector<Prepared>& ps, Tracer& tr, std::uint64_t& job,
                    const std::string& worker_exe) {
  std::optional<exec::WorkerSet> ws;
  for (int rep = 0; !worker_exe.empty() && rep < 5; ++rep) {
    ws.reset();
    const Span s(tr, "exec.worker_spawn", -1, job);
    ws.emplace(2, worker_exe);
  }
  util::ThreadPool serial(1);
  for (Prepared& p : ps) {
    ++job;
    if (!p.last_report) {
      emit_error("probe " + p.c.key, "no Session report to compare with");
      continue;
    }
    DmProbe d;
    serial.run(1, [&](std::int64_t, int) {
      d = probe_dm(p, tr, job, ws ? &*ws : nullptr);
    });
    if (&p == &ps.front()) {
      // The same jobs through BatchRunner on kThreads, from this thread as
      // Session runs them: the parallel time the serial phases above are
      // compared with (exec.parallel_eff).
      exec::BatchOptions bo;
      bo.threads = kThreads;
      bo.caching = false;
      const Span s(tr, "exec.batch", -1, job);
      (void)exec::BatchRunner(*p.backend, bo).run(d.jobs, &p.program);
    }
    std::vector<double> want;
    for (const core::GateImpact& g : p.last_report->impacts)
      want.push_back(g.tvd);
    emit_check("decomposed TVDs equal Session report " + p.c.key,
               same_bits(d.tvd, want));
  }
}

void run_session_probes(const Workload& w, std::vector<Prepared>& ps,
                        Tracer& tr, std::uint64_t& job) {
  if (w.name == "dm-sweep") {
    probe_dm_cases(ps, tr, job, "");
  } else {
    for (Prepared& p : ps) {
      ++job;
      if (!p.last_report) {
        emit_error("probe " + p.c.key, "no report from the timed loop");
        continue;
      }
      const std::vector<double> orig = probe_trajectory(p, tr, job);
      emit_check("decomposed original distribution equals Session report " +
                     p.c.key,
                 same_bits(orig, p.last_report->original_distribution));
    }
  }
  probe_api_overhead(ps.front());
}

// Peak resident set (MiB) of the process that simulates: this process
// (\p self), or the largest waited-for child (\p children: charterd).
double peak_rss_mb(bool self, bool children) {
  double kb = 0.0;
  rusage ru{};
  if (self && getrusage(RUSAGE_SELF, &ru) == 0)
    kb = std::max(kb, static_cast<double>(ru.ru_maxrss));
  if (children && getrusage(RUSAGE_CHILDREN, &ru) == 0)
    kb = std::max(kb, static_cast<double>(ru.ru_maxrss));
  return kb / 1024.0;
}

void run_session_workload(const Workload& w, const Args& a) {
  const std::uint64_t seed = kSeedBase + a.seed % kSeedPool;
  Tracer off(false);
  Tracer tr(a.trace);
  const auto timed_setup = [&](Tracer& t) {
    const double t0 = now_s();
    std::vector<Prepared> fresh = setup_sessions(w, seed, t);
    Line("setup").num("seconds", now_s() - t0).emit();
    return fresh;
  };
  std::vector<Prepared> ps = timed_setup(tr);

  // A set-up takes a few ms, so set-ups made back to back would all
  // sample the same moment of the host's speed.  One more cold set-up
  // (thrown away) runs before each analysis, outside its latency;
  // setup_s is the median of them all.
  std::uint64_t job = 0;
  session_loop(ps, a.seconds, a.trace ? 1 : kMinPasses, tr, job,
               [&] { (void)timed_setup(off); });
  if (a.trace) run_session_probes(w, ps, tr, job);
  ps.clear();
  Line("rss").num("peak_mb", peak_rss_mb(true, false)).emit();
  tr.flush();
}

// ---------------------------------------------------------------------------
// service-repeat: a charterd child, two tenants, closed loops
// ---------------------------------------------------------------------------

/// A charterd child: spawned and pinged until ready on construction,
/// drained (SIGTERM, the same as a `shutdown` request) and reaped on
/// destruction, so no exit path of the harness leaves it running.
class Daemon {
 public:
  Daemon(const Args& a, const std::string& dir) : socket_(dir + "/s.sock") {
    ::mkdir(dir.c_str(), 0755);
    const std::string log = dir + "/charterd.log";
    // Memory tier only (an explicit empty --cache-dir also overrides
    // $CHARTER_CACHE_DIR): the disk tier's small-file writes swing several
    // times over on this kind of host, so they are timed by their own
    // probe (exec.disk_*) instead of inside the timed window.
    std::vector<std::string> argv_s = {a.charterd, "--socket", socket_,
                                       "--backend", "lagos",   "--threads",
                                       std::to_string(kThreads),
                                       "--cache-dir", ""};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, a.charterd.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
      throw std::runtime_error("cannot spawn " + a.charterd + ": " +
                               std::strerror(rc));
    // Ready = the first successful ping.
    const double deadline = now_s() + 30.0;
    for (;;) {
      try {
        service::Client cl(socket_);
        if (cl.call_raw("{\"op\":\"ping\"}").find("\"ok\":true") !=
            std::string::npos)
          return;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_)
        throw std::runtime_error("charterd exited during start-up (see " +
                                 log + ")");
      if (now_s() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        throw std::runtime_error("charterd did not answer ping within 30 s");
      }
      usleep(50);
    }
  }
  ~Daemon() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

std::uint64_t service_seed(std::uint64_t index, int tenant) {
  return kServiceSeedBase + 2 * index + static_cast<std::uint64_t>(tenant);
}

const service::JsonValue& member(const service::JsonValue& v,
                                 const std::string& key) {
  const service::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("response lacks '" + key + "'");
  return *m;
}

/// One tenant's request stream, in blocks of 2 requests per circuit: one
/// fresh and one repeat, in an order drawn from the benchmark seed, the
/// fresh one first.  Every block costs the same, so the seed moves which
/// pairs are requested and in what order, never the mix.  A repeat
/// re-requests one of this tenant's own completed pairs of that circuit,
/// so it is always a memory-tier hit; fresh seeds are disjoint between
/// tenants.
struct Tenant {
  int id = 0;
  util::Rng rng;
  std::vector<std::uint64_t> fresh_next;
  std::vector<std::vector<std::uint64_t>> done;  ///< seeds done, per circuit
  std::vector<std::pair<std::size_t, bool>> block;  ///< (circuit, repeat)
  std::size_t next = 0;                             ///< position in block
  std::uint64_t rotation = 0;

  Tenant(int t, std::uint64_t bench_seed)
      : id(t),
        rng(bench_seed * 1000003ULL + 17ULL * static_cast<std::uint64_t>(t) +
            0x5eedULL),
        fresh_next(kServiceCircuits.size(), 0),
        done(kServiceCircuits.size()) {
    std::uint64_t s = bench_seed + 0x51ULL;
    rotation = util::splitmix64(s);
  }

  /// The next (circuit, repeat) request.
  std::pair<std::size_t, bool> draw() {
    if (next == block.size()) {
      block.clear();
      for (std::size_t c = 0; c < kServiceCircuits.size(); ++c) {
        block.emplace_back(c, false);
        block.emplace_back(c, true);
      }
      for (std::size_t i = block.size() - 1; i > 0; --i)
        std::swap(block[i], block[rng.uniform_int(i + 1)]);
      // Each circuit's fresh request precedes its repeat.
      std::vector<bool> seen(kServiceCircuits.size(), false);
      for (auto& [c, repeat] : block) {
        repeat = seen[c];
        seen[c] = true;
      }
      next = 0;
    }
    return block[next++];
  }
};

/// With \p traced set, every other request is traced (the tracing
/// overhead is their latency ratio).
void tenant_loop(Tenant& t, const std::string& socket, double deadline,
                 Tracer* traced, std::atomic<std::uint64_t>& job_tag) {
  Tracer off(false);
  service::Client cl(socket);
  for (std::size_t k = 0; now_s() < deadline; ++k) {
    Tracer& tr = traced != nullptr && k % 2 == 1 ? *traced : off;
    const auto [circuit, repeat] = t.draw();
    const std::string& key = kServiceCircuits[circuit].key;
    if (!repeat && t.fresh_next[circuit] >= kServicePool) {
      // Forcing a repeat here would shift the hit share with speed.
      emit_error("tenant " + std::to_string(t.id),
                 "fresh-seed pool of " + key +
                     " exhausted; raise kServicePool and regenerate the "
                     "reference");
      break;
    }
    const std::vector<std::uint64_t>& done = t.done[circuit];
    std::uint64_t seed = 0;
    if (repeat) {
      if (done.empty()) {  // its fresh request failed
        emit_error("tenant " + std::to_string(t.id),
                   "no completed pair of " + key);
        continue;
      }
      seed = done[t.rng.uniform_int(done.size())];
    } else {
      const std::uint64_t i =
          (t.fresh_next[circuit]++ + t.rotation + 31 * circuit) %
          kServicePool;
      seed = service_seed(i, t.id);
    }
    const std::uint64_t job = ++job_tag;
    AnalysisInfo info;
    info.circuit = key;
    info.seed = seed;
    info.traced = tr.on();
    info.tenant = t.id;
    info.repeat = repeat;
    try {
      info.start = now_s();
      const Span root(tr, "service.request", -1, job);
      std::string id;
      {
        const Span s(tr, "service.submit", root.id(), job);
        const service::JsonValue r = cl.call(
            "{\"op\":\"submit\",\"tenant\":\"tenant-" + std::to_string(t.id) +
            "\",\"benchmark\":\"" + key +
            "\",\"seed\":" + std::to_string(seed) + "}");
        if (!member(r, "ok").boolean)
          throw std::runtime_error("submit refused: " +
                                   member(r, "error").string);
        id = std::to_string(
            static_cast<std::uint64_t>(member(r, "job").number));
      }
      {
        const Span s(tr, "service.wait", root.id(), job);
        const service::JsonValue r =
            cl.call("{\"op\":\"wait\",\"job\":" + id + "}");
        if (member(r, "status").string != "done")
          throw std::runtime_error("job " + id + " ended " +
                                   member(r, "status").string);
      }
      core::CharterReport report;
      {
        const Span s(tr, "service.fetch", root.id(), job);
        const std::string line =
            cl.call_raw("{\"op\":\"fetch\",\"job\":" + id + "}");
        info.fetch_bytes = line.size();
        core::GoldenReport g = core::report_from_json(
            service::Client::extract_report_json(line));
        report = std::move(g.report);
        report.exec_stats = g.exec;
      }
      info.latency = now_s() - info.start;
      emit_analysis(info, report);
      if (!repeat) t.done[circuit].push_back(seed);
    } catch (const std::exception& e) {
      emit_error("request " + key, e.what());
    }
  }
}

void service_window(std::vector<Tenant>& tenants, const std::string& socket,
                    double seconds, Tracer* traced,
                    std::atomic<std::uint64_t>& job_tag) {
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (Tenant& t : tenants)
    threads.emplace_back([&, tp = &t] {
      try {
        tenant_loop(*tp, socket, deadline, traced, job_tag);
      } catch (const std::exception& e) {
        emit_error("tenant", e.what());
      }
    });
  for (std::thread& th : threads) th.join();
  Line("window").num("start", start).num("end", now_s()).emit();
}

/// Cache tiers timed on the workload's own keys: the run keys of the
/// original and reversed circuits of the first pair \p t completed for
/// each of the first 6 circuits.
void probe_cache_tiers(const Tenant& t, const std::string& dir, Tracer& tr) {
  const backend::FakeBackend lagos = backend::FakeBackend::lagos();
  const std::optional<exec::Fingerprint> device = exec::fingerprint(lagos);
  exec::RunCache memory;
  exec::DiskCacheTier disk(dir + "/tier", 1ull << 30);
  for (std::size_t circuit = 0; circuit < 6; ++circuit) {
    if (t.done[circuit].empty()) continue;
    const std::uint64_t seed = t.done[circuit].front();
    const backend::CompiledProgram program =
        lagos.compile(algos::find_benchmark(kServiceCircuits[circuit].key)
                          .build());
    SessionConfig cfg;
    cfg.shots(kShots).seed(seed).reversals(kReversals);
    backend::RunOptions run = cfg.resolved().run;
    exec::strategy(exec::StrategyKind::kDmExact).prepare(run);
    const std::vector<double> dist(
        std::size_t{1} << program.num_logical, 1.0 / 8192);
    std::vector<exec::Fingerprint> keys;
    const circ::Circuit& c = program.physical;
    for (const std::size_t op : core::reversible_ops(c, true)) {
      backend::CompiledProgram rev = program;
      rev.physical = core::insert_reversed_pairs(c, op, kReversals, true);
      backend::RunOptions r = run;
      r.seed = derive_seed(seed, op + 1);
      keys.push_back(exec::run_key(rev, *device, r));
    }
    for (const exec::Fingerprint& k : keys) {
      {
        const Span s(tr, "exec.cache_store");
        memory.store(k, dist);
      }
      {
        const Span s(tr, "exec.disk_store");
        disk.store(k, dist);
      }
    }
    for (const exec::Fingerprint& k : keys) {
      std::optional<std::vector<double>> hit;
      {
        const Span s(tr, "exec.cache_lookup");
        hit = memory.lookup(k);
      }
      {
        const Span s(tr, "exec.disk_load");
        hit = disk.load(k);
      }
      if (!hit) emit_error("cache probe", "stored key missed");
    }
  }
}

/// service.handle_fetch_us: Service::handle_line for a fetch, in process.
void probe_handle_fetch(Tracer& tr) {
  const backend::FakeBackend lagos = backend::FakeBackend::lagos();
  service::SchedulerOptions so;
  so.threads = kThreads;
  service::Scheduler scheduler(lagos, so);
  const SessionConfig base =
      SessionConfig().shots(kShots).seed(kServiceSeedBase).reversals(
          kReversals);
  service::Service svc(lagos, base, service::ServiceLimits{}, scheduler);
  const service::JsonValue r = service::parse_json(svc.handle_line(
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"detach\":true}", 1));
  const std::string id =
      std::to_string(static_cast<std::uint64_t>(member(r, "job").number));
  (void)svc.handle_line("{\"op\":\"wait\",\"job\":" + id + "}", 1);
  for (int i = 0; i < 50; ++i) {
    const Span s(tr, "service.handle_fetch");
    (void)svc.handle_line("{\"op\":\"fetch\",\"job\":" + id + "}", 1);
  }
  scheduler.request_drain();
  scheduler.wait_until_drained();
}

void run_service_workload(const Args& a) {
  if (a.charterd.empty()) throw std::runtime_error("--charterd is required");
  Tracer tr(a.trace);
  std::optional<Daemon> d;
  int reps = 0;
  const auto timed_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      d.reset();
      const std::string dir = a.work_dir + "/d" + std::to_string(reps++);
      const double t0 = now_s();
      d.emplace(a, dir);
      Line("setup").num("seconds", now_s() - t0).emit();
    }
  };
  // Back to back, all set-ups would sample the same moment of the host's
  // speed; the last daemon started before the window serves it.
  timed_setups(kSetupReps / 2 + 1);

  std::vector<Tenant> tenants;
  for (int t = 0; t < 2; ++t) tenants.emplace_back(t, a.seed);
  std::atomic<std::uint64_t> job_tag{0};
  if (a.trace) {
    service_window(tenants, d->socket(), a.seconds, &tr, job_tag);
    {
      service::Client cl(d->socket());
      for (int i = 0; i < 200; ++i) {
        const Span s(tr, "service.ping");
        (void)cl.call_raw("{\"op\":\"ping\"}");
      }
      const service::JsonValue st = cl.call("{\"op\":\"stats\"}");
      const service::JsonValue& mem =
          member(member(member(st, "cache"), "memory"), "hits");
      const service::JsonValue& miss =
          member(member(member(st, "cache"), "memory"), "misses");
      perfbench::layer("exec.cache_hits", mem.number);
      perfbench::layer("exec.cache_misses", miss.number);
    }
    probe_handle_fetch(tr);
    probe_cache_tiers(tenants.front(), a.work_dir, tr);
    // The service circuits' DM path taken apart, in process: lowering,
    // reversal, splice and finalize weigh most on circuits this small.
    // Their units also go through worker children (3-5 qubits, below the
    // size where `--workers` children oversubscribe the cores).
    std::vector<Prepared> ps = setup_sessions(
        Workload{"service-repeat", kServiceCircuits}, kServiceSeedBase, tr);
    for (Prepared& p : ps) p.last_report = p.session->analyze(p.program);
    std::uint64_t job = job_tag.load();
    probe_dm_cases(ps, tr, job, a.charterd);
  } else {
    service_window(tenants, d->socket(), a.seconds, nullptr, job_tag);
  }
  timed_setups(kSetupReps / 2);
  d.reset();
  Line("rss").num("peak_mb", peak_rss_mb(false, true)).emit();
  tr.flush();
}

// ---------------------------------------------------------------------------
// Reference mode: every (circuit, seed) pair a run can request, computed
// in process through Session.  run.py stores the records.
// ---------------------------------------------------------------------------

void run_reference(const Workload& w) {
  Tracer off(false);
  if (w.name == "service-repeat") {
    const auto lagos = std::make_shared<const backend::FakeBackend>(
        backend::FakeBackend::lagos());
    for (const Case& c : w.cases) {
      const backend::CompiledProgram program =
          lagos->compile(algos::find_benchmark(c.key).build());
      for (int t = 0; t < 2; ++t) {
        for (std::uint64_t i = 0; i < kServicePool; ++i) {
          const std::uint64_t seed = service_seed(i, t);
          // charterd's configuration: its base config with the request's
          // seed, caching on, the pool width set by --threads.
          SessionConfig cfg;
          cfg.shots(kShots).seed(seed).reversals(kReversals);
          cfg.execution().threads(kThreads);
          Session session(lagos, cfg);
          AnalysisInfo info;
          info.kind = "reference";
          info.circuit = c.key;
          info.seed = seed;
          emit_analysis(info, session.analyze(program));
        }
      }
    }
    return;
  }
  for (std::uint64_t s = 0; s < kSeedPool; ++s) {
    std::vector<Prepared> ps = setup_sessions(w, kSeedBase + s, off);
    for (Prepared& p : ps) {
      AnalysisInfo info;
      info.kind = "reference";
      info.circuit = p.c.key;
      info.seed = kSeedBase + s;
      emit_analysis(info, p.session->analyze(p.program));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const std::optional<Workload> w = find_workload(a.workload);
    if (!w) throw std::runtime_error("unknown workload '" + a.workload + "'");
    (void)now_s();
    if (a.reference) {
      run_reference(*w);
      std::fflush(stdout);
      return 0;
    }
    const std::vector<long long> cpu0 = proc_stat_cpu();
    emit_host("start", cpu0);
    if (w->name == "service-repeat") run_service_workload(a);
    else run_session_workload(*w, a);
    emit_host("end", cpu0);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
