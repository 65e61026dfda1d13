#include "core/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>

#include "exec/strategy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charter::core {

using backend::CompiledProgram;
using circ::GateKind;

std::vector<double> CharterReport::scores() const {
  std::vector<double> s;
  s.reserve(impacts.size());
  for (const GateImpact& g : impacts) s.push_back(g.tvd);
  return s;
}

stats::Correlation CharterReport::layer_correlation() const {
  std::vector<double> layers;
  layers.reserve(impacts.size());
  for (const GateImpact& g : impacts)
    layers.push_back(static_cast<double>(g.layer));
  return stats::pearson(scores(), layers);
}

stats::Correlation CharterReport::validation_correlation() const {
  std::vector<double> vs_ideal;
  vs_ideal.reserve(impacts.size());
  for (const GateImpact& g : impacts) vs_ideal.push_back(g.tvd_vs_ideal);
  return stats::pearson(vs_ideal, scores());
}

double CharterReport::qubit_coverage(double fraction, int num_qubits) const {
  if (impacts.empty() || num_qubits <= 0) return 0.0;
  const std::vector<double> s = scores();
  const std::vector<std::size_t> top = stats::top_fraction(s, fraction);
  std::set<int> seen;
  for (const std::size_t idx : top) {
    const GateImpact& g = impacts[idx];
    for (int k = 0; k < g.num_qubits; ++k) seen.insert(g.qubits[static_cast<std::size_t>(k)]);
  }
  return static_cast<double>(seen.size()) / static_cast<double>(num_qubits);
}

CharterReport::OneQubitExceed CharterReport::one_qubit_above_min_cx() const {
  OneQubitExceed out;
  double min_cx = -1.0;
  for (const GateImpact& g : impacts) {
    if (g.kind == GateKind::CX)
      min_cx = (min_cx < 0.0) ? g.tvd : std::min(min_cx, g.tvd);
  }
  for (const GateImpact& g : impacts) {
    if (g.kind == GateKind::SX || g.kind == GateKind::SXDG ||
        g.kind == GateKind::X) {
      ++out.one_qubit_total;
      if (min_cx >= 0.0 && g.tvd > min_cx) ++out.count;
    }
  }
  if (out.one_qubit_total > 0 && min_cx >= 0.0)
    out.fraction = static_cast<double>(out.count) /
                   static_cast<double>(out.one_qubit_total);
  return out;
}

std::vector<GateImpact> CharterReport::sorted_by_impact() const {
  std::vector<GateImpact> sorted = impacts;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const GateImpact& a, const GateImpact& b) {
                     return a.tvd > b.tvd;
                   });
  return sorted;
}

CharterAnalyzer::CharterAnalyzer(const backend::Backend& backend,
                                 CharterOptions options)
    : backend_(backend), options_(std::move(options)) {
  require(options_.reversals >= 1, "need at least one reversal");
}

std::vector<std::size_t> subsample_evenly(
    const std::vector<std::size_t>& indices, int limit) {
  if (limit <= 0 || static_cast<int>(indices.size()) <= limit) return indices;
  // A single pick cannot use the ends-preserving stride below (the stride
  // divides by limit - 1); take the middle element as the representative.
  if (limit == 1) return {indices[indices.size() / 2]};
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(limit));
  const double step = static_cast<double>(indices.size() - 1) /
                      static_cast<double>(limit - 1);
  std::size_t last = indices.size();  // sentinel
  for (int k = 0; k < limit; ++k) {
    const std::size_t pick = static_cast<std::size_t>(
        std::min<double>(std::llround(k * step),
                         static_cast<double>(indices.size() - 1)));
    if (pick != last) out.push_back(indices[pick]);
    last = pick;
  }
  return out;
}

namespace {

/// Per-circuit seed derivation: mixes the base seed with a circuit tag so
/// each run (original, every reversed circuit) gets an independent stream
/// for drift/trajectories/shots.  Under common random numbers every circuit
/// uses tag 0 — the original run's stream.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (tag + 1));
  return util::splitmix64(s);
}

/// Sums one chunk's execution stats into the sweep total, field by field
/// (BatchRunner::Stats has no operator+= by design — the report's exec
/// block enumerates exactly these fields, and a new field must be added
/// here *and* in report_io.cpp deliberately).
void accumulate_stats(exec::BatchRunner::Stats& total,
                      const exec::BatchRunner::Stats& s) {
  total.jobs += s.jobs;
  total.cache_hits += s.cache_hits;
  total.cache_memory_hits += s.cache_memory_hits;
  total.cache_disk_hits += s.cache_disk_hits;
  total.checkpointed += s.checkpointed;
  total.trajectory_checkpointed += s.trajectory_checkpointed;
  total.full_runs += s.full_runs;
  total.checkpoint_fallbacks += s.checkpoint_fallbacks;
  total.worker_jobs += s.worker_jobs;
  total.worker_failures += s.worker_failures;
  total.worker_retried_jobs += s.worker_retried_jobs;
  total.strategy_jobs.dm_exact += s.strategy_jobs.dm_exact;
  total.strategy_jobs.dm_fused += s.strategy_jobs.dm_fused;
  total.strategy_jobs.dm_fused_wide += s.strategy_jobs.dm_fused_wide;
  total.strategy_jobs.trajectory += s.strategy_jobs.trajectory;
  total.strategy_jobs.checkpoint_splice += s.strategy_jobs.checkpoint_splice;
  total.actual_ns += s.actual_ns;
  total.trajectories_budgeted += s.trajectories_budgeted;
  total.trajectories_executed += s.trajectories_executed;
  total.gates_settled_early += s.gates_settled_early;
}

/// Bridges AnalysisHooks to the exec layer: serializes job-completion
/// events from the pool workers into a strictly monotone (completed, total)
/// progress stream, and forwards the cancellation flag.  One relay spans
/// every chunk of a sweep, so the count never restarts mid-analysis.
class ProgressRelay {
 public:
  ProgressRelay(const AnalysisHooks* hooks, std::size_t total_runs)
      : hooks_(hooks), total_runs_(total_runs) {
    if (hooks_ == nullptr) return;
    if (hooks_->on_progress) {
      run_hooks_.on_job_complete = [this](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++completed_;
        hooks_->on_progress(completed_, total_runs_);
      };
    }
    run_hooks_.cancel = hooks_->cancel;
  }

  /// Hooks to hand to BatchRunner::run (nullptr when nothing to observe).
  const exec::RunHooks* run_hooks() const {
    return hooks_ != nullptr ? &run_hooks_ : nullptr;
  }

 private:
  const AnalysisHooks* hooks_;
  const std::size_t total_runs_;
  exec::RunHooks run_hooks_;
  std::mutex mu_;
  std::size_t completed_ = 0;
};

}  // namespace

CharterReport CharterAnalyzer::analyze(const CompiledProgram& program,
                                       const AnalysisHooks* hooks) const {
  CharterReport report;
  const circ::Circuit& c = program.physical;

  const std::vector<std::size_t> all_ops = reversible_ops(c, false);
  const std::vector<std::size_t> eligible =
      reversible_ops(c, options_.skip_rz);
  const std::vector<std::size_t> chosen =
      subsample_evenly(eligible, options_.max_gates);
  report.total_gates = all_ops.size();
  report.eligible_gates = eligible.size();
  report.analyzed_gates = chosen.size();

  const circ::Layering layering = circ::assign_layers(c);

  if (options_.compute_validation)
    report.ideal_distribution = backend_.ideal(program);

  // Submit the original plus one reversed circuit per analyzed gate through
  // the batch runner, which parallelizes across the worker pool and, when
  // sharing applies (density matrix, drift == 0), lowers the base circuit
  // to a NoiseProgram tape once, splices each reversed circuit's G-G†
  // insertion into it, and resumes from a prefix-state checkpoint instead
  // of re-simulating (or re-lowering) ops [0, i].  Reversed
  // circuits are materialized in bounded chunks so peak memory stays
  // O(chunk * circuit) rather than O(G^2) on large programs; each chunk
  // shares the same base, so checkpoint sharing is preserved.
  const exec::BatchRunner runner(backend_, options_.exec);
  exec::BatchRunner::Stats total_stats;
  report.impacts.resize(chosen.size());
  const int width = options_.exec.pool != nullptr
                        ? options_.exec.pool->num_workers()
                        : util::resolve_threads(options_.exec.threads);
  const std::size_t chunk_size =
      std::max<std::size_t>(256, 8 * static_cast<std::size_t>(width));
  ProgressRelay relay(hooks, chosen.size() + 1);

  // Plan the execution strategy once for the whole family: every chunk of
  // one sweep runs the same prepared RunOptions.
  exec::StrategyContext sctx;
  sctx.width = static_cast<int>(backend::used_qubits(program).size());
  sctx.jobs = chosen.size() + 1;
  sctx.run = options_.run;
  sctx.lowering = backend_.supports_lowering();
  const exec::Decision decision =
      exec::plan_family(options_.strategy, options_.budget, sctx);

  backend::RunOptions orig_run = decision.run;
  orig_run.seed = derive_seed(options_.run.seed, 0);

  if (decision.adaptive && !chosen.empty()) {
    // Adaptive early termination (BudgetMode::kAdaptive, trajectory
    // family).  The original still goes through the batch runner with its
    // full budget — it is the reference every TVD compares against, so it
    // never terminates early and stays cacheable.  The reversed family
    // then runs as ONE adaptive sweep, not in chunks: the sequential test
    // stops a gate when its confidence interval separates from its *rank
    // neighbors*, and rank is only defined across the whole family.  Peak
    // memory is O(G * circuit) here — adaptive mode trades the chunked
    // path's bounded footprint for fewer simulated trajectories.
    const std::vector<std::vector<double>> orig_dists =
        runner.run({{&program, orig_run, c.size()}}, &program,
                   relay.run_hooks());
    accumulate_stats(total_stats, runner.last_stats());
    report.original_distribution = orig_dists[0];

    std::vector<CompiledProgram> reversed;
    reversed.reserve(chosen.size());
    std::vector<exec::AdaptiveJob> ajobs;
    ajobs.reserve(chosen.size());
    for (const std::size_t op_index : chosen) {
      CompiledProgram rev = program;
      rev.physical = insert_reversed_pairs(c, op_index, options_.reversals,
                                           options_.isolate);
      reversed.push_back(std::move(rev));
      backend::RunOptions run = decision.run;
      run.seed = options_.common_random_numbers
                     ? orig_run.seed
                     : derive_seed(options_.run.seed, op_index + 1);
      ajobs.push_back({&reversed.back(), run});
    }

    exec::AdaptiveOptions aopts;
    aopts.pool = options_.exec.pool;
    aopts.threads = options_.exec.threads;
    aopts.hooks = relay.run_hooks();
    const auto t0 = std::chrono::steady_clock::now();
    const exec::AdaptiveResult ares = exec::run_adaptive_trajectory_sweep(
        backend_, ajobs, report.original_distribution, aopts);
    total_stats.jobs += ajobs.size();
    total_stats.full_runs += ajobs.size();
    total_stats.trajectories_budgeted += ares.trajectories_budgeted;
    total_stats.trajectories_executed += ares.trajectories_executed;
    total_stats.gates_settled_early += ares.gates_settled_early;
    total_stats.strategy_jobs.trajectory += ajobs.size();
    total_stats.actual_ns += std::chrono::duration<double, std::nano>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();

    for (std::size_t k = 0; k < chosen.size(); ++k) {
      const std::size_t op_index = chosen[k];
      const circ::Gate& g = c.op(op_index);
      const std::vector<double>& rev_dist = ares.distributions[k];
      GateImpact& impact = report.impacts[k];
      impact.op_index = op_index;
      impact.kind = g.kind;
      impact.qubits = g.qubits;
      impact.num_qubits = g.num_qubits;
      impact.layer = layering.layer[op_index];
      impact.tvd = stats::tvd(report.original_distribution, rev_dist);
      if (options_.compute_validation)
        impact.tvd_vs_ideal = stats::tvd(report.ideal_distribution, rev_dist);
      if (hooks != nullptr && hooks->on_impact) hooks->on_impact(impact);
    }
    report.exec_stats = total_stats;
    return report;
  }

  // At least one chunk always runs: the original-run job rides with it.
  const std::size_t num_chunks =
      chosen.empty() ? 1 : (chosen.size() + chunk_size - 1) / chunk_size;
  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    const std::size_t begin = ci * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, chosen.size());
    std::vector<CompiledProgram> reversed;
    reversed.reserve(end - begin);
    std::vector<exec::AnalysisJob> jobs;
    jobs.reserve(end - begin + 1);
    // The original runs with the first chunk (served by the checkpoint
    // sweep at no extra cost when sharing is exact).
    if (begin == 0) jobs.push_back({&program, orig_run, c.size()});

    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t op_index = chosen[k];
      CompiledProgram rev = program;
      rev.physical = insert_reversed_pairs(c, op_index, options_.reversals,
                                           options_.isolate);
      reversed.push_back(std::move(rev));
      backend::RunOptions run = decision.run;
      run.seed = options_.common_random_numbers
                     ? orig_run.seed
                     : derive_seed(options_.run.seed, op_index + 1);
      // Reversed pairs are inserted after op_index: ops [0, op_index] shared.
      jobs.push_back({&reversed.back(), run, op_index + 1});
    }

    const std::vector<std::vector<double>> dists =
        runner.run(jobs, &program, relay.run_hooks());
    accumulate_stats(total_stats, runner.last_stats());

    // Score this chunk immediately; the distributions are not retained, so
    // peak memory stays proportional to the chunk, not the whole sweep.
    std::size_t d = 0;
    if (begin == 0) report.original_distribution = dists[d++];
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t op_index = chosen[k];
      const circ::Gate& g = c.op(op_index);
      const std::vector<double>& rev_dist = dists[d++];

      GateImpact& impact = report.impacts[k];
      impact.op_index = op_index;
      impact.kind = g.kind;
      impact.qubits = g.qubits;
      impact.num_qubits = g.num_qubits;
      impact.layer = layering.layer[op_index];
      impact.tvd = stats::tvd(report.original_distribution, rev_dist);
      if (options_.compute_validation)
        impact.tvd_vs_ideal = stats::tvd(report.ideal_distribution, rev_dist);
      if (hooks != nullptr && hooks->on_impact) hooks->on_impact(impact);
    }
  }
  report.exec_stats = total_stats;
  return report;
}

double CharterAnalyzer::input_impact(const CompiledProgram& program,
                                     const AnalysisHooks* hooks) const {
  CompiledProgram reversed = program;
  reversed.physical = insert_input_block_reversal(
      program.physical, options_.reversals, options_.isolate);

  // The block-reversed circuit is identical to the original up to the end of
  // the input-preparation region, so it can resume from a prefix checkpoint.
  const std::vector<std::size_t> prep =
      program.physical.ops_with_flag(circ::kFlagInputPrep);
  const std::size_t shared = prep.empty() ? 0 : prep.back() + 1;

  // Same per-family planning as analyze(); the family here is just the
  // original plus the block-reversed circuit.  Adaptive early termination
  // never applies — there is no gate ranking to settle — so the decision
  // only shapes the prepared RunOptions.
  exec::StrategyContext sctx;
  sctx.width = static_cast<int>(backend::used_qubits(program).size());
  sctx.jobs = 2;
  sctx.run = options_.run;
  sctx.lowering = backend_.supports_lowering();
  const exec::Decision decision =
      exec::plan_family(options_.strategy, options_.budget, sctx);

  backend::RunOptions orig_run = decision.run;
  orig_run.seed = derive_seed(options_.run.seed, 0);
  backend::RunOptions rev_run = decision.run;
  rev_run.seed = options_.common_random_numbers
                     ? orig_run.seed
                     : derive_seed(options_.run.seed, 0x11fa7ULL);

  const exec::BatchRunner runner(backend_, options_.exec);
  ProgressRelay relay(hooks, 2);
  const std::vector<std::vector<double>> dists =
      runner.run({{&program, orig_run, program.physical.size()},
                  {&reversed, rev_run, shared}},
                 &program, relay.run_hooks());
  return stats::tvd(dists[0], dists[1]);
}

}  // namespace charter::core
