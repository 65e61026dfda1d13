#include "exec/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "exec/batch.hpp"
#include "noise/executor.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace charter::exec {

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kAuto: return "auto";
    case StrategyKind::kDmExact: return "dm_exact";
    case StrategyKind::kTrajectory: return "trajectory";
    case StrategyKind::kCheckpointSplice: return "checkpoint_splice";
  }
  return "unknown";
}

std::optional<StrategyKind> strategy_from_name(const std::string& name) {
  if (name == "auto") return StrategyKind::kAuto;
  if (name == "dm" || name == "dm_exact") return StrategyKind::kDmExact;
  if (name == "trajectory") return StrategyKind::kTrajectory;
  if (name == "checkpoint_splice") return StrategyKind::kCheckpointSplice;
  return std::nullopt;
}

const char* budget_mode_name(BudgetMode mode) {
  return mode == BudgetMode::kAdaptive ? "adaptive" : "fixed";
}

// ---------------------------------------------------------------------------
// Paths and the static rule
// ---------------------------------------------------------------------------

namespace {

/// Whether \p kind can execute the family at all.
bool applicable(StrategyKind kind, const StrategyContext& ctx) {
  switch (kind) {
    case StrategyKind::kTrajectory: return true;
    case StrategyKind::kCheckpointSplice:
      // Splicing needs the lower/finalize decomposition and >1 job sharing
      // a prefix; a lone job has nothing to splice against.
      if (!ctx.lowering || ctx.jobs <= 1) return false;
      break;
    default: break;
  }
  return ctx.width <= sim::DensityMatrixEngine::kMaxQubits;
}

}  // namespace

void Strategy::prepare(backend::RunOptions& run) const {
  // run.opt stays as the caller set it: trajectories honor it, and the
  // density-matrix path always runs the exact tape.
  run.engine = kind_ == StrategyKind::kTrajectory
                   ? backend::EngineKind::kTrajectory
                   : backend::EngineKind::kDensityMatrix;
}

Strategy strategy(StrategyKind kind) {
  if (kind == StrategyKind::kAuto)
    throw InvalidArgument(
        "strategy(): kAuto is a planning directive, not an execution path");
  return Strategy(kind);
}

StrategyKind classify_run(const backend::RunOptions& run, int width) {
  return backend::resolve_engine(run, width) ==
                 backend::EngineKind::kTrajectory
             ? StrategyKind::kTrajectory
             : StrategyKind::kDmExact;
}

Decision plan_family(StrategyKind requested, BudgetMode budget,
                     const StrategyContext& ctx) {
  Decision d;
  if (requested == StrategyKind::kAuto)
    d.strategy = classify_run(ctx.run, ctx.width);
  else if (applicable(requested, ctx))
    d.strategy = requested;
  else
    d.strategy = StrategyKind::kTrajectory;
  d.run = ctx.run;
  strategy(d.strategy).prepare(d.run);
  d.adaptive = budget == BudgetMode::kAdaptive &&
               d.strategy == StrategyKind::kTrajectory;
  return d;
}

// ---------------------------------------------------------------------------
// Adaptive trajectory sweep
// ---------------------------------------------------------------------------

namespace {

struct AdaptiveJobState {
  std::optional<backend::LoweredRun> lowered;
  noise::NoiseProgram tape{0};
  std::vector<std::vector<double>> partial;  ///< raw per-group sums
  std::vector<double> group_tvds;            ///< one TVD per executed group
  int groups_total = 0;
  int groups_done = 0;
  bool active = true;
  bool settled_early = false;
  double estimate = 0.0;  ///< TVD of the folded prefix vs the original
  double half_width = std::numeric_limits<double>::infinity();
};

/// Trajectories covered by groups [0, groups_done) of a \p total budget.
int executed_trajectories(int groups_done, int total) {
  return std::min(groups_done * sim::kTrajectoryGroupSize, total);
}

}  // namespace

AdaptiveResult run_adaptive_trajectory_sweep(
    const backend::Backend& backend, const std::vector<AdaptiveJob>& jobs,
    const std::vector<double>& original, const AdaptiveOptions& options) {
  AdaptiveResult out;
  out.distributions.resize(jobs.size());
  if (jobs.empty()) return out;
  require(backend.supports_lowering(),
          "adaptive trajectory sweep requires a backend with "
          "lower()/finalize() support");
  const int min_groups = std::max(2, options.min_groups);

  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool.emplace(util::resolve_threads(options.threads));
    pool = &*owned_pool;
  }
  const util::CancelFlag* cancel =
      options.hooks != nullptr ? options.hooks->cancel : nullptr;
  const auto throw_if_cancelled = [&] {
    if (cancel != nullptr && cancel->requested())
      throw Cancelled("adaptive trajectory sweep cancelled");
  };

  std::vector<AdaptiveJobState> states(jobs.size());

  // Lower every job's tape up front (one pool task per job), honoring the
  // job's tape level like the batch runner's trajectory routes.
  pool->run(static_cast<std::int64_t>(jobs.size()),
            [&](std::int64_t k, int /*worker*/) {
              const AdaptiveJob& job = jobs[static_cast<std::size_t>(k)];
              AdaptiveJobState& st = states[static_cast<std::size_t>(k)];
              st.lowered = backend.lower(*job.program, job.run);
              const noise::NoisyExecutor executor(
                  st.lowered->model, job.run.opt,
                  backend::resolve_fusion_width(job.run));
              st.tape = executor.lower(st.lowered->local);
              st.groups_total =
                  sim::num_trajectory_groups(job.run.trajectories);
              st.partial.resize(static_cast<std::size_t>(st.groups_total));
            },
            cancel);
  throw_if_cancelled();
  for (const AdaptiveJob& job : jobs)
    out.trajectories_budgeted += static_cast<std::size_t>(job.run.trajectories);

  // Round-based allocation: every still-active job receives one trajectory
  // group per round; all stopping decisions happen here on the coordinating
  // thread, from index-ordered folds, so the outcome is identical at every
  // pool width.
  std::vector<std::size_t> active(jobs.size());
  std::iota(active.begin(), active.end(), std::size_t{0});
  while (!active.empty()) {
    throw_if_cancelled();
    pool->run(
        static_cast<std::int64_t>(active.size()),
        [&](std::int64_t k, int /*worker*/) {
          const std::size_t i = active[static_cast<std::size_t>(k)];
          const AdaptiveJob& job = jobs[i];
          AdaptiveJobState& st = states[i];
          const int g = st.groups_done;
          const int begin = g * sim::kTrajectoryGroupSize;
          const int end = std::min(begin + sim::kTrajectoryGroupSize,
                                   job.run.trajectories);
          const util::Rng seeder(job.run.seed ^ backend::kTrajectorySeedSalt);
          st.partial[static_cast<std::size_t>(g)] = sim::run_trajectory_group(
              st.lowered->local.num_qubits(), begin, end, seeder,
              [&](sim::NoisyEngine& engine) { st.tape.execute(engine); });
        },
        cancel);
    throw_if_cancelled();

    // Fold the round in: per-group TVDs feed the variance estimate, the
    // folded prefix is the running point estimate.  Everything is computed
    // with shots disabled so the sequential test sees engine-level
    // distributions; the *final* per-job result below still finalizes with
    // the job's own RunOptions (shot sampling included).
    for (const std::size_t i : active) {
      const AdaptiveJob& job = jobs[i];
      AdaptiveJobState& st = states[i];
      const int g = st.groups_done;
      const int begin = g * sim::kTrajectoryGroupSize;
      const int end = std::min(begin + sim::kTrajectoryGroupSize,
                               job.run.trajectories);
      ++st.groups_done;
      out.trajectories_executed += static_cast<std::size_t>(end - begin);

      backend::RunOptions exact = job.run;
      exact.shots = 0;
      const std::uint64_t dim = std::uint64_t{1}
                                << st.lowered->local.num_qubits();
      const std::vector<double> group_dist = backend.finalize(
          sim::fold_trajectory_groups({st.partial[static_cast<std::size_t>(g)]},
                                      dim, end - begin),
          *st.lowered, *job.program, exact);
      st.group_tvds.push_back(stats::tvd(group_dist, original));

      const std::vector<std::vector<double>> prefix(
          st.partial.begin(), st.partial.begin() + st.groups_done);
      st.estimate = stats::tvd(
          backend.finalize(
              sim::fold_trajectory_groups(
                  prefix, dim,
                  executed_trajectories(st.groups_done, job.run.trajectories)),
              *st.lowered, *job.program, exact),
          original);
      if (st.groups_done >= min_groups) {
        const double n = static_cast<double>(st.group_tvds.size());
        double mean = 0.0;
        for (const double t : st.group_tvds) mean += t;
        mean /= n;
        double var = 0.0;
        for (const double t : st.group_tvds)
          var += (t - mean) * (t - mean);
        var /= (n - 1.0);
        st.half_width = options.z * std::sqrt(var / n);
      }
    }

    // Sequential test: a job settles when its CI is disjoint from both rank
    // neighbors' CIs — its position in the criticality ranking can no
    // longer flip, so more trajectories cannot change the answer.  The
    // ranking spans *all* jobs (settled ones hold their final interval).
    std::vector<std::size_t> ranking(jobs.size());
    std::iota(ranking.begin(), ranking.end(), std::size_t{0});
    std::stable_sort(ranking.begin(), ranking.end(),
                     [&](std::size_t a, std::size_t b) {
                       return states[a].estimate > states[b].estimate;
                     });
    std::vector<std::size_t> rank_of(jobs.size());
    for (std::size_t r = 0; r < ranking.size(); ++r) rank_of[ranking[r]] = r;

    const auto disjoint = [&](std::size_t a, std::size_t b) {
      const AdaptiveJobState& sa = states[a];
      const AdaptiveJobState& sb = states[b];
      return sa.estimate - sa.half_width > sb.estimate + sb.half_width ||
             sa.estimate + sa.half_width < sb.estimate - sb.half_width;
    };

    std::vector<std::size_t> still_active;
    still_active.reserve(active.size());
    for (const std::size_t i : active) {
      AdaptiveJobState& st = states[i];
      if (st.groups_done >= st.groups_total) {
        st.active = false;  // budget exhausted: settled, but not early
        continue;
      }
      if (st.groups_done >= min_groups) {
        const std::size_t r = rank_of[i];
        const bool sep_up = r == 0 || disjoint(i, ranking[r - 1]);
        const bool sep_down =
            r + 1 == ranking.size() || disjoint(i, ranking[r + 1]);
        if (sep_up && sep_down) {
          st.active = false;
          st.settled_early = true;
          ++out.gates_settled_early;
          continue;
        }
      }
      still_active.push_back(i);
    }
    active = std::move(still_active);
  }

  // Finalize each job over the groups that actually ran.  The folded prefix
  // is bit-identical to a fixed budget of executed_trajectories(...) — an
  // early stop is indistinguishable from having asked for fewer
  // unravellings up front.
  pool->run(static_cast<std::int64_t>(jobs.size()),
            [&](std::int64_t k, int /*worker*/) {
              const std::size_t i = static_cast<std::size_t>(k);
              const AdaptiveJob& job = jobs[i];
              AdaptiveJobState& st = states[i];
              const std::uint64_t dim = std::uint64_t{1}
                                        << st.lowered->local.num_qubits();
              const std::vector<std::vector<double>> prefix(
                  st.partial.begin(), st.partial.begin() + st.groups_done);
              out.distributions[i] = backend.finalize(
                  sim::fold_trajectory_groups(
                      prefix, dim,
                      executed_trajectories(st.groups_done,
                                            job.run.trajectories)),
                  *st.lowered, *job.program, job.run);
              if (options.hooks != nullptr && options.hooks->on_job_complete)
                options.hooks->on_job_complete(i);
            },
            cancel);
  throw_if_cancelled();
  return out;
}

}  // namespace charter::exec
