#include "exec/trajectory_plan.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "backend/backend.hpp"
#include "exec/checkpoint.hpp"
#include "util/error.hpp"

namespace charter::exec {

using noise::NoisyExecutor;
using sim::kTrajectoryGroupSize;

TrajectoryCheckpointPlan::TrajectoryCheckpointPlan(
    const NoisyExecutor& executor, circ::Circuit base,
    std::vector<std::size_t> prefix_lens, int num_trajectories,
    std::uint64_t run_seed, std::size_t memory_budget_bytes,
    util::ThreadPool& pool)
    : executor_(executor),
      base_(std::move(base)),
      base_stream_(executor.make_stream(base_)),
      num_trajectories_(num_trajectories),
      seeder_(run_seed ^ backend::kTrajectorySeedSalt) {
  // kFusedWide keeps channels as in-order barriers, so shared suffixes may
  // run fused-wide (run_shared re-optimizes the spliced tape past the
  // resume point).  The base sweep itself always walks the exact stream —
  // snapshots must land on exact-tape positions.
  require(num_trajectories_ >= 1, "need at least one trajectory");
  std::sort(prefix_lens.begin(), prefix_lens.end());
  prefix_lens.erase(std::unique(prefix_lens.begin(), prefix_lens.end()),
                    prefix_lens.end());
  // A zero-length prefix shares nothing; a clone there is just a fresh engine.
  while (!prefix_lens.empty() && prefix_lens.front() == 0)
    prefix_lens.erase(prefix_lens.begin());
  for (const std::size_t len : prefix_lens)
    require(len <= base_.size(), "checkpoint prefix longer than the base");

  // One statevector clone per (fork point, unravelling): 16 bytes * 2^n for
  // the amplitudes plus the engine's RNG state.
  const std::size_t per_engine =
      (std::size_t{16} << base_.num_qubits()) + 64;
  const std::size_t per_snapshot =
      per_engine * static_cast<std::size_t>(num_trajectories_);
  const std::size_t cap = memory_budget_bytes / per_snapshot;
  const std::vector<std::size_t> keep =
      select_checkpoints_within_budget(std::move(prefix_lens), cap);

  const noise::NoiseProgram& tape = base_stream_.program;
  checkpoints_.resize(keep.size());
  for (std::size_t k = 0; k < keep.size(); ++k) {
    checkpoints_[k].prefix_len = keep[k];
    checkpoints_[k].tape_pos = tape.op_end(keep[k] - 1);
    checkpoints_[k].engines.resize(
        static_cast<std::size_t>(num_trajectories_));
  }

  // Sweep the base once per unravelling, cloning at every kept fork point.
  // Fan the fold groups over the pool; the group partials merge in index
  // order, so the base distribution is thread-count-independent.
  const std::uint64_t dim = std::uint64_t{1} << base_.num_qubits();
  const int num_groups = sim::num_trajectory_groups(num_trajectories_);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(num_groups));
  pool.run(num_groups, [&](std::int64_t g, int /*worker*/) {
    const int begin = static_cast<int>(g) * kTrajectoryGroupSize;
    const int end =
        std::min(begin + kTrajectoryGroupSize, num_trajectories_);
    std::vector<double>& local = partial[static_cast<std::size_t>(g)];
    local.assign(dim, 0.0);
    for (int t = begin; t < end; ++t) {
      sim::TrajectoryEngine engine(
          base_.num_qubits(), sim::trajectory_engine_seed(seeder_, t));
      std::size_t pos = 0;
      for (Checkpoint& cp : checkpoints_) {
        tape.run(engine, pos, cp.tape_pos);
        pos = cp.tape_pos;
        cp.engines[static_cast<std::size_t>(t)] = engine.clone();
      }
      tape.run(engine, pos, tape.size());
      const std::vector<double> p = engine.probabilities();
      for (std::uint64_t i = 0; i < dim; ++i) local[i] += p[i];
    }
  });
  base_probs_ =
      sim::fold_trajectory_groups(partial, dim, num_trajectories_);
}

std::vector<double> TrajectoryCheckpointPlan::run_cold(
    const circ::Circuit& c) const {
  const noise::NoiseProgram tape = executor_.lower(c);
  const std::uint64_t dim = std::uint64_t{1} << c.num_qubits();
  const int num_groups = sim::num_trajectory_groups(num_trajectories_);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    const int begin = g * kTrajectoryGroupSize;
    const int end =
        std::min(begin + kTrajectoryGroupSize, num_trajectories_);
    partial[static_cast<std::size_t>(g)] = sim::run_trajectory_group(
        c.num_qubits(), begin, end, seeder_,
        [&](sim::NoisyEngine& engine) { tape.execute(engine); });
  }
  return sim::fold_trajectory_groups(partial, dim, num_trajectories_);
}

std::vector<double> TrajectoryCheckpointPlan::run_shared(
    const circ::Circuit& c, std::size_t prefix_len) const {
  require(c.num_qubits() == base_.num_qubits(),
          "derived circuit width differs from the base");

  // Deepest clone set at or before the fork point.
  const Checkpoint* snapshot = nullptr;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.prefix_len > std::min(prefix_len, c.size())) break;
    snapshot = &cp;
  }

  std::optional<noise::NoiseProgram> spliced =
      snapshot == nullptr
          ? std::nullopt
          : noise::lower_spliced(executor_.model(), base_,
                                 base_stream_.program, c, prefix_len);
  if (!spliced.has_value()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return run_cold(c);
  }

  // The spliced tape copies the shared prefix verbatim, so the snapshot's
  // base-tape position is a valid resume point on it; the region from there
  // covers the (budget-induced) gap, the insertion, and the suffix — all
  // consuming the same random draws a cold run would after the identical
  // prefix.
  const std::size_t resume_pos = spliced->op_end(snapshot->prefix_len - 1);
  // Fused-wide groups re-optimize only past the resume point: the prefix
  // stays verbatim (the snapshot position must keep meaning the same
  // draws), while the gap + insertion + suffix consolidate into wide gates
  // exactly as a cold fused-wide lowering of that region would.
  const noise::NoiseProgram tape =
      executor_.level() == noise::OptLevel::kFusedWide
          ? noise::fused_wide(*spliced, resume_pos, executor_.fusion_width())
          : std::move(*spliced);
  const std::uint64_t dim = std::uint64_t{1} << c.num_qubits();
  const int num_groups = sim::num_trajectory_groups(num_trajectories_);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    const int begin = g * kTrajectoryGroupSize;
    const int end =
        std::min(begin + kTrajectoryGroupSize, num_trajectories_);
    std::vector<double>& local = partial[static_cast<std::size_t>(g)];
    local.assign(dim, 0.0);
    for (int t = begin; t < end; ++t) {
      const std::unique_ptr<sim::NoisyEngine> engine =
          snapshot->engines[static_cast<std::size_t>(t)]->clone();
      tape.run(*engine, resume_pos, tape.size());
      const std::vector<double> p = engine->probabilities();
      for (std::uint64_t i = 0; i < dim; ++i) local[i] += p[i];
    }
  }
  replayed_ops_.fetch_add(prefix_len - snapshot->prefix_len,
                          std::memory_order_relaxed);
  resumed_.fetch_add(1, std::memory_order_relaxed);
  return sim::fold_trajectory_groups(partial, dim, num_trajectories_);
}

}  // namespace charter::exec
