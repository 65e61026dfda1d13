#pragma once

/// \file trajectory.hpp
/// Monte-Carlo (quantum trajectory) noisy engine.
///
/// Holds a pure state and realizes each noise channel by sampling one Kraus
/// branch with the Born-rule probability.  Coherent errors (over-rotation,
/// ZZ phases) are deterministic and identical in every trajectory, so the
/// only sampling variance comes from the stochastic channels.  Each
/// trajectory contributes its *entire* |psi|^2 distribution — variance is
/// therefore far lower than shot-by-shot sampling and a few dozen
/// trajectories reproduce a density-matrix run closely (validated in
/// tests/test_sim.cpp and bench/ablation_engines).
///
/// TrajectoryEngine runs one unravelling; run_trajectory_group runs a fold
/// group of them, up to four at a time in one lane-interleaved statevector,
/// bit-identically to running each alone (see its comment).

#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace charter::sim {

/// One stochastic unravelling of the noisy evolution.
class TrajectoryEngine final : public NoisyEngine {
 public:
  /// \p seed drives every stochastic branch of this trajectory.
  TrajectoryEngine(int num_qubits, std::uint64_t seed);

  int num_qubits() const override { return state_.num_qubits(); }
  void reset() override;

  void apply_unitary_1q(const math::Mat2& u, int q) override;
  void apply_diag_1q(math::cplx d0, math::cplx d1, int q) override;
  void apply_cx(int c, int t) override;
  void apply_diag_2q(const std::array<math::cplx, 4>& d, int qa,
                     int qb) override;
  void apply_diag_run(const math::DiagOp* ops, int k) override;
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb) override;
  void apply_unitary_3q(const std::array<math::cplx, 64>& u, int qa, int qb,
                        int qc) override;

  void apply_thermal_relaxation(int q, double gamma, double pz) override;
  void apply_depolarizing_1q(int q, double p) override;
  void apply_depolarizing_2q(int qa, int qb, double p) override;
  void apply_bitflip(int q, double p) override;
  void apply_kraus_1q(std::span<const math::Mat2> kraus, int q) override;

  std::vector<double> probabilities() const override;

  /// Clones state *and* RNG stream: the copy replays the exact stochastic
  /// branches the original would take.
  std::unique_ptr<NoisyEngine> clone() const override;

  /// Underlying pure state (tests).
  const Statevector& state() const { return state_; }

 private:
  Statevector state_;
  util::Rng rng_;
};

/// Trajectories are folded in fixed-size groups merged in index order, so
/// the floating-point accumulation order — and therefore the averaged
/// distribution, bit for bit — never depends on which thread produced which
/// group.  The group size is part of the numeric contract: every code path
/// that averages unravellings (run_trajectories, the exec layer's pooled
/// fan-out, and the trajectory checkpoint plan) must fold with this size or
/// its results drift from a standalone run by reassociation.
inline constexpr int kTrajectoryGroupSize = 8;

/// Number of fold groups covering \p num_trajectories.
inline int num_trajectory_groups(int num_trajectories) {
  return (num_trajectories + kTrajectoryGroupSize - 1) / kTrajectoryGroupSize;
}

/// Engine seed for unravelling \p t of the family rooted at \p seeder
/// (stream-splitting keeps trajectories uncorrelated and platform-stable).
inline std::uint64_t trajectory_engine_seed(const util::Rng& seeder,
                                            int t) {
  return seeder.split(static_cast<std::uint64_t>(t)).next_u64();
}

/// Runs unravellings [begin, end) of the family rooted at \p seeder and
/// returns their probability *sum* (one fold group's partial): for every
/// outcome i, the unravellings' |a_i|^2 added in unravelling order.
///
/// One-group contract: [begin, end) must be non-empty and lie within one
/// fold group (begin / kTrajectoryGroupSize == (end - 1) /
/// kTrajectoryGroupSize); anything else throws InvalidArgument.  Ranges
/// come off the wire too (the `charter worker` traj_group request), and a
/// group-sized bound keeps one request from buying unbounded work.
///
/// Below amp_parallel_min_qubits() the unravellings run in lane batches.
/// Up to four of them (4 while the block is
/// <= 1 MiB, i.e. n <= 14; 2 at n = 15; 1 above) share one statevector of
/// n + log2(lanes) pseudo-qubits: lane t of amplitude i sits at index
/// i * lanes + t, and each lane draws from its own Rng stream, seeded as a
/// lone TrajectoryEngine's.  A batch covers the largest power-of-two run of
/// the remaining unravellings, so a group of 8 is two batches of 4.  Each
/// lane performs the operations a lone TrajectoryEngine performs, in the
/// same order, so every unravelling — and so the partial — is
/// bit-identical to running them one at a time on serial kernels:
///  - a coherent op is one call of the same kernel on the whole block with
///    every qubit shifted up by log2(lanes); the kernels' per-element
///    arithmetic does not depend on a qubit's bit position, except the
///    dense two-qubit op with a qubit-0 operand (scalar on the AVX2 and
///    AVX-512 paths, vector once shifted), which runs per lane;
///  - element-local writes are deferred: a diagonal op (a run of them,
///    NoisyEngine::apply_diag_run, or a lone apply_diag_1q / apply_diag_2q)
///    and the no-jump damp-and-scale of a thermal op join a pending list
///    (at most math::kMaxLaneOps; a full list is applied first), and
///    kernels::lane_sweep later applies the whole list in one pass over the
///    block.  Each element takes the ops in tape order, a diagonal op with
///    the path's per-op complex multiply, a damp-and-scale as
///    (set bit ? a * keep : a) * (1/sqrt(norm)), every real product
///    rounded on its own (a complex product with a real diagonal entry
///    rounds each component once on every path, so these are a lone
///    engine's kernel and normalize() values; only a zero's sign may
///    differ, which no later operation or |a|^2 can observe);
///  - a thermal op (gamma > 0) is that pass: the sweep applies the pending
///    list and, serially in ascending index order, reads every lane's P(1)
///    and no-jump norm from the values it writes, as per-lane left-to-right
///    sums: P(1) over the set-bit amplitudes only (a lone engine's sum adds
///    +0.0 for the others, which never changes a non-negative double), the
///    norm over all of them with the set-bit ones taken times
///    keep = sqrt(1-gamma).  The draws follow.  When no lane jumps, the
///    op's damp-and-scale becomes the pending list; when any lane jumps,
///    the block is already current and every lane takes a lone engine's
///    branch with the same P(1);
///  - the pending list is applied (flushed) before every op that reads or
///    moves amplitudes across elements: cx, the dense one-, two- and
///    three-qubit unitaries, every per-lane event and accumulate(); reset()
///    and so the start of a batch clear it.  Draws that read no state (a
///    depolarizing, bit-flip or pz draw that misses) pass it by;
///  - rare per-lane events (a jump in any lane, Pauli draws, Kraus
///    branches) copy that lane into a contiguous n-qubit scratch state,
///    allocated at the first event, and run a lone engine's arithmetic on
///    it.
/// The lane sums and a lone engine's reductions below the threshold are
/// plain serial loops; the block's kernels keep the calling thread's policy
/// (serial on exec pool workers, on the kernel pool off it), which moves no
/// bit because they are element-wise.  The program callback drives the
/// batch through the NoisyEngine interface once per batch; the batch cannot
/// be read out (probabilities()) or cloned, which no program callback does.
/// At and above amp_parallel_min_qubits() the unravellings run one at a
/// time on TrajectoryEngine, whose kernels and chunked sums fan out over
/// threads (a 4-lane block there would be >= 64 MiB).  Either way the
/// result does not depend on the calling thread.
std::vector<double> run_trajectory_group(
    int num_qubits, int begin, int end, const util::Rng& seeder,
    const std::function<void(NoisyEngine&)>& program);

/// Incremental form of fold_trajectory_groups for partials that arrive out
/// of order from concurrent workers: each add() folds every partial now
/// available in group order into the running sum and frees it, so at most
/// the out-of-order partials stay alive.  It performs the adds of
/// fold_trajectory_groups in the same order, so take() returns the same
/// bits.  add() is thread-safe.
class TrajectoryFold {
 public:
  TrajectoryFold(std::uint64_t dim, int num_trajectories);

  /// Hands over group \p group's partial (each group exactly once).
  void add(int group, std::vector<double> partial);

  /// The average over all num_trajectories unravellings; requires every
  /// group to have been added.  Call once.
  std::vector<double> take();

 private:
  std::mutex mu_;
  std::vector<double> total_;
  std::vector<std::vector<double>> pending_;  ///< empty = not (yet) held
  int next_ = 0;                              ///< first group not folded
  int num_trajectories_;
};

/// Merges group partials in index order and normalizes by num_trajectories
/// (a TrajectoryFold fed in order; partials.size() must be
/// num_trajectory_groups(num_trajectories)).  This is *the* reduction:
/// bit-identical no matter which worker produced which partial.
std::vector<double> fold_trajectory_groups(
    const std::vector<std::vector<double>>& partials, std::uint64_t dim,
    int num_trajectories);

/// Averages probabilities over \p num_trajectories independent unravellings
/// of the noisy program \p program (a callback that drives one engine).
/// Trajectories run in parallel across threads; \p seed splits per
/// trajectory, so results are deterministic regardless of thread count.
std::vector<double> run_trajectories(
    int num_qubits, int num_trajectories, std::uint64_t seed,
    const std::function<void(NoisyEngine&)>& program);

}  // namespace charter::sim
