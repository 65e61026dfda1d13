#include "sim/trajectory.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>

#include "sim/kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace charter::sim {

using math::cplx;
using math::Mat2;

namespace {

// ---- one unravelling's branch arithmetic ------------------------------
// Shared by TrajectoryEngine and the lane batch's per-lane events, so a
// lane that takes a rare branch runs exactly the code a lone engine runs.

void apply_pauli(Statevector& sv, int which, int q) {
  cplx* a = sv.mutable_amplitudes().data();
  const std::uint64_t d = sv.dim();
  switch (which) {
    case 0:
      kernels::apply_x(a, d, q);
      return;
    case 1: {
      Mat2 y;
      y(0, 1) = cplx(0.0, -1.0);
      y(1, 0) = cplx(0.0, 1.0);
      kernels::apply_1q(a, d, q, y);
      return;
    }
    default:
      kernels::apply_diag_1q(a, d, q, 1.0, -1.0);
      return;
  }
}

/// The amplitude-damping branch after its draw: the jump K1 (|1> collapses
/// to |0>, p1 = P(qubit q is 1) before the jump) or the no-jump
/// K0 = diag(1, sqrt(1-gamma)) followed by renormalization.
void relax(Statevector& sv, int q, double gamma, double p1, bool jump) {
  if (jump) {
    cplx* a = sv.mutable_amplitudes().data();
    const std::uint64_t mask = 1ULL << q;
    const double inv = 1.0 / std::sqrt(p1);
    util::parallel_for(
        static_cast<std::int64_t>(sv.dim() >> 1), [=](std::int64_t i) {
          const std::uint64_t ui = static_cast<std::uint64_t>(i);
          const std::uint64_t i0 =
              ((ui & ~(mask - 1)) << 1) | (ui & (mask - 1));
          const std::uint64_t i1 = i0 | mask;
          a[i0] = a[i1] * inv;
          a[i1] = 0.0;
        });
  } else {
    kernels::apply_diag_1q(sv.mutable_amplitudes().data(), sv.dim(), q, 1.0,
                           std::sqrt(1.0 - gamma));
    sv.normalize();
  }
}

/// One of the 15 non-identity two-qubit Paulis, \p pick in [1, 15].
void apply_pauli_2q(Statevector& sv, int pick, int qa, int qb) {
  const int pa = pick % 4;  // 0=I, 1=X, 2=Y, 3=Z on qa
  const int pb = pick / 4;  // same encoding on qb
  if (pa != 0) apply_pauli(sv, pa - 1, qa);
  if (pb != 0) apply_pauli(sv, pb - 1, qb);
}

/// Samples a Kraus branch with the Born probability ||K_i psi||^2, from the
/// uniform draw \p u, and renormalizes.
void apply_kraus(Statevector& sv, double u, std::span<const Mat2> kraus,
                 int q) {
  double acc = 0.0;
  const math::AmpBuffer backup = sv.amplitudes();
  for (std::size_t i = 0; i < kraus.size(); ++i) {
    std::copy(backup.begin(), backup.end(), sv.mutable_amplitudes().begin());
    sv.apply_unitary_1q(kraus[i], q);  // kernels accept non-unitary K
    const double pr = sv.norm_sq();
    acc += pr;
    if (u < acc || i + 1 == kraus.size()) {
      CHARTER_ASSERT(pr > 1e-300, "selected Kraus branch has zero weight");
      sv.normalize();
      return;
    }
  }
}

// ---- lane batch ----------------------------------------------------------

/// Most unravellings one lane batch holds.
constexpr int kMaxLanes = 4;

/// Lane count of the next batch at width \p n with \p remaining
/// unravellings left in the group: the largest power of two <= remaining,
/// and 4 at most while the block stays within 4 MiB (n <= 16), fewer above.
int batch_lanes(int n, int remaining) {
  int lanes = kMaxLanes;
  while (lanes > 1 && ((std::uint64_t{16} << n) * lanes > (1u << 22) ||
                       lanes > remaining))
    lanes /= 2;
  return lanes;
}

/// Up to four unravellings of one fold group in one lane-interleaved block
/// of n + log2(lanes) pseudo-qubits (see run_trajectory_group in
/// trajectory.hpp for the layout, the deferred element-local ops and the
/// bit-identity argument).  The program callback drives it once per batch
/// through the NoisyEngine interface; only the probability readout has no
/// meaning for a batch of unravellings.
class LaneBatch final : public NoisyEngine {
 public:
  /// A batch of up to \p max_lanes (1, 2 or 4) unravellings.
  LaneBatch(int num_qubits, int max_lanes)
      : n_(num_qubits), dim_(std::uint64_t{1} << num_qubits) {
    require(num_qubits >= 1 && num_qubits <= 28,
            "statevector supports 1..28 qubits");
    block_.resize(dim_ * static_cast<std::uint64_t>(max_lanes));
  }
  LaneBatch(const LaneBatch&) = delete;
  LaneBatch& operator=(const LaneBatch&) = delete;

  /// Starts unravellings [first, first + lanes) of the family rooted at
  /// \p seeder from |0...0>; \p lanes is 1, 2 or 4, at most max_lanes.
  void start(int lanes, const util::Rng& seeder, int first) {
    lanes_ = lanes;
    shift_ = lanes == 4 ? 2 : lanes == 2 ? 1 : 0;
    rngs_.clear();
    for (int t = 0; t < lanes; ++t)
      rngs_.emplace_back(trajectory_engine_seed(seeder, first + t));
    reset();
  }

  /// local[i] += |a_i|^2 of each lane, in lane (= unravelling) order.
  void accumulate(std::vector<double>& local) {
    flush();
    const cplx* a = block_.data();
    const std::uint64_t lanes = static_cast<std::uint64_t>(lanes_);
    for (std::uint64_t i = 0; i < dim_; ++i)
      for (std::uint64_t t = 0; t < lanes; ++t)
        local[i] += std::norm(a[i * lanes + t]);
  }

  int num_qubits() const override { return n_; }

  void reset() override {
    pending_ = 0;
    std::fill_n(block_.begin(), size(), cplx(0.0));
    for (int t = 0; t < lanes_; ++t) block_[t] = 1.0;
  }

  void apply_unitary_1q(const Mat2& u, int q) override {
    require(q >= 0 && q < n_, "qubit out of range");
    flush();
    kernels::apply_1q(data(), size(), q + shift_, u);
  }
  void apply_diag_1q(cplx d0, cplx d1, int q) override {
    const math::DiagOp op{std::uint64_t{1} << q, 0, {d0, d1, d0, d1}};
    apply_diag_run(&op, 1);
  }
  void apply_cx(int c, int t) override {
    flush();
    kernels::apply_cx(data(), size(), c + shift_, t + shift_);
  }
  void apply_diag_2q(const std::array<cplx, 4>& d, int qa,
                     int qb) override {
    const math::DiagOp op{std::uint64_t{1} << qa, std::uint64_t{1} << qb, d};
    apply_diag_run(&op, 1);
  }
  void apply_diag_run(const math::DiagOp* ops, int k) override {
    CHARTER_ASSERT(k >= 1 && k <= math::kMaxDiagRun, "diagonal run length");
    if (pending_ + k > math::kMaxLaneOps) flush();
    for (int j = 0; j < k; ++j)
      ops_[pending_++] = math::LaneOp{.diag = ops[j]};
  }
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb) override {
    require(qa >= 0 && qa < n_ && qb >= 0 && qb < n_ && qa != qb,
            "qubits out of range");
    flush();
    if (shift_ > 0 && (qa == 0 || qb == 0)) {
      // The AVX2 and AVX-512 paths hand a bit-0 operand to the scalar
      // loop, whose products do not fuse; shifted up, the same op would
      // take the vector loop.  So it runs per lane, at its own position.
      for (int t = 0; t < lanes_; ++t)
        on_lane(t, [&](Statevector& sv) { sv.apply_unitary_2q(u, qa, qb); });
      return;
    }
    kernels::apply_2q(data(), size(), qa + shift_, qb + shift_, u);
  }
  void apply_unitary_3q(const std::array<cplx, 64>& u, int qa, int qb,
                        int qc) override {
    require(qa >= 0 && qa < n_ && qb >= 0 && qb < n_ && qc >= 0 &&
                qc < n_ && qa != qb && qa != qc && qb != qc,
            "qubits out of range");
    flush();
    kernels::apply_3q(data(), size(), qa + shift_, qb + shift_, qc + shift_,
                      u);
  }

  void apply_thermal_relaxation(int q, double gamma, double pz) override {
    if (gamma > 0.0) {
      // One pass applies the pending ops and reads every lane's P(1) and
      // no-jump norm from the values it writes; when no lane jumps, the
      // damp-and-scale becomes the pending op.
      const std::uint64_t mask = std::uint64_t{1} << q;
      const double keep = std::sqrt(1.0 - gamma);
      std::array<double, kMaxLanes> p1{}, norm{};
      kernels::lane_sweep(data(), dim_, lanes_, ops_.data(), pending_, mask,
                          keep, p1.data(), norm.data());
      pending_ = 0;
      std::array<bool, kMaxLanes> jump{};
      bool any_jump = false;
      for (int t = 0; t < lanes_; ++t) {
        jump[t] = rngs_[t].bernoulli(gamma * p1[t]);
        any_jump = any_jump || jump[t];
      }
      if (!any_jump) {
        math::LaneOp& op = ops_[pending_++];
        op = math::LaneOp{.damp = true, .mask = mask, .keep = keep};
        for (int t = 0; t < lanes_; ++t) {
          const double nrm = std::sqrt(norm[t]);
          CHARTER_ASSERT(nrm > 0.0, "cannot normalize zero state");
          op.scale[t] = 1.0 / nrm;
        }
      } else {
        for (int t = 0; t < lanes_; ++t)
          on_lane(t, [&](Statevector& sv) {
            relax(sv, q, gamma, p1[t], jump[t]);
          });
      }
    }
    if (pz > 0.0)
      for (int t = 0; t < lanes_; ++t)
        if (rngs_[t].bernoulli(pz))
          on_lane(t, [&](Statevector& sv) { apply_pauli(sv, 2, q); });
  }

  void apply_depolarizing_1q(int q, double p) override {
    if (p <= 0.0) return;
    for (int t = 0; t < lanes_; ++t) {
      if (!rngs_[t].bernoulli(p)) continue;
      const int which = static_cast<int>(rngs_[t].uniform_int(3));
      on_lane(t, [&](Statevector& sv) { apply_pauli(sv, which, q); });
    }
  }

  void apply_depolarizing_2q(int qa, int qb, double p) override {
    if (p <= 0.0) return;
    for (int t = 0; t < lanes_; ++t) {
      if (!rngs_[t].bernoulli(p)) continue;
      const int pick = static_cast<int>(rngs_[t].uniform_int(15)) + 1;
      on_lane(t, [&](Statevector& sv) { apply_pauli_2q(sv, pick, qa, qb); });
    }
  }

  void apply_bitflip(int q, double p) override {
    if (p <= 0.0) return;
    for (int t = 0; t < lanes_; ++t)
      if (rngs_[t].bernoulli(p))
        on_lane(t, [&](Statevector& sv) { apply_pauli(sv, 0, q); });
  }

  void apply_kraus_1q(std::span<const Mat2> kraus, int q) override {
    require(!kraus.empty(), "empty Kraus set");
    for (int t = 0; t < lanes_; ++t) {
      const double u = rngs_[t].uniform();
      on_lane(t, [&](Statevector& sv) { apply_kraus(sv, u, kraus, q); });
    }
  }

  std::vector<double> probabilities() const override {
    throw Error("a trajectory lane batch has no single distribution");
  }

 private:
  cplx* data() { return block_.data(); }
  std::uint64_t size() const {
    return dim_ * static_cast<std::uint64_t>(lanes_);
  }

  /// Applies the pending ops in one sweep without sums.
  void flush() {
    if (pending_ == 0) return;
    kernels::lane_sweep(data(), dim_, lanes_, ops_.data(), pending_, 0, 0.0,
                        nullptr, nullptr);
    pending_ = 0;
  }

  /// Runs \p fn on lane \p t alone: the pending ops are flushed and the
  /// lane is copied into a contiguous n-qubit scratch state (allocated at
  /// the first such event), so \p fn sees exactly the state and qubit
  /// positions a lone engine has.
  template <typename Fn>
  void on_lane(int t, Fn&& fn) {
    flush();
    if (!scratch_) scratch_.emplace(n_);
    cplx* s = scratch_->mutable_amplitudes().data();
    cplx* a = data() + t;
    const std::uint64_t lanes = static_cast<std::uint64_t>(lanes_);
    for (std::uint64_t i = 0; i < dim_; ++i) s[i] = a[i * lanes];
    fn(*scratch_);
    for (std::uint64_t i = 0; i < dim_; ++i) a[i * lanes] = s[i];
  }

  int n_;
  std::uint64_t dim_;
  int lanes_ = 1;
  int shift_ = 0;
  math::AmpBuffer block_;  ///< the lane block, sized for max_lanes
  /// Deferred element-local ops, in tape order: ops_[0, pending_).
  std::array<math::LaneOp, math::kMaxLaneOps> ops_;
  int pending_ = 0;
  std::vector<util::Rng> rngs_;
  std::optional<Statevector> scratch_;
};

}  // namespace

TrajectoryEngine::TrajectoryEngine(int num_qubits, std::uint64_t seed)
    : state_(num_qubits), rng_(seed) {}

void TrajectoryEngine::reset() { state_.reset(); }

void TrajectoryEngine::apply_unitary_1q(const Mat2& u, int q) {
  state_.apply_unitary_1q(u, q);
}

void TrajectoryEngine::apply_diag_1q(cplx d0, cplx d1, int q) {
  kernels::apply_diag_1q(state_.mutable_amplitudes().data(), state_.dim(), q,
                         d0, d1);
}

void TrajectoryEngine::apply_cx(int c, int t) {
  kernels::apply_cx(state_.mutable_amplitudes().data(), state_.dim(), c, t);
}

void TrajectoryEngine::apply_diag_2q(const std::array<cplx, 4>& d, int qa,
                                     int qb) {
  kernels::apply_diag_2q(state_.mutable_amplitudes().data(), state_.dim(), qa,
                         qb, d);
}

void TrajectoryEngine::apply_diag_run(const math::DiagOp* ops, int k) {
  CHARTER_ASSERT(k >= 1 && k <= math::kMaxDiagRun, "diagonal run length");
  kernels::apply_diag_run(state_.mutable_amplitudes().data(), state_.dim(),
                          ops, k);
}

void TrajectoryEngine::apply_unitary_2q(const math::Mat4& u, int qa, int qb) {
  state_.apply_unitary_2q(u, qa, qb);
}

void TrajectoryEngine::apply_unitary_3q(const std::array<cplx, 64>& u, int qa,
                                        int qb, int qc) {
  state_.apply_unitary_3q(u, qa, qb, qc);
}

void TrajectoryEngine::apply_thermal_relaxation(int q, double gamma,
                                                double pz) {
  if (gamma > 0.0) {
    const double p1 = state_.probability_one(q);
    relax(state_, q, gamma, p1, rng_.bernoulli(gamma * p1));
  }
  if (pz > 0.0 && rng_.bernoulli(pz)) apply_pauli(state_, 2, q);
}

void TrajectoryEngine::apply_depolarizing_1q(int q, double p) {
  if (p <= 0.0) return;
  if (!rng_.bernoulli(p)) return;
  apply_pauli(state_, static_cast<int>(rng_.uniform_int(3)), q);
}

void TrajectoryEngine::apply_depolarizing_2q(int qa, int qb, double p) {
  if (p <= 0.0) return;
  if (!rng_.bernoulli(p)) return;
  apply_pauli_2q(state_, static_cast<int>(rng_.uniform_int(15)) + 1, qa, qb);
}

void TrajectoryEngine::apply_bitflip(int q, double p) {
  if (p > 0.0 && rng_.bernoulli(p)) apply_pauli(state_, 0, q);
}

void TrajectoryEngine::apply_kraus_1q(std::span<const Mat2> kraus, int q) {
  require(!kraus.empty(), "empty Kraus set");
  apply_kraus(state_, rng_.uniform(), kraus, q);
}

std::vector<double> TrajectoryEngine::probabilities() const {
  return state_.probabilities();
}

std::vector<double> run_trajectory_group(
    int num_qubits, int begin, int end, const util::Rng& seeder,
    const std::function<void(NoisyEngine&)>& program) {
  require(begin >= 0 && begin < end &&
              begin / kTrajectoryGroupSize == (end - 1) / kTrajectoryGroupSize,
          "trajectory range must be a non-empty part of one fold group");
  const std::uint64_t dim = std::uint64_t{1} << num_qubits;
  std::vector<double> local(dim, 0.0);
  if (num_qubits >= amp_parallel_min_qubits()) {
    // Amplitude-parallel regime: one unravelling at a time, each kernel
    // and (chunked) reduction fanning out over threads.
    for (int t = begin; t < end; ++t) {
      TrajectoryEngine engine(num_qubits, trajectory_engine_seed(seeder, t));
      program(engine);
      const std::vector<double> p = engine.probabilities();
      for (std::uint64_t i = 0; i < dim; ++i) local[i] += p[i];
    }
    return local;
  }
  // Batches shrink along the group (8 = 4 + 4, 7 = 4 + 2 + 1), so the
  // first one is the widest.
  LaneBatch batch(num_qubits, batch_lanes(num_qubits, end - begin));
  for (int t = begin; t < end;) {
    const int lanes = batch_lanes(num_qubits, end - t);
    batch.start(lanes, seeder, t);
    program(batch);
    batch.accumulate(local);
    t += lanes;
  }
  return local;
}

TrajectoryFold::TrajectoryFold(std::uint64_t dim, int num_trajectories)
    : total_(dim, 0.0),
      pending_(static_cast<std::size_t>(
          num_trajectory_groups(num_trajectories))),
      num_trajectories_(num_trajectories) {}

void TrajectoryFold::add(int group, std::vector<double> partial) {
  require(partial.size() == total_.size(), "partial width mismatch");
  const std::lock_guard<std::mutex> lock(mu_);
  require(group >= next_ && group < static_cast<int>(pending_.size()) &&
              pending_[static_cast<std::size_t>(group)].empty(),
          "fold group out of range or added twice");
  pending_[static_cast<std::size_t>(group)] = std::move(partial);
  while (next_ < static_cast<int>(pending_.size()) &&
         !pending_[static_cast<std::size_t>(next_)].empty()) {
    std::vector<double> local =
        std::move(pending_[static_cast<std::size_t>(next_)]);
    for (std::size_t i = 0; i < total_.size(); ++i) total_[i] += local[i];
    ++next_;
  }
}

std::vector<double> TrajectoryFold::take() {
  require(next_ == static_cast<int>(pending_.size()),
          "fold taken before every group arrived");
  const double inv = 1.0 / num_trajectories_;
  for (double& v : total_) v *= inv;
  return std::move(total_);
}

std::vector<double> fold_trajectory_groups(
    const std::vector<std::vector<double>>& partials, std::uint64_t dim,
    int num_trajectories) {
  TrajectoryFold fold(dim, num_trajectories);
  for (std::size_t g = 0; g < partials.size(); ++g)
    fold.add(static_cast<int>(g), partials[g]);
  return fold.take();
}

std::vector<double> run_trajectories(
    int num_qubits, int num_trajectories, std::uint64_t seed,
    const std::function<void(NoisyEngine&)>& program) {
  require(num_trajectories >= 1, "need at least one trajectory");
  const util::Rng seeder(seed);
  const int num_groups = num_trajectory_groups(num_trajectories);
  TrajectoryFold fold(std::uint64_t{1} << num_qubits, num_trajectories);
  const auto run_group = [&](std::int64_t g) {
    const int begin = static_cast<int>(g) * kTrajectoryGroupSize;
    const int end =
        std::min(begin + kTrajectoryGroupSize, num_trajectories);
    fold.add(static_cast<int>(g), run_trajectory_group(num_qubits, begin,
                                                       end, seeder, program));
  };
  // Below the amplitude-parallel threshold the groups run as kernel-pool
  // tasks (off an exec thread); from it on they run here in order and the
  // kernels fan out.  The fold adds them in index order either way.
  if (num_qubits >= amp_parallel_min_qubits() || num_groups < 2 ||
      !util::run_on_kernel_pool(num_groups, run_group))
    for (std::int64_t g = 0; g < num_groups; ++g) run_group(g);
  return fold.take();
}

}  // namespace charter::sim
