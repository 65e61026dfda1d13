#include "exec/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/error.hpp"

namespace charter::exec {

using noise::NoisyExecutor;

namespace {

/// Evenly spaced subset of \p lens (sorted ascending, deduped) with at most
/// \p cap entries, biased toward the deepest prefixes (they save the most
/// replay work; shallow gaps are cheap to replay from earlier snapshots or
/// from scratch).  The deepest prefix is always kept.
std::vector<std::size_t> select_checkpoints_within_budget(
    std::vector<std::size_t> lens, std::size_t cap) {
  if (cap == 0) return {};
  if (lens.size() <= cap) return lens;
  std::vector<std::size_t> picked;
  picked.reserve(cap);
  const double step =
      static_cast<double>(lens.size() - 1) / static_cast<double>(cap);
  // Walk from the deep end so the last prefix is always kept.
  for (std::size_t k = 0; k < cap; ++k) {
    const double pos = static_cast<double>(lens.size() - 1) -
                       static_cast<double>(k) * step;
    picked.push_back(lens[static_cast<std::size_t>(pos)]);
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

}  // namespace

CheckpointPlan::CheckpointPlan(const NoisyExecutor& executor,
                               circ::Circuit base,
                               std::vector<std::size_t> prefix_lens,
                               std::size_t memory_budget_bytes)
    : CheckpointPlan(executor, std::move(base), std::move(prefix_lens),
                     memory_budget_bytes, 1) {
  pipelined_ = false;
  sweep();
}

CheckpointPlan::CheckpointPlan(const NoisyExecutor& executor,
                               circ::Circuit base,
                               std::vector<std::size_t> prefix_lens,
                               std::size_t memory_budget_bytes,
                               std::size_t max_pending)
    : executor_(executor),
      base_(std::move(base)),
      base_stream_(executor.make_stream(base_)),
      max_pending_(max_pending) {
  require(executor.level() == noise::OptLevel::kExact,
          "density-matrix checkpoint plans run the exact tape");
  require(max_pending >= 1, "a pipelined plan needs room for one snapshot");
  std::vector<std::size_t> lens = prefix_lens;
  std::sort(lens.begin(), lens.end());
  lens.erase(std::unique(lens.begin(), lens.end()), lens.end());
  // A zero-length prefix shares nothing; a snapshot there is just reset().
  while (!lens.empty() && lens.front() == 0) lens.erase(lens.begin());
  for (const std::size_t len : lens)
    require(len <= base_.size(), "checkpoint prefix longer than the base");

  const std::size_t per_snapshot = sizeof(math::cplx)
                                   << (2 * base_.num_qubits());
  const std::vector<std::size_t> keep = select_checkpoints_within_budget(
      std::move(lens), memory_budget_bytes / per_snapshot);
  checkpoints_.resize(keep.size());
  for (std::size_t k = 0; k < keep.size(); ++k)
    checkpoints_[k].prefix_len = keep[k];
  // One declared claim per requested prefix, on the snapshot it resumes
  // from (prepare_shared claims exactly segment_of(prefix_len)'s).
  for (const std::size_t len : prefix_lens)
    if (const std::size_t segment = segment_of(len); segment > 0)
      ++checkpoints_[segment - 1].claims_left;
}

bool CheckpointPlan::sweep(const util::CancelFlag* cancel) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    require(!swept_, "a checkpoint plan sweeps its base once");
    swept_ = true;
  }
  try {
    sim::DensityMatrixEngine engine(base_.num_qubits());
    executor_.start(base_, base_stream_, engine);
    std::size_t next = 0;  // next checkpoint to take
    while (base_stream_.next_op < base_.size()) {
      if (cancel != nullptr && cancel->requested()) {
        abort();
        return false;
      }
      executor_.step(base_, base_stream_, engine);
      if (next < checkpoints_.size() &&
          base_stream_.next_op == checkpoints_[next].prefix_len &&
          !publish(engine, next++, cancel))
        return false;
    }
    executor_.finish(base_, base_stream_, engine);
    base_probs_ = engine.probabilities();
  } catch (...) {
    abort();
    throw;
  }
  return true;
}

bool CheckpointPlan::publish(const sim::DensityMatrixEngine& engine,
                             std::size_t k, const util::CancelFlag* cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!aborted_ && pending_ >= max_pending_) {
    if (cancel == nullptr) {
      cv_.wait(lock);
      continue;
    }
    // Requesting a cancel notifies no one, so poll it while waiting.
    cv_.wait_for(lock, std::chrono::milliseconds(2));
    if (cancel->requested()) aborted_ = true;
  }
  if (aborted_) {
    cv_.notify_all();
    return false;
  }
  lock.unlock();
  auto rho = std::make_shared<std::vector<math::cplx>>();
  engine.save_state(*rho);
  lock.lock();
  Checkpoint& cp = checkpoints_[k];
  cp.rho = std::move(rho);
  if (pipelined_ && cp.claims_left > 0) ++pending_;
  taken_ = k + 1;
  cv_.notify_all();
  return true;
}

void CheckpointPlan::abort() {
  const std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

bool CheckpointPlan::wait_for_segment(std::size_t segment) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return aborted_ || taken_ >= segment; });
  return !aborted_;
}

CheckpointPlan::Snapshot CheckpointPlan::claim(std::size_t k) const {
  const std::lock_guard<std::mutex> lock(mu_);
  require(k < taken_, "checkpoint claimed before the sweep took it");
  const Checkpoint& cp = checkpoints_[k];
  if (!pipelined_) return cp.rho;
  require(cp.claims_left > 0, "checkpoint claimed more times than declared");
  if (!cp.claimed) {
    cp.claimed = true;
    --pending_;
    cv_.notify_all();
  }
  // The last declared consumer adopts the plan's reference instead of a
  // copy of it: the buffer is freed as soon as no consumer holds it.
  if (--cp.claims_left == 0) return std::move(cp.rho);
  return cp.rho;
}

std::size_t CheckpointPlan::segment_of(std::size_t prefix_len) const {
  std::size_t segment = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.prefix_len > prefix_len) break;
    ++segment;
  }
  return segment;
}

std::optional<CheckpointPlan::PreparedResume> CheckpointPlan::prepare_shared(
    const circ::Circuit& c, std::size_t prefix_len) const {
  require(c.num_qubits() == base_.num_qubits(),
          "derived circuit width differs from the base");

  // Deepest snapshot at or before the fork point.  (A derived circuit
  // shorter than prefix_len cannot share that many ops: the splice below
  // refuses it, whichever snapshot precedes it.)
  const std::size_t segment = segment_of(prefix_len);
  Snapshot snapshot;
  if (segment > 0) snapshot = claim(segment - 1);

  // Splice the derived tape from the base tape: the shared prefix is copied
  // (and proven exact), only the suffix is lowered.
  std::optional<noise::NoiseProgram> spliced =
      snapshot == nullptr
          ? std::nullopt
          : noise::lower_spliced(executor_.model(), base_,
                                 base_stream_.program, c, prefix_len);

  if (!spliced.has_value()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // Resume at the tape position of the snapshot.
  const std::size_t taken_at = checkpoints_[segment - 1].prefix_len;
  const std::size_t resume_pos = spliced->op_end(taken_at - 1);
  replayed_ops_.fetch_add(prefix_len - taken_at, std::memory_order_relaxed);
  resumed_.fetch_add(1, std::memory_order_relaxed);
  return PreparedResume{std::move(*spliced), resume_pos, std::move(snapshot),
                        segment - 1};
}

std::vector<double> CheckpointPlan::run_shared(
    const circ::Circuit& c, std::size_t prefix_len,
    sim::DensityMatrixEngine& engine) const {
  std::optional<PreparedResume> prep = prepare_shared(c, prefix_len);
  if (!prep.has_value()) {
    executor_.run(c, engine);
    return engine.probabilities();
  }
  engine.load_state(*prep->snapshot);
  prep->tape.run(engine, prep->resume_pos, prep->tape.size());
  return engine.probabilities();
}

}  // namespace charter::exec
