// Tests for the batched execution subsystem: prefix-state checkpointing is
// bit-identical to naive per-gate runs, the run cache returns identical
// results on hits, non-exact configurations fall back to independent full
// runs, engine clone/save/load round-trips, the checkpoint memory budget
// degrades to replay instead of wrong answers, trajectory jobs resume from
// RNG-carrying engine clones, shards partition by checkpoint segment, the
// striped cache survives concurrent hammering, and — the parallel driver's
// headline contract — full CharterReports are bit-identical at every worker
// pool width.

#include <gtest/gtest.h>

#include <cstdlib>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "core/analyzer.hpp"
#include "core/reversal.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "exec/checkpoint.hpp"
#include "exec/sharding.hpp"
#include "exec/trajectory_plan.hpp"
#include "exec/worker.hpp"
#include "noise/executor.hpp"
#include "noise/serialize.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace co = charter::core;
namespace cs = charter::sim;
namespace cu = charter::util;
namespace ex = charter::exec;
using cc::GateKind;

namespace {

/// A 5-qubit logical program with an input-prep region and enough depth to
/// compile to a few dozen basis gates.
cc::Circuit deep_logical(int rounds = 3) {
  cc::Circuit c(5);
  for (int q = 0; q < 5; ++q) c.h(q, cc::kFlagInputPrep);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < 4; ++q) c.cx(q, q + 1);
    for (int q = 0; q < 5; ++q) c.t(q);
    c.cx(4, 3);
    for (int q = 0; q < 5; ++q) c.rx(q, 0.3 + 0.1 * q);
  }
  return c;
}

cb::CompiledProgram compiled_program(const cb::FakeBackend& backend,
                                     int rounds = 3) {
  return backend.compile(deep_logical(rounds));
}

/// Per-gate jobs mirroring what the analyzer submits (without going through
/// it), so BatchRunner behavior can be asserted directly.
struct JobSet {
  std::vector<cb::CompiledProgram> reversed;
  std::vector<ex::AnalysisJob> jobs;
};

JobSet make_jobs(const cb::CompiledProgram& program,
                 const std::vector<std::size_t>& gates,
                 const cb::RunOptions& run, int reversals = 2,
                 bool common_seed = false) {
  JobSet set;
  set.reversed.reserve(gates.size());
  for (const std::size_t g : gates) {
    cb::CompiledProgram rev = program;
    rev.physical =
        co::insert_reversed_pairs(program.physical, g, reversals, true);
    set.reversed.push_back(std::move(rev));
    cb::RunOptions opts = run;
    if (!common_seed) opts.seed = run.seed + g;
    set.jobs.push_back({&set.reversed.back(), opts, g + 1});
  }
  return set;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine checkpoint primitives
// ---------------------------------------------------------------------------

TEST(EngineCheckpoint, DensityMatrixSaveLoadRoundTrips) {
  cs::DensityMatrixEngine engine(3);
  engine.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                          0);
  engine.apply_cx(0, 1);
  engine.apply_depolarizing_2q(0, 1, 0.05);
  std::vector<charter::math::cplx> snap;
  engine.save_state(snap);
  const std::vector<double> before = engine.probabilities();

  engine.apply_thermal_relaxation(2, 0.3, 0.1);
  engine.apply_cx(1, 2);
  engine.load_state(snap);
  const std::vector<double> after = engine.probabilities();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
}

TEST(EngineCheckpoint, CloneEvolvesBitIdentically) {
  cs::TrajectoryEngine original(4, 0xfeedULL);
  // Burn some stochastic branches so the RNG stream is mid-flight.
  original.apply_bitflip(0, 0.4);
  original.apply_unitary_1q(
      cc::gate_unitary_1q(cc::make_gate(GateKind::SX, {1})), 1);
  original.apply_depolarizing_1q(1, 0.3);

  const std::unique_ptr<cs::NoisyEngine> copy = original.clone();
  for (cs::NoisyEngine* e :
       {static_cast<cs::NoisyEngine*>(&original), copy.get()}) {
    e->apply_depolarizing_2q(1, 2, 0.5);
    e->apply_thermal_relaxation(2, 0.2, 0.3);
    e->apply_cx(2, 3);
  }
  const std::vector<double> a = original.probabilities();
  const std::vector<double> b = copy->probabilities();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Checkpoint plan exactness
// ---------------------------------------------------------------------------

TEST(CheckpointPlan, ResumedRunsMatchColdRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  cb::RunOptions opts;
  opts.drift = 0.0;
  const cb::LoweredRun lowered = backend.lower(program, opts);
  const cn::NoisyExecutor executor(lowered.model);

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  ASSERT_GE(eligible.size(), 20u);

  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);
  const ex::CheckpointPlan plan(executor, lowered.local, lens,
                                512ull << 20);
  EXPECT_EQ(plan.num_checkpoints(), lens.size());

  cs::DensityMatrixEngine engine(lowered.local.num_qubits());
  for (const std::size_t g : {eligible.front(), eligible[eligible.size() / 2],
                              eligible.back()}) {
    const cc::Circuit derived =
        co::insert_reversed_pairs(lowered.local, g, 3, true);
    const std::vector<double> resumed = plan.run_shared(derived, g + 1, engine);

    cs::DensityMatrixEngine cold_engine(lowered.local.num_qubits());
    executor.run(derived, cold_engine);
    const std::vector<double> cold = cold_engine.probabilities();

    ASSERT_EQ(resumed.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(resumed[i], cold[i]) << "outcome " << i << " gate " << g;
  }
  EXPECT_EQ(plan.stats().fallbacks, 0u);
  EXPECT_EQ(plan.stats().resumed, 3u);
}

TEST(CheckpointPlan, TinyMemoryBudgetReplaysGapsExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  // Budget for exactly two snapshots: everything else must replay.
  cs::DensityMatrixEngine probe(lowered.local.num_qubits());
  const ex::CheckpointPlan plan(executor, lowered.local, lens,
                                2 * probe.state_bytes());
  EXPECT_LE(plan.num_checkpoints(), 2u);
  EXPECT_GE(plan.num_checkpoints(), 1u);

  cs::DensityMatrixEngine engine(lowered.local.num_qubits());
  const std::size_t g = eligible[eligible.size() / 3];
  const cc::Circuit derived =
      co::insert_reversed_pairs(lowered.local, g, 2, true);
  const std::vector<double> resumed = plan.run_shared(derived, g + 1, engine);

  cs::DensityMatrixEngine cold_engine(lowered.local.num_qubits());
  executor.run(derived, cold_engine);
  const std::vector<double> cold = cold_engine.probabilities();
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(resumed[i], cold[i]);
}

// ---------------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------------

TEST(BatchRunner, CheckpointedJobsMatchStandaloneRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  cb::RunOptions run;
  run.shots = 4096;
  run.drift = 0.0;
  run.seed = 77;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  std::vector<std::size_t> gates(eligible.begin(),
                                 eligible.begin() + 8);
  JobSet set = make_jobs(program, gates, run);

  const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
  const std::vector<std::vector<double>> dists = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().checkpointed, set.jobs.size());
  EXPECT_EQ(runner.last_stats().full_runs, 0u);

  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::vector<double> standalone =
        backend.run(*set.jobs[k].program, set.jobs[k].run);
    ASSERT_EQ(dists[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(dists[k][i], standalone[i])
          << "job " << k << " outcome " << i;
  }
}

TEST(BatchRunner, TrajectoryAndDriftFallBackToFullRuns) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 3);

  for (const bool use_drift : {false, true}) {
    cb::RunOptions run;
    run.shots = 1024;
    run.seed = 5;
    if (use_drift) {
      run.drift = 0.05;  // drifted model is seed-specific: no sharing
    } else {
      run.engine = cb::EngineKind::kTrajectory;  // stochastic: no sharing
      run.trajectories = 8;
    }
    JobSet set = make_jobs(program, gates, run);
    const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
    const std::vector<std::vector<double>> dists =
        runner.run(set.jobs, &program);
    EXPECT_EQ(runner.last_stats().checkpointed, 0u);
    EXPECT_EQ(runner.last_stats().full_runs, set.jobs.size());
    for (std::size_t k = 0; k < set.jobs.size(); ++k) {
      const std::vector<double> standalone =
          backend.run(*set.jobs[k].program, set.jobs[k].run);
      for (std::size_t i = 0; i < standalone.size(); ++i)
        EXPECT_EQ(dists[k][i], standalone[i]);
    }
  }
}

TEST(BatchRunner, CacheHitsReturnIdenticalResults) {
  ex::RunCache::global().clear();
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 4);
  cb::RunOptions run;
  run.shots = 2048;
  run.seed = 13;
  JobSet set = make_jobs(program, gates, run);

  const ex::BatchRunner runner(backend, {true, true, 512ull << 20});
  const std::vector<std::vector<double>> cold = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, 0u);

  const std::vector<std::vector<double>> warm = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, set.jobs.size());
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t k = 0; k < cold.size(); ++k) {
    ASSERT_EQ(cold[k].size(), warm[k].size());
    for (std::size_t i = 0; i < cold[k].size(); ++i)
      EXPECT_EQ(cold[k][i], warm[k][i]);
  }

  // A different seed is a different key: no stale hit.
  set.jobs[0].run.seed ^= 0xabcdULL;
  const std::vector<std::vector<double>> reseeded =
      runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, set.jobs.size() - 1);
  ex::RunCache::global().clear();
}

// ---------------------------------------------------------------------------
// Analyzer-level equivalence (the tentpole guarantee)
// ---------------------------------------------------------------------------

TEST(AnalyzerEquivalence, CheckpointedAnalysisMatchesNaiveBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);

  co::CharterOptions options;
  options.reversals = 3;
  options.run.shots = 4096;
  options.run.seed = 2022;
  options.run.drift = 0.0;  // exact-sharing regime
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterReport fast =
      co::CharterAnalyzer(backend, options).analyze(program);

  options.exec.checkpointing = false;
  const co::CharterReport naive =
      co::CharterAnalyzer(backend, options).analyze(program);

  ASSERT_GE(fast.analyzed_gates, 30u);
  ASSERT_EQ(fast.impacts.size(), naive.impacts.size());
  ASSERT_EQ(fast.original_distribution.size(),
            naive.original_distribution.size());
  for (std::size_t i = 0; i < fast.original_distribution.size(); ++i)
    EXPECT_EQ(fast.original_distribution[i], naive.original_distribution[i]);
  for (std::size_t k = 0; k < fast.impacts.size(); ++k) {
    EXPECT_EQ(fast.impacts[k].op_index, naive.impacts[k].op_index);
    EXPECT_EQ(fast.impacts[k].tvd, naive.impacts[k].tvd) << "gate " << k;
  }
}

TEST(AnalyzerEquivalence, InputImpactMatchesNaive) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  co::CharterOptions options;
  options.reversals = 2;
  options.run.shots = 2048;
  options.run.seed = 99;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const double fast =
      co::CharterAnalyzer(backend, options).input_impact(program);
  options.exec.checkpointing = false;
  const double naive =
      co::CharterAnalyzer(backend, options).input_impact(program);
  EXPECT_EQ(fast, naive);
}

TEST(AnalyzerEquivalence, TrajectoryAnalysisUnchangedByBatching) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);

  co::CharterOptions options;
  options.reversals = 2;
  options.max_gates = 4;
  options.run.shots = 512;
  options.run.engine = cb::EngineKind::kTrajectory;
  options.run.trajectories = 6;
  options.run.seed = 3;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterReport a =
      co::CharterAnalyzer(backend, options).analyze(program);
  options.exec.checkpointing = false;
  const co::CharterReport b =
      co::CharterAnalyzer(backend, options).analyze(program);
  ASSERT_EQ(a.impacts.size(), b.impacts.size());
  for (std::size_t k = 0; k < a.impacts.size(); ++k)
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprints, OptimizationLevelChangesRunKeys) {
  cb::RunOptions exact, wide;
  wide.opt = charter::noise::OptLevel::kFusedWide;
  EXPECT_FALSE(ex::fingerprint(exact) == ex::fingerprint(wide));

  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram p = compiled_program(backend, 1);
  EXPECT_FALSE(ex::run_key(p, backend, exact) ==
               ex::run_key(p, backend, wide));
}

TEST(Fingerprints, DistinguishProgramsOptionsAndDevices) {
  const cb::FakeBackend lagos_a = cb::FakeBackend::lagos(7);
  const cb::FakeBackend lagos_b = cb::FakeBackend::lagos(8);  // same name!
  const cb::CompiledProgram p1 = compiled_program(lagos_a, 1);
  cb::CompiledProgram p2 = p1;
  p2.physical.mutable_op(0).params[0] += 1e-9;

  EXPECT_FALSE(ex::fingerprint(p1) == ex::fingerprint(p2));
  EXPECT_FALSE(ex::fingerprint(lagos_a) == ex::fingerprint(lagos_b));

  cb::RunOptions r1, r2;
  r2.seed = r1.seed + 1;
  EXPECT_FALSE(ex::fingerprint(r1) == ex::fingerprint(r2));
  EXPECT_TRUE(ex::fingerprint(r1) == ex::fingerprint(cb::RunOptions{}));
}

// ---------------------------------------------------------------------------
// Shard construction
// ---------------------------------------------------------------------------

TEST(Sharding, GroupsBySegmentPreservingSubmissionOrder) {
  const std::vector<std::size_t> jobs = {10, 11, 12, 13, 14, 15};
  const std::vector<std::size_t> segments = {2, 0, 2, 2, 1, 0};
  const std::vector<ex::Shard> shards = ex::make_shards(jobs, segments, 100);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].segment, 0u);
  EXPECT_EQ(shards[0].jobs, (std::vector<std::size_t>{11, 15}));
  EXPECT_EQ(shards[1].segment, 1u);
  EXPECT_EQ(shards[1].jobs, (std::vector<std::size_t>{14}));
  EXPECT_EQ(shards[2].segment, 2u);
  EXPECT_EQ(shards[2].jobs, (std::vector<std::size_t>{10, 12, 13}));
}

TEST(Sharding, SplitsOversizedSegments) {
  const std::vector<std::size_t> jobs = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> segments = {7, 7, 7, 7, 7};
  const std::vector<ex::Shard> shards = ex::make_shards(jobs, segments, 2);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].jobs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(shards[1].jobs, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(shards[2].jobs, (std::vector<std::size_t>{4}));
  for (const ex::Shard& s : shards) EXPECT_EQ(s.segment, 7u);
}

TEST(Sharding, DefaultMaxShardJobsKeepsPoolBalanced) {
  // ~4 claims per worker, never below one job per shard.
  EXPECT_EQ(ex::default_max_shard_jobs(0, 4), 1u);
  EXPECT_EQ(ex::default_max_shard_jobs(15, 4), 1u);
  EXPECT_EQ(ex::default_max_shard_jobs(160, 4), 10u);
  EXPECT_EQ(ex::default_max_shard_jobs(160, 1), 40u);
}

TEST(CheckpointPlan, SegmentOfIsMonotoneAndCoversAllSnapshots) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);
  const ex::CheckpointPlan plan(executor, lowered.local, lens, 512ull << 20);

  EXPECT_EQ(plan.segment_of(0), 0u);
  EXPECT_EQ(plan.num_segments(), plan.num_checkpoints() + 1);
  std::size_t last = 0;
  std::set<std::size_t> seen;
  for (std::size_t len = 0; len <= lowered.local.size(); ++len) {
    const std::size_t seg = plan.segment_of(len);
    EXPECT_GE(seg, last);  // deeper prefixes never map to earlier segments
    last = seg;
    seen.insert(seg);
  }
  EXPECT_EQ(seen.size(), plan.num_segments());
  EXPECT_EQ(plan.segment_of(lowered.local.size()), plan.num_checkpoints());
}

// ---------------------------------------------------------------------------
// Striped run cache
// ---------------------------------------------------------------------------

TEST(RunCacheStriping, KeysSpreadAcrossShards) {
  std::set<std::size_t> used;
  for (int i = 0; i < 256; ++i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i));
    used.insert(ex::RunCache::shard_index(b.result()));
  }
  // 256 well-mixed keys over 16 stripes should touch every stripe.
  EXPECT_EQ(used.size(), ex::RunCache::kNumShards);
}

TEST(RunCacheStriping, ConcurrentStoresAndLookupsStayConsistent) {
  ex::RunCache cache(64ull << 20);
  constexpr int kKeys = 512;
  const auto key_of = [](int i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i) * 0x9e37ULL + 11);
    return b.result();
  };
  cu::ThreadPool pool(8);
  // Hammer every stripe from all workers: store, then immediately read back.
  pool.run(kKeys, [&](std::int64_t i, int) {
    const ex::Fingerprint key = key_of(static_cast<int>(i));
    cache.store(key, {static_cast<double>(i), 1.0});
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ((*hit)[0], static_cast<double>(i));
  });
  EXPECT_EQ(cache.stats().entries, static_cast<std::size_t>(kKeys));
  EXPECT_GE(cache.stats().hits, static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)[0], static_cast<double>(i));
  }
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RunCacheStriping, EntryLargerThanShardShareIsStillAdmitted) {
  // Admission is against the total budget: an entry bigger than one
  // stripe's even split (but within the budget) drains its stripe and is
  // cached alone, instead of being silently uncacheable.
  ex::RunCache cache(ex::RunCache::kNumShards * 4 * sizeof(double));
  ex::FingerprintBuilder b;
  b.mix(42);
  const std::vector<double> big(8, 1.5);  // 2x the per-shard share
  cache.store(b.result(), big);
  const auto hit = cache.lookup(b.result());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), big.size());
  // Beyond the total budget is still rejected.
  ex::FingerprintBuilder b2;
  b2.mix(43);
  cache.store(b2.result(), std::vector<double>(1000, 0.0));
  EXPECT_FALSE(cache.lookup(b2.result()).has_value());
}

TEST(RunCacheStriping, PerShardBudgetEvictsOldestWithinStripe) {
  // Budget for ~2 entries per stripe; flooding one stripe must evict its own
  // oldest entries and leave other stripes untouched.
  ex::RunCache cache(ex::RunCache::kNumShards * 4 * sizeof(double));
  std::vector<ex::Fingerprint> same_stripe;
  for (int i = 0; same_stripe.size() < 5; ++i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i) + 1000);
    if (ex::RunCache::shard_index(b.result()) == 0)
      same_stripe.push_back(b.result());
  }
  for (std::size_t k = 0; k < same_stripe.size(); ++k)
    cache.store(same_stripe[k], {static_cast<double>(k), 0.0});
  EXPECT_GT(cache.stats().evictions, 0u);
  // The newest entry survived; the oldest was evicted.
  EXPECT_TRUE(cache.lookup(same_stripe.back()).has_value());
  EXPECT_FALSE(cache.lookup(same_stripe.front()).has_value());
}

// ---------------------------------------------------------------------------
// Trajectory checkpoint plan
// ---------------------------------------------------------------------------

TEST(TrajectoryCheckpointPlan, ResumedUnravellingsMatchColdRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  cb::RunOptions opts;
  opts.drift = 0.0;
  const cb::LoweredRun lowered = backend.lower(program, opts);
  const cn::NoisyExecutor executor(lowered.model);
  const int width = lowered.local.num_qubits();
  constexpr int kTrajectories = 6;
  constexpr std::uint64_t kSeed = 123;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  ASSERT_GE(eligible.size(), 10u);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  cu::ThreadPool pool(2);
  const ex::TrajectoryCheckpointPlan plan(executor, lowered.local, lens,
                                          kTrajectories, kSeed,
                                          512ull << 20, pool);
  EXPECT_EQ(plan.num_checkpoints(), lens.size());

  // The base sweep reproduces a standalone trajectory run of the base.
  {
    const cn::NoiseProgram tape = executor.lower(lowered.local);
    const std::vector<double> cold = cs::run_trajectories(
        width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
        [&](cs::NoisyEngine& e) { tape.execute(e); });
    ASSERT_EQ(plan.base_probabilities().size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(plan.base_probabilities()[i], cold[i]) << "outcome " << i;
  }

  for (const std::size_t g : {eligible.front(), eligible[eligible.size() / 2],
                              eligible.back()}) {
    const cc::Circuit derived =
        co::insert_reversed_pairs(lowered.local, g, 2, true);
    const std::vector<double> resumed = plan.run_shared(derived, g + 1);

    const cn::NoiseProgram tape = executor.lower(derived);
    const std::vector<double> cold = cs::run_trajectories(
        width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
        [&](cs::NoisyEngine& e) { tape.execute(e); });

    ASSERT_EQ(resumed.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(resumed[i], cold[i]) << "outcome " << i << " gate " << g;
  }
  EXPECT_EQ(plan.stats().fallbacks, 0u);
  EXPECT_EQ(plan.stats().resumed, 3u);
}

TEST(TrajectoryCheckpointPlan, TinyBudgetReplaysGapsExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);
  const int width = lowered.local.num_qubits();
  constexpr int kTrajectories = 5;
  constexpr std::uint64_t kSeed = 9;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  // Budget for roughly two clone sets: everything else must replay.
  const std::size_t per_snapshot =
      ((std::size_t{16} << width) + 64) * kTrajectories;
  cu::ThreadPool pool(1);
  const ex::TrajectoryCheckpointPlan plan(executor, lowered.local, lens,
                                          kTrajectories, kSeed,
                                          2 * per_snapshot, pool);
  EXPECT_LE(plan.num_checkpoints(), 2u);
  EXPECT_GE(plan.num_checkpoints(), 1u);

  const std::size_t g = eligible[eligible.size() / 3];
  const cc::Circuit derived =
      co::insert_reversed_pairs(lowered.local, g, 2, true);
  const std::vector<double> resumed = plan.run_shared(derived, g + 1);

  const cn::NoiseProgram tape = executor.lower(derived);
  const std::vector<double> cold = cs::run_trajectories(
      width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
      [&](cs::NoisyEngine& e) { tape.execute(e); });
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(resumed[i], cold[i]);
}

TEST(BatchRunner, SeedAlignedTrajectoryJobsShareCheckpoints) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 4);

  cb::RunOptions run;
  run.shots = 1024;
  run.seed = 5;
  run.engine = cb::EngineKind::kTrajectory;
  run.trajectories = 8;
  // All jobs share the seed, so the prefix draws are identical per
  // unravelling and clone resumption is exact.
  JobSet set = make_jobs(program, gates, run, 2, /*common_seed=*/true);

  const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
  const std::vector<std::vector<double>> dists = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().trajectory_checkpointed, set.jobs.size());
  EXPECT_EQ(runner.last_stats().full_runs, 0u);
  EXPECT_EQ(runner.last_stats().checkpointed, 0u);

  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::vector<double> standalone =
        backend.run(*set.jobs[k].program, set.jobs[k].run);
    ASSERT_EQ(dists[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(dists[k][i], standalone[i]) << "job " << k << " outcome " << i;
  }
}

TEST(AnalyzerEquivalence, CommonRandomNumbersTrajectorySharingMatchesNaive) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);

  co::CharterOptions options;
  options.reversals = 2;
  options.max_gates = 5;
  options.run.shots = 512;
  options.run.engine = cb::EngineKind::kTrajectory;
  options.run.trajectories = 6;
  options.run.seed = 3;
  options.common_random_numbers = true;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterAnalyzer fast_analyzer(backend, options);
  const co::CharterReport fast = fast_analyzer.analyze(program);
  EXPECT_GT(fast.exec_stats.trajectory_checkpointed, 0u);

  options.exec.checkpointing = false;
  const co::CharterReport naive =
      co::CharterAnalyzer(backend, options).analyze(program);

  ASSERT_EQ(fast.impacts.size(), naive.impacts.size());
  for (std::size_t k = 0; k < fast.impacts.size(); ++k)
    EXPECT_EQ(fast.impacts[k].tvd, naive.impacts[k].tvd) << "gate " << k;
}

// ---------------------------------------------------------------------------
// Determinism matrix: the parallel driver's headline contract.  The full
// CharterReport — every score, the output distribution, and the exec layer's
// cache/checkpoint counters — is bit-identical at every worker-pool width,
// for the density-matrix engine and the trajectory engine (independent
// seeds, common random numbers, and the fused-wide tape).
// ---------------------------------------------------------------------------

namespace {

struct MatrixRun {
  co::CharterReport cold_report;
  co::CharterReport warm_report;
  ex::BatchRunner::Stats cold_stats;
  ex::BatchRunner::Stats warm_stats;
};

MatrixRun analyze_at_width(const cb::FakeBackend& backend,
                           const cb::CompiledProgram& program,
                           co::CharterOptions options, int threads) {
  options.exec.threads = threads;
  options.exec.caching = true;
  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, options);
  MatrixRun out;
  out.cold_report = analyzer.analyze(program);
  out.cold_stats = out.cold_report.exec_stats;
  out.warm_report = analyzer.analyze(program);  // all jobs served from cache
  out.warm_stats = out.warm_report.exec_stats;
  ex::RunCache::global().clear();
  return out;
}

void expect_reports_identical(const co::CharterReport& a,
                              const co::CharterReport& b,
                              const std::string& label) {
  ASSERT_EQ(a.impacts.size(), b.impacts.size()) << label;
  ASSERT_EQ(a.original_distribution.size(), b.original_distribution.size())
      << label;
  for (std::size_t i = 0; i < a.original_distribution.size(); ++i)
    EXPECT_EQ(a.original_distribution[i], b.original_distribution[i])
        << label << " outcome " << i;
  for (std::size_t k = 0; k < a.impacts.size(); ++k) {
    EXPECT_EQ(a.impacts[k].op_index, b.impacts[k].op_index) << label;
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd)
        << label << " gate " << k;
  }
}

void expect_stats_identical(const ex::BatchRunner::Stats& a,
                            const ex::BatchRunner::Stats& b,
                            const std::string& label) {
  EXPECT_EQ(a.jobs, b.jobs) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.checkpointed, b.checkpointed) << label;
  EXPECT_EQ(a.trajectory_checkpointed, b.trajectory_checkpointed) << label;
  EXPECT_EQ(a.full_runs, b.full_runs) << label;
  EXPECT_EQ(a.checkpoint_fallbacks, b.checkpoint_fallbacks) << label;
}

}  // namespace

TEST(DeterminismMatrix, ReportsBitIdenticalAcrossThreadCounts) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  struct Config {
    const char* name;
    co::CharterOptions options;
  };
  std::vector<Config> configs;
  {
    co::CharterOptions dm;
    dm.reversals = 2;
    dm.run.shots = 4096;
    dm.run.seed = 2022;
    configs.push_back({"dm_exact", dm});

    co::CharterOptions traj;
    traj.reversals = 2;
    traj.max_gates = 4;
    traj.run.shots = 512;
    traj.run.engine = cb::EngineKind::kTrajectory;
    traj.run.trajectories = 6;
    traj.run.seed = 3;
    configs.push_back({"trajectory_independent_seeds", traj});
    traj.common_random_numbers = true;
    configs.push_back({"trajectory_common_random_numbers", traj});
    // Common random numbers share the checkpointed trajectory route, whose
    // resumed suffixes are re-fused past each snapshot.
    traj.run.opt = cn::OptLevel::kFusedWide;
    configs.push_back({"trajectory_fused_wide", traj});
  }

  for (const Config& config : configs) {
    const MatrixRun base =
        analyze_at_width(backend, program, config.options, 1);
    EXPECT_EQ(base.cold_stats.cache_hits, 0u) << config.name;
    EXPECT_EQ(base.warm_stats.cache_hits, base.warm_stats.jobs)
        << config.name;
    for (const int threads : {2, 8}) {
      const MatrixRun wide =
          analyze_at_width(backend, program, config.options, threads);
      const std::string label =
          std::string(config.name) + " @" + std::to_string(threads);
      expect_reports_identical(base.cold_report, wide.cold_report,
                               label + " cold");
      expect_reports_identical(base.warm_report, wide.warm_report,
                               label + " warm");
      expect_stats_identical(base.cold_stats, wide.cold_stats,
                             label + " cold stats");
      expect_stats_identical(base.warm_stats, wide.warm_stats,
                             label + " warm stats");
    }
  }
}

TEST(DeterminismMatrix, ReportsBitIdenticalAcrossWorkerProcesses) {
  // The multi-process extension of the matrix above: the full report is
  // bit-identical whether shards run in-process or in 1/2/4 `charter
  // worker` children (plain-fork mode — worker_exe empty), because the
  // wire formats carry raw double bits and the reduction stays
  // submission-index-ordered.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  struct Config {
    const char* name;
    co::CharterOptions options;
  };
  std::vector<Config> configs;
  {
    co::CharterOptions dm;
    dm.reversals = 2;
    dm.run.shots = 4096;
    dm.run.seed = 2022;
    configs.push_back({"dm_exact", dm});

    co::CharterOptions traj;
    traj.reversals = 2;
    traj.max_gates = 4;
    traj.run.shots = 512;
    traj.run.engine = cb::EngineKind::kTrajectory;
    traj.run.trajectories = 6;
    traj.run.seed = 3;
    configs.push_back({"trajectory_independent_seeds", traj});
  }

  for (const Config& config : configs) {
    const MatrixRun inproc =
        analyze_at_width(backend, program, config.options, 2);
    for (const int workers : {1, 2, 4}) {
      co::CharterOptions options = config.options;
      options.exec.workers = workers;
      const MatrixRun multi = analyze_at_width(backend, program, options, 2);
      const std::string label =
          std::string(config.name) + " workers=" + std::to_string(workers);
      expect_reports_identical(inproc.cold_report, multi.cold_report,
                               label + " cold");
      expect_reports_identical(inproc.warm_report, multi.warm_report,
                               label + " warm");
      expect_stats_identical(inproc.cold_stats, multi.cold_stats,
                             label + " cold stats");
      EXPECT_GT(multi.cold_stats.worker_jobs, 0u)
          << label << ": children served no work";
      EXPECT_EQ(multi.cold_stats.worker_failures, 0u) << label;
      // The warm run is all cache hits; no work reaches the children.
      EXPECT_EQ(multi.warm_stats.worker_jobs, 0u) << label;
    }
  }
}

TEST(MultiProcess, KilledWorkerShardIsRetriedInProcessUnchanged) {
  // Fault injection: every child SIGKILLs itself after serving one request
  // (CHARTER_WORKER_KILL_AFTER, inherited across fork).  The sweep must
  // detect the EOF, retry the dead workers' units in-process, and produce
  // the exact report an all-in-process run gives.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  ASSERT_GE(eligible.size(), 6u);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 6);

  cb::RunOptions run;
  run.shots = 1024;
  run.seed = 5;
  JobSet set = make_jobs(program, gates, run);

  ex::BatchOptions options;
  options.caching = false;
  const ex::BatchRunner baseline(backend, options);
  const std::vector<std::vector<double>> expected =
      baseline.run(set.jobs, &program);

  options.workers = 2;
  ::setenv("CHARTER_WORKER_KILL_AFTER", "1", 1);
  const ex::BatchRunner faulty(backend, options);
  const std::vector<std::vector<double>> got = faulty.run(set.jobs, &program);
  ::unsetenv("CHARTER_WORKER_KILL_AFTER");

  EXPECT_GE(faulty.last_stats().worker_failures, 1u)
      << "no child died; the fault injection did not fire";
  EXPECT_GE(faulty.last_stats().worker_retried_jobs, 1u);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(got[k].size(), expected[k].size()) << "job " << k;
    for (std::size_t i = 0; i < expected[k].size(); ++i)
      EXPECT_EQ(got[k][i], expected[k][i]) << "job " << k << " outcome " << i;
  }
}

TEST(MultiProcess, TrajectoryRangeSpanningFoldGroupsIsRejected) {
  // A traj_group request must name a non-empty part of one fold group; any
  // other range gets a structured error, and the child keeps serving.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoiseProgram tape =
      cn::NoisyExecutor(lowered.model).lower(lowered.local);
  const std::vector<std::uint8_t> bytes = cn::serialize_tape(tape);
  ex::WorkerProcess worker("");
  ASSERT_TRUE(worker.alive());
  for (const auto& [begin, end] :
       std::vector<std::pair<int, int>>{{0, 9}, {6, 10}, {4, 4}, {0, 1 << 30}}) {
    EXPECT_FALSE(worker.run_trajectory_group(bytes, begin, end, 11))
        << begin << ".." << end;
    EXPECT_TRUE(worker.alive()) << "an error reply must not end the child";
  }
  const std::optional<std::vector<double>> got =
      worker.run_trajectory_group(bytes, 8, 16, 11);
  ASSERT_TRUE(got);
  const std::vector<double> want = cs::run_trajectory_group(
      tape.num_qubits(), 8, 16, cu::Rng(11),
      [&](cs::NoisyEngine& e) { tape.execute(e); });
  EXPECT_EQ(*got, want);
}

// ---------------------------------------------------------------------------
// Pipelined checkpoint plan: BatchRunner's DM route runs the base sweep as
// the pool's caller task and hands each snapshot to its shards as soon as
// it is taken.  Only the start times change, so every result equals the
// inline plan's, and no failure mode may leave a thread waiting.
// ---------------------------------------------------------------------------

namespace {

/// What the DM route computes, job by job, through the inline plan.
struct InlineRun {
  std::vector<std::vector<double>> results;
  std::size_t fallbacks = 0;
};

InlineRun inline_plan_results(
    const cb::FakeBackend& backend, const cb::CompiledProgram& base,
    const std::vector<ex::AnalysisJob>& jobs, std::size_t budget) {
  cb::RunOptions lower_options;
  lower_options.drift = 0.0;
  const cb::LoweredRun lowered = backend.lower(base, lower_options);
  const cn::NoisyExecutor executor(lowered.model);
  std::vector<std::size_t> lens;
  for (const ex::AnalysisJob& job : jobs)
    if (job.program != &base) lens.push_back(job.shared_prefix);
  const ex::CheckpointPlan plan(executor, lowered.local, lens, budget);
  cs::DensityMatrixEngine engine(lowered.local.num_qubits());
  InlineRun out;
  for (const ex::AnalysisJob& job : jobs) {
    std::vector<double> probs =
        job.program == &base
            ? plan.base_probabilities()
            : plan.run_shared(cb::compact_to(job.program->physical,
                                             lowered.kept),
                              job.shared_prefix, engine);
    out.results.push_back(
        backend.finalize(std::move(probs), lowered, *job.program, job.run));
  }
  out.fallbacks = plan.stats().fallbacks;
  return out;
}

struct PlanFixture {
  cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  cb::CompiledProgram program = compiled_program(backend, 2);
  cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  cn::NoisyExecutor executor{lowered.model};
  std::vector<std::size_t> eligible = co::reversible_ops(lowered.local, true);

  cc::Circuit derived(std::size_t g) const {
    return co::insert_reversed_pairs(lowered.local, g, 2, true);
  }
  std::vector<double> cold(const cc::Circuit& c) const {
    cs::DensityMatrixEngine engine(lowered.local.num_qubits());
    executor.run(c, engine);
    return engine.probabilities();
  }
};

/// Runs plan.sweep() on a thread of its own.  Leaving scope without join()
/// (a failed assertion) aborts the plan first, so the sweep cannot be left
/// waiting for claims.
class SweepThread {
 public:
  explicit SweepThread(ex::CheckpointPlan& plan,
                       const cu::CancelFlag* cancel = nullptr)
      : plan_(plan), thread_([this, cancel] { finished_ = plan_.sweep(cancel); }) {}
  SweepThread(const SweepThread&) = delete;
  SweepThread& operator=(const SweepThread&) = delete;
  ~SweepThread() {
    if (!thread_.joinable()) return;
    plan_.abort();
    thread_.join();
  }

  /// Waits for the sweep; true when it ran to completion.
  bool join() {
    thread_.join();
    return finished_;
  }

 private:
  ex::CheckpointPlan& plan_;
  bool finished_ = false;
  std::thread thread_;
};

}  // namespace

TEST(PipelinedCheckpointPlan, BatchMatchesInlinePlanAcrossThreadsAndWorkers) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  ASSERT_GE(eligible.size(), 12u);
  // Every other eligible gate, each submitted twice: every snapshot has
  // two declared consumers.  The base job rides along.
  std::vector<std::size_t> gates;
  for (std::size_t k = 0; k < eligible.size(); k += 2) {
    gates.push_back(eligible[k]);
    gates.push_back(eligible[k]);
  }
  cb::RunOptions run;
  run.shots = 2048;
  run.seed = 41;
  JobSet set = make_jobs(program, gates, run);
  set.jobs.push_back({&program, run, program.physical.size()});

  cb::RunOptions lower_options;
  lower_options.drift = 0.0;
  const cs::DensityMatrixEngine probe(
      backend.lower(program, lower_options).local.num_qubits());
  // A snapshot per insertion point, then room for two only: the second
  // budget replays gaps and packs many jobs of one segment into a shard.
  for (const std::size_t budget :
       {std::size_t{512} << 20, 2 * probe.state_bytes()}) {
    const InlineRun expected =
        inline_plan_results(backend, program, set.jobs, budget);
    for (const int threads : {1, 2, 8}) {
      for (const int workers : {0, 2}) {
        ex::BatchOptions options;
        options.caching = false;
        options.checkpoint_memory_bytes = budget;
        options.threads = threads;
        options.workers = workers;
        const ex::BatchRunner runner(backend, options);
        const std::vector<std::vector<double>> got =
            runner.run(set.jobs, &program);
        const std::string label = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads) +
                                  " workers=" + std::to_string(workers);
        // Jobs ahead of the first kept snapshot run cold, as inline.
        EXPECT_EQ(runner.last_stats().checkpoint_fallbacks,
                  expected.fallbacks)
            << label;
        EXPECT_EQ(runner.last_stats().checkpointed,
                  set.jobs.size() - expected.fallbacks)
            << label;
        ASSERT_EQ(got.size(), expected.results.size()) << label;
        for (std::size_t k = 0; k < got.size(); ++k)
          EXPECT_EQ(got[k], expected.results[k]) << label << " job " << k;
      }
    }
  }
}

TEST(PipelinedCheckpointPlan, CancelDuringTheSweepThrowsCancelled) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 3);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  cb::RunOptions run;
  run.shots = 1024;
  run.seed = 8;
  JobSet set = make_jobs(program, eligible, run);
  set.jobs.push_back({&program, run, program.physical.size()});

  for (const int threads : {1, 2}) {
    for (const int workers : {0, 2}) {
      cu::CancelFlag cancel;
      ex::RunHooks hooks;
      hooks.cancel = &cancel;
      hooks.on_job_complete = [&](std::size_t) { cancel.request(); };
      ex::BatchOptions options;
      options.caching = false;
      options.threads = threads;
      options.workers = workers;
      EXPECT_THROW(ex::BatchRunner(backend, options)
                       .run(set.jobs, &program, &hooks),
                   charter::Cancelled)
          << "threads=" << threads << " workers=" << workers;
    }
  }
}

TEST(PipelinedCheckpointPlan, ThrowingJobRethrowsItsError) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 3);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  cb::RunOptions run;
  run.shots = 1024;
  run.seed = 9;
  JobSet set = make_jobs(program, eligible, run);
  set.jobs.push_back({&program, run, program.physical.size()});

  for (const int threads : {1, 2, 8}) {
    for (const int workers : {0, 2}) {
      ex::RunHooks hooks;
      hooks.on_job_complete = [](std::size_t) {
        throw std::runtime_error("observer failed");
      };
      ex::BatchOptions options;
      options.caching = false;
      options.threads = threads;
      options.workers = workers;
      try {
        (void)ex::BatchRunner(backend, options)
            .run(set.jobs, &program, &hooks);
        ADD_FAILURE() << "expected a throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "observer failed")
            << "threads=" << threads << " workers=" << workers;
      }
    }
  }
}

TEST(PipelinedCheckpointPlan, BoundedSweepServesInOrderConsumers) {
  // One pending snapshot at most: the sweep waits for every claim, and a
  // consumer walking the segments in order still gets all of them.
  const PlanFixture f;
  std::vector<std::size_t> lens;
  for (const std::size_t g : f.eligible) lens.push_back(g + 1);
  ex::CheckpointPlan plan(f.executor, f.lowered.local, lens, 512ull << 20,
                          /*max_pending=*/1);
  ASSERT_EQ(plan.num_checkpoints(), lens.size());
  SweepThread producer(plan);
  for (const std::size_t g : f.eligible) {
    ASSERT_TRUE(plan.wait_for_segment(plan.segment_of(g + 1)));
    const cc::Circuit derived = f.derived(g);
    std::optional<ex::CheckpointPlan::PreparedResume> prep =
        plan.prepare_shared(derived, g + 1);
    ASSERT_TRUE(prep.has_value());
    cs::DensityMatrixEngine engine(f.lowered.local.num_qubits());
    engine.load_state(*prep->snapshot);
    prep->tape.run(engine, prep->resume_pos, prep->tape.size());
    EXPECT_EQ(engine.probabilities(), f.cold(derived)) << "gate " << g;
  }
  EXPECT_TRUE(producer.join());
  EXPECT_EQ(plan.stats().resumed, lens.size());
}

TEST(PipelinedCheckpointPlan, LastClaimFreesTheSnapshotAndOverClaimingThrows) {
  const PlanFixture f;
  const std::size_t g = f.eligible[f.eligible.size() / 2];
  // Two declared claims on one snapshot.
  ex::CheckpointPlan plan(f.executor, f.lowered.local, {g + 1, g + 1},
                          512ull << 20, 1);
  ASSERT_TRUE(plan.sweep());
  const cc::Circuit derived = f.derived(g);

  std::optional<ex::CheckpointPlan::PreparedResume> first =
      plan.prepare_shared(derived, g + 1);
  ASSERT_TRUE(first.has_value());
  const std::weak_ptr<const std::vector<charter::math::cplx>> buffer =
      first->snapshot;
  first.reset();
  EXPECT_FALSE(buffer.expired());  // one declared claim is still to come

  std::optional<ex::CheckpointPlan::PreparedResume> last =
      plan.prepare_shared(derived, g + 1);
  ASSERT_TRUE(last.has_value());
  // A third claim is an error, not a read of the released buffer...
  EXPECT_THROW((void)plan.prepare_shared(derived, g + 1), charter::Error);
  // ...and the last consumer's reference still reads the intact state.
  cs::DensityMatrixEngine engine(f.lowered.local.num_qubits());
  engine.load_state(*last->snapshot);
  last->tape.run(engine, last->resume_pos, last->tape.size());
  EXPECT_EQ(engine.probabilities(), f.cold(derived));
  last.reset();
  EXPECT_TRUE(buffer.expired());  // freed after its last consumer
}

TEST(PipelinedCheckpointPlan, CancelWakesABlockedSweepAndItsConsumers) {
  const PlanFixture f;
  std::vector<std::size_t> lens;
  for (const std::size_t g : f.eligible) lens.push_back(g + 1);
  ex::CheckpointPlan plan(f.executor, f.lowered.local, lens, 512ull << 20, 1);
  ASSERT_GE(plan.num_checkpoints(), 3u);
  cu::CancelFlag cancel;
  // Nobody claims snapshot 0, so the sweep blocks on its pending bound.
  SweepThread producer(plan, &cancel);
  bool served = true;
  std::thread consumer([&] { served = plan.wait_for_segment(3); });
  EXPECT_TRUE(plan.wait_for_segment(1));
  cancel.request();
  EXPECT_FALSE(producer.join());
  consumer.join();
  EXPECT_FALSE(served);
  EXPECT_FALSE(plan.wait_for_segment(2));
}

TEST(PipelinedCheckpointPlan, ThrowingSweepWakesEveryWaitingConsumer) {
  // 15 qubits is past the density-matrix engine's width, so the sweep
  // throws when it builds its engine; selecting and lowering still work.
  const cb::FakeBackend backend = cb::FakeBackend::guadalupe();
  cc::Circuit logical(15);
  for (int q = 0; q < 15; ++q) logical.h(q);
  for (int q = 0; q + 1 < 15; ++q) logical.cx(q, q + 1);
  const cb::CompiledProgram program = backend.compile(logical);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  ASSERT_GT(lowered.local.num_qubits(), 14);
  const cn::NoisyExecutor executor(lowered.model);
  const std::vector<std::size_t> lens = {2, 4, lowered.local.size()};
  ex::CheckpointPlan plan(executor, lowered.local, lens,
                          std::numeric_limits<std::size_t>::max(), 1);
  ASSERT_EQ(plan.num_checkpoints(), 3u);

  std::vector<int> woke(3, -1);
  std::vector<std::thread> consumers;
  for (std::size_t s = 1; s <= 3; ++s)
    consumers.emplace_back(
        [&, s] { woke[s - 1] = plan.wait_for_segment(s) ? 1 : 0; });
  EXPECT_THROW((void)plan.sweep(), charter::Error);
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(woke, (std::vector<int>{0, 0, 0}));
}
