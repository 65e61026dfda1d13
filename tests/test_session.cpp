// Tests for the public charter::Session facade (include/charter/): config
// validation, async job lifecycle, monotone progress, deterministic impact
// streaming, cooperative cancellation, custom Backend subclasses, and the
// acceptance contract that a Session report is bit-identical to driving
// core::CharterAnalyzer directly at every worker-pool width.

#include <charter/charter.hpp>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace co = charter::core;
namespace ex = charter::exec;

co::CharterOptions direct_options(int threads) {
  co::CharterOptions o;
  o.reversals = 3;
  o.run.shots = 4096;
  o.run.seed = 2022;
  o.exec.threads = threads;
  return o;
}

charter::SessionConfig session_config(int threads) {
  charter::SessionConfig config =
      charter::SessionConfig().reversals(3).shots(4096).seed(2022);
  config.execution().threads(threads);
  return config;
}

charter::SessionConfig uncached_config(int threads) {
  charter::SessionConfig config = session_config(threads);
  config.execution().caching(false);
  return config;
}

cb::CompiledProgram qft3_program(const cb::FakeBackend& backend) {
  return backend.compile(charter::algos::find_benchmark("qft3").build());
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
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd) << label << " gate " << k;
  }
  EXPECT_EQ(a.exec_stats.jobs, b.exec_stats.jobs) << label;
  EXPECT_EQ(a.exec_stats.cache_hits, b.exec_stats.cache_hits) << label;
  EXPECT_EQ(a.exec_stats.checkpointed, b.exec_stats.checkpointed) << label;
  EXPECT_EQ(a.exec_stats.full_runs, b.exec_stats.full_runs) << label;
}

// ---------------------------------------------------------------------------
// SessionConfig validation
// ---------------------------------------------------------------------------

TEST(SessionConfig, DefaultIsValid) {
  EXPECT_TRUE(charter::SessionConfig().validate().empty());
}

TEST(SessionConfig, ReportsEveryProblemActionably) {
  charter::SessionConfig bad = charter::SessionConfig()
                                   .reversals(0)
                                   .shots(-1)
                                   .trajectories(0)
                                   .drift(1.5);
  bad.execution().threads(-2);
  const std::vector<std::string> errors = bad.validate();
  ASSERT_EQ(errors.size(), 5u);
  // Each message names the knob and the accepted range — actionable, not
  // just "invalid config".
  EXPECT_NE(errors[0].find("reversals"), std::string::npos);
  EXPECT_NE(errors[1].find("shots"), std::string::npos);
  EXPECT_NE(errors[2].find("trajectories"), std::string::npos);
  EXPECT_NE(errors[3].find("drift"), std::string::npos);
  EXPECT_NE(errors[4].find("threads"), std::string::npos);
}

TEST(SessionConfig, FusedTrajectoryCombinationIsRejected) {
  charter::SessionConfig config =
      charter::SessionConfig().engine(cb::EngineKind::kTrajectory);
  config.execution().strategy(charter::exec::StrategyKind::kDmExact);
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("dm_exact"), std::string::npos);
}

TEST(SessionConfig, SessionConstructorThrowsWithJoinedErrors) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  try {
    charter::Session session(backend,
                             charter::SessionConfig().reversals(-1));
    FAIL() << "expected InvalidArgument";
  } catch (const charter::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("reversals"), std::string::npos);
  }
}

TEST(SessionConfig, ResolvedMapsLosslessly) {
  charter::SessionConfig config = charter::SessionConfig()
                                      .reversals(7)
                                      .skip_rz(false)
                                      .isolate(false)
                                      .max_gates(9)
                                      .validation(true)
                                      .shots(123)
                                      .engine(cb::EngineKind::kTrajectory)
                                      .trajectories(11)
                                      .seed(99)
                                      .drift(0.05);
  config.execution()
      .common_random_numbers(true)
      .checkpointing(false)
      .caching(false)
      .checkpoint_memory_bytes(1 << 20)
      .threads(3);
  const co::CharterOptions o = config.resolved();
  EXPECT_EQ(o.reversals, 7);
  EXPECT_FALSE(o.skip_rz);
  EXPECT_FALSE(o.isolate);
  EXPECT_EQ(o.max_gates, 9);
  EXPECT_TRUE(o.compute_validation);
  EXPECT_TRUE(o.common_random_numbers);
  EXPECT_EQ(o.run.shots, 123);
  EXPECT_EQ(o.run.engine, cb::EngineKind::kTrajectory);
  EXPECT_EQ(o.run.trajectories, 11);
  EXPECT_EQ(o.run.seed, 99u);
  EXPECT_DOUBLE_EQ(o.run.drift, 0.05);
  EXPECT_FALSE(o.exec.checkpointing);
  EXPECT_FALSE(o.exec.caching);
  EXPECT_EQ(o.exec.checkpoint_memory_bytes, std::size_t{1} << 20);
  EXPECT_EQ(o.exec.threads, 3);
}

// ---------------------------------------------------------------------------
// Acceptance: Session == direct CharterAnalyzer, at every thread count.
// ---------------------------------------------------------------------------

TEST(Session, BitIdenticalToDirectAnalyzerAcrossThreadCounts) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, direct_options(1));
  const co::CharterReport direct = analyzer.analyze(program);

  for (const int threads : {1, 2, 8}) {
    ex::RunCache::global().clear();
    charter::Session session(backend, session_config(threads));
    const co::CharterReport report = session.analyze(program);
    expect_reports_identical(direct, report,
                             "threads=" + std::to_string(threads));
  }
  ex::RunCache::global().clear();
}

TEST(Session, SubmitReportsMatchInputImpactToo) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, direct_options(2));
  const double direct = analyzer.input_impact(program);

  ex::RunCache::global().clear();
  charter::Session session(backend, session_config(2));
  const charter::JobHandle job = session.submit_input_impact(program);
  const charter::JobResult& result = job.wait();
  EXPECT_EQ(result.status, charter::JobStatus::kDone);
  EXPECT_EQ(result.kind, charter::JobKind::kInputImpact);
  EXPECT_EQ(result.input_tvd, direct);
  ex::RunCache::global().clear();
}

// ---------------------------------------------------------------------------
// Progress and impact streaming
// ---------------------------------------------------------------------------

TEST(Session, ProgressIsMonotoneAndCompletes) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  charter::Session session(backend, session_config(4));

  std::mutex mu;
  std::vector<charter::JobProgress> events;
  charter::JobCallbacks callbacks;
  callbacks.on_progress = [&](const charter::JobProgress& p) {
    const std::lock_guard<std::mutex> lock(mu);
    events.push_back(p);
  };
  const charter::JobHandle job = session.submit(program, callbacks);
  const charter::JobResult& result = job.wait();
  ASSERT_EQ(result.status, charter::JobStatus::kDone);

  ASSERT_FALSE(events.empty());
  // One event per run, strictly monotone, constant total, ends complete.
  const std::size_t total = events.front().total;
  EXPECT_EQ(total, result.report.analyzed_gates + 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].completed, i + 1);
    EXPECT_EQ(events[i].total, total);
  }
  EXPECT_EQ(events.back().completed, total);
  EXPECT_EQ(job.progress().completed, total);
  ex::RunCache::global().clear();
}

TEST(Session, ImpactsStreamInSubmissionOrder) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  charter::Session session(backend, session_config(4));

  std::vector<co::GateImpact> streamed;  // coordinating thread: no lock
  charter::JobCallbacks callbacks;
  callbacks.on_impact = [&](const co::GateImpact& g) {
    streamed.push_back(g);
  };
  const co::CharterReport report =
      session.submit(program, callbacks).wait().report;

  ASSERT_EQ(streamed.size(), report.impacts.size());
  for (std::size_t k = 0; k < streamed.size(); ++k) {
    EXPECT_EQ(streamed[k].op_index, report.impacts[k].op_index);
    EXPECT_EQ(streamed[k].tvd, report.impacts[k].tvd);
    if (k > 0)  // deterministic submission order == ascending op index
      EXPECT_GT(streamed[k].op_index, streamed[k - 1].op_index);
  }
  ex::RunCache::global().clear();
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Session, CancellationMidSweepFreesWorkersAndReportsCancelled) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  // caching off so the cancelled job's partial work cannot leak into the
  // follow-up job via the run cache; checkpointing off and a large
  // reversal count so every run costs whole milliseconds — the cancel
  // issued at run 2 must land while most of the sweep is still pending.
  charter::SessionConfig config = uncached_config(2).reversals(40);
  config.execution().checkpointing(false);
  charter::Session session(backend, config);

  charter::JobHandle job;
  std::atomic<bool> handle_ready{false};
  std::atomic<std::size_t> seen{0};
  charter::JobCallbacks callbacks;
  callbacks.on_progress = [&](const charter::JobProgress& p) {
    seen = p.completed;
    if (p.completed >= 2) {
      // The job may reach this callback before submit() has returned the
      // handle; spin until the main thread publishes it, then cancel from
      // inside the callback (a documented-legal call site).
      while (!handle_ready.load()) std::this_thread::yield();
      job.cancel();
    }
  };
  job = session.submit(program, callbacks);
  handle_ready.store(true);
  const charter::JobResult& result = job.wait();

  EXPECT_EQ(result.status, charter::JobStatus::kCancelled);
  EXPECT_EQ(job.status(), charter::JobStatus::kCancelled);
  // Cancelled mid-sweep: some runs finished, not all.
  EXPECT_GE(seen.load(), 2u);
  EXPECT_LT(job.progress().completed, job.progress().total);

  // The workers are free again: a fresh job on the same session completes.
  const charter::JobHandle followup = session.submit(program);
  const charter::JobResult& again = followup.wait();
  EXPECT_EQ(again.status, charter::JobStatus::kDone);
  EXPECT_FALSE(again.report.impacts.empty());
  ex::RunCache::global().clear();
}

TEST(Session, NoProgressAfterTerminalStatusIsObservable) {
  // Regression: on_progress used to race set_status — a callback already
  // past the status check could deliver *after* wait() had returned
  // kCancelled, surprising callers that tear their observer state down on
  // wait().  Callback delivery is now fenced: once a terminal status is
  // observable, no further progress arrives.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  charter::SessionConfig config = uncached_config(2).reversals(40);
  config.execution().checkpointing(false);
  charter::Session session(backend, config);

  // Repeat to give the (former) race a chance to fire.
  for (int round = 0; round < 5; ++round) {
    charter::JobHandle job;
    std::atomic<bool> handle_ready{false};
    std::atomic<bool> terminal_observed{false};
    std::atomic<bool> late_progress{false};
    charter::JobCallbacks callbacks;
    callbacks.on_progress = [&](const charter::JobProgress& p) {
      if (terminal_observed.load()) late_progress = true;
      if (p.completed >= 1) {
        while (!handle_ready.load()) std::this_thread::yield();
        job.cancel();
      }
    };
    job = session.submit(program, callbacks);
    handle_ready.store(true);
    const charter::JobResult& result = job.wait();
    terminal_observed.store(true);
    EXPECT_EQ(result.status, charter::JobStatus::kCancelled)
        << "round " << round;
    // Give any straggler callback time to (wrongly) deliver.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(late_progress.load())
        << "round " << round
        << ": on_progress fired after wait() returned kCancelled";
  }
  ex::RunCache::global().clear();
}

TEST(Session, QueuedJobCancelsWithoutRunning) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  charter::Session session(backend, uncached_config(2));
  // Job A occupies the worker; B is queued behind it and cancelled before
  // it can start.
  const charter::JobHandle a = session.submit(program);
  const charter::JobHandle b = session.submit(program);
  b.cancel();
  EXPECT_EQ(b.wait().status, charter::JobStatus::kCancelled);
  EXPECT_EQ(b.progress().completed, 0u);
  EXPECT_EQ(a.wait().status, charter::JobStatus::kDone);
  ex::RunCache::global().clear();
}

TEST(Session, DestructorCancelsOutstandingJobs) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  ex::RunCache::global().clear();
  charter::JobHandle queued;
  {
    charter::Session session(backend, uncached_config(2));
    session.submit(program);  // running (or about to)
    queued = session.submit(program);
    // Destructor: cancels the queue, flags the running job, joins.
  }
  // Handles stay valid after the session is gone and resolve terminally.
  EXPECT_EQ(queued.wait().status, charter::JobStatus::kCancelled);
  ex::RunCache::global().clear();
}

TEST(Session, WaitForTimesOutWhileQueuedBehindWork) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);
  ex::RunCache::global().clear();
  charter::Session session(backend, uncached_config(2));
  const charter::JobHandle a = session.submit(program);
  const charter::JobHandle b = session.submit(program);
  // b cannot be terminal while a is still occupying the session worker.
  EXPECT_FALSE(b.wait_for(std::chrono::milliseconds(1)));
  EXPECT_EQ(a.wait().status, charter::JobStatus::kDone);
  EXPECT_EQ(b.wait().status, charter::JobStatus::kDone);
  ex::RunCache::global().clear();
}

// ---------------------------------------------------------------------------
// Custom Backend implementations through the facade
// ---------------------------------------------------------------------------

namespace {

/// Minimal Backend: delegates compilation to a wrapped FakeBackend but
/// executes noiselessly.  No lowering, no cache identity — the exec layer
/// must fall back to independent whole runs and skip the RunCache.
class NoiselessBackend final : public cb::Backend {
 public:
  explicit NoiselessBackend(const cb::FakeBackend& device)
      : device_(device) {}

  const std::string& name() const override { return name_; }
  cb::CompiledProgram compile(
      const cc::Circuit& logical,
      const charter::transpile::TranspileOptions& options) const override {
    return device_.compile(logical, options);
  }
  std::vector<double> run(const cb::CompiledProgram& program,
                          const cb::RunOptions&) const override {
    ++runs_;
    return device_.ideal(program);
  }
  std::vector<double> ideal(const cb::CompiledProgram& program) const override {
    return device_.ideal(program);
  }
  double duration_ns(const cb::CompiledProgram& program) const override {
    return device_.duration_ns(program);
  }

  std::size_t runs() const { return runs_; }

 private:
  const cb::FakeBackend& device_;
  std::string name_ = "noiseless-test-device";
  mutable std::atomic<std::size_t> runs_{0};
};

/// A backend whose execution always fails: jobs must surface kFailed with
/// the thrown message, and the sync convenience must rethrow.
class BrokenBackend final : public cb::Backend {
 public:
  explicit BrokenBackend(const cb::FakeBackend& device) : device_(device) {}
  const std::string& name() const override { return name_; }
  cb::CompiledProgram compile(
      const cc::Circuit& logical,
      const charter::transpile::TranspileOptions& options) const override {
    return device_.compile(logical, options);
  }
  std::vector<double> run(const cb::CompiledProgram&,
                          const cb::RunOptions&) const override {
    throw charter::Error("device went away");
  }
  std::vector<double> ideal(const cb::CompiledProgram& program) const override {
    return device_.ideal(program);
  }
  double duration_ns(const cb::CompiledProgram&) const override { return 0; }

 private:
  const cb::FakeBackend& device_;
  std::string name_ = "broken-test-device";
};

}  // namespace

TEST(Session, CustomBackendWithoutLoweringRunsEveryJobWhole) {
  const cb::FakeBackend device = cb::FakeBackend::lagos(7);
  const NoiselessBackend backend(device);

  cc::Circuit circuit(3);
  circuit.h(0).cx(0, 1).cx(1, 2);

  charter::SessionConfig config =
      charter::SessionConfig().reversals(2).shots(0);
  config.execution().threads(2);
  charter::Session session(backend, config);
  const cb::CompiledProgram program = session.compile(circuit);
  const co::CharterReport report = session.analyze(program);

  ASSERT_FALSE(report.impacts.empty());
  // No lowering => no checkpoint sharing; no cache identity => no hits.
  EXPECT_EQ(report.exec_stats.full_runs, report.exec_stats.jobs);
  EXPECT_EQ(report.exec_stats.cache_hits, 0u);
  EXPECT_EQ(report.exec_stats.checkpointed, 0u);
  EXPECT_EQ(backend.runs(), report.exec_stats.jobs);
  // Noiseless hardware: every reversed pair cancels exactly.
  for (const co::GateImpact& g : report.impacts)
    EXPECT_LT(g.tvd, 1e-9) << "gate " << g.op_index;
}

TEST(Session, BackendFailureSurfacesAsFailedJob) {
  const cb::FakeBackend device = cb::FakeBackend::lagos(7);
  const BrokenBackend backend(device);

  cc::Circuit circuit(2);
  circuit.h(0).cx(0, 1);

  charter::Session session(backend,
                           charter::SessionConfig().reversals(2).shots(0));
  const cb::CompiledProgram program = session.compile(circuit);
  const charter::JobHandle job = session.submit(program);
  const charter::JobResult& result = job.wait();
  EXPECT_EQ(result.status, charter::JobStatus::kFailed);
  EXPECT_NE(result.error.find("device went away"), std::string::npos);
  EXPECT_THROW(session.analyze(program), charter::Error);
}

// ---------------------------------------------------------------------------
// Job bookkeeping
// ---------------------------------------------------------------------------

TEST(Session, JobIdsAreSequentialAndHandlesAreShared) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  cc::Circuit circuit(2);
  circuit.h(0).cx(0, 1);
  charter::Session session(backend,
                           charter::SessionConfig().reversals(2).shots(0));
  const cb::CompiledProgram program = session.compile(circuit);
  const charter::JobHandle a = session.submit(program);
  const charter::JobHandle b = session.submit_input_impact(program);
  EXPECT_EQ(a.id(), 1u);
  EXPECT_EQ(b.id(), 2u);
  EXPECT_EQ(a.kind(), charter::JobKind::kAnalyze);
  EXPECT_EQ(b.kind(), charter::JobKind::kInputImpact);
  const charter::JobHandle a2 = a;  // copies share state
  a.wait();
  EXPECT_EQ(a2.status(), charter::JobStatus::kDone);
  b.wait();
}

TEST(Session, InvalidHandleThrows) {
  const charter::JobHandle none;
  EXPECT_FALSE(none.valid());
  EXPECT_THROW(none.status(), charter::InvalidArgument);
  EXPECT_THROW(none.wait(), charter::InvalidArgument);
}

}  // namespace
