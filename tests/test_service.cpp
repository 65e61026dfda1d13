// The charterd service layer: wire protocol, fair-share scheduling,
// admission control, and end-to-end agreement with the library facade.
//
// Service is deliberately socket-free (one line in, one line out), so
// most of this suite drives it with strings; one SocketServer section
// exercises the real AF_UNIX path including the hangup-cancels-jobs
// contract.  The daemon binary itself is covered by the
// tests/service_smoke.sh CTest entry.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <charter/charter.hpp>

#include "algos/registry.hpp"
#include "characterize/report_io.hpp"
#include "core/report_io.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"

namespace cb = charter::backend;
namespace co = charter::core;
namespace cs = charter::service;
namespace ex = charter::exec;
namespace fs = std::filesystem;

namespace {

/// Response helpers: every handle_line result must itself parse.
cs::JsonValue parsed(const std::string& response) {
  return cs::parse_json(response);
}

bool ok(const cs::JsonValue& r) {
  const cs::JsonValue* v = r.find("ok");
  return v != nullptr && v->is_bool() && v->boolean;
}

std::string error_code(const cs::JsonValue& r) {
  const cs::JsonValue* e = r.find("error");
  if (e == nullptr) return "";
  const cs::JsonValue* code = e->find("code");
  return code != nullptr && code->is_string() ? code->string : "";
}

std::uint64_t job_id(const cs::JsonValue& r) {
  const cs::JsonValue* v = r.find("job");
  return v != nullptr && v->is_number()
             ? static_cast<std::uint64_t>(v->number)
             : 0;
}

std::string status_of(const cs::JsonValue& r) {
  const cs::JsonValue* v = r.find("status");
  return v != nullptr && v->is_string() ? v->string : "";
}

/// One backend + paused-or-running scheduler + service, wired like
/// charterd does it.
struct Harness {
  explicit Harness(cs::SchedulerOptions sched_options = {},
                   cs::ServiceLimits limits = {},
                   charter::SessionConfig base = charter::SessionConfig())
      : backend(cb::FakeBackend::lagos()),
        scheduler(backend, sched_options),
        service(backend, base, limits, scheduler) {}

  std::string handle(const std::string& line, std::uint64_t connection = 1) {
    return service.handle_line(line, connection);
  }

  cb::FakeBackend backend;
  cs::Scheduler scheduler;
  cs::Service service;
};

/// Small, fast submit: 2 analyzed gates, exact distributions.
const char* kSmallSubmit =
    "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":0,\"max_gates\":2}";

std::string scratch_dir(const std::string& tag) {
  const std::string path =
      (fs::temp_directory_path() /
       ("charter_service_test_" + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(path);
  return path;
}

}  // namespace

// ---------------------------------------------------------------------------
// Protocol: every malformed request is a structured error, not a crash
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, MalformedJsonIsAParseError) {
  Harness h;
  for (const char* bad : {"{not json", "\"just a string\"", "{} trailing",
                          "{\"op\":\"ping\"", "[1,2,3"}) {
    const cs::JsonValue r = parsed(h.handle(bad));
    EXPECT_FALSE(ok(r)) << bad;
    EXPECT_TRUE(error_code(r) == "parse_error" ||
                error_code(r) == "bad_request")
        << bad << " -> " << error_code(r);
  }
}

TEST(ServiceProtocol, UnknownOpAndUnknownFieldAreNamed) {
  Harness h;
  const cs::JsonValue r1 = parsed(h.handle("{\"op\":\"frobnicate\"}"));
  EXPECT_EQ(error_code(r1), "unknown_op");

  // A misspelled field must be rejected, not silently ignored.
  const cs::JsonValue r2 = parsed(h.handle(
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"detatch\":true}"));
  EXPECT_EQ(error_code(r2), "unknown_field");
  const cs::JsonValue* e = r2.find("error");
  ASSERT_NE(e, nullptr);
  const cs::JsonValue* msg = e->find("message");
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(msg->string.find("detatch"), std::string::npos)
      << "error must name the offending field";
}

TEST(ServiceProtocol, TypeAndShapeViolationsAreBadRequests) {
  Harness h;
  for (const char* bad : {
           "{\"op\":\"submit\"}",                             // no program
           "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"qasm\":\"x\"}",
           "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":\"many\"}",
           "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":-4}",
           "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"tenant\":\"\"}",
           "{\"op\":\"status\"}",                             // no job
           "{\"op\":\"status\",\"job\":0}",
           "{\"op\":\"status\",\"job\":1.5}",
           "{\"op\":42}",
       }) {
    const cs::JsonValue r = parsed(h.handle(bad));
    EXPECT_EQ(error_code(r), "bad_request") << bad;
  }
}

TEST(ServiceProtocol, OversizedRequestsAreRejectedStructurally) {
  cs::ServiceLimits limits;
  limits.max_qasm_bytes = 64;
  Harness h({}, limits);
  const std::string big(200, 'x');
  const cs::JsonValue r =
      parsed(h.handle("{\"op\":\"submit\",\"qasm\":\"" + big + "\"}"));
  EXPECT_EQ(error_code(r), "too_large");

  // Line-length cap applies before JSON parsing.
  cs::ServiceLimits tiny;
  tiny.max_line_bytes = 32;
  EXPECT_THROW(cs::parse_request(std::string(64, ' '), tiny),
               cs::ProtocolError);
}

TEST(ServiceProtocol, QubitCapAndUnknownBenchmark) {
  cs::ServiceLimits limits;
  limits.max_qubits = 2;
  Harness h({}, limits);
  EXPECT_EQ(error_code(parsed(h.handle(
                "{\"op\":\"submit\",\"benchmark\":\"qft3\"}"))),
            "too_large");
  EXPECT_EQ(error_code(parsed(h.handle(
                "{\"op\":\"submit\",\"benchmark\":\"nope\"}"))),
            "not_found");
}

TEST(ServiceProtocol, UnknownJobsAndPrematureFetches) {
  Harness h;
  EXPECT_EQ(error_code(parsed(h.handle("{\"op\":\"status\",\"job\":99}"))),
            "not_found");
  // A queued (paused) job has no report yet.
  cs::SchedulerOptions paused;
  paused.start_paused = true;
  Harness hp(paused);
  const std::uint64_t id = job_id(parsed(hp.handle(kSmallSubmit)));
  ASSERT_GT(id, 0u);
  EXPECT_EQ(error_code(parsed(hp.handle(
                "{\"op\":\"fetch\",\"job\":" + std::to_string(id) + "}"))),
            "not_found");
}

TEST(ServiceProtocol, PingAndStatsRoundTrip) {
  Harness h;
  EXPECT_TRUE(ok(parsed(h.handle("{\"op\":\"ping\"}"))));
  const cs::JsonValue stats = parsed(h.handle("{\"op\":\"stats\"}"));
  ASSERT_TRUE(ok(stats));
  ASSERT_NE(stats.find("scheduler"), nullptr);
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_NE(stats.find("cache")->find("memory"), nullptr);
  EXPECT_NE(stats.find("cache")->find("disk"), nullptr);
}

// ---------------------------------------------------------------------------
// Scheduler: fairness, admission, cancellation
// ---------------------------------------------------------------------------

namespace {

/// Submits \p count small jobs for \p tenant through the service.
std::vector<std::uint64_t> submit_many(Harness& h, const std::string& tenant,
                                       int count) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < count; ++i) {
    const cs::JsonValue r = parsed(
        h.handle("{\"op\":\"submit\",\"tenant\":\"" + tenant +
                 "\",\"benchmark\":\"qft3\",\"shots\":0,\"max_gates\":1}"));
    EXPECT_TRUE(ok(r));
    ids.push_back(job_id(r));
  }
  return ids;
}

}  // namespace

TEST(ServiceScheduler, RoundRobinInterleavesTenantsNotSubmissionOrder) {
  cs::SchedulerOptions options;
  options.start_paused = true;
  options.threads = 2;
  Harness h(options);

  std::mutex mu;
  std::vector<std::string> order;
  h.scheduler.on_job_start = [&](const cs::JobSnapshot& s) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(s.tenant);
  };

  // Tenant "bulk" floods first; "interactive" arrives second.  FIFO would
  // run all six bulk jobs before interactive's first.
  const auto bulk = submit_many(h, "bulk", 6);
  const auto interactive = submit_many(h, "interactive", 3);
  h.scheduler.set_paused(false);
  for (const std::uint64_t id : bulk) h.scheduler.await(id);
  for (const std::uint64_t id : interactive) h.scheduler.await(id);

  const std::vector<std::string> expected = {
      "bulk", "interactive", "bulk", "interactive", "bulk",
      "interactive", "bulk", "bulk", "bulk"};
  EXPECT_EQ(order, expected);
}

TEST(ServiceScheduler, QueueFullIsAStructuredRejection) {
  cs::SchedulerOptions options;
  options.start_paused = true;
  options.max_queued_jobs = 2;
  cs::ServiceLimits limits;
  limits.max_queued_jobs = 2;
  Harness h(options, limits);
  EXPECT_TRUE(ok(parsed(h.handle(kSmallSubmit))));
  EXPECT_TRUE(ok(parsed(h.handle(kSmallSubmit))));
  const cs::JsonValue r = parsed(h.handle(kSmallSubmit));
  EXPECT_FALSE(ok(r));
  EXPECT_EQ(error_code(r), "queue_full");
  // The rejection did not consume anything: both admitted jobs finish.
  h.scheduler.set_paused(false);
  EXPECT_EQ(h.scheduler.await(1).phase, cs::JobPhase::kDone);
  EXPECT_EQ(h.scheduler.await(2).phase, cs::JobPhase::kDone);
}

TEST(ServiceScheduler, DrainRejectsNewWorkButFinishesAdmitted) {
  cs::SchedulerOptions options;
  options.start_paused = true;
  Harness h(options);
  const std::uint64_t id = job_id(parsed(h.handle(kSmallSubmit)));
  h.scheduler.request_drain();  // also unpauses: a paused drain would hang
  const cs::JsonValue rejected = parsed(h.handle(kSmallSubmit));
  EXPECT_EQ(error_code(rejected), "shutting_down");
  h.scheduler.wait_until_drained();
  EXPECT_EQ(h.scheduler.snapshot(id).phase, cs::JobPhase::kDone)
      << "admitted work must complete during a drain";
}

TEST(ServiceScheduler, CancelledQueuedJobNeverRunsAndCachesNothing) {
  ex::RunCache::global().clear();
  cs::SchedulerOptions options;
  options.start_paused = true;
  Harness h(options);
  const std::uint64_t id = job_id(parsed(h.handle(kSmallSubmit)));
  const cs::JsonValue r = parsed(
      h.handle("{\"op\":\"cancel\",\"job\":" + std::to_string(id) + "}"));
  EXPECT_TRUE(ok(r));
  h.scheduler.set_paused(false);
  EXPECT_EQ(h.scheduler.await(id).phase, cs::JobPhase::kCancelled);
  EXPECT_EQ(ex::RunCache::global().stats().entries, 0u)
      << "a job that never ran must leave no cache entries";
}

TEST(ServiceScheduler, ConnectionCloseCancelsAttachedJobsOnly) {
  cs::SchedulerOptions options;
  options.start_paused = true;
  Harness h(options);
  const std::uint64_t attached =
      job_id(parsed(h.handle(kSmallSubmit, /*connection=*/7)));
  const cs::JsonValue detached_resp = parsed(h.handle(
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":0,"
      "\"max_gates\":1,\"detach\":true}",
      /*connection=*/7));
  const std::uint64_t detached = job_id(detached_resp);

  h.scheduler.connection_closed(7);
  h.scheduler.set_paused(false);
  EXPECT_EQ(h.scheduler.await(attached).phase, cs::JobPhase::kCancelled);
  EXPECT_EQ(h.scheduler.await(detached).phase, cs::JobPhase::kDone)
      << "detached jobs survive their submitter's hangup";
}

// charterd keeps at most kRetainedJobs finished jobs and evicts the oldest
// finished one first.  Tenant "late" joins the ring first, so its second
// job (id 2) waits out a full round of 1 + kRetainedJobs cancelled jobs
// from other tenants: by the time it starts, id 1 has been evicted, but
// the queued id 2 has not, although its id is lower than every retained
// finished job's.
TEST(ServiceScheduler, EvictsOldestFinishedJobsButNeverQueuedOnes) {
  constexpr std::size_t kCap = cs::Scheduler::kRetainedJobs;
  cs::SchedulerOptions options;
  options.start_paused = true;
  options.max_queued_jobs = kCap + 8;
  Harness h(options);
  const cb::CompiledProgram program =
      h.backend.compile(charter::algos::find_benchmark("qft3").build());
  co::CharterOptions copts;
  copts.max_gates = 1;
  copts.run.shots = 0;
  const auto submit = [&](const std::string& tenant) {
    return h.scheduler.submit(tenant, program, copts, /*detached=*/true,
                              /*connection=*/1);
  };
  const std::uint64_t first = submit("late");
  const std::uint64_t held = submit("late");
  std::vector<std::uint64_t> others;
  for (std::size_t i = 0; i < kCap; ++i)
    others.push_back(submit("t" + std::to_string(i)));
  ASSERT_TRUE(h.scheduler.cancel(first));
  for (const std::uint64_t id : others) ASSERT_TRUE(h.scheduler.cancel(id));

  // Only `held` runs; check the registry the moment it starts.
  cs::JobPhase held_phase = cs::JobPhase::kDone;
  std::string first_error;
  h.scheduler.on_job_start = [&](const cs::JobSnapshot& s) {
    held_phase = h.scheduler.snapshot(s.id).phase;
    try {
      h.scheduler.snapshot(first);
    } catch (const cs::ProtocolError& e) {
      first_error = e.what();
    }
  };
  h.scheduler.set_paused(false);
  EXPECT_EQ(h.scheduler.await(held).phase, cs::JobPhase::kDone);

  EXPECT_EQ(held_phase, cs::JobPhase::kQueued) << "queued job was evicted";
  EXPECT_NE(first_error.find("evicted"), std::string::npos) << first_error;
  // `held` finishing evicted the next-oldest finished job, others[0]; the
  // remaining kCap - 1 cancelled jobs and `held` are retained.
  const cs::JsonValue r = parsed(h.handle(
      "{\"op\":\"status\",\"job\":" + std::to_string(others[0]) + "}"));
  EXPECT_EQ(error_code(r), "not_found");
  for (std::size_t i = 1; i < others.size(); ++i)
    ASSERT_EQ(h.scheduler.snapshot(others[i]).phase,
              cs::JobPhase::kCancelled);
  const cs::JsonValue fetched = parsed(h.handle(
      "{\"op\":\"fetch\",\"job\":" + std::to_string(held) + "}"));
  EXPECT_TRUE(ok(fetched));
  // An id never assigned is still unknown, not evicted.
  try {
    h.scheduler.snapshot(held + kCap + 100);
    ADD_FAILURE() << "unassigned id resolved";
  } catch (const cs::ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()).find("evicted"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// End to end: daemon-served reports are the library's reports, bit for bit
// ---------------------------------------------------------------------------

TEST(ServiceEndToEnd, FetchedReportIsBitIdenticalToDirectSession) {
  ex::RunCache::global().clear();
  Harness h;
  const cs::JsonValue submitted = parsed(h.handle(
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":4096,"
      "\"seed\":77,\"reversals\":3}"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = job_id(submitted);
  ASSERT_EQ(status_of(parsed(h.handle(
                "{\"op\":\"wait\",\"job\":" + std::to_string(id) + "}"))),
            "done");
  const std::string fetched =
      h.handle("{\"op\":\"fetch\",\"job\":" + std::to_string(id) + "}");
  const co::GoldenReport daemon_report = co::report_from_json(
      cs::Client::extract_report_json(fetched));

  // The same analysis through the public facade, same backend model.
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  charter::Session session(
      backend,
      charter::SessionConfig().shots(4096).seed(77).reversals(3));
  const co::CharterReport direct = session.analyze(
      session.compile(charter::algos::find_benchmark("qft3").build()));

  ASSERT_EQ(daemon_report.report.impacts.size(), direct.impacts.size());
  for (std::size_t k = 0; k < direct.impacts.size(); ++k) {
    EXPECT_EQ(daemon_report.report.impacts[k].op_index,
              direct.impacts[k].op_index);
    EXPECT_EQ(daemon_report.report.impacts[k].tvd, direct.impacts[k].tvd)
        << "impact " << k << " must be bit-identical";
  }
  ASSERT_EQ(daemon_report.report.original_distribution.size(),
            direct.original_distribution.size());
  for (std::size_t i = 0; i < direct.original_distribution.size(); ++i)
    EXPECT_EQ(daemon_report.report.original_distribution[i],
              direct.original_distribution[i]);
}

TEST(ServiceEndToEnd, WarmDiskTierServesRestartWithZeroSimulations) {
  const std::string dir = scratch_dir("warm");
  ex::RunCache::global().clear();
  ex::RunCache::global().set_disk_tier(dir);
  ex::RunCache::global().clear_disk();

  const char* submit =
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"shots\":0,"
      "\"seed\":5,\"max_gates\":3}";
  const auto run_once = [&]() -> co::GoldenReport {
    Harness h;
    const std::uint64_t id = job_id(parsed(h.handle(submit)));
    h.handle("{\"op\":\"wait\",\"job\":" + std::to_string(id) + "}");
    return co::report_from_json(cs::Client::extract_report_json(
        h.handle("{\"op\":\"fetch\",\"job\":" + std::to_string(id) + "}")));
  };

  const co::GoldenReport cold = run_once();
  EXPECT_GT(cold.exec.full_runs + cold.exec.checkpointed +
                cold.exec.trajectory_checkpointed,
            0u)
      << "cold run must actually simulate";

  // "Restart": the memory tier dies with the process, the directory lives.
  ex::RunCache::global().clear();
  const co::GoldenReport warm = run_once();
  EXPECT_EQ(warm.exec.full_runs, 0u);
  EXPECT_EQ(warm.exec.checkpointed, 0u);
  EXPECT_EQ(warm.exec.cache_disk_hits, warm.exec.jobs)
      << "every job served from the persistent tier";
  ASSERT_EQ(warm.report.impacts.size(), cold.report.impacts.size());
  for (std::size_t k = 0; k < cold.report.impacts.size(); ++k)
    EXPECT_EQ(warm.report.impacts[k].tvd, cold.report.impacts[k].tvd);

  ex::RunCache::global().clear_disk();
  ex::RunCache::global().set_disk_tier("");  // detach: keep later tests hermetic
  ex::RunCache::global().clear();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SocketServer: the real AF_UNIX path
// ---------------------------------------------------------------------------

namespace {

std::string scratch_socket() {
  return (fs::temp_directory_path() /
          ("charterd_test_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

}  // namespace

TEST(ServiceSocket, RequestsFlowAndHangupCancelsAttachedJobs) {
  const std::string path = scratch_socket();
  cs::SchedulerOptions options;
  options.start_paused = true;  // keep the submitted job queued past hangup
  Harness h(options);
  cs::SocketServer server(h.service, h.scheduler, path);
  server.start();

  std::uint64_t id = 0;
  {
    cs::Client client(path);
    EXPECT_TRUE(ok(client.call("{\"op\":\"ping\"}")));
    const cs::JsonValue r = client.call(kSmallSubmit);
    ASSERT_TRUE(ok(r));
    id = job_id(r);
  }  // client hangs up with its job still queued

  // Hangups are handled by the connection thread; wait for it to finish
  // (the connection leaves the count only after its cancellations land)
  // before releasing the scheduler, or the tiny job could win the race
  // and complete.
  for (int i = 0; i < 500 && server.open_connections() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(server.open_connections(), 0u);

  h.scheduler.set_paused(false);
  EXPECT_EQ(h.scheduler.await(id).phase, cs::JobPhase::kCancelled)
      << "hangup must cancel the attached job";

  // The server keeps serving new connections afterwards.
  cs::Client again(path);
  EXPECT_TRUE(ok(again.call("{\"op\":\"ping\"}")));
  const cs::JsonValue status = again.call(
      "{\"op\":\"status\",\"job\":" + std::to_string(id) + "}");
  EXPECT_EQ(status_of(status), "cancelled");

  server.request_stop();
  server.wait_until_stopped();
  EXPECT_FALSE(fs::exists(path)) << "socket file removed on stop";
}

TEST(ServiceSocket, OversizedLineGetsAnErrorAndTheConnectionSurvives) {
  const std::string path = scratch_socket() + ".big";
  cs::ServiceLimits limits;
  limits.max_line_bytes = 1024;
  Harness h({}, limits);
  cs::SocketServer server(h.service, h.scheduler, path);
  server.start();
  {
    cs::Client client(path);
    const std::string huge =
        "{\"op\":\"submit\",\"qasm\":\"" + std::string(4096, 'x') + "\"}";
    const cs::JsonValue r = client.call(huge);
    EXPECT_EQ(error_code(r), "too_large");
    // Same connection, next line parses normally.
    EXPECT_TRUE(ok(client.call("{\"op\":\"ping\"}")));
  }
  server.request_stop();
  server.wait_until_stopped();
}

// ---------------------------------------------------------------------------
// Characterize op
// ---------------------------------------------------------------------------

namespace {

/// The characterization payload is the last field of a successful fetch
/// response, mirroring extract_report_json's framing contract.
std::string extract_characterization_json(const std::string& response) {
  const std::string marker = "\"characterization\":";
  const std::size_t at = response.find(marker);
  EXPECT_NE(at, std::string::npos) << response;
  EXPECT_EQ(response.back(), '}') << response;
  const std::size_t begin = at + marker.size();
  return response.substr(begin, response.size() - begin - 1);
}

}  // namespace

TEST(ServiceProtocol, TopKBelongsToCharacterizeOnly) {
  Harness h;
  // top_k on a plain submit is an unknown field, named in the error.
  const cs::JsonValue on_submit = parsed(h.handle(
      "{\"op\":\"submit\",\"benchmark\":\"qft3\",\"top_k\":2}"));
  EXPECT_FALSE(ok(on_submit));
  EXPECT_EQ(error_code(on_submit), "unknown_field");
  // And a characterize submission validates its range.
  const cs::JsonValue zero = parsed(h.handle(
      "{\"op\":\"characterize\",\"benchmark\":\"qft3\",\"top_k\":0}"));
  EXPECT_FALSE(ok(zero));
  EXPECT_EQ(error_code(zero), "bad_request");
}

TEST(ServiceEndToEnd, CharacterizationIsBitIdenticalToDirectSession) {
  ex::RunCache::global().clear();
  Harness h;
  const cs::JsonValue submitted = parsed(h.handle(
      "{\"op\":\"characterize\",\"benchmark\":\"qft3\",\"shots\":0,"
      "\"seed\":77,\"reversals\":2,\"top_k\":2}"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = job_id(submitted);
  ASSERT_EQ(status_of(parsed(h.handle(
                "{\"op\":\"wait\",\"job\":" + std::to_string(id) + "}"))),
            "done");
  EXPECT_TRUE(h.scheduler.snapshot(id).characterize);
  const charter::characterize::CharacterizationReport daemon_report =
      charter::characterize::characterization_from_json(
          extract_characterization_json(h.handle(
              "{\"op\":\"fetch\",\"job\":" + std::to_string(id) + "}")));

  // The same characterization through the public facade.
  ex::RunCache::global().clear();
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  charter::Session session(
      backend, charter::SessionConfig().shots(0).seed(77).reversals(2));
  const cb::CompiledProgram program =
      session.compile(charter::algos::find_benchmark("qft3").build());
  const co::CharterReport charter_report = session.analyze(program);
  const charter::characterize::CharacterizationReport direct =
      session.characterize(program, charter_report, 2);
  ex::RunCache::global().clear();

  EXPECT_EQ(daemon_report.depths, direct.depths);
  EXPECT_EQ(daemon_report.severity_reversals, direct.severity_reversals);
  EXPECT_EQ(daemon_report.total_sequences, direct.total_sequences);
  EXPECT_EQ(daemon_report.rank_agreement, direct.rank_agreement);
  ASSERT_EQ(daemon_report.gates.size(), direct.gates.size());
  for (std::size_t g = 0; g < direct.gates.size(); ++g) {
    const auto& a = daemon_report.gates[g];
    const auto& b = direct.gates[g];
    EXPECT_EQ(a.op_index, b.op_index) << "gate " << g;
    EXPECT_EQ(a.charter_tvd, b.charter_tvd) << "gate " << g;
    ASSERT_EQ(a.decay.size(), b.decay.size()) << "gate " << g;
    for (std::size_t i = 0; i < b.decay.size(); ++i)
      EXPECT_EQ(a.decay[i].tvd, b.decay[i].tvd)
          << "gate " << g << " depth " << b.decay[i].depth;
    EXPECT_EQ(a.fit.rho, b.fit.rho) << "gate " << g;
    EXPECT_EQ(a.fit.phi, b.fit.phi) << "gate " << g;
    EXPECT_EQ(a.severity, b.severity) << "gate " << g;
    EXPECT_EQ(a.ci.depol.lower, b.ci.depol.lower) << "gate " << g;
    EXPECT_EQ(a.ci.depol.upper, b.ci.depol.upper) << "gate " << g;
    EXPECT_EQ(a.spam_p01, b.spam_p01) << "gate " << g;
    EXPECT_EQ(a.spam_p10, b.spam_p10) << "gate " << g;
  }
  ASSERT_EQ(daemon_report.original_distribution.size(),
            direct.original_distribution.size());
  for (std::size_t i = 0; i < direct.original_distribution.size(); ++i)
    EXPECT_EQ(daemon_report.original_distribution[i],
              direct.original_distribution[i]);
}

TEST(ServiceEndToEnd, FetchOfPlainAnalysisJobStillServesReports) {
  Harness h;
  const cs::JsonValue submitted = parsed(h.handle(kSmallSubmit));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = job_id(submitted);
  h.handle("{\"op\":\"wait\",\"job\":" + std::to_string(id) + "}");
  const std::string fetched =
      h.handle("{\"op\":\"fetch\",\"job\":" + std::to_string(id) + "}");
  EXPECT_NE(fetched.find("\"report\":"), std::string::npos);
  EXPECT_EQ(fetched.find("\"characterization\":"), std::string::npos);
}
