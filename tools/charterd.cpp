// charterd — the charter analysis daemon.
//
// One long-lived process owns the device model, the worker pool, and the
// two-tier run cache; many clients submit analysis jobs over a local
// AF_UNIX socket speaking line-delimited JSON (docs/protocol.md).  What a
// single-shot `charter analyze` cannot give:
//
//  - cross-client memoization: every tenant's runs land in one shared
//    RunCache, and with --cache-dir the disk tier persists results across
//    daemon restarts — a circuit anyone analyzed before costs zero new
//    simulations;
//  - fair multi-tenancy: jobs are scheduled round-robin across tenants
//    (service/scheduler.hpp), so one bulk submitter cannot starve an
//    interactive user;
//  - bounded resources: one pool width caps total concurrency, and
//    admission limits (queue depth, qubit count, request size) reject
//    overload with structured errors instead of degrading.
//
// SIGTERM/SIGINT drain gracefully: admissions stop, admitted jobs finish,
// then the socket closes.  `charter client shutdown` does the same over
// the wire.

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <charter/charter.hpp>

#include "exec/worker.hpp"
#include "service/client.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"

namespace {

namespace cb = charter::backend;
namespace cs = charter::service;
using charter::util::Cli;

std::string env_cache_dir() {
  const char* dir = std::getenv("CHARTER_CACHE_DIR");
  return dir != nullptr ? dir : "";
}

}  // namespace

int main(int argc, char** argv) {
  // `charterd worker --fd N` is the multi-process sweep child the exec
  // layer fork+execs when --workers is set (exec/worker.hpp).  Dispatch
  // it before any daemon setup — the child must not inherit the signal
  // mask or spawn daemon threads.
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    Cli wcli("charterd worker: multi-process sweep child (internal)");
    wcli.add_flag("fd", std::int64_t{-1},
                  "inherited socketpair file descriptor to serve on");
    if (!wcli.parse(argc - 1, argv + 1)) return 0;
    const int fd = static_cast<int>(wcli.get_int("fd"));
    if (fd < 0) {
      std::fprintf(stderr, "charterd worker: --fd is required\n");
      return 2;
    }
    return charter::exec::worker_serve(fd);
  }

  // Terminal signals are consumed by a dedicated watcher thread via
  // sigtimedwait; block them process-wide before any thread exists so
  // none of the worker/connection threads can receive them instead.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  Cli cli(
      "charterd: multi-tenant analysis daemon (line-delimited JSON over an "
      "AF_UNIX socket; see docs/protocol.md)");
  cli.add_flag("socket", cs::Client::default_socket_path(),
               "AF_UNIX socket path to listen on");
  cli.add_flag("backend", std::string("guadalupe"),
               "device model every job runs on: lagos or guadalupe");
  cli.add_flag("threads", std::int64_t{0},
               "shared worker-pool width (0 = all hardware threads); the "
               "daemon's total simulation concurrency");
  cli.add_flag("workers", std::int64_t{0},
               "opt-in: fan each sweep out to N worker child processes "
               "(0 = in-process; results are identical either way)");
  cli.add_flag("cache-dir", env_cache_dir(),
               "persistent run-cache directory (default $CHARTER_CACHE_DIR; "
               "empty = memory-only)");
  cli.add_flag("cache-disk-bytes", std::int64_t{1ll << 30},
               "disk cache-tier byte budget (LRU past it)");
  cli.add_flag("max-queued", std::int64_t{64},
               "admission limit: jobs queued across all tenants");
  cli.add_flag("max-qubits", std::int64_t{16},
               "admission limit: widest circuit accepted");
  cli.add_flag("shots", std::int64_t{8192}, "default shots per run");
  cli.add_flag("seed", std::int64_t{2022}, "default master seed");
  cli.add_flag("reversals", std::int64_t{5},
               "default reversed pairs per gate");
  cli.add_flag("strategy", std::string("auto"),
               "execution strategy for every job: auto (static rule), dm, "
               "or trajectory");
  cli.add_flag("adaptive", false,
               "adaptive trajectory budgets: stop unravelling a gate once "
               "its impact rank settles (fixed budgets by default)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string backend_name = cli.get_string("backend");
    const cb::FakeBackend backend = backend_name == "lagos"
                                        ? cb::FakeBackend::lagos()
                                        : cb::FakeBackend::guadalupe();
    charter::require(backend_name == "lagos" || backend_name == "guadalupe",
                     "unknown backend: " + backend_name +
                         " (expected lagos or guadalupe)");

    const std::string cache_dir = cli.get_string("cache-dir");
    const int workers = static_cast<int>(cli.get_int("workers"));
    const std::string strategy_name = cli.get_string("strategy");
    const auto strategy = charter::exec::strategy_from_name(strategy_name);
    charter::require(strategy.has_value(),
                     "unknown --strategy '" + strategy_name +
                         "' (expected one of: auto, dm, trajectory)");
    charter::SessionConfig base =
        charter::SessionConfig()
            .shots(cli.get_int("shots"))
            .seed(static_cast<std::uint64_t>(cli.get_int("seed")))
            .reversals(static_cast<int>(cli.get_int("reversals")));
    base.execution()
        .workers(workers)
        .strategy(*strategy)
        .adaptive(cli.get_bool("adaptive"));
    // Children are fork+exec'd from this binary (`charterd worker`): a
    // multi-threaded daemon must never run forked images directly.
    if (workers > 0) base.execution().worker_exe("/proc/self/exe");
    if (!cache_dir.empty())
      charter::exec::RunCache::global().set_disk_tier(
          cache_dir,
          static_cast<std::size_t>(cli.get_int("cache-disk-bytes")));

    cs::ServiceLimits limits;
    limits.max_queued_jobs =
        static_cast<std::size_t>(cli.get_int("max-queued"));
    limits.max_qubits = static_cast<int>(cli.get_int("max-qubits"));

    cs::SchedulerOptions sched_options;
    sched_options.threads = static_cast<int>(cli.get_int("threads"));
    sched_options.max_queued_jobs = limits.max_queued_jobs;
    cs::Scheduler scheduler(backend, sched_options);
    cs::Service service(backend, base, limits, scheduler);
    cs::SocketServer server(service, scheduler, cli.get_string("socket"));

    // Both exit paths — a terminal signal and a `shutdown` request — just
    // wake the main thread; the teardown sequence below runs exactly once.
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    const auto wake = [&] {
      {
        const std::lock_guard<std::mutex> lock(mu);
        stop = true;
      }
      cv.notify_all();
    };
    service.on_shutdown = wake;

    std::atomic<bool> watcher_done{false};
    std::thread watcher([&] {
      const timespec tick{0, 200000000};  // 200ms poll of the stop flag
      for (;;) {
        if (watcher_done.load(std::memory_order_relaxed)) return;
        const int sig = sigtimedwait(&sigs, nullptr, &tick);
        if (sig == SIGTERM || sig == SIGINT) {
          scheduler.request_drain();
          wake();
          return;
        }
      }
    });

    server.start();
    std::fprintf(stderr,
                 "charterd: listening on %s (backend=%s, pool=%d, cache=%s)\n",
                 server.socket_path().c_str(), backend.name().c_str(),
                 scheduler.pool().num_workers(),
                 cache_dir.empty() ? "memory-only" : cache_dir.c_str());

    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return stop; });
    }
    std::fprintf(stderr, "charterd: draining\n");
    scheduler.request_drain();  // idempotent; covers the shutdown-op path
    scheduler.wait_until_drained();
    server.request_stop();
    server.wait_until_stopped();
    watcher_done.store(true, std::memory_order_relaxed);
    watcher.join();
    std::fprintf(stderr, "charterd: drained, exiting\n");
    return 0;
  } catch (const charter::Error& e) {
    std::fprintf(stderr, "charterd: %s\n", e.what());
    return 1;
  }
}
