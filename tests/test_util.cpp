// Unit tests for the util library: RNG determinism and distributions, the
// parallel loop helpers, the exec worker pool, CLI parsing, table rendering,
// and the CSV cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cu = charter::util;

TEST(Rng, SameSeedSameStream) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  cu::Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  cu::Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  cu::Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScales) {
  cu::Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  cu::Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SplitStreamsIndependentAndDeterministic) {
  cu::Rng parent(99);
  cu::Rng c1 = parent.split(0);
  cu::Rng c2 = parent.split(1);
  cu::Rng c1_again = parent.split(0);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) {
    seen.insert(c1.next_u64());
    seen.insert(c2.next_u64());
  }
  EXPECT_GT(seen.size(), 60u);  // no collisions expected
}

TEST(Rng, FillUniformMatchesUniformCalls) {
  // Same values bit for bit, and the state left where the calls leave it:
  // the next raw draw agrees, also after runs of mixed lengths.
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1023u, 1024u, 1025u}) {
    cu::Rng filled(n + 5), called(n + 5);
    for (int round = 0; round < 3; ++round) {
      std::vector<double> got(n + 1, -1.0);
      filled.fill_uniform(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = called.uniform();
        ASSERT_EQ(std::memcmp(&want, &got[i], sizeof(double)), 0)
            << "n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n], -1.0) << "wrote past n=" << n;
      ASSERT_EQ(filled.next_u64(), called.next_u64()) << "n=" << n;
    }
  }
}

TEST(KernelPool, RunsEveryIndexExactlyOnce) {
  // Lengths around the cut.  The caller starts at index 0 and waits there
  // for a worker, since it would take over every unclaimed slice.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::int64_t grain : {1, 7, 1024}) {
    const std::int64_t cut = cu::kKernelPoolMinGrains * grain;
    for (const std::int64_t n : {cut - 1, cut, 5 * cut + 3}) {
      const bool fans_out = cu::kernel_pool_width() > 1 && n >= cut;
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<bool> off_caller{false};
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      cu::parallel_for(
          n,
          [&](std::int64_t i) {
            ++hits[static_cast<std::size_t>(i)];
            if (std::this_thread::get_id() != caller) off_caller = true;
            while (i == 0 && fans_out && !off_caller &&
                   std::chrono::steady_clock::now() < deadline)
              std::this_thread::yield();
          },
          grain);
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "n=" << n;
      EXPECT_EQ(off_caller.load(), fans_out) << "n=" << n;
    }
  }
}

TEST(KernelPool, MarkedThreadRunsTheLoopInlineInOrder) {
  EXPECT_FALSE(cu::serial_kernels());
  const cu::SerialKernels mark;
  {
    const cu::SerialKernels nested;  // marks nest
  }
  EXPECT_TRUE(cu::serial_kernels());
  const std::thread::id caller = std::this_thread::get_id();
  std::int64_t next = 0;
  cu::parallel_for(1 << 14, [&](std::int64_t i) {
    EXPECT_EQ(i, next++);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }, /*grain=*/1);
  EXPECT_EQ(next, 1 << 14);
  EXPECT_FALSE(cu::run_on_kernel_pool(1, [](std::int64_t) {}));
}

TEST(KernelPool, ConcurrentOffPoolCallersBothGetCorrectResults) {
  // Whenever one caller holds the pool, the other runs its loop inline.
  std::atomic<int> wrong{0};
  const auto caller = [&](std::int64_t seed) {
    for (std::int64_t n = 4096 + seed; n < 9000; n += 97) {
      std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
      cu::parallel_for(
          n, [&](std::int64_t i) { out[std::size_t(i)] = i * seed; }, 16);
      for (std::int64_t i = 0; i < n; ++i)
        wrong += out[std::size_t(i)] != i * seed;
    }
  };
  std::thread a(caller, 3), b(caller, 5);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(KernelPool, ChunkedSumIsByteIdenticalMarkedAndUnmarked) {
  const std::int64_t n = 40 * cu::kChunkedSumLen + 123;
  const auto term = [](std::int64_t i) {
    return std::sin(0.7 * i) * static_cast<double>(1 + i % 1000);
  };
  const double pooled = cu::parallel_sum_chunked(n, term);
  const cu::SerialKernels mark;
  const double marked = cu::parallel_sum_chunked(n, term);
  EXPECT_EQ(std::memcmp(&pooled, &marked, sizeof(double)), 0);
}

TEST(Cli, ParsesTypedFlags) {
  cu::Cli cli("test");
  cli.add_flag("name", std::string("qft"), "algo name");
  cli.add_flag("shots", std::int64_t{100}, "shot count");
  cli.add_flag("scale", 1.5, "scale factor");
  cli.add_flag("full", false, "full mode");
  const char* argv[] = {"prog", "--name=adder", "--shots", "32000",
                        "--scale=2.5", "--full"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_string("name"), "adder");
  EXPECT_EQ(cli.get_int("shots"), 32000);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 2.5);
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, DefaultsSurviveParse) {
  cu::Cli cli("test");
  cli.add_flag("shots", std::int64_t{4096}, "shot count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("shots"), 4096);
}

TEST(Cli, UnknownFlagThrows) {
  cu::Cli cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), charter::InvalidArgument);
}

TEST(Cli, MalformedIntThrows) {
  cu::Cli cli("test");
  cli.add_flag("shots", std::int64_t{1}, "shots");
  const char* argv[] = {"prog", "--shots=abc"};
  EXPECT_THROW(cli.parse(2, argv), charter::InvalidArgument);
}

TEST(Cli, BenchmarkFlagsPassThrough) {
  cu::Cli cli("test");
  const char* argv[] = {"prog", "--benchmark_filter=all"};
  EXPECT_TRUE(cli.parse(2, argv));
}

TEST(Table, RendersAlignedColumns) {
  cu::Table t("Caption");
  t.set_header({"Algorithm", "Corr."});
  t.add_row({"QFT (3)", "0.99"});
  t.add_row({"Adder (4)", "0.98"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Caption"), std::string::npos);
  EXPECT_NE(out.find("Algorithm"), std::string::npos);
  EXPECT_NE(out.find("QFT (3)   | 0.99"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  cu::Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), charter::InvalidArgument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(cu::Table::fmt(0.4567, 2), "0.46");
  EXPECT_EQ(cu::Table::fmt_percent(0.42), "42%");
  EXPECT_EQ(cu::Table::fmt_pvalue(0.26), "0.26");
  const std::string p = cu::Table::fmt_pvalue(3.78e-24);
  EXPECT_NE(p.find("e-24"), std::string::npos);
}

TEST(Csv, RoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "charter_csv_test.csv")
          .string();
  cu::write_csv(path, {"algo", "tvd"}, {{"qft", "0.25"}, {"adder", "0.5"}});
  const cu::CsvDocument doc = cu::read_csv(path);
  ASSERT_EQ(doc.header.size(), 2u);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][doc.column("algo")], "adder");
  EXPECT_EQ(doc.rows[0][doc.column("tvd")], "0.25");
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileThrowsNotFound) {
  EXPECT_THROW(cu::read_csv("/nonexistent/charter.csv"), charter::NotFound);
}

TEST(Csv, MissingColumnThrows) {
  cu::CsvDocument doc;
  doc.header = {"a"};
  EXPECT_THROW(doc.column("b"), charter::NotFound);
}

TEST(Timer, MeasuresElapsedTime) {
  cu::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i * 1.0);
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    charter::require(false, "broken precondition");
    FAIL() << "expected throw";
  } catch (const charter::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int workers : {1, 2, 8}) {
    cu::ThreadPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.run(257, [&](std::int64_t i, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, workers);
      ++hits[static_cast<std::size_t>(i)];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  cu::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.run(round, [&](std::int64_t i, int) { sum += i; });
    EXPECT_EQ(sum.load(), round * (round - 1) / 2);
  }
}

TEST(ThreadPool, MarksWorkersAndForcesNestedHelpersSerial) {
  EXPECT_FALSE(cu::serial_kernels());
  cu::ThreadPool pool(3);
  std::atomic<int> on_worker{0};
  pool.run(8, [&](std::int64_t, int) {
    if (cu::serial_kernels()) ++on_worker;
  });
  EXPECT_EQ(on_worker.load(), 8);
  EXPECT_FALSE(cu::serial_kernels());  // only the workers are marked
}

TEST(ThreadPool, NestedRunFallsBackToInlineSerial) {
  cu::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run(3, [&](std::int64_t, int) {
    // From a task body the pool is busy; a nested run() must not deadlock.
    pool.run(5, [&](std::int64_t, int worker) {
      EXPECT_EQ(worker, 0);
      ++inner_total;
    });
  });
  EXPECT_EQ(inner_total.load(), 15);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterDrain) {
  cu::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run(64, [&](std::int64_t i, int) {
      if (i == 13) throw std::runtime_error("task 13 failed");
      ++completed;
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("task 13"), std::string::npos);
  }
  EXPECT_EQ(completed.load(), 63);  // the batch drains; one task threw
  // The pool survives a failed batch.
  std::atomic<int> after{0};
  pool.run(4, [&](std::int64_t, int) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, CallerTaskRunsOnTheCallerWithSerialKernels) {
  for (const int workers : {1, 3}) {
    cu::ThreadPool pool(workers);
    const std::thread::id caller_id = std::this_thread::get_id();
    for (const std::int64_t n : {0, 1, 40}) {
      std::atomic<int> tasks{0};
      bool ran = false;
      bool serial = false;
      std::thread::id ran_on;
      pool.run(
          n, [&](std::int64_t, int) { ++tasks; }, nullptr,
          [&] {
            ran = true;
            serial = cu::serial_kernels();
            ran_on = std::this_thread::get_id();
          });
      EXPECT_TRUE(ran) << "n=" << n;
      EXPECT_TRUE(serial) << "n=" << n;
      EXPECT_EQ(ran_on, caller_id) << "n=" << n;
      EXPECT_EQ(tasks.load(), n);
    }
    EXPECT_FALSE(cu::serial_kernels());  // the guard ends with the task
  }
}

TEST(ThreadPool, CallerTaskOverlapsTheTasks) {
  // The tasks wait for a value only the caller task produces: run() must
  // execute both at once, or this deadlocks.
  cu::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool produced = false;
  std::atomic<int> consumed{0};
  pool.run(
      4,
      [&](std::int64_t, int) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return produced; });
        ++consumed;
      },
      nullptr,
      [&] {
        const std::lock_guard<std::mutex> lock(mu);
        produced = true;
        cv.notify_all();
      });
  EXPECT_EQ(consumed.load(), 4);
}

TEST(ThreadPool, NestedRunRunsTheCallerTaskBeforeTheTasks) {
  cu::ThreadPool pool(2);
  std::atomic<int> ordered{0};
  pool.run(3, [&](std::int64_t, int) {
    std::vector<int> order;
    pool.run(
        2, [&](std::int64_t i, int) { order.push_back(static_cast<int>(i)); },
        nullptr, [&] { order.push_back(-1); });
    if (order == std::vector<int>{-1, 0, 1}) ++ordered;
  });
  EXPECT_EQ(ordered.load(), 3);
}

TEST(ThreadPool, CallerTaskExceptionPropagatesAfterDrain) {
  cu::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.run(
                   16, [&](std::int64_t, int) { ++completed; }, nullptr,
                   [] { throw std::runtime_error("caller failed"); }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, ResolveThreadsHonorsExplicitAndAuto) {
  EXPECT_EQ(cu::resolve_threads(1), 1);
  EXPECT_EQ(cu::resolve_threads(7), 7);
  EXPECT_GE(cu::resolve_threads(0), 1);  // auto: at least one worker
}
