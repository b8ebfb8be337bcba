//===- tests/threadpool_test.cpp - ThreadPool + batch driver tests --------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Covers the parallel batch layer: support/ThreadPool (task ordering,
// exceptions-off error paths, graceful shutdown) and tools/BatchDriver
// (response-file expansion, jobs-flag parsing, input-order deterministic
// flushing, worst-exit-code propagation), plus the concurrent-first-use
// regression for the observability singletons (metric registration and
// trace thread-id assignment from many pool workers at once) that the CI
// ThreadSanitizer job exercises.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include "BatchDriver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace quals;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryEnqueuedTask) {
  std::atomic<int> Ran{0};
  ThreadPool Pool(4);
  for (int I = 0; I != 100; ++I)
    Pool.enqueue([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPool, SingleWorkerRunsTasksInFifoOrder) {
  // One worker picks tasks strictly in enqueue order; the determinism of
  // -j1 batch runs rests on this.
  std::vector<int> Order;
  ThreadPool Pool(1);
  for (int I = 0; I != 50; ++I)
    Pool.enqueue([&Order, I] { Order.push_back(I); });
  Pool.wait();
  ASSERT_EQ(Order.size(), 50u);
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, DestructorDrainsRemainingQueue) {
  // Graceful shutdown: tasks still queued when the destructor runs must
  // execute, not vanish.
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.enqueue([&Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Ran.fetch_add(1);
      });
    // No wait(): destruction races the queue on purpose.
  }
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPool, DestructorRunsTasksEnqueuedDuringShutdown) {
  // The shutdown race the server relies on: a still-running task enqueues a
  // follow-up while the destructor has already set Stop and other workers
  // have exited on an empty queue. enqueue() promises the follow-up runs;
  // the destructor drains such stragglers inline after joining.
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 16; ++I)
      Pool.enqueue([&Pool, &Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Ran.fetch_add(1);
        Pool.enqueue([&Pool, &Ran] {
          Ran.fetch_add(1);
          // Third link: enqueued by a task that may itself already be
          // running on the destructor's inline drain loop.
          Pool.enqueue([&Ran] { Ran.fetch_add(1); });
        });
      });
    // No wait(): destruction races the chain on purpose.
  }
  EXPECT_EQ(Ran.load(), 48);
}

TEST(ThreadPool, ParallelForEachEmptyRangeWithBusyPool) {
  // An empty range must return immediately without enqueuing pump tasks,
  // even while unrelated tasks keep the workers busy (the server calls
  // parallelForEach-style helpers with request-derived counts, which can
  // legitimately be zero).
  ThreadPool Pool(2);
  std::atomic<int> Background{0};
  for (int I = 0; I != 32; ++I)
    Pool.enqueue([&Background] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      Background.fetch_add(1);
    });
  for (int I = 0; I != 8; ++I)
    Pool.parallelForEach(0, [](size_t) { FAIL() << "no indices exist"; });
  Pool.wait();
  EXPECT_EQ(Background.load(), 32);
}

TEST(ThreadPool, WaitIsReusableBetweenBatches) {
  std::atomic<int> Ran{0};
  ThreadPool Pool(3);
  Pool.enqueue([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 1);
  for (int I = 0; I != 10; ++I)
    Pool.enqueue([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 11);
}

TEST(ThreadPool, ParallelForEachVisitsEveryIndexExactlyOnce) {
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  ThreadPool Pool(4);
  Pool.parallelForEach(N, [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForEachHandlesEdgeCounts) {
  ThreadPool Pool(4);
  Pool.parallelForEach(0, [](size_t) { FAIL() << "no indices exist"; });
  std::atomic<int> Ran{0};
  Pool.parallelForEach(1, [&Ran](size_t I) {
    EXPECT_EQ(I, 0u);
    Ran.fetch_add(1);
  });
  EXPECT_EQ(Ran.load(), 1);
}

TEST(ThreadPool, ZeroWorkerRequestGetsOneWorker) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numWorkers(), 1u);
  std::atomic<bool> Ran{false};
  Pool.enqueue([&Ran] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPool, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
}

//===----------------------------------------------------------------------===//
// BatchDriver: argument expansion
//===----------------------------------------------------------------------===//

namespace {

/// Creates a file under a fresh temp directory; returns its path.
class TempDir {
public:
  TempDir() {
    Dir = std::filesystem::temp_directory_path() /
          ("quals_tp_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter++));
    std::filesystem::create_directories(Dir);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  std::string write(const std::string &Name, const std::string &Contents) {
    std::string Path = (Dir / Name).string();
    std::ofstream Out(Path, std::ios::binary);
    Out << Contents;
    return Path;
  }
  std::filesystem::path Dir;

private:
  static int Counter;
};

int TempDir::Counter = 0;

} // namespace

TEST(BatchDriver, ExpandArgPassesPlainPathsThrough) {
  std::vector<std::string> Files;
  std::string Error;
  ASSERT_TRUE(batch::expandArg("a.c", Files, Error));
  ASSERT_TRUE(batch::expandArg("b.c", Files, Error));
  EXPECT_EQ(Files, (std::vector<std::string>{"a.c", "b.c"}));
}

TEST(BatchDriver, ExpandArgReadsResponseFiles) {
  TempDir T;
  std::string Rsp = T.write("list.rsp", "one.c\n"
                                        "  two.c  \n"
                                        "\n"
                                        "# a comment\n"
                                        "three.c\n");
  std::vector<std::string> Files;
  std::string Error;
  ASSERT_TRUE(batch::expandArg("@" + Rsp, Files, Error)) << Error;
  EXPECT_EQ(Files, (std::vector<std::string>{"one.c", "two.c", "three.c"}));
}

TEST(BatchDriver, ExpandArgFollowsNestedResponseFiles) {
  TempDir T;
  std::string Inner = T.write("inner.rsp", "deep.c\n");
  std::string Outer = T.write("outer.rsp", "first.c\n@" + Inner + "\n");
  std::vector<std::string> Files;
  std::string Error;
  ASSERT_TRUE(batch::expandArg("@" + Outer, Files, Error)) << Error;
  EXPECT_EQ(Files, (std::vector<std::string>{"first.c", "deep.c"}));
}

TEST(BatchDriver, ExpandArgReportsMissingResponseFile) {
  std::vector<std::string> Files;
  std::string Error;
  EXPECT_FALSE(batch::expandArg("@/no/such/file.rsp", Files, Error));
  EXPECT_NE(Error.find("/no/such/file.rsp"), std::string::npos);
}

TEST(BatchDriver, ExpandArgRejectsResponseFileCycles) {
  TempDir T;
  std::string Path = (T.Dir / "self.rsp").string();
  T.write("self.rsp", "@" + Path + "\n");
  std::vector<std::string> Files;
  std::string Error;
  EXPECT_FALSE(batch::expandArg("@" + Path, Files, Error));
  EXPECT_NE(Error.find("nested too deeply"), std::string::npos);
}

TEST(BatchDriver, ParseJobsFlagForms) {
  unsigned Jobs = 0;
  bool ConsumedNext = false;
  std::string Error;

  EXPECT_TRUE(batch::parseJobsFlag("-j8", nullptr, Jobs, ConsumedNext, Error));
  EXPECT_EQ(Jobs, 8u);
  EXPECT_FALSE(ConsumedNext);
  EXPECT_TRUE(Error.empty());

  EXPECT_TRUE(batch::parseJobsFlag("--jobs=3", nullptr, Jobs, ConsumedNext,
                                   Error));
  EXPECT_EQ(Jobs, 3u);

  EXPECT_TRUE(batch::parseJobsFlag("-j", "5", Jobs, ConsumedNext, Error));
  EXPECT_EQ(Jobs, 5u);
  EXPECT_TRUE(ConsumedNext);

  EXPECT_TRUE(batch::parseJobsFlag("--jobs", "7", Jobs, ConsumedNext, Error));
  EXPECT_EQ(Jobs, 7u);
  EXPECT_TRUE(ConsumedNext);

  EXPECT_FALSE(batch::parseJobsFlag("--mono", nullptr, Jobs, ConsumedNext,
                                    Error));
}

TEST(BatchDriver, ParseJobsFlagRejectsBadCounts) {
  unsigned Jobs = 0;
  bool ConsumedNext = false;
  std::string Error;
  EXPECT_TRUE(batch::parseJobsFlag("-j0", nullptr, Jobs, ConsumedNext, Error));
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_TRUE(
      batch::parseJobsFlag("-jfoo", nullptr, Jobs, ConsumedNext, Error));
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_TRUE(batch::parseJobsFlag("-j", nullptr, Jobs, ConsumedNext, Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// BatchDriver: ordered parallel execution
//===----------------------------------------------------------------------===//

namespace {

/// Runs runBatch with its streams redirected to tmpfile()s and returns
/// (stdout bytes, stderr bytes, exit code).
struct BatchCapture {
  std::string Out, Err;
  int Exit = 0;
};

BatchCapture runCaptured(const std::vector<std::string> &Files,
                         batch::BatchConfig Config,
                         const batch::AnalyzeFn &Analyze) {
  std::FILE *OutF = std::tmpfile();
  std::FILE *ErrF = std::tmpfile();
  Config.OutStream = OutF;
  Config.ErrStream = ErrF;
  BatchCapture C;
  C.Exit = batch::runBatch(Files, Config, Analyze);
  auto Slurp = [](std::FILE *F) {
    std::string S;
    std::rewind(F);
    char Buf[4096];
    for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) != 0;)
      S.append(Buf, N);
    std::fclose(F);
    return S;
  };
  C.Out = Slurp(OutF);
  C.Err = Slurp(ErrF);
  return C;
}

} // namespace

TEST(BatchDriver, FlushesResultsInInputOrderDespiteCompletionOrder) {
  // The first file finishes last by a wide margin; its output must still
  // lead the stream at any -j.
  std::vector<std::string> Files{"slow", "mid", "fast0", "fast1", "fast2"};
  auto Analyze = [](const std::string &Path, size_t Index,
                    batch::FileResult &R) {
    if (Path == "slow")
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    else if (Path == "mid")
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    appendf(R.Out, "out(%s,%zu)\n", Path.c_str(), Index);
    appendf(R.Err, "err(%s)\n", Path.c_str());
  };
  const char *ExpectOut = "out(slow,0)\nout(mid,1)\nout(fast0,2)\n"
                          "out(fast1,3)\nout(fast2,4)\n";
  const char *ExpectErr = "err(slow)\nerr(mid)\nerr(fast0)\nerr(fast1)\n"
                          "err(fast2)\n";
  for (unsigned Jobs : {1u, 2u, 8u}) {
    batch::BatchConfig Config;
    Config.Jobs = Jobs;
    BatchCapture C = runCaptured(Files, Config, Analyze);
    EXPECT_EQ(C.Out, ExpectOut) << "-j" << Jobs;
    EXPECT_EQ(C.Err, ExpectErr) << "-j" << Jobs;
    EXPECT_EQ(C.Exit, 0) << "-j" << Jobs;
  }
}

TEST(BatchDriver, ReturnsWorstExitCodeWithoutExceptions) {
  // Error reporting is via exit codes and buffered stderr only -- the
  // exceptions-off contract of the analysis pipelines.
  std::vector<std::string> Files{"ok", "frontend-error", "qual-error", "ok2"};
  auto Analyze = [](const std::string &Path, size_t,
                    batch::FileResult &R) {
    if (Path == "frontend-error") {
      appendf(R.Err, "cannot parse %s\n", Path.c_str());
      R.ExitCode = 1;
    } else if (Path == "qual-error") {
      R.ExitCode = 2;
    }
  };
  for (unsigned Jobs : {1u, 4u}) {
    batch::BatchConfig Config;
    Config.Jobs = Jobs;
    BatchCapture C = runCaptured(Files, Config, Analyze);
    EXPECT_EQ(C.Exit, 2) << "-j" << Jobs;
    EXPECT_EQ(C.Err, "cannot parse frontend-error\n") << "-j" << Jobs;
  }
}

TEST(BatchDriver, HeadersBannerEachFileOnStdoutOnly) {
  std::vector<std::string> Files{"a.q", "b.q"};
  batch::BatchConfig Config;
  Config.Jobs = 2;
  Config.Headers = true;
  BatchCapture C = runCaptured(
      Files, Config,
      [](const std::string &, size_t, batch::FileResult &R) {
        R.Out += "body\n";
      });
  EXPECT_EQ(C.Out, "== a.q ==\nbody\n== b.q ==\nbody\n");
  EXPECT_EQ(C.Err, "");
}

TEST(BatchDriver, PublishesBatchMetricsWhenCollecting) {
  MetricsRegistry &R = MetricsRegistry::global();
  R.counter("batch.files").reset();
  R.counter("batch.failed").reset();
  MetricsRegistry::setCollecting(true);
  std::vector<std::string> Files{"x", "y", "z"};
  batch::BatchConfig Config;
  Config.Jobs = 2;
  runCaptured(Files, Config,
              [](const std::string &Path, size_t, batch::FileResult &Res) {
                Res.ExitCode = Path == "y" ? 1 : 0;
              });
  MetricsRegistry::setCollecting(false);
  EXPECT_EQ(R.counter("batch.files").value(), 3u);
  EXPECT_EQ(R.counter("batch.failed").value(), 1u);
  EXPECT_EQ(R.gauge("batch.jobs").value(), 2);
  EXPECT_GE(R.timer("batch.wall").count(), 1u);
}

//===----------------------------------------------------------------------===//
// Observability under concurrency (the CI TSan job runs this binary)
//===----------------------------------------------------------------------===//

TEST(ObservabilityConcurrency, FirstUseFromManyWorkersIsSafe) {
  // Hammer metric registration (same and distinct names) and trace
  // recording (dense thread-id assignment on first use per thread) from
  // every worker at once. Pre-TSan this is the regression surface for the
  // registry mutex and Tracer::denseTidLocked.
  Tracer &T = Tracer::instance();
  T.clear();
  T.setEnabled(true);
  MetricsRegistry::setCollecting(true);
  MetricsRegistry &R = MetricsRegistry::global();
  R.counter("tsan.shared").reset();

  constexpr size_t N = 512;
  {
    ThreadPool Pool(8);
    Pool.parallelForEach(N, [&R](size_t I) {
      TraceScope Span("tsan.span", "test");
      R.counter("tsan.shared").add(1);
      R.counter("tsan.distinct." + std::to_string(I % 17)).add(1);
      R.timer("tsan.timer").addSeconds(1e-9);
      R.gauge("tsan.gauge").set(static_cast<int64_t>(I));
      traceInstant("tsan.instant", "test");
    });
  }

  T.setEnabled(false);
  MetricsRegistry::setCollecting(false);
  EXPECT_EQ(R.counter("tsan.shared").value(), N);
  EXPECT_EQ(R.timer("tsan.timer").count(), N);

  // Every span/instant was recorded, and worker spans landed on small
  // dense thread tracks.
  size_t Spans = 0, Instants = 0;
  uint32_t MaxTid = 0;
  for (const TraceEvent &E : T.snapshot()) {
    Spans += E.Name == "tsan.span";
    Instants += E.Name == "tsan.instant";
    MaxTid = std::max(MaxTid, E.Tid);
  }
  EXPECT_EQ(Spans, N);
  EXPECT_EQ(Instants, N);
  EXPECT_LT(MaxTid, 16u); // 8 workers + main thread at most.
  T.clear();
}

TEST(ObservabilityConcurrency, RenderWhileWorkersPublish) {
  // Rendering the registry concurrently with metric updates must be safe
  // (the batch driver prints metrics after the pool joins, but tests and
  // future long-running services may snapshot mid-flight).
  MetricsRegistry::setCollecting(true);
  MetricsRegistry &R = MetricsRegistry::global();
  std::atomic<bool> Stop{false};
  {
    ThreadPool Pool(4);
    for (int W = 0; W != 4; ++W)
      Pool.enqueue([&R, &Stop, W] {
        while (!Stop.load()) {
          R.counter("render.race." + std::to_string(W)).add(1);
          R.timer("render.race.t").addSeconds(1e-9);
        }
      });
    for (int I = 0; I != 50; ++I) {
      EXPECT_FALSE(R.renderTable().empty());
      EXPECT_FALSE(R.renderJson().empty());
    }
    Stop = true;
  }
  MetricsRegistry::setCollecting(false);
}
