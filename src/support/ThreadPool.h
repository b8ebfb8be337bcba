//===- support/ThreadPool.h - Fixed-size worker thread pool -----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size pool of worker threads behind a FIFO work queue, the engine
/// of the batch-analysis layer (tools/BatchDriver.h): the paper's evaluation
/// runs const inference over whole benchmark corpora, and corpus throughput
/// comes from analyzing many translation units concurrently, one fully
/// isolated per-file context per task.
///
/// Design constraints:
///
/// \li **Tasks do not throw.** The analysis pipelines report failure through
///     diagnostics and exit codes, never exceptions, so the pool neither
///     catches nor propagates them; a throwing task terminates the process
///     (same as exceptions-off builds).
/// \li **FIFO dispatch.** Workers pick tasks strictly in enqueue order, so a
///     single-worker pool executes tasks exactly in submission order (the
///     determinism tests rely on this).
/// \li **Graceful shutdown.** The destructor finishes every task already
///     enqueued, then joins the workers; work is never silently dropped.
/// \li **Shared-state contract.** A task may touch process-wide state only
///     through the thread-safe observability singletons (support/Trace.h,
///     support/Metrics.h, BumpPtrAllocator's byte counters); everything else
///     it uses must be confined to the task. docs/PARALLEL.md spells out the
///     full shared-vs-per-worker inventory.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_THREADPOOL_H
#define QUALS_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quals {

/// A fixed-size worker pool; see the file comment.
class ThreadPool {
public:
  /// Spawns \p NumWorkers threads (at least one).
  explicit ThreadPool(unsigned NumWorkers);

  /// Finishes every enqueued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Appends \p Task to the queue; some worker will run it.
  void enqueue(std::function<void()> Task);

  /// Blocks until the queue is empty and no task is running.
  void wait();

  /// Runs Body(0) .. Body(Count-1) on the workers and blocks until all
  /// calls returned. Indices are handed out in increasing order but run
  /// concurrently; Body must tolerate any interleaving across indices.
  /// Independent of other enqueue() traffic (separate completion tracking).
  void parallelForEach(size_t Count, const std::function<void(size_t)> &Body);

  unsigned numWorkers() const { return Workers.size(); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits 0 for "unknown").
  static unsigned defaultWorkers();

private:
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WorkCv;  ///< Signals workers: task ready or stop.
  std::condition_variable IdleCv;  ///< Signals wait(): pool went idle.
  std::deque<std::function<void()>> Queue;
  unsigned Running = 0; ///< Tasks currently executing.
  bool Stop = false;    ///< Set once by the destructor.

  void workerLoop();
};

} // namespace quals

#endif // QUALS_SUPPORT_THREADPOOL_H
