//===- support/ThreadPool.cpp - Fixed-size worker thread pool -------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>

using namespace quals;

unsigned ThreadPool::defaultWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = 1;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  // Workers drain the remaining queue before exiting (graceful shutdown).
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // A task that was enqueued while the workers were already exiting -- for
  // example by a task still running during the shutdown race -- can land in
  // the queue after every worker observed it empty. enqueue() promises the
  // task will run, so drain the leftovers inline. Tasks these tasks enqueue
  // are picked up by the same loop; no lock is held while running them.
  for (;;) {
    std::function<void()> Task;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Queue.empty())
        break;
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WorkCv.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  IdleCv.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCv.wait(Lock, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return; // Stop was set and nothing is left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Running;
      if (Queue.empty() && Running == 0)
        IdleCv.notify_all();
    }
  }
}

void ThreadPool::parallelForEach(size_t Count,
                                 const std::function<void(size_t)> &Body) {
  if (Count == 0)
    return;
  // Pump tasks pull indices from a shared counter so a slow index never
  // idles the other workers; completion is tracked independently of the
  // pool-wide queue so concurrent enqueue() traffic cannot wake us early.
  struct SharedState {
    std::atomic<size_t> Next{0};
    std::mutex DoneMutex;
    std::condition_variable DoneCv;
    unsigned LivePumps;
  };
  auto State = std::make_shared<SharedState>();
  unsigned Pumps = static_cast<unsigned>(
      std::min<size_t>(numWorkers(), Count));
  State->LivePumps = Pumps;
  for (unsigned I = 0; I != Pumps; ++I)
    enqueue([State, Count, &Body] {
      for (size_t Idx;
           (Idx = State->Next.fetch_add(1, std::memory_order_relaxed)) <
           Count;)
        Body(Idx);
      std::lock_guard<std::mutex> Lock(State->DoneMutex);
      if (--State->LivePumps == 0)
        State->DoneCv.notify_all();
    });
  std::unique_lock<std::mutex> Lock(State->DoneMutex);
  State->DoneCv.wait(Lock, [&State] { return State->LivePumps == 0; });
}
