//===- tools/BatchDriver.cpp - Ordered parallel batch analysis ------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "BatchDriver.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

using namespace quals;
using namespace quals::batch;

static bool expandArgDepth(const std::string &Arg,
                           std::vector<std::string> &Files,
                           std::string &Error, unsigned Depth) {
  if (Arg.empty() || Arg[0] != '@') {
    Files.push_back(Arg);
    return true;
  }
  if (Depth >= 8) {
    Error = "response files nested too deeply (cycle?) at '" + Arg + "'";
    return false;
  }
  std::string Path = Arg.substr(1);
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read response file '" + Path + "'";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    // Trim whitespace; skip blanks and comments.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    if (Line[0] == '#')
      continue;
    if (!expandArgDepth(Line, Files, Error, Depth + 1))
      return false;
  }
  return true;
}

bool quals::batch::expandArg(const std::string &Arg,
                             std::vector<std::string> &Files,
                             std::string &Error) {
  return expandArgDepth(Arg, Files, Error, 0);
}

bool quals::batch::parseJobsFlag(const char *Arg, const char *Next,
                                 unsigned &Jobs, bool &ConsumedNext,
                                 std::string &Error) {
  ConsumedNext = false;
  const char *Value = nullptr;
  if (!std::strncmp(Arg, "-j", 2) && std::strcmp(Arg, "-j")) {
    Value = Arg + 2;
  } else if (!std::strncmp(Arg, "--jobs=", 7)) {
    Value = Arg + 7;
  } else if (!std::strcmp(Arg, "-j") || !std::strcmp(Arg, "--jobs")) {
    if (!Next) {
      Error = std::string(Arg) + " requires a worker count";
      return true;
    }
    Value = Next;
    ConsumedNext = true;
  } else {
    return false;
  }
  char *End = nullptr;
  unsigned long N = std::strtoul(Value, &End, 10);
  if (End == Value || *End || N == 0 || N > 1024) {
    Error = std::string("bad worker count '") + Value +
            "' (want an integer in [1, 1024])";
    return true;
  }
  Jobs = static_cast<unsigned>(N);
  return true;
}

namespace {

/// Per-file completion slot for the ordered flusher.
struct Slot {
  FileResult Result;
  bool Done = false;
};

} // namespace

int quals::batch::runBatch(const std::vector<std::string> &Files,
                           const BatchConfig &Config,
                           const AnalyzeFn &Analyze) {
  Timer Wall;
  TraceScope BatchSpan("batch", Config.Category);
  if (Tracer::isEnabled())
    BatchSpan.setArgs("\"files\":" + std::to_string(Files.size()) +
                      ",\"jobs\":" + std::to_string(Config.Jobs));

  auto AnalyzeOne = [&](const std::string &Path, size_t Index,
                        FileResult &R) {
    TraceScope Span("file:" + Path, Config.Category);
    Analyze(Path, Index, R);
    if (Tracer::isEnabled())
      Span.setArgs("\"exit\":" + std::to_string(R.ExitCode));
  };
  auto Flush = [&](const std::string &Path, const FileResult &R) {
    if (Config.Headers)
      std::fprintf(Config.OutStream, "== %s ==\n", Path.c_str());
    if (!R.Out.empty())
      std::fwrite(R.Out.data(), 1, R.Out.size(), Config.OutStream);
    if (!R.Err.empty())
      std::fwrite(R.Err.data(), 1, R.Err.size(), Config.ErrStream);
    // Keep the two streams plausibly interleaved for terminal users even
    // when they are redirected to the same pipe.
    std::fflush(Config.OutStream);
    std::fflush(Config.ErrStream);
  };

  int MaxExit = 0;
  unsigned Failed = 0;
  if (Config.Jobs <= 1 || Files.size() <= 1) {
    // Inline serial path: same buffering and flush order as the parallel
    // path, so -j1 output is the byte-reference for every -jN.
    for (size_t I = 0, N = Files.size(); I != N; ++I) {
      FileResult R;
      AnalyzeOne(Files[I], I, R);
      Flush(Files[I], R);
      MaxExit = std::max(MaxExit, R.ExitCode);
      Failed += R.ExitCode != 0;
    }
  } else {
    std::vector<Slot> Slots(Files.size());
    std::mutex Mutex;
    std::condition_variable DoneCv;
    {
      // Workers fill slots in whatever order they finish; this thread
      // flushes the completed prefix in input order, so output streams as
      // the corpus completes yet stays deterministic. The pool destructor
      // joins the workers, but every task has finished once the last slot
      // flushes.
      ThreadPool Pool(std::min<size_t>(Config.Jobs, Files.size()));
      for (size_t I = 0, N = Files.size(); I != N; ++I)
        Pool.enqueue([&, I] {
          FileResult R;
          AnalyzeOne(Files[I], I, R);
          std::lock_guard<std::mutex> Lock(Mutex);
          Slots[I].Result = std::move(R);
          Slots[I].Done = true;
          DoneCv.notify_all();
        });
      for (size_t I = 0, N = Files.size(); I != N; ++I) {
        std::unique_lock<std::mutex> Lock(Mutex);
        DoneCv.wait(Lock, [&] { return Slots[I].Done; });
        Lock.unlock();
        // Slot I is never written again once Done, so reading it unlocked
        // is safe.
        Flush(Files[I], Slots[I].Result);
        MaxExit = std::max(MaxExit, Slots[I].Result.ExitCode);
        Failed += Slots[I].Result.ExitCode != 0;
      }
    }
  }

  if (MetricsRegistry::collecting()) {
    MetricsRegistry &R = MetricsRegistry::global();
    R.counter("batch.files").add(Files.size());
    R.counter("batch.failed").add(Failed);
    R.gauge("batch.jobs").set(Config.Jobs);
    R.timer("batch.wall").addSeconds(Wall.seconds());
  }
  return MaxExit;
}
