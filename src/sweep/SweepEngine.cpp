//===- SweepEngine.cpp - Parallel batch litmus sweeps ---------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/SweepEngine.h"

#include "litmus/Compiler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

using namespace cats;

bool SweepReport::allOk() const {
  for (const SweepTestResult &T : Tests)
    if (!T.Error.empty())
      return false;
  return true;
}

SweepEngine::SweepEngine(SweepOptions Opts)
    : Workers(Opts.Jobs), Judge{Opts.Backend, Opts.Witness} {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  // Sweep jobs are CPU-bound, so oversubscribing cores only adds context
  // switching; clamp to the hardware (and default to it).
  if (Workers == 0 || Workers > Hw)
    Workers = Hw;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

SweepTestResult runOneJob(const SweepJob &Job, const SimulateOptions &Opts) {
  SweepTestResult Out;
  Out.TestName = Job.Test.Name;
  const auto Start = Clock::now();
  obs::Span JobSpan(obs::traceEnabled() ? "judge " + Job.Test.Name
                                        : std::string());

  std::string Invalid = Job.Test.validate();
  if (!Invalid.empty()) {
    Out.Error = Invalid;
  } else {
    auto Compiled = [&] {
      obs::Span CompileSpan("compile");
      return CompiledTest::compile(Job.Test);
    }();
    if (!Compiled) {
      Out.Error = Compiled.message();
    } else {
      obs::Span EnumerateSpan("enumerate+judge");
      Out.Result = simulateAll(*Compiled, Job.Models, Opts);
    }
  }
  if (!Out.Error.empty())
    obs::tick("sweep.errors");

  Out.WallSeconds = secondsSince(Start);
  obs::recordSeconds("sweep.job_wall_us", Out.WallSeconds);
  return Out;
}

/// One source position of the commit window: a cache hit, or a job queued
/// for the pool whose Result is final once Done (set under the pool lock).
struct Slot {
  SweepJob Job;
  SweepTestResult Result;
  bool Hit = false, Done = false;
};

/// The judging threads of one sweep: at most Max, each started the first
/// time a queued slot needs one and kept until the sweep ends. Destroying
/// the pool stops and joins it, on every way out of the sweep.
struct Judges {
  Judges(unsigned Max, const SimulateOptions &Opts) : Max(Max), Opts(Opts) {}
  const unsigned Max;
  const SimulateOptions &Opts;
  std::mutex Mu;
  std::condition_variable Queued, Judged;
  std::deque<Slot *> Todo;
  bool Stop = false;
  std::vector<std::thread> Threads;

  ~Judges() {
    std::unique_lock<std::mutex> Lock(Mu);
    Stop = true;
    Queued.notify_all();
    Lock.unlock();
    for (std::thread &T : Threads)
      T.join();
  }

  void submit(Slot &S) {
    std::lock_guard<std::mutex> Lock(Mu);
    Todo.push_back(&S);
    Queued.notify_one();
    if (Threads.size() < Max)
      Threads.emplace_back([this] { work(); });
  }

  void await(const Slot &S) {
    std::unique_lock<std::mutex> Lock(Mu);
    Judged.wait(Lock, [&] { return S.Done; });
  }

  void work() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (Queued.wait(Lock, [this] { return Stop || !Todo.empty(); }),
           !Stop) {
      Slot &S = *Todo.front();
      Todo.pop_front();
      Lock.unlock();
      SweepTestResult Result = runOneJob(S.Job, Opts);
      Lock.lock();
      S.Result = std::move(Result);
      S.Done = true;
      Judged.notify_one();
    }
  }
};

/// The one sweep pipeline behind run() and runStreamed(). The calling
/// thread pulls jobs into a source-ordered window of 16 slots per worker
/// (look-ahead past a slow test), resolving cache hits on the spot; the
/// pool judges the rest; the calling thread commits finished slots in
/// source order: cache store, report append, and OnBatch after every
/// \p BatchSize commits plus once for a final partial group. \p Pull and
/// every hook run on the calling thread only.
SweepReport runPipeline(const std::function<bool(SweepJob &)> &Pull,
                        unsigned Workers, const SimulateOptions &Opts,
                        unsigned BatchSize, const StreamHooks &Hooks) {
  obs::Span RunSpan("sweep run");
  const auto Start = Clock::now();
  SweepReport Report;
  Report.CacheUsed = static_cast<bool>(Hooks.CacheLookup);
  double PullSeconds = 0;

  std::deque<Slot> Window;
  Judges Pool(Workers, Opts); // Joined before the window it points into.
  std::optional<obs::Span> GroupSpan;
  unsigned InGroup = 0;
  bool More = true;
  while (true) {
    while (More && Window.size() < 16 * size_t(Workers)) {
      Slot &S = Window.emplace_back();
      const auto PullStart = Clock::now();
      More = Pull(S.Job);
      S.Hit = More && Hooks.CacheLookup &&
              Hooks.CacheLookup(S.Job.Test, S.Result);
      PullSeconds += secondsSince(PullStart);
      if (!More)
        Window.pop_back();
      else if (!S.Hit)
        Pool.submit(S);
    }
    if (InGroup == BatchSize || (InGroup > 0 && Window.empty())) {
      if (Hooks.OnBatch)
        Hooks.OnBatch(Report, Report.Tests.size());
      GroupSpan.reset();
      InGroup = 0;
    }
    if (Window.empty())
      break;
    if (!GroupSpan)
      GroupSpan.emplace("sweep batch");
    Slot &S = Window.front();
    if (!S.Hit) {
      Pool.await(S);
      if (Hooks.CacheStore)
        Hooks.CacheStore(S.Job.Test, S.Result);
    }
    Report.CacheHits += S.Hit;
    Report.CacheMisses += Report.CacheUsed && !S.Hit;
    Report.Tests.push_back(std::move(S.Result));
    Window.pop_front();
    ++InGroup;
  }

  Report.Jobs = std::max<unsigned>(Pool.Threads.size(), 1);
  Report.WallSeconds = secondsSince(Start);
  obs::tick("sweep.tests_consumed", Report.Tests.size());
  if (Report.CacheUsed) {
    obs::tick("sweep.cache_hits", Report.CacheHits);
    obs::tick("sweep.cache_misses", Report.CacheMisses);
  }
  // The caller's time in pulls, and the rest of the sweep's wall time.
  obs::tick("sweep.generation_wall_us",
            static_cast<unsigned long long>(PullSeconds * 1e6));
  obs::tick("sweep.judge_wall_us",
            static_cast<unsigned long long>(
                (Report.WallSeconds - PullSeconds) * 1e6));
  return Report;
}

} // namespace

SweepReport SweepEngine::run(const std::vector<SweepJob> &Jobs) const {
  size_t Next = 0;
  return runPipeline(
      [&](SweepJob &Job) {
        if (Next == Jobs.size())
          return false;
        Job = Jobs[Next++];
        return true;
      },
      Workers, Judge, DefaultBatch, StreamHooks());
}

SweepReport
SweepEngine::runStreamed(const TestSource &Source,
                         const std::vector<const Model *> &Models,
                         unsigned BatchSize,
                         const StreamHooks &Hooks) const {
  // Resume: the first pull burns (still synthesizing, never judging) the
  // prefix a checkpoint already covers.
  unsigned long long Skip = Hooks.SkipTests;
  return runPipeline(
      [&](SweepJob &Job) {
        for (; Skip > 0; --Skip)
          if (!Source(Job.Test))
            return false;
        Job.Models = Models;
        return Source(Job.Test);
      },
      Workers, Judge, std::max(BatchSize, 1u), Hooks);
}

std::vector<SweepJob> cats::makeJobs(const std::vector<LitmusTest> &Tests,
                                     const std::vector<const Model *> &Models) {
  std::vector<SweepJob> Jobs;
  Jobs.reserve(Tests.size());
  for (const LitmusTest &Test : Tests)
    Jobs.push_back(SweepJob{Test, Models});
  return Jobs;
}

// The JSON rendering and parsing of the cats-sweep-report/1 schema live
// together in sweep/ReportIO.cpp.
