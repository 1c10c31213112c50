//===- RunnerParallelTest.cpp - Parallel suite execution tests ------------===//
///
/// \file
/// Covers the parallel execution layer: the shared thread pool (task
/// completion, value return, exception propagation), the perf-counter
/// subsystem under concurrency, and the determinism contract of the suite
/// runner — SE2GIS_JOBS=4 and SE2GIS_JOBS=1 must produce the same records
/// in the same order on a filtered sub-suite.
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include "service/Json.h"
#include "support/PerfCounters.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace se2gis;

namespace {

// --- ThreadPool ---------------------------------------------------------===//

TEST(ThreadPoolTest, CompletesAllTasks) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Count{0};
  std::vector<std::future<void>> Pending;
  for (int I = 0; I < 100; ++I)
    Pending.push_back(Pool.enqueue([&Count] { ++Count; }));
  for (auto &F : Pending)
    F.get();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool Pool(2);
  std::vector<std::future<int>> Pending;
  for (int I = 0; I < 10; ++I)
    Pending.push_back(Pool.enqueue([I] { return I * I; }));
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Pending[I].get(), I * I);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool Pool(2);
  auto Ok = Pool.enqueue([] { return 7; });
  auto Bad = Pool.enqueue(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(Pool.enqueue([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 20; ++I)
      Pool.enqueue([&Count] { ++Count; });
  } // destructor must run every queued job before joining
  EXPECT_EQ(Count.load(), 20);
}

TEST(ThreadPoolTest, JobsEnvIsOwnedBySolverConfig) {
  const char *Saved = std::getenv("SE2GIS_JOBS");
  std::string SavedCopy = Saved ? Saved : "";
  setenv("SE2GIS_JOBS", "3", 1);
  // SolverConfig::fromEnv is the single reader of the SE2GIS_* environment;
  // the pool's own default deliberately ignores it.
  EXPECT_EQ(SolverConfig::fromEnv().Jobs, 3u);
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
  setenv("SE2GIS_JOBS", "not-a-number", 1);
  EXPECT_EQ(SolverConfig::fromEnv().Jobs, 0u);
  if (Saved)
    setenv("SE2GIS_JOBS", SavedCopy.c_str(), 1);
  else
    unsetenv("SE2GIS_JOBS");
}

// --- PerfCounters -------------------------------------------------------===//

TEST(PerfCountersTest, AccumulatesUnderConcurrency) {
  PerfSnapshot Before = snapshotPerf();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 10000; ++I)
        perfAdd(PerfCounter::EnumCandidates);
      perfAddTimeNs(PerfTimer::Z3SolveNs, 1000);
    });
  for (std::thread &T : Threads)
    T.join();
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::EnumCandidates), 80000u);
  EXPECT_GE(Delta.getNs(PerfTimer::Z3SolveNs), 8000u);
}

TEST(PerfCountersTest, TimerScopeAddsElapsedTime) {
  PerfSnapshot Before = snapshotPerf();
  {
    PerfTimerScope Scope(PerfTimer::SuiteRunNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.getMs(PerfTimer::SuiteRunNs), 4.0);
}

TEST(PerfCountersTest, JsonContainsEveryField) {
  std::ostringstream OS;
  writePerfJson(OS, PerfSnapshot());
  std::string J = OS.str();
  for (const char *Key :
       {"smt_queries", "smt_sat", "smt_unsat", "smt_unknown",
        "smt_budget_expired", "z3_time_ms", "run_time_ms", "enum_candidates",
        "enum_pruned"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
}

// --- Parallel runner determinism ----------------------------------------===//

SuiteOptions subSuiteOptions() {
  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 20000;
  Opts.Algorithms = {AlgorithmKind::SE2GIS};
  Opts.Config.Filter = "sortedlist/m"; // min, max, min_max: a fast sub-suite
  Opts.Config.Verbose = false;
  return Opts;
}

TEST(RunnerParallelTest, ParallelMatchesSequential) {
  SuiteOptions Sequential = subSuiteOptions();
  Sequential.Config.Jobs = 1;
  std::vector<SuiteRecord> A = runSuite(Sequential);

  SuiteOptions Parallel = subSuiteOptions();
  Parallel.Config.Jobs = 4;
  std::vector<SuiteRecord> B = runSuite(Parallel);

  ASSERT_GE(A.size(), 2u) << "filter no longer matches a multi-benchmark "
                             "sub-suite; update the test";
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Def->Name, B[I].Def->Name) << "record order diverged";
    EXPECT_EQ(A[I].Algorithm, B[I].Algorithm);
    EXPECT_EQ(A[I].Result.V, B[I].Result.V) << A[I].Def->Name;
  }
}

TEST(RunnerParallelTest, WritesPerfJsonSummary) {
  SuiteOptions Opts = subSuiteOptions();
  Opts.Config.Filter = "sortedlist/min"; // min + min_max
  Opts.Config.Jobs = 2;
  Opts.Config.PerfJsonPath = ::testing::TempDir() + "se2gis_perf_test.json";
  std::vector<SuiteRecord> Records = runSuite(Opts);
  ASSERT_FALSE(Records.empty());

  std::ifstream In(Opts.Config.PerfJsonPath);
  ASSERT_TRUE(In.good()) << "summary not written to " << Opts.Config.PerfJsonPath;
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string J = Buf.str();
  EXPECT_NE(J.find("\"suite\""), std::string::npos);
  EXPECT_NE(J.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"smt_queries\""), std::string::npos);
  EXPECT_NE(J.find("sortedlist/min"), std::string::npos);
  // The sweep really went through the SMT stack.
  EXPECT_EQ(J.find("\"smt_queries\":0,"), std::string::npos);
  std::remove(Opts.Config.PerfJsonPath.c_str());
}

TEST(RunnerParallelTest, PerfJsonRecordsCarryDetail) {
  // A give-up or timeout explains itself in the suite JSON: the record's
  // detail survives escaping and parses back verbatim.
  const BenchmarkDef *Def = findBenchmark("list/sum");
  ASSERT_NE(Def, nullptr);
  std::vector<SuiteRecord> Records(2);
  Records[0].Def = Def;
  Records[0].Result.V = Verdict::Failed;
  Records[0].Result.Detail =
      "the synthesis step for the \"approximation\" failed:\n\tsize\t5\r";
  Records[1].Def = Def;
  Records[1].Algorithm = AlgorithmKind::SEGIS;
  Records[1].Result.V = Verdict::Timeout;
  Records[1].Result.Detail = "budget expired in round 3 (path C:\\tmp)";

  std::ostringstream OS;
  writeSuitePerfJson(OS, Records, PerfSnapshot{}, 1.0, 1);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(OS.str(), V, Error)) << Error << "\n"
                                                      << OS.str();
  const JsonValue *Recs = V.get("records");
  ASSERT_NE(Recs, nullptr);
  ASSERT_EQ(Recs->items().size(), 2u);
  EXPECT_EQ(Recs->items()[0].getString("outcome"), "failed");
  EXPECT_EQ(Recs->items()[0].getString("detail"), Records[0].Result.Detail);
  EXPECT_EQ(Recs->items()[1].getString("outcome"), "timeout");
  EXPECT_EQ(Recs->items()[1].getString("detail"), Records[1].Result.Detail);
}

} // namespace
