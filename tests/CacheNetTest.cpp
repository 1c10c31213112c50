//===- CacheNetTest.cpp - Shared cache tier client tests ------------------===//
//
// Covers src/cachenet/RemoteStore against the real tier, an `se2gis_served
// --cache disk` server: read-through miss/hit, circuit-breaker transitions
// against a dead-then-revived tier, write-behind flush, the CacheConfig
// remote mode (remote hit populated downward into the local DiskStore),
// concurrent multi-client traffic, and the soundness property the whole
// tier leans on: a poisoned remote entry is re-validated on reuse and can
// never change a verdict. The tier's own protocol surface (admission,
// stats, drain) is covered in ServiceTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "ast/Term.h"
#include "cache/CacheConfig.h"
#include "cachenet/RemoteStore.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "suite/Runner.h"
#include "support/PerfCounters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace se2gis;

namespace {

namespace fs = std::filesystem;

/// Each test gets a private scratch directory (tier store + node cache
/// dirs + the unix socket) and a clean process-wide cache state.
class CacheNetTest : public ::testing::Test {
protected:
  void SetUp() override {
    shutdownCache();
    Root = (fs::temp_directory_path() /
            ("se2gis-cachenet-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
             "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(Root);
    fs::create_directories(Root);
  }
  void TearDown() override {
    for (const std::unique_ptr<Server> &S : Tiers)
      S->requestDrainAsync();
    for (std::thread &T : RunThreads)
      T.join();
    Tiers.clear();
    killChildTiers();
    shutdownCache();
    fs::remove_all(Root);
  }

  std::string path(const std::string &Leaf) { return Root + "/" + Leaf; }

  /// Starts an in-process tier — a Server in Disk cache mode — on a unix
  /// socket under the scratch dir; TearDown drains and joins it. The cache
  /// runtime is process-wide, so the test must not configure another mode
  /// while the tier serves.
  Server *startTier(const std::string &Tag) {
    ServiceConfig Config;
    Config.Listen = "unix:" + path(Tag + ".sock");
    Config.Workers = 1;
    Config.Base.Cache.Mode = CacheMode::Disk;
    Config.Base.Cache.Dir = path(Tag + ".store");
    Config.Base.Log.Level = LogLevel::Error;
    Tiers.push_back(std::make_unique<Server>(std::move(Config)));
    Server *S = Tiers.back().get();
    std::string Error;
    if (!S->start(Error)) {
      ADD_FAILURE() << "tier start: " << Error;
      Tiers.pop_back();
      return nullptr;
    }
    RunThreads.emplace_back([S] { S->run(); });
    return S;
  }

  /// Starts the real tier binary, `se2gis_served --cache disk`, as a child
  /// process, for tests whose remote-mode node lives in this process (a
  /// node and a tier cannot share one process-wide cache runtime).
  /// \returns its address once it answers a ping; TearDown kills it.
  std::string spawnTier(const std::string &Tag) {
    std::string Addr = "unix:" + path(Tag + ".sock");
    std::string Log = path(Tag + ".log");
    std::vector<std::string> Args = {SE2GIS_SERVED_BIN,
                                     "--listen",
                                     Addr,
                                     "--workers",
                                     "1",
                                     "--cache",
                                     "disk",
                                     "--cache-dir",
                                     path(Tag + ".store"),
                                     "--log-level",
                                     "error"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    pid_t Pid = -1;
    int Rc = ::posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      ADD_FAILURE() << "spawn " << Argv[0] << ": " << std::strerror(Rc);
      return "";
    }
    Children.push_back(Pid);
    ServiceAddr A;
    std::string Error;
    EXPECT_TRUE(parseServiceAddr(Addr, A, Error)) << Error;
    for (int Try = 0; Try < 100; ++Try) {
      int Fd = connectTo(A, Error, /*TimeoutMs=*/200);
      if (Fd >= 0) {
        setFdIoTimeout(Fd, 2000);
        std::string Payload;
        bool Up = writeFrame(Fd, "{\"method\":\"ping\"}") &&
                  readFrame(Fd, Payload) == FrameStatus::Ok;
        closeFd(Fd);
        if (Up)
          return Addr;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ADD_FAILURE() << "tier never answered a ping; see " << Log;
    return "";
  }

  /// kill -9 and reap every spawned tier.
  void killChildTiers() {
    for (pid_t Pid : Children) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
    }
    Children.clear();
  }

  std::string Root;
  std::vector<std::unique_ptr<Server>> Tiers;
  std::vector<std::thread> RunThreads;
  std::vector<pid_t> Children;
};

/// Blocking one-shot request against \p Addr; fails the test on transport
/// problems.
JsonValue rawCall(const ServiceAddr &Addr, const JsonValue &Req) {
  std::string Error;
  int Fd = connectTo(Addr, Error, /*TimeoutMs=*/2000);
  EXPECT_GE(Fd, 0) << Error;
  JsonValue Resp;
  if (Fd >= 0) {
    setFdIoTimeout(Fd, 5000);
    std::string Payload;
    EXPECT_TRUE(writeFrame(Fd, Req.dump()));
    EXPECT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
    EXPECT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
    closeFd(Fd);
  }
  return Resp;
}

Hash128 keyOf(unsigned char Tag) {
  std::string Hex(32, '0');
  static const char Digits[] = "0123456789abcdef";
  Hex[30] = Digits[(Tag >> 4) & 0xf];
  Hex[31] = Digits[Tag & 0xf];
  Hash128 K{};
  EXPECT_TRUE(Hash128::fromHex(Hex, K));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// RemoteStore client
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, RemoteStoreMissPutHitAndFlush) {
  ASSERT_NE(startTier("d"), nullptr);

  RemoteStoreOptions Opts;
  Opts.Addr = "unix:" + path("d.sock");
  std::string Error;
  auto Store = RemoteStore::create(Opts, Error);
  ASSERT_NE(Store, nullptr) << Error;

  Hash128 K = keyOf(3);
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_TRUE(Store->putSync("smt", K, "remote-payload"));
  auto Got = Store->get("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "remote-payload");

  // Write-behind: enqueue, flush, observe on the tier.
  Hash128 K2 = keyOf(4);
  Store->putAsync("smt", K2, "async-payload");
  EXPECT_TRUE(Store->flush(5000));
  auto Got2 = Store->get("smt", K2);
  ASSERT_TRUE(Got2.has_value());
  EXPECT_EQ(*Got2, "async-payload");

  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Closed);

  // Malformed address is the one construction failure.
  RemoteStoreOptions Bad;
  Bad.Addr = "tcp:nonsense";
  EXPECT_EQ(RemoteStore::create(Bad, Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST_F(CacheNetTest, BreakerOpensOnDeadDaemonAndRecloses) {
  std::string Sock = path("revive.sock");

  RemoteStoreOptions Opts;
  Opts.Addr = "unix:" + Sock;
  Opts.ConnectTimeoutMs = 100;
  Opts.RequestTimeoutMs = 200;
  Opts.MaxAttempts = 1;
  Opts.BackoffBaseMs = 1;
  Opts.BreakerThreshold = 2;
  Opts.BreakerCooldownMs = 150;
  std::string Error;
  auto Store = RemoteStore::create(Opts, Error);
  ASSERT_NE(Store, nullptr) << Error;

  PerfSnapshot Before = snapshotPerf();

  // Nothing listens: consecutive failures open the breaker.
  Hash128 K = keyOf(5);
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Open);

  // Open breaker = near-zero-cost degraded fast fails, counted as such.
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(Store->get("smt", K).has_value());
  auto FastMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_LT(FastMs, 50);

  PerfSnapshot Mid = snapshotPerf().since(Before);
  EXPECT_GE(Mid.get(PerfCounter::CacheRemoteErrors), 2u);
  EXPECT_GE(Mid.get(PerfCounter::CacheRemoteDegraded), 1u);

  // Revive a tier on the same socket path; after the cooldown the next
  // probe goes half-open, succeeds, and closes the breaker.
  ASSERT_NE(startTier("revive"), nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(Store->get("smt", K).has_value()); // miss, but transport OK
  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Closed);

  EXPECT_TRUE(Store->putSync("smt", K, "after-revival"));
  auto Got = Store->get("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "after-revival");
}

//===----------------------------------------------------------------------===//
// CacheConfig remote tier (read-through / write-behind / populate-down)
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, RemoteHitPopulatesLocalTiers) {
  std::string Addr = spawnTier("d");
  ASSERT_FALSE(Addr.empty());

  // Node A (this process, first configuration): insert an entry; the
  // write-behind fan-out ships it to the tier.
  CacheSettings SA;
  SA.Mode = CacheMode::Remote;
  SA.Dir = path("nodeA");
  SA.Addr = Addr;
  configureCache(SA);
  Hash128 K = keyOf(6);
  persistentInsert("smt", K, "shared-entry");
  flushCache(); // drains the write-behind queue
  shutdownCache();

  // "Node B": same tier, fresh local dir. The local probe misses, the
  // remote probe hits, and the hit lands in B's own DiskStore.
  PerfSnapshot Before = snapshotPerf();
  CacheSettings SB = SA;
  SB.Dir = path("nodeB");
  configureCache(SB);
  auto Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "shared-entry");
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::CacheRemoteHits), 1u);

  // Second lookup is local: no further remote traffic.
  ASSERT_TRUE(persistentLookup("smt", K).has_value());
  Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::CacheRemoteHits), 1u);
  flushCache();
  shutdownCache();

  // The populated-down entry survives in B's store even with the tier
  // gone: disk-only reconfigure on B's dir still hits.
  killChildTiers();
  CacheSettings SDisk;
  SDisk.Mode = CacheMode::Disk;
  SDisk.Dir = path("nodeB");
  configureCache(SDisk);
  Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "shared-entry");
}

TEST_F(CacheNetTest, DeadDaemonDegradesToLocalOnly) {
  // Remote mode against an address nobody serves: configuration succeeds,
  // lookups and inserts behave exactly like Disk mode, and the breaker
  // caps the cost.
  CacheSettings S;
  S.Mode = CacheMode::Remote;
  S.Dir = path("node");
  S.Addr = "unix:" + path("nobody-home.sock");
  configureCache(S);

  Hash128 K = keyOf(7);
  EXPECT_FALSE(persistentLookup("smt", K).has_value());
  persistentInsert("smt", K, "local-value");
  auto Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "local-value");
  flushCache(); // must not hang on the dead tier
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, ConcurrentMultiClientTraffic) {
  Server *Tier = startTier("d");
  ASSERT_NE(Tier, nullptr);
  std::string Addr = "unix:" + path("d.sock");

  constexpr unsigned Clients = 4, Ops = 32;
  std::atomic<unsigned> Hits{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      RemoteStoreOptions Opts;
      Opts.Addr = Addr;
      std::string Error;
      auto Store = RemoteStore::create(Opts, Error);
      ASSERT_NE(Store, nullptr) << Error;
      for (unsigned I = 0; I < Ops; ++I) {
        // Shared key space: every client writes and reads the same keys,
        // exercising concurrent dedup on one segment map.
        Hash128 K = keyOf(static_cast<unsigned char>(I % 8));
        std::string Payload = "v";
        Payload += std::to_string(I % 8);
        EXPECT_TRUE(Store->putSync("smt", K, Payload));
        auto Got = Store->get("smt", K);
        ASSERT_TRUE(Got.has_value());
        EXPECT_EQ(*Got, Payload);
        ++Hits;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Hits.load(), Clients * Ops);

  JsonValue R = rawCall(
      Tier->addr(), JsonValue::object().set("method", JsonValue::str("stats")));
  const JsonValue *Cache = R.get("cache");
  ASSERT_NE(Cache, nullptr) << R.dump();
  EXPECT_EQ(Cache->getInt("entries"), 8); // 8 distinct keys, deduplicated
  EXPECT_EQ(Cache->getInt("tier_gets"),
            static_cast<std::int64_t>(Clients * Ops));
}

//===----------------------------------------------------------------------===//
// Soundness: a poisoned remote entry cannot change a verdict
//===----------------------------------------------------------------------===//

namespace {

/// Builds a well-formed but wrong warm-start payload for \p P: every
/// unknown gets a trivially-typed body (a parameter of the return type, or
/// a constant). \returns "" when no such body exists for some unknown.
std::string wrongSolutionPayload(const Problem &P) {
  UnknownBindings Sol;
  for (const UnknownSig &Sig : P.Unknowns) {
    std::vector<VarPtr> Params;
    for (size_t I = 0; I < Sig.ArgTypes.size(); ++I) {
      std::string Name = "w";
      Name += std::to_string(I);
      Params.push_back(namedVar(Name, Sig.ArgTypes[I]));
    }
    TermPtr Body;
    for (const VarPtr &V : Params)
      if (V->Ty->str() == Sig.RetTy->str()) {
        Body = mkVar(V);
        break;
      }
    if (!Body && Sig.RetTy->isInt())
      Body = mkIntLit(41);
    if (!Body && Sig.RetTy->isBool())
      Body = mkBoolLit(false);
    if (!Body)
      return "";
    Sol[Sig.Name] = UnknownDef{std::move(Params), std::move(Body)};
  }
  return encodeSuiteSolution(P, Sol);
}

} // namespace

TEST_F(CacheNetTest, PoisonedRemoteEntryCannotFlipVerdict) {
  std::string Addr = spawnTier("d");
  ASSERT_FALSE(Addr.empty());

  // An unrealizable benchmark: any warm-start entry claiming Realizable is
  // a lie, and re-verification must catch it.
  const BenchmarkDef *Def = findBenchmark("unreal/min_no_invariant");
  ASSERT_NE(Def, nullptr);
  ASSERT_FALSE(Def->ExpectRealizable);
  Problem P = loadBenchmark(*Def);

  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 15000;
  Opts.Config.Filter = Def->Name;
  Opts.Config.Verbose = false;
  Opts.Config.Cache.Mode = CacheMode::Remote;
  Opts.Config.Cache.Dir = path("node");
  Opts.Config.Cache.Addr = Addr;
  Opts.Algorithms = {AlgorithmKind::SE2GIS};

  // Poison the tier under the exact warm-start key the runner computes,
  // with (a) a decodable-but-wrong solution and (b) garbage bytes for a
  // second algorithm's key.
  Hash128 Key =
      suiteWarmStartKey(*Def, AlgorithmKind::SE2GIS, Opts.Config);
  std::string Poison = wrongSolutionPayload(P);
  ASSERT_FALSE(Poison.empty());
  // The wrong payload must actually decode — otherwise this test would
  // only cover the decoder-reject path.
  ASSERT_TRUE(decodeSuiteSolution(P, Poison).has_value());
  {
    RemoteStoreOptions ROpts;
    ROpts.Addr = Addr;
    std::string Error;
    auto Store = RemoteStore::create(ROpts, Error);
    ASSERT_NE(Store, nullptr) << Error;
    ASSERT_TRUE(Store->putSync("suite", Key, Poison));
    Hash128 GarbageKey =
        suiteWarmStartKey(*Def, AlgorithmKind::SEGISUC, Opts.Config);
    ASSERT_TRUE(Store->putSync("suite", GarbageKey, "v1\nnot a solution"));
  }

  // Run the sweep: the poisoned entry is fetched from the tier
  // (cache_remote_hits > 0), fails re-verification, and the benchmark is
  // solved normally — the verdict is unchanged.
  PerfSnapshot Before = snapshotPerf();
  auto Recs = runSuite(Opts);
  PerfSnapshot Delta = snapshotPerf().since(Before);

  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].Result.V, Verdict::Unrealizable) << Recs[0].Result.Detail;
  EXPECT_NE(Recs[0].Result.Ev.Source, VerdictSource::Cache);
  EXPECT_GE(Delta.get(PerfCounter::CacheRemoteHits), 1u);
  EXPECT_EQ(Delta.get(PerfCounter::CacheSuiteHits), 0u);

  // The garbage entry exercises the decoder-reject path the same way.
  shutdownCache();
  Opts.Algorithms = {AlgorithmKind::SEGISUC};
  Recs = runSuite(Opts);
  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].Result.V, Verdict::Unrealizable) << Recs[0].Result.Detail;
  EXPECT_NE(Recs[0].Result.Ev.Source, VerdictSource::Cache);
}
