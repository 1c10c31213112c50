//===- CacheConfig.cpp ----------------------------------------------------===//

#include "cache/CacheConfig.h"

#include "cache/DiskStore.h"
#include "cache/SgeSolutionCache.h"
#include "cache/SmtQueryCache.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace se2gis;

namespace fs = std::filesystem;

const char *se2gis::cacheModeName(CacheMode M) {
  switch (M) {
  case CacheMode::Off:
    return "off";
  case CacheMode::Mem:
    return "mem";
  case CacheMode::Disk:
    return "disk";
  }
  return "off";
}

std::optional<CacheMode> se2gis::parseCacheMode(const std::string &Name) {
  std::string L;
  for (char C : Name)
    L += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (L == "off" || L == "none" || L == "0")
    return CacheMode::Off;
  if (L == "mem" || L == "memory")
    return CacheMode::Mem;
  if (L == "disk" || L == "persist")
    return CacheMode::Disk;
  return std::nullopt;
}

std::string se2gis::validateCacheDir(const std::string &Dir) {
  if (Dir.empty())
    return "cache dir is empty (set SE2GIS_CACHE_DIR or --cache-dir)";
  std::error_code EC;
  fs::path P(Dir);
  if (fs::exists(P, EC)) {
    if (!fs::is_directory(P, EC))
      return "cache dir '" + Dir +
             "' exists but is not a directory; delete it or point "
             "--cache-dir/SE2GIS_CACHE_DIR elsewhere";
    // Writability probe: actually create a file. Permission bits alone lie
    // for privileged users and exotic filesystems.
    fs::path Probe = P / ".se2gis-probe";
    std::ofstream Out(Probe);
    bool Ok = static_cast<bool>(Out) && static_cast<bool>(Out << 'x');
    Out.close();
    fs::remove(Probe, EC);
    if (!Ok)
      return "cache dir '" + Dir +
             "' exists but is not writable; fix its permissions or point "
             "--cache-dir/SE2GIS_CACHE_DIR elsewhere";
    return "";
  }
  fs::path Parent = P.parent_path();
  if (!Parent.empty() && !fs::exists(Parent, EC))
    return "cache dir '" + Dir + "' cannot be created (missing parent '" +
           Parent.string() + "')";
  return "";
}

namespace {

/// The persistent segments the runtime loads and serves.
constexpr const char *kPersistentSegments[] = {"smt", "suite"};

/// All mutable global state of the subsystem, behind one mutex. The hot
/// paths (lookup/insert on the sharded caches) do not take this lock; it
/// guards only (re)configuration and persistent-segment access.
struct CacheRuntime {
  std::mutex M;
  CacheSettings Settings;
  std::unique_ptr<DiskStore> Store;
  std::unordered_map<std::string, DiskStore::SegmentMap> Segments;
  /// Mode mirror for the lock-free cacheMode() fast path.
  std::atomic<CacheMode> Mode{CacheMode::Off};
};

CacheRuntime &runtime() {
  static CacheRuntime R;
  return R;
}

void resetLocked(CacheRuntime &R) {
  R.Store.reset();
  R.Segments.clear();
  smtQueryCache().clear();
  sgeSolutionCache().clear();
  pbeMemo().clear();
}

} // namespace

void se2gis::configureCache(const CacheSettings &S) {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  bool Persistent = S.Mode == CacheMode::Disk;
  if (S.Mode == R.Settings.Mode && (!Persistent || S.Dir == R.Settings.Dir))
    return; // idempotent re-configure (every SynthesisTask::run calls this)

  if (Persistent) {
    std::string Problem = validateCacheDir(S.Dir);
    if (!Problem.empty())
      userError(Problem);
  }

  resetLocked(R);
  R.Settings = S;
  R.Mode.store(S.Mode, std::memory_order_release);
  if (!Persistent)
    return;

  std::string Error;
  R.Store = DiskStore::open(S.Dir, Error);
  if (!R.Store) {
    R.Settings.Mode = CacheMode::Off;
    R.Mode.store(CacheMode::Off, std::memory_order_release);
    userError(Error);
  }
  for (const char *Segment : kPersistentSegments) {
    R.Segments[Segment] = R.Store->loadSegment(Segment);
    for (const auto &[K, Payload] : R.Segments[Segment]) {
      (void)K;
      perfAdd(PerfCounter::CacheBytesLoaded, Payload.size());
    }
  }
}

void se2gis::flushCache() {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  if (R.Store)
    R.Store->sync();
}

void se2gis::shutdownCache() {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  resetLocked(R);
  R.Settings = CacheSettings{};
  R.Settings.Mode = CacheMode::Off;
  R.Mode.store(CacheMode::Off, std::memory_order_release);
}

CacheMode se2gis::cacheMode() {
  return runtime().Mode.load(std::memory_order_acquire);
}

std::optional<std::string> se2gis::persistentLookup(const char *Segment,
                                                    const Hash128 &K) {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  auto SegIt = R.Segments.find(Segment);
  if (SegIt == R.Segments.end())
    return std::nullopt;
  auto It = SegIt->second.find(K);
  if (It == SegIt->second.end())
    return std::nullopt;
  return It->second;
}

void se2gis::persistentInsert(const char *Segment, const Hash128 &K,
                              const std::string &Payload) {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  if (!R.Store)
    return;
  if (!R.Segments[Segment].emplace(K, Payload).second)
    return; // already persisted (content-addressed: same payload)
  R.Store->append(Segment, K, Payload);
  perfAdd(PerfCounter::CacheBytesWritten, Payload.size());
}

std::uint64_t se2gis::persistentEntryCount() {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  std::uint64_t Entries = 0;
  for (const auto &[Name, Map] : R.Segments) {
    (void)Name;
    Entries += Map.size();
  }
  return Entries;
}
