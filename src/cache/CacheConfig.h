//===- CacheConfig.h - Memoization subsystem configuration ------*- C++-*-===//
///
/// \file
/// Process-wide configuration of the content-addressed memoization
/// subsystem (see DESIGN.md "Memoization model"). Three modes:
///
///  - \c Off  — every consult is a miss, every insert a no-op (default).
///  - \c Mem  — sharded in-memory caches only; state dies with the process.
///  - \c Disk — in-memory caches backed by a persistent store in the cache
///    directory; verdict-relevant reuse is re-validated by the consumers
///    (see SmtQueryCache's type checks and the suite runner's solution
///    re-verification), so a stale or corrupted store can never change a
///    verdict — only waste a re-validation.
///
/// \c configureCache is idempotent for identical settings and thread-safe;
/// the solver entry points call it with the run's \c SolverConfig, so the
/// first run in a process pays the (lazy) store load and later runs — e.g.
/// every task of a suite sweep — share the warm state.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CACHE_CACHECONFIG_H
#define SE2GIS_CACHE_CACHECONFIG_H

#include "cache/Hash128.h"

#include <cstdint>
#include <optional>
#include <string>

namespace se2gis {

/// How much memoization is in effect.
enum class CacheMode : unsigned char { Off, Mem, Disk };

/// \returns "off" / "mem" / "disk".
const char *cacheModeName(CacheMode M);

/// Parses "off" / "mem" / "disk" (case-insensitively).
std::optional<CacheMode> parseCacheMode(const std::string &Name);

/// The cache knobs of a solver run (part of SolverConfig).
struct CacheSettings {
  CacheMode Mode = CacheMode::Off;
  /// Store directory for Disk mode (default: ./.se2gis-cache, which is
  /// .gitignore'd).
  std::string Dir = ".se2gis-cache";
};

/// Checks that \p Dir is usable as a cache directory: it must be absent
/// (creatable) or an existing writable directory. \returns an empty string
/// when usable, otherwise a diagnostic suitable for a UserError.
std::string validateCacheDir(const std::string &Dir);

/// Applies \p S process-wide. Throws UserError (with the \c
/// validateCacheDir diagnostic) when Disk mode is requested on an unusable
/// directory. Re-configuring with identical settings is a cheap no-op;
/// changing settings flushes and resets the caches.
void configureCache(const CacheSettings &S);

/// Resets to Off and drops all in-memory state (persistent segments stay on
/// disk). Primarily for tests.
void shutdownCache();

/// Durability barrier for Disk mode: fsyncs the persistent store's segment
/// files and directory entry. No-op outside Disk mode. The service drain
/// calls this after the last job, so a reported-flushed store survives an
/// immediate crash.
void flushCache();

CacheMode cacheMode();
inline bool cacheEnabled() { return cacheMode() != CacheMode::Off; }
inline bool cachePersistent() { return cacheMode() == CacheMode::Disk; }

/// Looks \p K up in the loaded persistent segment \p Segment ("smt",
/// "suite", ...). Returns nullopt unless Disk mode is active and the
/// segment holds the key.
std::optional<std::string> persistentLookup(const char *Segment,
                                            const Hash128 &K);

/// Appends (\p K, \p Payload) to persistent segment \p Segment; a no-op
/// outside Disk mode. Keys are content addresses, so a key already held is
/// not appended again.
void persistentInsert(const char *Segment, const Hash128 &K,
                      const std::string &Payload);

/// Total entries held across the loaded persistent segments (0 outside
/// Disk mode).
std::uint64_t persistentEntryCount();

} // namespace se2gis

#endif // SE2GIS_CACHE_CACHECONFIG_H
