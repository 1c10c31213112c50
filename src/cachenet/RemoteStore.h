//===- RemoteStore.h - Shared cache tier client -----------------*- C++-*-===//
///
/// \file
/// The client of the shared cache tier (DESIGN.md "Shared cache tier"):
/// talks to an `se2gis_served --cache disk` process over the service
/// frame protocol (`cache.get` / `cache.put`, see service/Server.h) and
/// is layered under cache/CacheConfig as the last probe of the
/// read-through path (local shard → local DiskStore → remote) and the
/// write-behind fan-out of every persistent insert.
///
/// The cardinal rule is that a slow or dead daemon must never stall or
/// fail a solve:
///
///  - every connect and every request read/write is bounded by a timeout
///    (connectTo's timed mode + SO_RCVTIMEO/SO_SNDTIMEO);
///  - transport failures retry once on a fresh connection with backoff,
///    then count a `cache_remote_errors`;
///  - a circuit breaker (closed → open on consecutive failures → half-open
///    after a cooldown → closed on a successful probe) turns a dead daemon
///    into near-zero-cost fast fails (`cache_remote_degraded`) instead of
///    per-probe timeouts — the node degrades to local-only;
///  - puts are write-behind through a bounded queue drained by one
///    background thread; overflow drops the put (counted), never blocks.
///
/// Soundness needs nothing from this class: remote payloads re-enter the
/// exact consumer re-validation of PR 3 (SMT entries re-typed per slot,
/// suite solutions re-verified), so the tier can serve stale, corrupt, or
/// hostile bytes and at worst waste a re-validation.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CACHENET_REMOTESTORE_H
#define SE2GIS_CACHENET_REMOTESTORE_H

#include "cache/Hash128.h"
#include "service/Protocol.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace se2gis {

/// Tuning knobs of one RemoteStore. The defaults target a daemon on the
/// same host or rack; tests shrink the breaker numbers to exercise the
/// transitions quickly.
struct RemoteStoreOptions {
  std::string Addr;           ///< daemon address (unix:/path or tcp:host:port)
  int ConnectTimeoutMs = 250; ///< bound on one connect(2)
  int RequestTimeoutMs = 500; ///< bound on each read/write of one request
  unsigned MaxAttempts = 2;   ///< tries per request (first + bounded retries)
  unsigned BackoffBaseMs = 20; ///< retry N sleeps N * BackoffBaseMs
  unsigned PoolSize = 4;       ///< idle connections kept for reuse
  unsigned BreakerThreshold = 3; ///< consecutive failures that open the breaker
  int BreakerCooldownMs = 2000;  ///< open → half-open probe interval
  std::size_t PutQueueBound = 1024; ///< write-behind entries before dropping
};

class RemoteStore {
public:
  /// Circuit-breaker states (exposed for stats and the transition tests).
  enum class Breaker : unsigned char { Closed, Open, HalfOpen };

  /// Validates the address and starts the write-behind thread. \returns
  /// nullptr with \p Error only on a malformed address — an unreachable
  /// daemon is a *degraded* store, not a failed construction.
  static std::unique_ptr<RemoteStore> create(const RemoteStoreOptions &Opts,
                                             std::string &Error);

  /// Stops the write-behind thread (best-effort final drain bounded by one
  /// request timeout) and closes pooled connections.
  ~RemoteStore();

  /// Read-through probe: one `cache.get` round trip. Counts
  /// cache_remote_{hits,misses,errors,degraded} and records the
  /// cache_remote_probe latency. \returns the payload on a daemon hit.
  std::optional<std::string> get(const char *Segment, const Hash128 &K);

  /// Write-behind insert: enqueues a `cache.put` for the background
  /// drainer; drops (and counts an error) when the queue is full.
  void putAsync(const char *Segment, const Hash128 &K, std::string Payload);

  /// Synchronous `cache.put` (the write-behind drainer and tests).
  /// \returns true when the daemon acknowledged the put.
  bool putSync(const std::string &Segment, const Hash128 &K,
               const std::string &Payload);

  /// Waits until the write-behind queue is drained (bounded). \returns
  /// false on timeout. Called by flushCache so a clean drain of a node
  /// does not strand warm entries in the queue.
  bool flush(int TimeoutMs = 2000);

  Breaker breakerState() const;

  const RemoteStoreOptions &options() const { return Opts; }
  const ServiceAddr &addr() const { return Remote; }

  RemoteStore(const RemoteStore &) = delete;
  RemoteStore &operator=(const RemoteStore &) = delete;

private:
  explicit RemoteStore(RemoteStoreOptions O, ServiceAddr A);

  /// One breaker-gated request/response round trip (with retry). \returns
  /// the parsed response object; nullopt counts errors/degraded itself.
  std::optional<JsonValue> call(const JsonValue &Request);

  bool admit(bool &IsProbe);
  void settle(bool Ok, bool WasProbe);

  int acquireFd(bool AllowPooled);
  void releaseFd(int Fd);

  void writerLoop();

  RemoteStoreOptions Opts;
  ServiceAddr Remote;

  std::mutex PoolM;
  std::vector<int> IdleFds;

  mutable std::mutex BreakerM;
  Breaker State = Breaker::Closed;
  unsigned Failures = 0;
  bool ProbeInFlight = false;
  std::chrono::steady_clock::time_point OpenedAt;

  struct PutOp {
    std::string Segment;
    Hash128 Key;
    std::string Payload;
  };
  std::mutex QueueM;
  std::condition_variable QueueCv;     ///< wakes the writer
  std::condition_variable DrainedCv;   ///< wakes flush()
  std::deque<PutOp> Queue;
  bool WriterBusy = false;
  bool StopWriter = false;
  std::thread Writer;
};

} // namespace se2gis

#endif // SE2GIS_CACHENET_REMOTESTORE_H
