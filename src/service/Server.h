//===- Server.h - The synthesis daemon core ---------------------*- C++-*-===//
///
/// \file
/// The long-running multi-client synthesis service. One process hosts:
///
///  - an accept loop (own thread) on a Unix-domain or TCP socket,
///  - one connection thread per client speaking the framed JSON protocol
///    (Protocol.h) — requests on a connection are handled in order, while
///    distinct connections are fully concurrent,
///  - a bounded worker pool popping jobs off the \c JobQueue and running
///    them as ordinary \c SynthesisTask s under per-job deadlines mapped
///    onto the CancellationToken/Deadline machinery,
///  - the process-wide shared state every worker benefits from: the
///    sharded memoization caches (src/cache/) stay warm across jobs and
///    clients, and the perf/trace registries (src/support/) feed the
///    live `stats` response (queue depth, in-flight, cache hit rates,
///    latency quantiles).
///
/// Graceful drain (protocol `drain` request or SIGINT/SIGTERM): stop
/// admitting (typed `draining` rejections), let
/// in-flight jobs finish under the drain deadline — cancel whatever
/// remains past it —, flush the persistent cache store (fsync'd, see
/// DiskStore::sync), stop the accept loop, join everything, exit 0.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_SERVER_H
#define SE2GIS_SERVICE_SERVER_H

#include "service/JobQueue.h"
#include "service/Protocol.h"
#include "support/Histogram.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace se2gis {

/// Daemon configuration (tools/se2gis_served.cpp builds one from flags +
/// SolverConfig::fromEnv).
struct ServiceConfig {
  /// Listen address ("unix:<path>" or "tcp:<host>:<port>"; tcp port 0
  /// binds an ephemeral port, reported by Server::addr after start).
  std::string Listen = "unix:./se2gis.sock";
  /// Worker threads. 0 = auto: max(1, hardware_concurrency / 2), leaving
  /// headroom for each job's inner parallelism (portfolio members run two
  /// algorithm threads per job — the oversubscription formula is in
  /// DESIGN.md "Service model").
  unsigned Workers = 0;
  /// Admission control: maximum queued (not yet running) jobs.
  std::size_t MaxQueue = 64;
  /// Per-job default budget when a submit carries no timeout_ms.
  std::int64_t DefaultTimeoutMs = 5000;
  /// Budget for in-flight work during a drain before it is cancelled.
  std::int64_t DrainTimeoutMs = 10000;
  /// Optional plain-HTTP metrics listener ("unix:<path>" or
  /// "tcp:<host>:<port>"; "" = off). Any GET returns the Prometheus text
  /// exposition, so a stock Prometheus can scrape the daemon directly —
  /// the same text the frame-protocol `metrics` method returns.
  std::string MetricsAddr;
  /// Directory for flight-recorder dumps ("" = no job dumps): a job that
  /// ends in Timeout or is cancelled while running writes
  /// `<dir>/flight-<jobid>.json`; fatal signals/fatalError write
  /// `<dir>/flight-fatal.<pid>.json`.
  std::string FlightDir;
  /// Base solver configuration every job runs under (cache mode/dir, log
  /// level, trace path); per-job fields (timeout, token) are overridden.
  SolverConfig Base;
};

class Server {
public:
  explicit Server(ServiceConfig Config);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listen socket, starts workers and the accept loop.
  /// \returns false with a diagnostic on bind/parse failure.
  bool start(std::string &Error);

  /// Blocks until the server has fully drained and every thread joined.
  void run();

  /// Initiates a drain from outside the protocol (signal handlers write a
  /// byte to an internal pipe; this is the async-signal-safe entry).
  void requestDrainAsync();

  /// The bound address (with the real port for tcp:*:0). Valid after
  /// start().
  const ServiceAddr &addr() const { return BoundAddr; }

  /// The bound metrics address (valid after start() when configured).
  const ServiceAddr &metricsAddr() const { return MetricsBoundAddr; }

  unsigned workers() const { return WorkerCount; }

  /// Renders the full Prometheus exposition (process + service families).
  /// Public so tests can assert on the text without a socket.
  std::string renderMetrics();

private:
  void acceptLoop();
  void connectionLoop(int Fd);
  void metricsLoop();
  void workerLoop();
  void runJob(const std::shared_ptr<Job> &J);

  /// Performs the drain sequence once; concurrent callers block until the
  /// first finishes. \returns the final queue stats for the response.
  QueueStats drain();

  JsonValue handleRequest(const JsonValue &Req);
  JsonValue handleSubmit(const JsonValue &Req);
  JsonValue handleStatus(const JsonValue &Req, bool WithResult);
  JsonValue handleCancel(const JsonValue &Req);
  JsonValue handleStats();
  JsonValue handleDrain(const JsonValue &Req);
  JsonValue jobStateJson(const Job &J, bool WithResult) const;

  ServiceConfig Config;
  ServiceAddr BoundAddr;
  ServiceAddr MetricsBoundAddr;
  unsigned WorkerCount = 0;
  JobQueue Queue;
  /// Wall time queued→terminal, for the stats response's quantiles.
  LatencyHistogram JobLatency;
  /// Request ids, minted per framed request at admission and threaded into
  /// logs, spans, flight events, job state, and every response payload.
  std::atomic<std::uint64_t> NextRid{1};

  int ListenFd = -1;
  int MetricsFd = -1;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> Stop{false};
  std::atomic<bool> DrainStarted{false};

  std::thread AcceptThread;
  std::thread MetricsThread;
  std::vector<std::thread> WorkerThreads;

  std::mutex ConnMutex;
  std::vector<std::thread> ConnThreads;
  std::vector<int> ConnFds;

  std::mutex DrainMutex;
  std::condition_variable DrainCv;
  bool DrainDone = false;
  QueueStats DrainStats;
};

} // namespace se2gis

#endif // SE2GIS_SERVICE_SERVER_H
