//===- Trace.cpp ----------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

using namespace se2gis;
using se2gis::detail::TraceArg;

namespace {

std::atomic<bool> GEnabled{false};
std::atomic<std::size_t> GCapacity{16384};
std::atomic<std::uint64_t> GDropped{0};

struct TraceEvent {
  const char *Name;
  const char *Category;
  std::uint64_t StartNs;
  std::uint64_t DurNs;
  unsigned Tid;
  std::vector<TraceArg> Args;
};

/// One per recording thread. Owned jointly by the thread (thread_local
/// shared_ptr) and the registry, so the exporter can still read buffers of
/// threads that have exited.
struct TraceBuffer {
  std::mutex M;
  std::vector<TraceEvent> Events;
  unsigned Tid = 0;
};

struct Registry {
  std::mutex M;
  std::vector<std::shared_ptr<TraceBuffer>> Buffers;
  std::string Path;
  bool AtExitRegistered = false;
};

Registry &registry() {
  static Registry R;
  return R;
}

std::shared_ptr<TraceBuffer> &threadBuffer() {
  thread_local std::shared_ptr<TraceBuffer> B = [] {
    auto Buf = std::make_shared<TraceBuffer>();
    Buf->Tid = currentThreadId();
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    R.Buffers.push_back(Buf);
    return Buf;
  }();
  return B;
}

std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point E =
      std::chrono::steady_clock::now();
  return E;
}

void atExitFlush() {
  if (traceEnabled())
    traceFlush();
}

} // namespace

bool se2gis::traceEnabled() {
  return GEnabled.load(std::memory_order_relaxed);
}

void se2gis::traceConfigure(const std::string &Path,
                            std::size_t BufferCapacity) {
  traceEpoch(); // pin the epoch no later than the first configure
  GCapacity.store(BufferCapacity ? BufferCapacity : 1,
                  std::memory_order_relaxed);
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    R.Path = Path;
    if (!Path.empty() && !R.AtExitRegistered) {
      R.AtExitRegistered = true;
      std::atexit(atExitFlush);
    }
  }
  GEnabled.store(true, std::memory_order_relaxed);
}

void se2gis::traceDisable() {
  GEnabled.store(false, std::memory_order_relaxed);
}

std::string se2gis::tracePath() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Path;
}

std::uint64_t se2gis::traceDroppedEvents() {
  return GDropped.load(std::memory_order_relaxed);
}

std::uint64_t se2gis::traceRecordedEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  std::uint64_t N = 0;
  for (const auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    N += B->Events.size();
  }
  return N;
}

void se2gis::traceReset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (const auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    B->Events.clear();
  }
  GDropped.store(0, std::memory_order_relaxed);
}

std::uint64_t se2gis::detail::traceNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - traceEpoch())
          .count());
}

void se2gis::detail::traceRecordSpan(const char *Name, const char *Category,
                                     std::uint64_t StartNs,
                                     std::uint64_t DurNs,
                                     std::vector<TraceArg> Args) {
  std::shared_ptr<TraceBuffer> &B = threadBuffer();
  std::lock_guard<std::mutex> Lock(B->M);
  if (B->Events.size() >= GCapacity.load(std::memory_order_relaxed)) {
    GDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  B->Events.push_back(
      TraceEvent{Name, Category, StartNs, DurNs, B->Tid, std::move(Args)});
}

void se2gis::traceWriteJson(std::ostream &OS) {
  // Copy out under the locks, then format without holding any.
  std::vector<TraceEvent> Events;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    for (const auto &B : R.Buffers) {
      std::lock_guard<std::mutex> BL(B->M);
      Events.insert(Events.end(), B->Events.begin(), B->Events.end());
    }
  }
  std::sort(Events.begin(), Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.Tid != B.Tid ? A.Tid < B.Tid : A.StartNs < B.StartNs;
            });

  OS << "{\"traceEvents\":[";
  bool First = true;
  // Name the process and each thread track so Perfetto shows stable labels.
  OS << "\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"se2gis\"}}";
  First = false;
  unsigned LastTid = 0;
  for (const TraceEvent &E : Events) {
    if (E.Tid != LastTid) {
      LastTid = E.Tid;
      OS << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << E.Tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"se2gis-t"
         << E.Tid << "\"}}";
    }
    OS << (First ? "\n" : ",\n");
    First = false;
    // Chrome trace ts/dur are microseconds (fractional allowed).
    char TsBuf[64];
    std::snprintf(TsBuf, sizeof(TsBuf), "%.3f", E.StartNs / 1e3);
    char DurBuf[64];
    std::snprintf(DurBuf, sizeof(DurBuf), "%.3f", E.DurNs / 1e3);
    OS << "{\"name\":\"" << E.Name << "\",\"cat\":\"" << E.Category
       << "\",\"ph\":\"X\",\"ts\":" << TsBuf << ",\"dur\":" << DurBuf
       << ",\"pid\":1,\"tid\":" << E.Tid;
    if (!E.Args.empty()) {
      OS << ",\"args\":{";
      for (std::size_t I = 0; I < E.Args.size(); ++I) {
        const TraceArg &A = E.Args[I];
        OS << (I ? "," : "") << "\"" << A.Key << "\":";
        if (A.Quoted) {
          OS << "\"" << jsonEscape(A.Value) << "\"";
        } else {
          OS << A.Value;
        }
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << traceDroppedEvents() << "}}\n";
}

bool se2gis::traceFlush() {
  std::string Path = tracePath();
  if (Path.empty())
    return false;
  std::ofstream OS(Path);
  if (!OS) {
    logf(LogLevel::Error, "trace", "cannot write trace to %s", Path.c_str());
    return false;
  }
  traceWriteJson(OS);
  return OS.good();
}
