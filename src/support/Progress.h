//===- Progress.h - Live per-job progress publication -----------*- C++-*-===//
///
/// \file
/// Lock-free publication of "where is this job right now": solver threads
/// write coarse per-round snapshots (algorithm, round, candidate size,
/// lemma count, witness-vs-CHC channel state) into a seqlock-guarded
/// double word buffer; the service's `status`/`stats` handlers read it
/// from other threads without ever blocking the solver.
///
/// Writer cost: one CAS + a struct mutation + one release store, and only
/// at round granularity (never inside eval/SMT hot loops). Reader cost:
/// retry-copy until a consistent sequence pair is observed. Writers from
/// different portfolio race members share one board and are serialized by
/// the seqlock's odd-sequence spin, each touching only its own fields.
///
/// The board a thread publishes to is carried in a thread-local pointer
/// (\c setThreadProgressBoard) installed by the service worker for the
/// duration of a job and propagated manually into portfolio race threads
/// (they run on a dedicated ThreadPool and inherit nothing). With no
/// board installed, \c progressPublish is one thread-local read.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_PROGRESS_H
#define SE2GIS_SUPPORT_PROGRESS_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>

namespace se2gis {

/// Fixed-size POD snapshot of a running job. char fields are NUL-padded
/// copies so the reader never chases pointers into a racing writer.
struct ProgressSnapshot {
  char Algorithm[16] = {}; ///< "se2gis", "segis", "segis-uc", "portfolio"
  char Activity[16] = {};  ///< "refine","coarsen","enum","witness","verify"
  char WitnessState[16] = {}; ///< witness channel: "", "probing", "found"
  char ChcState[16] = {};     ///< CHC channel: "", "encoding", "solving", ...
  std::uint64_t Round = 0;       ///< outer CEGIS/refinement round
  std::uint64_t Refinements = 0; ///< SE²GIS refinement count so far
  std::uint64_t Coarsenings = 0; ///< SE²GIS coarsening count so far
  std::uint64_t Lemmas = 0;      ///< lemmas learned from witnesses
  std::uint64_t CandidateSize = 0; ///< size of the last candidate (chars)
  std::uint64_t Terms = 0;         ///< enumerated terms (SEGIS ladder)
  std::uint64_t ChcRung = 0;       ///< CHC term-ladder rung in flight
  std::uint64_t ChcClauses = 0;    ///< Horn clauses in the current encoding
  std::uint64_t UpdatedNs = 0;     ///< trace-epoch stamp of the last write
};

/// Copies \p Src into the fixed char field \p Dst, truncating + NUL-ing.
template <std::size_t N> inline void progressSetStr(char (&Dst)[N], const char *Src) {
  // A bounded scan rather than strnlen: Src is often a literal shorter than
  // N - 1, and a strnlen bound past its end trips -Wstringop-overread.
  std::size_t L = 0;
  if (Src)
    while (L < N - 1 && Src[L])
      ++L;
  if (L)
    std::memcpy(Dst, Src, L);
  std::memset(Dst + L, 0, N - L);
}

/// Seqlock-guarded snapshot: writers serialize on the odd sequence value,
/// readers retry until they observe the same even sequence on both sides
/// of the copy.
class ProgressBoard {
public:
  /// Runs \p Fn(ProgressSnapshot&) inside the write section. Multiple
  /// writers (portfolio race members) are serialized here; keep \p Fn to
  /// plain field assignments.
  template <typename FnT> void update(FnT &&Fn) {
    std::uint32_t S;
    for (;;) {
      S = Seq.load(std::memory_order_relaxed);
      if ((S & 1u) == 0 &&
          Seq.compare_exchange_weak(S, S + 1, std::memory_order_acquire,
                                    std::memory_order_relaxed))
        break;
    }
    Fn(Data);
    Seq.store(S + 2, std::memory_order_release);
  }

  /// \returns a consistent copy of the current snapshot.
  ProgressSnapshot read() const {
    for (;;) {
      std::uint32_t S1 = Seq.load(std::memory_order_acquire);
      if (S1 & 1u)
        continue;
      ProgressSnapshot Copy = Data;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (Seq.load(std::memory_order_relaxed) == S1)
        return Copy;
    }
  }

private:
  std::atomic<std::uint32_t> Seq{0};
  ProgressSnapshot Data;
};

/// Installs \p Board as the calling thread's publication target (nullptr
/// clears). The service worker sets it around a job; runRace re-installs
/// it inside each race member thread.
void setThreadProgressBoard(ProgressBoard *Board);

/// \returns the calling thread's publication target (nullptr when none).
ProgressBoard *threadProgressBoard();

/// Publishes via the thread's board, or does nothing when no board is
/// installed (CLI/suite/test runs): one thread-local load on that path.
template <typename FnT> inline void progressPublish(FnT &&Fn) {
  if (ProgressBoard *B = threadProgressBoard())
    B->update(std::forward<FnT>(Fn));
}

/// RAII installer for \c setThreadProgressBoard (restores the previous
/// target, so nested scopes compose).
class ProgressBoardScope {
public:
  explicit ProgressBoardScope(ProgressBoard *Board)
      : Prev(threadProgressBoard()) {
    setThreadProgressBoard(Board);
  }
  ~ProgressBoardScope() { setThreadProgressBoard(Prev); }
  ProgressBoardScope(const ProgressBoardScope &) = delete;
  ProgressBoardScope &operator=(const ProgressBoardScope &) = delete;

private:
  ProgressBoard *Prev;
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_PROGRESS_H
