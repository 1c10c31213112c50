//===- Enumerator.cpp -----------------------------------------------------===//

#include "synth/Enumerator.h"

#include "ast/Simplify.h"
#include "cache/CacheConfig.h"
#include "cache/Canonical.h"
#include "cache/SgeSolutionCache.h"
#include "cache/TermIO.h"
#include "support/Counters.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace se2gis;

ValuePtr se2gis::evalScalarTerm(const TermPtr &T, const Env &E) {
  switch (T->getKind()) {
  case TermKind::Var: {
    auto It = E.find(T->getVar()->Id);
    if (It == E.end())
      userError("unbound variable in scalar evaluation: " + T->getVar()->Name);
    return It->second;
  }
  case TermKind::IntLit:
    return Value::mkInt(T->getIntValue());
  case TermKind::BoolLit:
    return Value::mkBool(T->getBoolValue());
  case TermKind::Tuple: {
    std::vector<ValuePtr> Elems;
    for (const TermPtr &A : T->getArgs())
      Elems.push_back(evalScalarTerm(A, E));
    return Value::mkTuple(std::move(Elems));
  }
  case TermKind::Proj: {
    ValuePtr V = evalScalarTerm(T->getArg(0), E);
    return V->getElems()[T->getIndex()];
  }
  case TermKind::Op: {
    OpKind Op = T->getOp();
    if (Op == OpKind::Ite) {
      ValuePtr C = evalScalarTerm(T->getArg(0), E);
      return evalScalarTerm(C->getBool() ? T->getArg(1) : T->getArg(2), E);
    }
    if (Op == OpKind::And || Op == OpKind::Or) {
      bool IsAnd = Op == OpKind::And;
      for (const TermPtr &A : T->getArgs())
        if (evalScalarTerm(A, E)->getBool() != IsAnd)
          return Value::mkBool(!IsAnd);
      return Value::mkBool(IsAnd);
    }
    auto IntArg = [&](size_t K) {
      return evalScalarTerm(T->getArg(K), E)->getInt();
    };
    switch (Op) {
    case OpKind::Add:
      return Value::mkInt(IntArg(0) + IntArg(1));
    case OpKind::Sub:
      return Value::mkInt(IntArg(0) - IntArg(1));
    case OpKind::Neg:
      return Value::mkInt(-IntArg(0));
    case OpKind::Mul:
      return Value::mkInt(IntArg(0) * IntArg(1));
    case OpKind::Div:
      return Value::mkInt(euclidDiv(IntArg(0), IntArg(1)));
    case OpKind::Mod:
      return Value::mkInt(euclidMod(IntArg(0), IntArg(1)));
    case OpKind::Min:
      return Value::mkInt(std::min(IntArg(0), IntArg(1)));
    case OpKind::Max:
      return Value::mkInt(std::max(IntArg(0), IntArg(1)));
    case OpKind::Abs:
      return Value::mkInt(std::abs(IntArg(0)));
    case OpKind::Lt:
      return Value::mkBool(IntArg(0) < IntArg(1));
    case OpKind::Le:
      return Value::mkBool(IntArg(0) <= IntArg(1));
    case OpKind::Gt:
      return Value::mkBool(IntArg(0) > IntArg(1));
    case OpKind::Ge:
      return Value::mkBool(IntArg(0) >= IntArg(1));
    case OpKind::Eq:
      return Value::mkBool(valueEquals(evalScalarTerm(T->getArg(0), E),
                                       evalScalarTerm(T->getArg(1), E)));
    case OpKind::Ne:
      return Value::mkBool(!valueEquals(evalScalarTerm(T->getArg(0), E),
                                        evalScalarTerm(T->getArg(1), E)));
    case OpKind::Not:
      return Value::mkBool(!evalScalarTerm(T->getArg(0), E)->getBool());
    case OpKind::Implies:
      return Value::mkBool(!evalScalarTerm(T->getArg(0), E)->getBool() ||
                           evalScalarTerm(T->getArg(1), E)->getBool());
    default:
      fatalError("unhandled operator in scalar evaluation");
    }
  }
  default:
    fatalError("non-scalar node in grammar term evaluation: " + T->str());
  }
}

// --- Enumerator ---------------------------------------------------------===//

Enumerator::Enumerator(const GrammarConfig &Config, std::vector<TermPtr> Leaves)
    : Config(Config), Leaves(std::move(Leaves)) {}

const char *se2gis::enumStopName(EnumStop S) {
  switch (S) {
  case EnumStop::Found:
    return "found";
  case EnumStop::Exhausted:
    return "exhausted";
  case EnumStop::Deadline:
    return "deadline";
  case EnumStop::PoolFull:
    return "pool_full";
  }
  return "unknown";
}

namespace {

/// The grammar production that made a pool entry. Child indices point into
/// the int pool, except for Not/And/Or (bool pool) and Ite's condition
/// (bool pool). Const and Leaf index \c Search::Consts and the leaf list;
/// BoolLit stores its value.
enum class Prod : std::uint8_t {
  Const,
  BoolLit,
  Leaf,
  Neg,
  Abs,
  Not,
  Add,
  Sub,
  Min,
  Max,
  Mul,
  Div,
  Mod,
  Gt,
  Le,
  Eq,
  And,
  Or,
  Ite
};

/// How a pool entry was built, and its link in the dedup table.
struct Node {
  std::uint32_t Kid[3];
  std::uint32_t Next; ///< next entry of the same bucket, plus one (0 ends)
  std::uint32_t Hash; ///< low bits of the vector's hash
  Prod P;
};

/// Hash of a packed output vector (dedup buckets and a cheap pre-check
/// before the exact comparison).
std::uint64_t hashWords(const std::uint64_t *V, std::size_t N) {
  std::uint64_t H = 0x9e3779b97f4a7c15ULL ^ N;
  for (std::size_t I = 0; I < N; ++I) {
    H ^= V[I];
    H *= 0xbf58476d1ce4e5b9ULL;
    H ^= H >> 31;
  }
  H *= 0x94d049bb133111ebULL;
  return H ^ (H >> 29);
}

/// Heap is taken in chunks of about this size, so a growing pool never
/// moves or copies what it already holds.
constexpr std::size_t ChunkBytes = std::size_t(64) << 10;

/// The pool of one type: fixed-width entries of \c Words 64-bit words (an
/// int64 per example, or one bit per example) in chunks, with an exact
/// dedup table over the vectors. Entries of one size are contiguous.
class VecPool {
public:
  explicit VecPool(std::size_t Words) : Words(Words) {
    std::size_t EntryBytes = sizeof(Node) + Words * 8;
    while ((EntryBytes << (Shift + 1)) <= ChunkBytes)
      ++Shift;
    Mask = (std::uint32_t(1) << Shift) - 1;
  }

  std::size_t words() const { return Words; }
  std::uint32_t size() const { return Count; }
  const std::uint64_t *vec(std::uint32_t I) const {
    return Vecs[I >> Shift].get() + std::size_t(I & Mask) * Words;
  }
  const Node &node(std::uint32_t I) const {
    return Nodes[I >> Shift][I & Mask];
  }

  /// \returns true if an entry with vector \p V (hash \p H) is stored.
  bool contains(const std::uint64_t *V, std::uint64_t H) const {
    if (Buckets.empty())
      return false;
    auto H32 = static_cast<std::uint32_t>(H);
    for (std::uint32_t E = Buckets[H32 & (Buckets.size() - 1)]; E;) {
      const Node &N = node(E - 1);
      if (N.Hash == H32 && std::memcmp(vec(E - 1), V, Words * 8) == 0)
        return true;
      E = N.Next;
    }
    return false;
  }

  /// Stores a new entry. \returns false, storing nothing, when the heap
  /// this needs would take \p Held (shared by both pools) past
  /// \c EnumPoolBytes.
  bool push(Prod P, std::uint32_t K0, std::uint32_t K1, std::uint32_t K2,
            const std::uint64_t *V, std::uint64_t H, std::size_t &Held) {
    bool NewChunk = (Count & Mask) == 0;
    bool Grow = Count >= Buckets.size();
    std::size_t ChunkCost =
        NewChunk ? (std::size_t(Mask) + 1) * (sizeof(Node) + Words * 8) : 0;
    std::size_t NewBuckets = Buckets.empty() ? 64 : Buckets.size() * 2;
    // While growing, the old and the new table are both live.
    std::size_t GrowCost = Grow ? NewBuckets * sizeof(std::uint32_t) : 0;
    if (Held + ChunkCost + GrowCost > EnumPoolBytes)
      return false;
    if (NewChunk) {
      Nodes.push_back(std::make_unique_for_overwrite<Node[]>(Mask + 1));
      Vecs.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(
          (std::size_t(Mask) + 1) * Words));
      Held += ChunkCost;
    }
    std::uint32_t I = Count++;
    Node &N = Nodes[I >> Shift][I & Mask];
    N = Node{{K0, K1, K2}, 0, static_cast<std::uint32_t>(H), P};
    std::memcpy(Vecs[I >> Shift].get() + std::size_t(I & Mask) * Words, V,
                Words * 8);
    if (Grow) {
      Held += (NewBuckets - Buckets.size()) * sizeof(std::uint32_t);
      Buckets.assign(NewBuckets, 0);
      for (std::uint32_t J = 0; J < I; ++J)
        link(J);
    }
    link(I);
    return true;
  }

private:
  void link(std::uint32_t I) {
    Node &N = Nodes[I >> Shift][I & Mask];
    std::uint32_t &Head = Buckets[N.Hash & (Buckets.size() - 1)];
    N.Next = Head;
    Head = I + 1;
  }

  std::size_t Words;
  unsigned Shift = 0;
  std::uint32_t Mask = 0;
  std::uint32_t Count = 0;
  std::vector<std::unique_ptr<Node[]>> Nodes;
  std::vector<std::unique_ptr<std::uint64_t[]>> Vecs;
  std::vector<std::uint32_t> Buckets;
};

/// One bottom-up search over packed output vectors. Candidates are offered
/// in size-then-grammar order; that order decides which of several
/// matching terms is returned (tests/Enumerator2Test.cpp pins it).
class Search {
public:
  Search(const GrammarConfig &Config, const std::vector<TermPtr> &Leaves,
         const std::vector<PbeExample> &Examples, bool WantInt,
         const Deadline &Budget)
      : Config(Config), Leaves(Leaves), Examples(Examples), WantInt(WantInt),
        Budget(Budget), N(Examples.size()),
        BoolWords(std::max<std::size_t>(1, (N + 63) / 64)), Int(N),
        Bool(BoolWords), IntOut(N), BoolOut(BoolWords),
        Target(WantInt ? N : BoolWords, 0),
        Consts(Config.Constants.begin(), Config.Constants.end()) {
    LastMask = N % 64 ? (std::uint64_t(1) << (N % 64)) - 1 : ~std::uint64_t(0);
    for (std::size_t K = 0; K < N; ++K) {
      const ValuePtr &O = Examples[K].Output;
      if (WantInt ? !O->isInt() : !O->isBool()) {
        TargetReachable = false;
        break;
      }
      if (WantInt)
        Target[K] = static_cast<std::uint64_t>(O->getInt());
      else if (O->getBool())
        Target[K / 64] |= std::uint64_t(1) << (K % 64);
    }
    TargetHash = hashWords(Target.data(), Target.size());
  }

  std::optional<TermPtr> run(int MaxSize) {
    Stats.SizeReached = 1;
    IntStart.assign(std::max(MaxSize, 1) + 2, 0);
    BoolStart.assign(std::max(MaxSize, 1) + 2, 0);
    if (!leaves())
      for (int Size = 2; Size <= MaxSize; ++Size) {
        if (Budget.expired()) {
          Stats.Stop = EnumStop::Deadline;
          break;
        }
        Stats.SizeReached = Size;
        IntStart[Size] = Int.size();
        BoolStart[Size] = Bool.size();
        if (unary(Size) || binary(Size) || conditionals(Size))
          break;
      }
    if (Stats.Stop != EnumStop::Found)
      return std::nullopt;
    return build(Winner.P, Winner.Kid);
  }

  const EnumSearchStats &stats() const { return Stats; }

private:
  struct Range {
    std::uint32_t Begin, End;
  };
  Range ints(int Size) const { return {IntStart[Size], IntStart[Size + 1]}; }
  Range bools(int Size) const {
    return {BoolStart[Size], BoolStart[Size + 1]};
  }

  /// Counts one candidate. \returns true when the deadline stops the
  /// search (polled once per PollGate stride).
  bool tick() {
    if (Gate.tick(Budget)) {
      Stats.Stop = EnumStop::Deadline;
      return true;
    }
    ++Stats.Candidates;
    return false;
  }

  /// Offers the candidate whose vector is in \c IntOut / \c BoolOut.
  /// \returns true when the search stops (match, deadline or full pool).
  template <bool IsInt>
  bool offer(Prod P, std::uint32_t K0, std::uint32_t K1 = 0,
             std::uint32_t K2 = 0) {
    if (tick())
      return true;
    VecPool &Pool = IsInt ? Int : Bool;
    const std::uint64_t *V = IsInt ? IntOut.data() : BoolOut.data();
    std::uint64_t H = hashWords(V, Pool.words());
    if (Pool.contains(V, H)) {
      ++Stats.Pruned;
      return false;
    }
    if (IsInt == WantInt && TargetReachable && H == TargetHash &&
        std::memcmp(V, Target.data(), Pool.words() * 8) == 0) {
      Winner = Node{{K0, K1, K2}, 0, 0, P};
      Stats.Stop = EnumStop::Found;
      return true;
    }
    if (!Pool.push(P, K0, K1, K2, V, H, Held)) {
      Stats.Stop = EnumStop::PoolFull;
      return true;
    }
    return false;
  }

  /// Evaluates leaf \p L once per example into the output buffer.
  /// \returns false if it is unbound in some example.
  bool evalLeaf(const TermPtr &L, bool IsInt) {
    if (!IsInt)
      std::fill(BoolOut.begin(), BoolOut.end(), 0);
    try {
      for (std::size_t K = 0; K < N; ++K) {
        ValuePtr V = evalScalarTerm(L, Examples[K].Inputs);
        if (IsInt)
          IntOut[K] = static_cast<std::uint64_t>(V->getInt());
        else if (V->getBool())
          BoolOut[K / 64] |= std::uint64_t(1) << (K % 64);
      }
    } catch (const UserError &) {
      return false;
    }
    return true;
  }

  /// Size 1: constants, boolean literals, and leaves. \returns true when
  /// the search stops.
  bool leaves() {
    for (std::uint32_t CI = 0; CI < Consts.size(); ++CI) {
      std::fill(IntOut.begin(), IntOut.end(),
                static_cast<std::uint64_t>(Consts[CI]));
      if (offer<true>(Prod::Const, CI))
        return true;
    }
    for (std::uint32_t B : {0u, 1u}) {
      std::fill(BoolOut.begin(), BoolOut.end(), B ? ~std::uint64_t(0) : 0);
      BoolOut.back() &= LastMask;
      if (offer<false>(Prod::BoolLit, B))
        return true;
    }
    for (std::uint32_t LI = 0; LI < Leaves.size(); ++LI) {
      const TermPtr &L = Leaves[LI];
      bool IsInt = L->getType()->isInt();
      if (!IsInt && !L->getType()->isBool())
        continue;
      if (!evalLeaf(L, IsInt)) {
        // Counted as a candidate; never enters the pool.
        if (tick())
          return true;
        continue;
      }
      if (IsInt ? offer<true>(Prod::Leaf, LI) : offer<false>(Prod::Leaf, LI))
        return true;
    }
    return false;
  }

  /// Unary operators over the previous size.
  bool unary(int Size) {
    auto [AB, AE] = ints(Size - 1);
    for (std::uint32_t A = AB; A < AE; ++A) {
      const std::uint64_t *X = Int.vec(A);
      for (std::size_t K = 0; K < N; ++K)
        IntOut[K] = 0 - X[K];
      if (offer<true>(Prod::Neg, A))
        return true;
      if (Config.AllowAbs) {
        for (std::size_t K = 0; K < N; ++K)
          IntOut[K] = static_cast<std::int64_t>(X[K]) < 0 ? 0 - X[K] : X[K];
        if (offer<true>(Prod::Abs, A))
          return true;
      }
    }
    auto [BB, BE] = bools(Size - 1);
    for (std::uint32_t A = BB; A < BE; ++A) {
      const std::uint64_t *X = Bool.vec(A);
      for (std::size_t W = 0; W < BoolWords; ++W)
        BoolOut[W] = ~X[W];
      BoolOut.back() &= LastMask;
      if (offer<false>(Prod::Not, A))
        return true;
    }
    return false;
  }

  /// Packs \p Bit(K) for every example into \c BoolOut.
  template <typename F> void packBits(F Bit) {
    for (std::size_t W = 0, K = 0; W < BoolWords; ++W) {
      std::uint64_t Bits = 0;
      std::size_t End = std::min(N, K + 64);
      for (unsigned J = 0; K < End; ++K, ++J)
        Bits |= std::uint64_t(Bit(K)) << J;
      BoolOut[W] = Bits;
    }
  }

  /// Binary operators: left size + right size = Size - 1.
  bool binary(int Size) {
    for (int LS = 1; LS + 1 < Size; ++LS) {
      int RS = Size - 1 - LS;
      auto [AB, AE] = ints(LS);
      auto [RB, RE] = ints(RS);
      for (std::uint32_t A = AB; A < AE; ++A)
        for (std::uint32_t B = RB; B < RE; ++B)
          if (intPair(A, B))
            return true;
      auto [CB, CE] = bools(LS);
      auto [DB, DE] = bools(RS);
      for (std::uint32_t A = CB; A < CE; ++A)
        for (std::uint32_t B = DB; B < DE; ++B) {
          const std::uint64_t *X = Bool.vec(A), *Y = Bool.vec(B);
          for (std::size_t W = 0; W < BoolWords; ++W)
            BoolOut[W] = X[W] & Y[W];
          if (offer<false>(Prod::And, A, B))
            return true;
          for (std::size_t W = 0; W < BoolWords; ++W)
            BoolOut[W] = X[W] | Y[W];
          if (offer<false>(Prod::Or, A, B))
            return true;
        }
    }
    return false;
  }

  /// Every int x int production for one pair, in grammar order.
  bool intPair(std::uint32_t A, std::uint32_t B) {
    const std::uint64_t *X = Int.vec(A), *Y = Int.vec(B);
    auto SX = [X](std::size_t K) { return static_cast<std::int64_t>(X[K]); };
    auto SY = [Y](std::size_t K) { return static_cast<std::int64_t>(Y[K]); };
    for (std::size_t K = 0; K < N; ++K)
      IntOut[K] = X[K] + Y[K];
    if (offer<true>(Prod::Add, A, B))
      return true;
    for (std::size_t K = 0; K < N; ++K)
      IntOut[K] = X[K] - Y[K];
    if (offer<true>(Prod::Sub, A, B))
      return true;
    if (Config.AllowMinMax) {
      for (std::size_t K = 0; K < N; ++K)
        IntOut[K] = SX(K) < SY(K) ? X[K] : Y[K];
      if (offer<true>(Prod::Min, A, B))
        return true;
      for (std::size_t K = 0; K < N; ++K)
        IntOut[K] = SX(K) < SY(K) ? Y[K] : X[K];
      if (offer<true>(Prod::Max, A, B))
        return true;
    }
    // The Appendix-B.4 grammar only multiplies by constants, but references
    // like weighted sums need general products; allow them whenever
    // multiplication appears in the specification.
    if (Config.AllowMul) {
      for (std::size_t K = 0; K < N; ++K)
        IntOut[K] = X[K] * Y[K];
      if (offer<true>(Prod::Mul, A, B))
        return true;
    }
    // Div and Mod take only a literal divisor (leaves are variables and
    // projections, so only constants are literals).
    if ((Config.AllowDiv || Config.AllowMod) &&
        Int.node(B).P == Prod::Const) {
      long long Lit = Consts[Int.node(B).Kid[0]];
      if (Config.AllowDiv && Lit != 0) {
        for (std::size_t K = 0; K < N; ++K)
          IntOut[K] = static_cast<std::uint64_t>(euclidDiv(SX(K), Lit));
        if (offer<true>(Prod::Div, A, B))
          return true;
      }
      if (Config.AllowMod && Lit > 1) {
        for (std::size_t K = 0; K < N; ++K)
          IntOut[K] = static_cast<std::uint64_t>(euclidMod(SX(K), Lit));
        if (offer<true>(Prod::Mod, A, B))
          return true;
      }
    }
    // Comparisons (feed the boolean pool). Le is the complement of Gt.
    packBits([&](std::size_t K) { return SX(K) > SY(K); });
    if (offer<false>(Prod::Gt, A, B))
      return true;
    for (std::size_t W = 0; W < BoolWords; ++W)
      BoolOut[W] = ~BoolOut[W];
    BoolOut.back() &= LastMask;
    if (offer<false>(Prod::Le, A, B))
      return true;
    packBits([&](std::size_t K) { return X[K] == Y[K]; });
    return offer<false>(Prod::Eq, A, B);
  }

  /// Conditionals: cond + then + else = Size - 1.
  bool conditionals(int Size) {
    if (!Config.AllowIte)
      return false;
    for (int CS = 1; CS + 2 < Size; ++CS)
      for (int TS = 1; CS + TS + 1 < Size; ++TS) {
        int ES = Size - 1 - CS - TS;
        auto [CB, CE] = bools(CS);
        auto [TB, TE] = ints(TS);
        auto [EB, EE] = ints(ES);
        for (std::uint32_t C = CB; C < CE; ++C) {
          const std::uint64_t *Cond = Bool.vec(C);
          for (std::uint32_t A = TB; A < TE; ++A) {
            const std::uint64_t *X = Int.vec(A);
            for (std::uint32_t B = EB; B < EE; ++B) {
              const std::uint64_t *Y = Int.vec(B);
              for (std::size_t K = 0; K < N; ++K)
                IntOut[K] = (Cond[K / 64] >> (K % 64)) & 1 ? X[K] : Y[K];
              if (offer<true>(Prod::Ite, C, A, B))
                return true;
            }
          }
        }
      }
    return false;
  }

  /// Builds the term of a production; only the winner's term is built.
  TermPtr build(Prod P, const std::uint32_t *K) const {
    auto IntT = [&](std::uint32_t I) { return build(Int.node(I)); };
    auto BoolT = [&](std::uint32_t I) { return build(Bool.node(I)); };
    switch (P) {
    case Prod::Const:
      return mkIntLit(Consts[K[0]]);
    case Prod::BoolLit:
      return mkBoolLit(K[0] != 0);
    case Prod::Leaf:
      return Leaves[K[0]];
    case Prod::Neg:
      return mkOp(OpKind::Neg, {IntT(K[0])});
    case Prod::Abs:
      return mkOp(OpKind::Abs, {IntT(K[0])});
    case Prod::Not:
      return mkNot(BoolT(K[0]));
    case Prod::Add:
      return mkAdd(IntT(K[0]), IntT(K[1]));
    case Prod::Sub:
      return mkSub(IntT(K[0]), IntT(K[1]));
    case Prod::Min:
      return mkOp(OpKind::Min, {IntT(K[0]), IntT(K[1])});
    case Prod::Max:
      return mkOp(OpKind::Max, {IntT(K[0]), IntT(K[1])});
    case Prod::Mul:
      return mkOp(OpKind::Mul, {IntT(K[0]), IntT(K[1])});
    case Prod::Div:
      return mkOp(OpKind::Div, {IntT(K[0]), IntT(K[1])});
    case Prod::Mod:
      return mkOp(OpKind::Mod, {IntT(K[0]), IntT(K[1])});
    case Prod::Gt:
      return mkOp(OpKind::Gt, {IntT(K[0]), IntT(K[1])});
    case Prod::Le:
      return mkOp(OpKind::Le, {IntT(K[0]), IntT(K[1])});
    case Prod::Eq:
      return mkEq(IntT(K[0]), IntT(K[1]));
    case Prod::And:
      return mkAndList({BoolT(K[0]), BoolT(K[1])});
    case Prod::Or:
      return mkOrList({BoolT(K[0]), BoolT(K[1])});
    case Prod::Ite:
      return mkIte(BoolT(K[0]), IntT(K[1]), IntT(K[2]));
    }
    fatalError("unhandled enumerator production");
  }
  TermPtr build(const Node &E) const { return build(E.P, E.Kid); }

  const GrammarConfig &Config;
  const std::vector<TermPtr> &Leaves;
  const std::vector<PbeExample> &Examples;
  bool WantInt;
  const Deadline &Budget;
  std::size_t N;         ///< examples, i.e. lanes of an int vector
  std::size_t BoolWords; ///< words of a bool vector
  std::uint64_t LastMask;
  VecPool Int, Bool;
  std::vector<std::uint32_t> IntStart, BoolStart; ///< first entry per size
  std::vector<std::uint64_t> IntOut, BoolOut;     ///< the offered vector
  std::vector<std::uint64_t> Target;
  std::uint64_t TargetHash = 0;
  bool TargetReachable = true;
  std::vector<long long> Consts;
  std::size_t Held = 0; ///< heap held by both pools
  // Deadline polling is decimated: one clock read per PollGate stride of
  // candidates, so cancellation latency stays bounded without taxing the
  // hottest loop in the solver.
  PollGate Gate;
  EnumSearchStats Stats;
  Node Winner{};
};

} // namespace

std::optional<TermPtr>
Enumerator::synthesize(const TypePtr &OutTy,
                       const std::vector<PbeExample> &Examples, int MaxSize,
                       const Deadline &Budget) {
  if (!OutTy->isTuple())
    return synthesizeScalar(OutTy, Examples, MaxSize, Budget);

  // Component-wise synthesis for tuple outputs.
  const std::vector<TypePtr> &Elems = OutTy->tupleElems();
  std::vector<TermPtr> Parts;
  for (size_t I = 0; I < Elems.size(); ++I) {
    std::vector<PbeExample> Proj;
    for (const PbeExample &Ex : Examples) {
      assert(Ex.Output->isTuple() && "tuple example expected");
      Proj.push_back(PbeExample{Ex.Inputs, Ex.Output->getElems()[I]});
    }
    auto Part = synthesize(Elems[I], Proj, MaxSize, Budget);
    if (!Part)
      return std::nullopt;
    Parts.push_back(std::move(*Part));
  }
  return mkTuple(std::move(Parts));
}

std::optional<TermPtr>
Enumerator::synthesizeScalar(const TypePtr &OutTy,
                             const std::vector<PbeExample> &Examples,
                             int MaxSize, const Deadline &Budget) {
  bool WantInt = OutTy->isInt();

  // With no examples any term works; return the simplest.
  if (Examples.empty())
    return WantInt ? mkIntLit(0) : mkFalse();

  // Memo key: grammar ⊎ size bound ⊎ output type ⊎ per-example leaf values
  // and outputs. Leaf values (not leaf identities) make entries transfer
  // between Enumerator instances over different variables — a term's
  // behavior on the examples, and hence whether any term of a given size
  // fits, is a function of exactly these inputs.
  Hash128 MemoKey{};
  bool HaveKey = false;
  if (cacheEnabled()) {
    Hash128 K = hash128Seed(0x50);
    K = hashGrammarConfig(K, Config);
    K = hash128Combine(K, static_cast<std::uint64_t>(MaxSize));
    K = hash128Combine(K, WantInt ? 2u : OutTy->isBool() ? 1u : 0u);
    try {
      for (const PbeExample &Ex : Examples) {
        for (const TermPtr &L : Leaves)
          if (L->getType()->isInt() || L->getType()->isBool())
            K = hash128Combine(K, valueHash(evalScalarTerm(L, Ex.Inputs)));
        K = hash128Combine(K, valueHash(Ex.Output));
      }
      MemoKey = K;
      HaveKey = true;
    } catch (const UserError &) {
      // A leaf is unbound under these examples; the key would be partial.
    }
  }
  if (HaveKey) {
    Stopwatch ProbeWatch;
    auto Hit = pbeMemo().lookup(MemoKey);
    perfRecordNs(PerfHistogram::CacheProbeNs, ProbeWatch.elapsedNs());
    if (Hit) {
      if (!Hit->Found)
        return std::nullopt; // definitive: that search space was exhausted
      if (TermPtr T = termFromText(Hit->TermText, Leaves))
        if (T->getType()->isInt() == WantInt) {
          // Re-validate on the examples before trusting the entry.
          bool Ok = true;
          try {
            for (const PbeExample &Ex : Examples)
              if (!valueEquals(evalScalarTerm(T, Ex.Inputs), Ex.Output)) {
                Ok = false;
                break;
              }
          } catch (const UserError &) {
            Ok = false;
          }
          if (Ok)
            return T;
        }
      // Malformed or mismatching entry: fall through to the search.
    }
  }

  TraceSpan Span("enum.search", "enum");
  PhaseScope EnumPhase(Phase::Enum);
  Stopwatch Watch;
  auto R = enumerateScalar(OutTy, Examples, MaxSize, Budget);
  perfRecordNs(PerfHistogram::EnumRoundNs, Watch.elapsedNs());
  if (Span.active()) {
    Span.arg("examples", static_cast<std::uint64_t>(Examples.size()));
    Span.arg("max_size", static_cast<std::int64_t>(MaxSize));
    Span.arg("size_reached",
             static_cast<std::int64_t>(LastSearch.SizeReached));
    Span.arg("candidates", LastSearch.Candidates);
    Span.arg("pruned", LastSearch.Pruned);
    Span.arg("stop", enumStopName(LastSearch.Stop));
  }
  if (HaveKey) {
    if (R) {
      std::string Text = termToText(*R, Leaves);
      if (!Text.empty())
        pbeMemo().insert(MemoKey, PbeMemoEntry{true, std::move(Text)});
    } else if (LastSearch.Stop == EnumStop::Exhausted) {
      // The search ran dry (not out of time or pool): a definitive negative.
      pbeMemo().insert(MemoKey, PbeMemoEntry{false, {}});
    }
  }
  return R;
}

std::optional<TermPtr>
Enumerator::enumerateScalar(const TypePtr &OutTy,
                            const std::vector<PbeExample> &Examples,
                            int MaxSize, const Deadline &Budget) {
  Search S(Config, Leaves, Examples, OutTy->isInt(), Budget);
  auto R = S.run(MaxSize);
  LastSearch = S.stats();
  countEvent(CounterKind::PbeCandidates, LastSearch.Candidates);
  perfAdd(PerfCounter::EnumCandidates, LastSearch.Candidates);
  perfAdd(PerfCounter::EnumPruned, LastSearch.Pruned);
  return R;
}
