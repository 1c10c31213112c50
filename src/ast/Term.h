//===- Term.h - Immutable symbolic terms ------------------------*- C++-*-===//
///
/// \file
/// The term language (paper §3): symbolic terms over terminal symbols and
/// typed variables, with a distinguished set of indexed holes used to build
/// frames (paper §6). Terms are immutable, shared, and carry a cached
/// structural hash so that syntactic frame equality (Definition 6.3) is
/// cheap.
///
/// Node kinds:
///   Var      - a typed variable occurrence
///   IntLit   - integer literal
///   BoolLit  - boolean literal
///   Op       - application of a builtin scalar operator (arith/bool/ite)
///   Tuple    - tuple construction; Proj - tuple projection
///   Ctor     - datatype constructor application
///   Call     - application of a named recursive/plain function
///   Unknown  - application of an unknown function from the skeleton's U
///   Hole     - indexed placeholder (frames only)
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_AST_TERM_H
#define SE2GIS_AST_TERM_H

#include "ast/Type.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace se2gis {

class Term;
using TermPtr = std::shared_ptr<const Term>;

/// A typed variable. Variables are identified by their unique Id; names are
/// for printing only.
struct Variable {
  unsigned Id;
  std::string Name;
  TypePtr Ty;
};
using VarPtr = std::shared_ptr<const Variable>;

/// Creates a fresh variable with a globally unique id, named
/// "<BaseName><id>".
VarPtr freshVar(const std::string &BaseName, TypePtr Ty);

/// Creates a variable with an explicit display name and a fresh id.
VarPtr namedVar(const std::string &Name, TypePtr Ty);

/// Term node discriminator.
enum class TermKind : unsigned char {
  Var,
  IntLit,
  BoolLit,
  Op,
  Tuple,
  Proj,
  Ctor,
  Call,
  Unknown,
  Hole
};

/// Builtin scalar operators.
enum class OpKind : unsigned char {
  // Integer arithmetic.
  Add,
  Sub,
  Neg,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  Abs,
  // Integer comparisons.
  Lt,
  Le,
  Gt,
  Ge,
  // Polymorphic (scalar) equality.
  Eq,
  Ne,
  // Boolean connectives.
  Not,
  And,
  Or,
  Implies,
  // Conditional (scalar-typed branches).
  Ite
};

/// \returns the printed spelling of \p Op (e.g. "+", "&&", "min").
const char *opSpelling(OpKind Op);

/// A 64-bit variant of boost::hash_combine, used by the structural term,
/// value and canonical hashes.
inline std::uint64_t hashCombine(std::uint64_t Seed, std::uint64_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4));
}

/// An immutable term node. Use the mk* factories below.
class Term {
public:
  TermKind getKind() const { return Kind; }
  const TypePtr &getType() const { return Ty; }
  std::uint64_t hash() const { return HashCache; }

  // --- Var ---
  const VarPtr &getVar() const;

  // --- Literals ---
  long long getIntValue() const;
  bool getBoolValue() const;

  // --- Op ---
  OpKind getOp() const;

  // --- Compound nodes ---
  const std::vector<TermPtr> &getArgs() const { return Args; }
  size_t numArgs() const { return Args.size(); }
  const TermPtr &getArg(size_t I) const;

  // --- Proj / Hole ---
  unsigned getIndex() const;

  // --- Ctor ---
  const ConstructorDecl *getCtor() const;

  // --- Call / Unknown ---
  const std::string &getCallee() const;

  /// Pretty-prints with infix operators and minimal parentheses.
  std::string str() const;

  /// The memoized *shape* hash (canonical structure hash with variable ids
  /// abstracted away; see cache/Canonical.cpp). Unlike \c hash() it cannot
  /// be computed eagerly at construction without walking shared subtrees
  /// repeatedly, so the canonicalizer fills it lazily. 0 means "not yet
  /// computed" (the hasher never produces 0). Relaxed atomics: the value is
  /// a pure function of the immutable structure, so a racing recompute
  /// stores the same bits.
  std::uint64_t cachedShapeHash() const {
    return ShapeHashCache.load(std::memory_order_relaxed);
  }
  void cacheShapeHash(std::uint64_t H) const {
    ShapeHashCache.store(H, std::memory_order_relaxed);
  }

private:
  friend TermPtr mkVar(const VarPtr &V);
  friend TermPtr mkIntLit(long long Value);
  friend TermPtr mkBoolLit(bool Value);
  friend TermPtr mkOp(OpKind Op, std::vector<TermPtr> Args);
  friend TermPtr mkTuple(std::vector<TermPtr> Elems);
  friend TermPtr mkProj(TermPtr Tup, unsigned Index);
  friend TermPtr mkCtor(const ConstructorDecl *Ctor,
                        std::vector<TermPtr> Args);
  friend TermPtr mkCall(const std::string &Callee, TypePtr RetTy,
                        std::vector<TermPtr> Args);
  friend TermPtr mkUnknown(const std::string &Name, TypePtr RetTy,
                           std::vector<TermPtr> Args);
  friend TermPtr mkHole(unsigned Index, TypePtr Ty);

  Term(TermKind Kind, TypePtr Ty) : Kind(Kind), Ty(std::move(Ty)) {}
  void computeHash();

  TermKind Kind;
  OpKind Op = OpKind::Add;
  unsigned Index = 0;
  long long IntVal = 0;
  TypePtr Ty;
  VarPtr Var;
  const ConstructorDecl *Ctor = nullptr;
  std::string Callee;
  std::vector<TermPtr> Args;
  std::uint64_t HashCache = 0;
  mutable std::atomic<std::uint64_t> ShapeHashCache{0};
};

// --- Factories --------------------------------------------------------===//

TermPtr mkVar(const VarPtr &V);
TermPtr mkIntLit(long long Value);
TermPtr mkBoolLit(bool Value);
/// Builds an operator application; asserts arity and operand types.
TermPtr mkOp(OpKind Op, std::vector<TermPtr> Args);
TermPtr mkTuple(std::vector<TermPtr> Elems);
TermPtr mkProj(TermPtr Tup, unsigned Index);
TermPtr mkCtor(const ConstructorDecl *Ctor, std::vector<TermPtr> Args);
TermPtr mkCall(const std::string &Callee, TypePtr RetTy,
               std::vector<TermPtr> Args);
TermPtr mkUnknown(const std::string &Name, TypePtr RetTy,
                  std::vector<TermPtr> Args);
TermPtr mkHole(unsigned Index, TypePtr Ty);

// --- Convenience builders ---------------------------------------------===//

TermPtr mkTrue();
TermPtr mkFalse();
TermPtr mkAdd(TermPtr A, TermPtr B);
TermPtr mkSub(TermPtr A, TermPtr B);
TermPtr mkEq(TermPtr A, TermPtr B);
TermPtr mkNot(TermPtr A);
TermPtr mkIte(TermPtr C, TermPtr T, TermPtr E);
/// Conjunction of \p Terms; returns true for an empty list.
TermPtr mkAndList(std::vector<TermPtr> Terms);
/// Disjunction of \p Terms; returns false for an empty list.
TermPtr mkOrList(std::vector<TermPtr> Terms);

// --- Structural operations --------------------------------------------===//

/// Deep structural equality (variables compare by id, datatypes by identity).
bool termEquals(const TermPtr &A, const TermPtr &B);

/// Collects the distinct free variables of \p T in first-occurrence order.
std::vector<VarPtr> freeVars(const TermPtr &T);

/// \returns true if variable \p Id occurs free in \p T.
bool occursFree(const TermPtr &T, unsigned Id);

/// Capture-free substitution of variables by terms (terms are closed w.r.t.
/// binding, so this is a plain replacement).
using Substitution = std::vector<std::pair<unsigned, TermPtr>>;
TermPtr substitute(const TermPtr &T, const Substitution &Map);

/// Replaces holes by terms: hole i becomes Fill[i]. Holes with indices
/// outside \p Fill are left untouched.
TermPtr fillHoles(const TermPtr &T, const std::vector<TermPtr> &Fill);

/// Applies \p Fn to every node of \p T in pre-order (parents before
/// children). Return false from \p Fn to skip a node's children.
void visitTerm(const TermPtr &T, const std::function<bool(const TermPtr &)> &Fn);

/// Rebuilds \p T bottom-up, applying \p Fn to each node after its children
/// have been rebuilt. \p Fn may return its argument unchanged.
TermPtr rewriteBottomUp(const TermPtr &T,
                        const std::function<TermPtr(const TermPtr &)> &Fn);

/// Total number of nodes in \p T.
size_t termSize(const TermPtr &T);

/// \returns true if \p T contains any Unknown node.
bool containsUnknown(const TermPtr &T);

/// \returns true if \p T contains any Call node.
bool containsCall(const TermPtr &T);

} // namespace se2gis

#endif // SE2GIS_AST_TERM_H
