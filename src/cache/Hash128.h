//===- Hash128.h - 128-bit content hashes for memoization -------*- C++-*-===//
///
/// \file
/// The content-address type of the memoization subsystem: a 128-bit hash
/// wide enough that distinct queries colliding is not a practical concern
/// (the caches treat key equality as payload equality and never compare
/// payloads). Two independent 64-bit lanes are folded with different mixing
/// constants; both are pure functions of the fed bytes, so hashes are stable
/// across runs, processes, and machines.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CACHE_HASH128_H
#define SE2GIS_CACHE_HASH128_H

#include <cstdint>
#include <string>

namespace se2gis {

/// A 128-bit content hash (two independently mixed 64-bit lanes).
struct Hash128 {
  std::uint64_t Hi = 0;
  std::uint64_t Lo = 0;

  bool operator==(const Hash128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Hash128 &O) const { return !(*this == O); }
  bool operator<(const Hash128 &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// Fixed-width lowercase hex rendering (32 chars), the on-disk key form.
  std::string hex() const {
    static const char *Digits = "0123456789abcdef";
    std::string S(32, '0');
    for (int I = 0; I < 16; ++I) {
      std::uint64_t W = I < 8 ? Hi : Lo;
      int Shift = 56 - 8 * (I % 8);
      unsigned char B = static_cast<unsigned char>((W >> Shift) & 0xff);
      S[2 * I] = Digits[B >> 4];
      S[2 * I + 1] = Digits[B & 0xf];
    }
    return S;
  }

  /// Parses the \c hex form; returns false on malformed input.
  static bool fromHex(const std::string &S, Hash128 &Out) {
    if (S.size() != 32)
      return false;
    auto Nibble = [](char C, unsigned &V) {
      if (C >= '0' && C <= '9')
        V = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V = static_cast<unsigned>(C - 'a') + 10;
      else
        return false;
      return true;
    };
    Out = Hash128{};
    for (int I = 0; I < 32; ++I) {
      unsigned V = 0;
      if (!Nibble(S[I], V))
        return false;
      std::uint64_t &W = I < 16 ? Out.Hi : Out.Lo;
      W = (W << 4) | V;
    }
    return true;
  }
};

/// Feeds one 64-bit word into \p H (order-sensitive). The two lanes use
/// distinct odd multipliers so correlated single-lane collisions do not
/// propagate to the pair.
inline Hash128 hash128Combine(Hash128 H, std::uint64_t V) {
  H.Hi = (H.Hi ^ (V + 0x9e3779b97f4a7c15ULL + (H.Hi << 12) + (H.Hi >> 4))) *
         0x2545f4914f6cdd1dULL;
  H.Lo = (H.Lo ^ (V * 0xff51afd7ed558ccdULL + (H.Lo << 7) + (H.Lo >> 9))) *
         0xc4ceb9fe1a85ec53ULL;
  return H;
}

/// Feeds a second hash into \p H (order-sensitive).
inline Hash128 hash128Combine(Hash128 H, const Hash128 &V) {
  H = hash128Combine(H, V.Hi);
  return hash128Combine(H, V.Lo);
}

/// Feeds a string (length-prefixed, so "ab"+"c" != "a"+"bc").
Hash128 hash128String(Hash128 H, const std::string &S);

/// The seed every canonical hash starts from (domain-separated by \p Tag).
inline Hash128 hash128Seed(std::uint64_t Tag) {
  return hash128Combine(Hash128{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL},
                        Tag);
}

/// std::unordered_map hasher: the key already is a high-quality hash, so
/// just fold the lanes.
struct Hash128Hasher {
  std::size_t operator()(const Hash128 &H) const {
    return static_cast<std::size_t>(H.Hi ^ (H.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

} // namespace se2gis

#endif // SE2GIS_CACHE_HASH128_H
