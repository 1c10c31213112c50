//===- Json.cpp -----------------------------------------------------------===//

#include "service/Json.h"

#include "support/Log.h"

#include <cmath>
#include <cstdio>

using namespace se2gis;

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Val] : Members)
    if (Name == Key)
      return &Val;
  return nullptr;
}

std::string JsonValue::getString(const std::string &Key,
                                 const std::string &Default) const {
  const JsonValue *V = get(Key);
  return V && V->isString() ? V->Str : Default;
}

std::int64_t JsonValue::getInt(const std::string &Key,
                               std::int64_t Default) const {
  const JsonValue *V = get(Key);
  return V && V->isNumber() ? V->Int : Default;
}

double JsonValue::getNumber(const std::string &Key, double Default) const {
  const JsonValue *V = get(Key);
  return V && V->isNumber() ? V->Num : Default;
}

bool JsonValue::getBool(const std::string &Key, bool Default) const {
  const JsonValue *V = get(Key);
  return V && V->isBool() ? V->B : Default;
}

JsonValue &JsonValue::set(const std::string &Key, JsonValue V) {
  K = Kind::Object;
  for (auto &[Name, Val] : Members)
    if (Name == Key) {
      Val = std::move(V);
      return *this;
    }
  Members.emplace_back(Key, std::move(V));
  return *this;
}

JsonValue &JsonValue::push(JsonValue V) {
  K = Kind::Array;
  Items.push_back(std::move(V));
  return *this;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void JsonValue::dumpTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Number:
    if (IsInt) {
      Out += std::to_string(Int);
    } else {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Num);
      Out += Buf;
    }
    break;
  case Kind::String:
    Out += '"';
    Out += jsonEscape(Str);
    Out += '"';
    break;
  case Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &V : Items) {
      if (!First)
        Out += ',';
      First = false;
      V.dumpTo(Out);
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Name, Val] : Members) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += jsonEscape(Name);
      Out += "\":";
      Val.dumpTo(Out);
    }
    Out += '}';
    break;
  }
  }
}

std::string JsonValue::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

bool se2gis::isValidUtf8(const std::string &S) {
  std::size_t I = 0, N = S.size();
  while (I < N) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    std::size_t Len;
    std::uint32_t Cp;
    if (C < 0x80) {
      ++I;
      continue;
    } else if ((C & 0xe0) == 0xc0) {
      Len = 2;
      Cp = C & 0x1f;
    } else if ((C & 0xf0) == 0xe0) {
      Len = 3;
      Cp = C & 0x0f;
    } else if ((C & 0xf8) == 0xf0) {
      Len = 4;
      Cp = C & 0x07;
    } else {
      return false; // stray continuation or illegal lead byte
    }
    if (I + Len > N)
      return false; // truncated sequence
    for (std::size_t J = 1; J < Len; ++J) {
      unsigned char Cc = static_cast<unsigned char>(S[I + J]);
      if ((Cc & 0xc0) != 0x80)
        return false;
      Cp = (Cp << 6) | (Cc & 0x3f);
    }
    // Overlong encodings, surrogates, and out-of-range code points are all
    // invalid even when structurally well-formed.
    if ((Len == 2 && Cp < 0x80) || (Len == 3 && Cp < 0x800) ||
        (Len == 4 && Cp < 0x10000) || Cp > 0x10ffff ||
        (Cp >= 0xd800 && Cp <= 0xdfff))
      return false;
    I += Len;
  }
  return true;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const std::string &S;
  std::size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &S) : S(S) {}

  bool fail(const std::string &Msg) {
    Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    std::size_t N = std::char_traits<char>::length(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool parseString(std::string &Out) {
    // Caller consumed the opening quote.
    Out.clear();
    while (true) {
      if (Pos >= S.size())
        return fail("unterminated string");
      char C = S[Pos++];
      if (C == '"')
        break;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= S.size())
        return fail("unterminated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return fail("truncated \\u escape");
        std::uint32_t Cp = 0;
        for (int I = 0; I < 4; ++I) {
          char H = S[Pos++];
          Cp <<= 4;
          if (H >= '0' && H <= '9')
            Cp |= static_cast<std::uint32_t>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Cp |= static_cast<std::uint32_t>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Cp |= static_cast<std::uint32_t>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        if (Cp >= 0xd800 && Cp <= 0xdbff) {
          // Surrogate pair: require the low half immediately after.
          if (Pos + 6 > S.size() || S[Pos] != '\\' || S[Pos + 1] != 'u')
            return fail("unpaired high surrogate");
          Pos += 2;
          std::uint32_t Lo = 0;
          for (int I = 0; I < 4; ++I) {
            char H = S[Pos++];
            Lo <<= 4;
            if (H >= '0' && H <= '9')
              Lo |= static_cast<std::uint32_t>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Lo |= static_cast<std::uint32_t>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Lo |= static_cast<std::uint32_t>(H - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          if (Lo < 0xdc00 || Lo > 0xdfff)
            return fail("unpaired high surrogate");
          Cp = 0x10000 + ((Cp - 0xd800) << 10) + (Lo - 0xdc00);
        } else if (Cp >= 0xdc00 && Cp <= 0xdfff) {
          return fail("unpaired low surrogate");
        }
        // Encode the code point as UTF-8.
        if (Cp < 0x80) {
          Out += static_cast<char>(Cp);
        } else if (Cp < 0x800) {
          Out += static_cast<char>(0xc0 | (Cp >> 6));
          Out += static_cast<char>(0x80 | (Cp & 0x3f));
        } else if (Cp < 0x10000) {
          Out += static_cast<char>(0xe0 | (Cp >> 12));
          Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3f));
          Out += static_cast<char>(0x80 | (Cp & 0x3f));
        } else {
          Out += static_cast<char>(0xf0 | (Cp >> 18));
          Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3f));
          Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3f));
          Out += static_cast<char>(0x80 | (Cp & 0x3f));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (!isValidUtf8(Out))
      return fail("invalid UTF-8 in string");
    return true;
  }

  bool parseValue(JsonValue &Out, int Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    char C = S[Pos];
    if (C == 'n') {
      if (!literal("null"))
        return fail("bad literal");
      Out = JsonValue::null();
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return fail("bad literal");
      Out = JsonValue::boolean(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return fail("bad literal");
      Out = JsonValue::boolean(false);
      return true;
    }
    if (C == '"') {
      ++Pos;
      std::string Str;
      if (!parseString(Str))
        return false;
      Out = JsonValue::str(std::move(Str));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = JsonValue::array();
      skipWs();
      if (Pos < S.size() && S[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JsonValue Item;
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.push(std::move(Item));
        skipWs();
        if (Pos >= S.size())
          return fail("unterminated array");
        if (S[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (S[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = JsonValue::object();
      skipWs();
      if (Pos < S.size() && S[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        if (Pos >= S.size() || S[Pos] != '"')
          return fail("expected object key");
        ++Pos;
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= S.size() || S[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        JsonValue Val;
        if (!parseValue(Val, Depth + 1))
          return false;
        Out.set(Key, std::move(Val));
        skipWs();
        if (Pos >= S.size())
          return fail("unterminated object");
        if (S[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (S[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber(Out);
    return fail("unexpected character");
  }

  bool parseNumber(JsonValue &Out) {
    std::size_t Start = Pos;
    bool Neg = false;
    if (Pos < S.size() && S[Pos] == '-') {
      Neg = true;
      ++Pos;
    }
    if (Pos >= S.size() || S[Pos] < '0' || S[Pos] > '9')
      return fail("bad number");
    // Leading zero must not be followed by more digits (strict JSON).
    if (S[Pos] == '0' && Pos + 1 < S.size() && S[Pos + 1] >= '0' &&
        S[Pos + 1] <= '9')
      return fail("leading zero");
    bool IsInt = true;
    std::int64_t IntVal = 0;
    bool IntOverflow = false;
    while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9') {
      if (IntVal > (INT64_MAX - 9) / 10)
        IntOverflow = true;
      else
        IntVal = IntVal * 10 + (S[Pos] - '0');
      ++Pos;
    }
    if (Pos < S.size() && S[Pos] == '.') {
      IsInt = false;
      ++Pos;
      if (Pos >= S.size() || S[Pos] < '0' || S[Pos] > '9')
        return fail("bad fraction");
      while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      IsInt = false;
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos >= S.size() || S[Pos] < '0' || S[Pos] > '9')
        return fail("bad exponent");
      while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
        ++Pos;
    }
    std::string Text = S.substr(Start, Pos - Start);
    double D = std::strtod(Text.c_str(), nullptr);
    if (IsInt && !IntOverflow)
      Out = JsonValue::number(Neg ? -IntVal : IntVal);
    else
      Out = JsonValue::number(D);
    return true;
  }
};

} // namespace

bool JsonValue::parse(const std::string &Text, JsonValue &Out,
                      std::string &Error) {
  Parser P(Text);
  if (!P.parseValue(Out, 0)) {
    Error = P.Error;
    return false;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    Error = "trailing bytes after value at offset " + std::to_string(P.Pos);
    return false;
  }
  return true;
}
