//===- Json.h - Minimal JSON value model for the service protocol -*-C++-*-===//
///
/// \file
/// The service protocol (Protocol.h) speaks JSON, and unlike the repo's
/// write-only perf/trace emitters the daemon must also *parse* untrusted
/// bytes from the socket. This is a deliberately small, strict JSON layer:
///
///  - \c JsonValue: null / bool / number / string / array / object, with
///    objects as ordered key/value vectors (protocol objects are tiny, so
///    lookup is a linear scan and serialization order is deterministic).
///  - \c JsonValue::parse: strict recursive-descent parsing with a depth
///    bound and UTF-8 validation of every string — malformed input of any
///    kind yields \c false plus a positioned diagnostic, never a crash,
///    an exception, or an out-of-bounds read (the protocol fuzz tests in
///    tests/ServiceTest.cpp feed it truncated and binary garbage).
///  - \c dump: canonical compact rendering (escaped control characters,
///    integers without a decimal point), valid UTF-8 by construction.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_JSON_H
#define SE2GIS_SERVICE_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace se2gis {

class JsonValue {
public:
  enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool B) {
    JsonValue V;
    V.K = Kind::Bool;
    V.B = B;
    return V;
  }
  static JsonValue number(double D) {
    JsonValue V;
    V.K = Kind::Number;
    V.Num = D;
    V.Int = static_cast<std::int64_t>(D);
    V.IsInt = static_cast<double>(V.Int) == D;
    return V;
  }
  static JsonValue number(std::int64_t I) {
    JsonValue V;
    V.K = Kind::Number;
    V.Num = static_cast<double>(I);
    V.Int = I;
    V.IsInt = true;
    return V;
  }
  static JsonValue str(std::string S) {
    JsonValue V;
    V.K = Kind::String;
    V.Str = std::move(S);
    return V;
  }
  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asDouble() const { return Num; }
  std::int64_t asInt() const { return Int; }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &items() const { return Items; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Object lookup; nullptr when absent or this is not an object.
  const JsonValue *get(const std::string &Key) const;

  /// Typed convenience lookups with defaults (for optional protocol fields).
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  std::int64_t getInt(const std::string &Key, std::int64_t Default = 0) const;
  double getNumber(const std::string &Key, double Default = 0) const;
  bool getBool(const std::string &Key, bool Default = false) const;

  /// Sets \p Key in an object (replacing an existing entry).
  JsonValue &set(const std::string &Key, JsonValue V);
  /// Appends to an array.
  JsonValue &push(JsonValue V);

  /// Compact canonical rendering.
  std::string dump() const;

  /// Strict parse of \p Text (the whole string must be one JSON value,
  /// ignoring surrounding whitespace). On failure returns false and puts a
  /// positioned message in \p Error. Strings must be valid UTF-8.
  static bool parse(const std::string &Text, JsonValue &Out,
                    std::string &Error);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::int64_t Int = 0;
  bool IsInt = false;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  void dumpTo(std::string &Out) const;
};

/// \returns true when \p S is well-formed UTF-8 (the validation the parser
/// applies to every string literal; exposed for tests).
bool isValidUtf8(const std::string &S);

} // namespace se2gis

#endif // SE2GIS_SERVICE_JSON_H
