#pragma once

/// \file json_check.hpp
/// A strict JSON validator for tests: accepts exactly what RFC 8259 (and
/// Python's json.loads without NaN/Infinity) accepts — no raw control
/// characters inside strings, only the standard escapes, no trailing
/// commas, no leading zeros, nothing after the one top-level value.

#include <cstddef>
#include <string_view>

namespace mldcs::test {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  /// True iff the whole text is one valid JSON value.
  bool valid() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return container(depth, '}', true);
      case '[':
        return container(depth, ']', false);
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool container(int depth, char close, bool object) {
    ++i_;
    ws();
    if (eat(close)) return true;
    for (;;) {
      if (object) {
        if (i_ >= s_.size() || s_[i_] != '"' || !string()) return false;
        ws();
        if (!eat(':')) return false;
        ws();
      }
      if (!value(depth + 1)) return false;
      ws();
      if (eat(close)) return true;
      if (!eat(',')) return false;
      ws();
    }
  }

  bool string() {
    ++i_;  // opening quote
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() || !is_hex(s_[i_++])) return false;
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    eat('-');
    if (eat('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }

  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  static bool is_hex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// True iff `text` is exactly one valid JSON value.
inline bool is_strict_json(std::string_view text) {
  return JsonChecker(text).valid();
}

}  // namespace mldcs::test
