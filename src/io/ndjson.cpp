#include "io/ndjson.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace vipvt {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Locates the rendered value of `"key": ` in a JsonBuilder-produced
/// line; returns the remainder of the line starting at the value, or an
/// empty view when absent.
std::string_view value_at(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 4);
  pattern += '"';
  pattern += key;
  pattern += "\": ";
  const std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return {};
  return line.substr(pos + pattern.size());
}

bool parse_u64_at(std::string_view v, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && ptr != v.data();
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

JsonBuilder& JsonBuilder::value(std::string_view key,
                                std::string_view rendered) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\": ";
  body_ += rendered;
  return *this;
}

JsonBuilder& JsonBuilder::u64(std::string_view key, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return value(key, std::string_view(buf, static_cast<std::size_t>(ptr - buf)));
}

JsonBuilder& JsonBuilder::i64(std::string_view key, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return value(key, std::string_view(buf, static_cast<std::size_t>(ptr - buf)));
}

JsonBuilder& JsonBuilder::num(std::string_view key, double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return value(key, buf);
}

JsonBuilder& JsonBuilder::bits(std::string_view key, double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"x%016llx\"",
                static_cast<unsigned long long>(double_bits(v)));
  return value(key, buf);
}

JsonBuilder& JsonBuilder::str(std::string_view key, std::string_view s) {
  std::string rendered;
  rendered += '"';
  rendered += json_escape(s);
  rendered += '"';
  return value(key, rendered);
}

JsonBuilder& JsonBuilder::raw(std::string_view key, std::string_view json) {
  return value(key, json);
}

JsonBuilder& JsonBuilder::u64_array(std::string_view key,
                                    std::span<const std::uint64_t> values) {
  std::string rendered = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) rendered += ", ";
    char buf[24];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, values[i]);
    rendered.append(buf, static_cast<std::size_t>(ptr - buf));
  }
  rendered += ']';
  return value(key, rendered);
}

std::string JsonBuilder::build() const { return "{" + body_ + "}"; }

void NdjsonWriter::record(const JsonBuilder& obj) { record_line(obj.build()); }

void NdjsonWriter::record_line(std::string_view line) {
  *os_ << line << '\n';
  os_->flush();
  ++records_;
}

bool ndjson_find_u64(std::string_view line, std::string_view key,
                     std::uint64_t& out) {
  const std::string_view v = value_at(line, key);
  if (v.empty()) return false;
  std::uint64_t parsed;
  if (!parse_u64_at(v, parsed)) return false;
  out = parsed;
  return true;
}

bool ndjson_find_i64(std::string_view line, std::string_view key,
                     std::int64_t& out) {
  const std::string_view v = value_at(line, key);
  if (v.empty()) return false;
  std::int64_t parsed;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc{} || ptr == v.data()) return false;
  out = parsed;
  return true;
}

bool ndjson_find_bits(std::string_view line, std::string_view key,
                      double& out) {
  const std::string_view v = value_at(line, key);
  // "x" + 16 hex digits + closing quote.
  if (v.size() < 19 || v[0] != '"' || v[1] != 'x') return false;
  std::uint64_t bits;
  const auto [ptr, ec] = std::from_chars(v.data() + 2, v.data() + 18, bits, 16);
  if (ec != std::errc{} || ptr != v.data() + 18 || v[18] != '"') return false;
  double parsed;
  std::memcpy(&parsed, &bits, sizeof parsed);
  out = parsed;
  return true;
}

bool ndjson_find_str(std::string_view line, std::string_view key,
                     std::string& out) {
  std::string_view v = value_at(line, key);
  if (v.empty() || v[0] != '"') return false;
  v.remove_prefix(1);
  std::string parsed;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == '"') {
      out = std::move(parsed);
      return true;
    }
    if (v[i] == '\\' && i + 1 < v.size()) {
      parsed += v[++i];
    } else {
      parsed += v[i];
    }
  }
  return false;
}

bool ndjson_find_u64_array(std::string_view line, std::string_view key,
                           std::vector<std::uint64_t>& out) {
  std::string_view v = value_at(line, key);
  if (v.empty() || v[0] != '[') return false;
  v.remove_prefix(1);
  std::vector<std::uint64_t> parsed;
  for (;;) {
    while (!v.empty() && (v[0] == ' ' || v[0] == ',')) v.remove_prefix(1);
    if (v.empty()) return false;
    if (v[0] == ']') break;
    std::uint64_t item;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), item);
    if (ec != std::errc{} || ptr == v.data()) return false;
    parsed.push_back(item);
    v.remove_prefix(static_cast<std::size_t>(ptr - v.data()));
  }
  out = std::move(parsed);
  return true;
}

}  // namespace vipvt
