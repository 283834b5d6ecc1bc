#pragma once
// NDJSON (newline-delimited JSON) streaming primitives: the campaign
// runtime appends one self-contained JSON object per completed wafer
// shard so a consumer can `tail -f` a running campaign, and the SAME
// stream doubles as the checkpoint a killed campaign resumes from
// (DESIGN.md §15).  Three design rules follow from that double duty:
//
//   1. *Deterministic bytes.*  Keys are emitted in insertion order with
//      fixed formats, so a stream produced by any thread count or shard
//      schedule is byte-identical (records are emitted in job order).
//   2. *Exact round-trips.*  Doubles that must survive a checkpoint
//      round-trip bit-for-bit travel as IEEE-754 bit patterns
//      (JsonBuilder::bits / parse_bits), not as decimal text.
//   3. *Prefix validity.*  Every record is flushed with its trailing
//      newline; a reader treats the last line as complete only if the
//      newline is present, so a kill mid-write never corrupts the
//      resumable prefix.
//
// The field extractors parse ONLY machine-generated JsonBuilder output
// (unique keys per line, `"key": value` with one space) — they are the
// matched reader of these writers, not a general JSON parser.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vipvt {

/// `s` as the body of a JSON string literal: \\ and \" backslash-escaped,
/// control bytes as \u00XX, everything else verbatim.
std::string json_escape(std::string_view s);

/// Deterministic single-object JSON builder: insertion-ordered keys,
/// fixed number formats, no whitespace surprises.  build() returns the
/// object as one line (no trailing newline).
class JsonBuilder {
 public:
  JsonBuilder& u64(std::string_view key, std::uint64_t v);
  JsonBuilder& i64(std::string_view key, std::int64_t v);
  /// Fixed-precision decimal (human-facing; NOT bit-exact round-trip).
  JsonBuilder& num(std::string_view key, double v, int digits = 6);
  /// Bit-exact double: the IEEE-754 bit pattern as a hex string
  /// ("x3ff0000000000000") — the checkpoint-grade encoding.
  JsonBuilder& bits(std::string_view key, double v);
  /// String value with minimal escaping (\\ \" and control bytes).
  JsonBuilder& str(std::string_view key, std::string_view s);
  /// Pre-serialized JSON value, emitted verbatim.
  JsonBuilder& raw(std::string_view key, std::string_view json);
  JsonBuilder& u64_array(std::string_view key,
                         std::span<const std::uint64_t> values);

  std::string build() const;

 private:
  JsonBuilder& value(std::string_view key, std::string_view rendered);
  std::string body_;  // "key": value pairs, comma-joined
};

/// Line-oriented NDJSON writer: one JSON object per line, flushed per
/// record so readers (live tails and the resume loader) always observe a
/// prefix of complete records.
class NdjsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit NdjsonWriter(std::ostream& os) : os_(&os) {}

  void record(const JsonBuilder& obj);
  void record_line(std::string_view line);
  std::size_t records() const { return records_; }

 private:
  std::ostream* os_;
  std::size_t records_ = 0;
};

// ---- matched field extractors ---------------------------------------------
// All return false (leaving `out` untouched) when the key is absent or
// malformed.  Keys must be unique within the line — JsonBuilder records
// built by this library keep that invariant.

bool ndjson_find_u64(std::string_view line, std::string_view key,
                     std::uint64_t& out);
bool ndjson_find_i64(std::string_view line, std::string_view key,
                     std::int64_t& out);
/// Reads a bits()-encoded double back bit-exactly.
bool ndjson_find_bits(std::string_view line, std::string_view key,
                      double& out);
bool ndjson_find_str(std::string_view line, std::string_view key,
                     std::string& out);
bool ndjson_find_u64_array(std::string_view line, std::string_view key,
                           std::vector<std::uint64_t>& out);

}  // namespace vipvt
