#pragma once
// Formatting shared by src/io's report writers, so one value prints the
// same bytes in every file: fixed-precision numbers, the ExactMoments
// object of the wafer and campaign JSON, RFC 4180 CSV fields, and the
// checked file wrapper behind every *_file variant.  JSON string values
// escape through json_escape (io/ndjson.hpp), as the NDJSON stream does.

#include <fstream>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace vipvt {

/// Fixed "%.*f" formatting: locale-independent and stable across runs,
/// so serialized reports are byte-comparable.
std::string num(double v, int digits = 6);

/// {"count", "mean", "stddev", "min", "max"} of one accumulator, in that
/// order, each float through num().
void write_moments_json(std::ostream& os, const ExactMoments& m);

/// `s` as one CSV field (RFC 4180): verbatim unless it holds a comma,
/// a double quote, CR or LF; then double-quoted, inner quotes doubled.
std::string csv_field(std::string_view s);

/// Opens `path`, runs `writer(stream)`, and throws std::runtime_error
/// when the file cannot be opened or a write failed.
template <typename F>
void open_and_write(const std::string& path, F&& writer) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  writer(os);
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace vipvt
