#include "io/format.hpp"

#include <cstdio>
#include <ostream>

namespace vipvt {

std::string num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void write_moments_json(std::ostream& os, const ExactMoments& m) {
  os << "{\"count\": " << m.count() << ", \"mean\": " << num(m.mean())
     << ", \"stddev\": " << num(m.stddev()) << ", \"min\": " << num(m.min())
     << ", \"max\": " << num(m.max()) << "}";
}

std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace vipvt
