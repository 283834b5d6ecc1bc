#pragma once
// In-memory span recorder for the benchmark's traced pass.  A span is a
// named interval with a parent span and a request id (the die id, or the
// unit id for unit-level spans).  Spans are recorded from the benchmark's
// own code, around calls into the library's public functions; nothing in
// the library is instrumented.  The recorder is single-threaded on
// purpose: the traced pass is serial, so span times are per-call costs,
// not interleavings of pool workers.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace vipvt::e2e {

struct Span {
  const char* name = "";  ///< static string: the layer boundary's name
  double start_us = 0.0;  ///< since the tracer's origin
  double end_us = 0.0;
  int parent = -1;            ///< index into Tracer::spans(), -1 = root
  std::int64_t request = -1;  ///< die id (die spans) or unit id
  double dur_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  Tracer() : origin_(clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  int begin(const char* name, std::int64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_us(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("Tracer: spans must close innermost first");
    }
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// Closes its span at scope exit.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t request)
        : t_(t), id_(t.begin(name, request)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };
  Scope scope(const char* name, std::int64_t request) {
    return Scope(*this, name, request);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration and call count of every span name.
  struct Tally {
    double us = 0.0;
    std::size_t calls = 0;
  };
  std::map<std::string, Tally> tally() const {
    std::map<std::string, Tally> out;
    for (const Span& s : spans_) {
      Tally& t = out[s.name];
      t.us += s.dur_us();
      ++t.calls;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds): open
  /// it in chrome://tracing or Perfetto.  The request id and the parent
  /// span index travel in each event's args.
  void write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"request\":%lld}}",
                   i ? "," : "", s.name, s.start_us, s.dur_us(), i, s.parent,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      throw std::runtime_error("write failed: " + path);
    }
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_)
        .count();
  }

  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace vipvt::e2e
