#ifndef PERFBENCH_TOOL_TRACE_H_
#define PERFBENCH_TOOL_TRACE_H_

// In-memory spans of the traced replay: each timed public call becomes one
// span, and a call timed inside another call's span becomes its child.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. Spans of one logical request share `request`;
/// `parent` is 0 for a root span. Times are ms since the replay started.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string request;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

// Begin/End nest through an explicit stack; spans are kept in memory and
// exported once at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  uint64_t Begin(const char* name, uint32_t request) {
    RawSpan s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.request = request;
    s.start = Clock::now();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  /// Closes span `id` (the innermost open one); returns its length in ms.
  double End(uint64_t id) {
    RawSpan& s = spans_[id - 1];
    s.end = Clock::now();
    stack_.pop_back();
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }

  uint32_t Request(std::string name) {
    requests_.push_back(std::move(name));
    return static_cast<uint32_t>(requests_.size() - 1);
  }

  std::vector<Span> Export() const {
    std::vector<Span> out;
    out.reserve(spans_.size());
    for (const RawSpan& s : spans_) {
      Span o;
      o.id = s.id;
      o.parent = s.parent;
      o.name = s.name;
      o.request = requests_[s.request];
      o.start_ms =
          std::chrono::duration<double, std::milli>(s.start - origin_).count();
      o.end_ms =
          std::chrono::duration<double, std::milli>(s.end - origin_).count();
      out.push_back(std::move(o));
    }
    return out;
  }

 private:
  struct RawSpan {
    uint64_t id;
    uint64_t parent;
    const char* name;
    uint32_t request;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<RawSpan> spans_;
  std::vector<uint64_t> stack_;
  std::vector<std::string> requests_;
};

/// Runs f() inside a span of `t` (or untraced when `t` is null); returns
/// its length in ms.
template <typename F>
double Timed(Tracer* t, const char* name, uint32_t request, F&& f) {
  if (t == nullptr) {
    const Tracer::Clock::time_point start = Tracer::Clock::now();
    f();
    return std::chrono::duration<double, std::milli>(Tracer::Clock::now() -
                                                     start)
        .count();
  }
  uint64_t id = t->Begin(name, request);
  f();
  return t->End(id);
}

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_TRACE_H_
