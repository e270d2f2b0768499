// In-memory span recorder for the traced run.
//
// The benchmark times each layer from outside: it wraps its own calls into
// the library's public functions in spans (name, start, end, parent span,
// request id) and attaches the counters those calls return. Nothing is
// written while the workload runs; Write() dumps every span at the end.
// Spans are recorded from the workload's one client thread.
#ifndef GUSBENCH_TRACE_H_
#define GUSBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace gusbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; returns its id (the parent id of nested spans).
  /// `parent` is -1 for a request's root span.
  int Begin(const std::string& name, int64_t request, int parent = -1);
  /// Closes span `id` and returns its duration in ms.
  double End(int id);
  /// Attaches a counter to span `id`.
  void Count(int id, const std::string& name, double value);

  /// Writes {"spans": [...]} as JSON to `path`.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t request = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    std::vector<std::pair<std::string, double>> counters;
  };
  int64_t NowNs() const;

  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace gusbench

#endif  // GUSBENCH_TRACE_H_
