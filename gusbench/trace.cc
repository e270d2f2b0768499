#include "trace.h"

#include <cstdio>
#include <fstream>

namespace gusbench {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int64_t request, int parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::End(int id) {
  const int64_t now = NowNs();
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = now;
  return static_cast<double>(now - span.start_ns) / 1e6;
}

void Tracer::Count(int id, const std::string& name, double value) {
  spans_[static_cast<size_t>(id)].counters.emplace_back(name, value);
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns;
    if (!s.counters.empty()) {
      out << ", \"counters\": {";
      for (size_t c = 0; c < s.counters.size(); ++c) {
        std::snprintf(buf, sizeof(buf), "%.17g", s.counters[c].second);
        out << (c == 0 ? "" : ", ") << "\"" << s.counters[c].first
            << "\": " << buf;
      }
      out << "}";
    }
    out << (i + 1 == spans_.size() ? "}\n" : "},\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace gusbench
