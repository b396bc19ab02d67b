// Span recorder of the benchmark's traced run.
//
// The benchmark wraps each call it makes into a library layer in a Span:
// name, layer, start, end, parent span, run id, the process CPU seconds
// the span consumed (getrusage, all threads) and the work counts the call
// returned.  Spans are kept in memory and written as JSON lines when the
// run ends; perfbench/trace_report.py turns them into the per-layer table.
// Nothing here is compiled into the library — spans live only at the
// boundaries the benchmark itself calls.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch, monotonic).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process, every thread included.
inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct SpanRecord {
  std::string name;
  std::string layer;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  int run = 0;
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  explicit Tracer(unsigned threads) : threads_(threads) {}

  /// Spans opened from now on belong to run `run`.
  void set_run(int run) { run_ = run; }

  int open(std::string name, std::string layer) {
    SpanRecord s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    s.cpu = cpu_s();
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    SpanRecord& s = spans_[id];
    s.end = now_s();
    s.cpu = cpu_s() - s.cpu;
    stack_.pop_back();
  }

  void count(int id, const char* key, double value) {
    spans_[id].counts.emplace_back(key, value);
  }

  /// One JSON object per line; returns false on a write error.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%d,"
                   "\"parent\":%d,\"run\":%d,\"start\":%.9f,\"end\":%.9f,"
                   "\"cpu_s\":%.6f,\"threads\":%u,\"counts\":{",
                   s.name.c_str(), s.layer.c_str(), s.id, s.parent, s.run,
                   s.start, s.end, s.cpu, threads_);
      for (std::size_t i = 0; i < s.counts.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                     s.counts[i].first.c_str(), s.counts[i].second);
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  unsigned threads_;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span: opened on construction, closed on destruction.
class Span {
 public:
  Span(Tracer* t, const char* name, const char* layer)
      : tracer_(t), id_(t->open(name, layer)) {}
  ~Span() { tracer_->close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void count(const char* key, double value) { tracer_->count(id_, key, value); }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
