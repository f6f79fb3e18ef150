// In-memory spans recorded by the benchmark around each public call it
// makes into the library. A span has a name "<layer>.<call>", start and
// end, the span that was open on the same thread when it began (its
// parent), and the id of the operation it belongs to. Spans are kept in
// memory and written out when the run ends; a disabled tracer records
// nothing and costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op) : t_(t) {
      if (t_.enabled_) idx_ = t_.open(name, op);
    }
    ~Scope() {
      if (idx_ >= 0) t_.close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  /// Self time per layer in ms: each span's duration minus the part its
  /// children cover, summed by the name's prefix before the first '.'.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name(spans_[i].name);
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns - child_ns[i]) /
                    1e6;
    }
    return out;
  }

  /// Writes one JSON object per span (times in ns from the first span).
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"op\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int open(const char* name, std::uint64_t op) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.op = op;
    s.start_ns = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int idx) {
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = end;
    current_ = s.parent;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  /// Innermost open span on this thread. One tracer is live at a time.
  static thread_local int current_;
};

inline thread_local int Tracer::current_ = -1;

}  // namespace perfbench
