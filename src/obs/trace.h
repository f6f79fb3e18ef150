// Structured diagnostics: a thread-safe JSONL event stream.
//
// A TraceSink owns one output (a file or an adopted FILE*) and serialises
// whole lines under a mutex, so concurrent emitters — portfolio members,
// cube workers, batch_runner jobs — interleave per event, never mid-line.
// Every event is one flat JSON object carrying at least:
//
//   {"ev":"<kind>","t_us":<monotonic microseconds>, ...}
//
// Event construction reuses JsonWriter, so every string that reaches the
// stream is escaped; a trace file is valid JSONL by construction and can
// be replayed with `jq` / `json.loads` line by line.
//
// Gating: instrumented code holds an obs::Config whose sink pointer is
// null when tracing is off. The contract is that the *caller* tests
// `config.enabled()` before building an Event, so the disabled path is a
// single branch with no allocation.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json_writer.h"
#include "obs/phase.h"

namespace psse::obs {

class TraceSink {
 public:
  /// Opens (truncates) `path` for writing. Throws std::runtime_error when
  /// the file cannot be created.
  static std::unique_ptr<TraceSink> open(const std::string& path);

  /// Adopts an already-open stream. `owned` controls whether the sink
  /// closes it on destruction (stdout/stderr adopters pass false).
  explicit TraceSink(std::FILE* file, bool owned);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  ~TraceSink();

  /// Writes one line (a newline is appended) and flushes, atomically with
  /// respect to other writers on this sink.
  void write_line(std::string_view line);

 private:
  std::FILE* file_;
  bool owned_;
  std::mutex mu_;
};

/// Tracing configuration handed down the stack. Copyable and cheap; the
/// sink is borrowed, not owned — whoever opened it (the CLI entry point)
/// must keep it alive for the duration of the traced work.
struct Config {
  TraceSink* sink = nullptr;

  [[nodiscard]] bool enabled() const { return sink != nullptr; }
};

/// One trace event. Builds `{"ev":kind,"t_us":<now>,...}`; fields are
/// forwarded to JsonWriter (strings escaped, numbers exact).
class Event {
 public:
  explicit Event(std::string_view kind) {
    writer_.field("ev", kind);
    writer_.field("t_us", static_cast<std::int64_t>(now_us()));
  }

  template <typename V>
  Event& field(std::string_view key, V&& v) {
    writer_.field(key, std::forward<V>(v));
    return *this;
  }

  /// Splices pre-rendered JSON (e.g. an array built with append_json_array).
  Event& field_raw(std::string_view key, std::string_view json) {
    writer_.field_raw(key, json);
    return *this;
  }

  void emit(TraceSink& sink) { sink.write_line(writer_.str()); }

  /// Convenience: emits iff the config carries a sink.
  void emit(const Config& config) {
    if (config.enabled()) emit(*config.sink);
  }

 private:
  JsonWriter writer_;
};

/// Renders an integer container as a JSON array ("[1,4,9]") for field_raw.
template <typename Container>
[[nodiscard]] std::string json_int_array(const Container& xs) {
  std::string out = "[";
  bool first = true;
  for (const auto& x : xs) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(x);
  }
  out += ']';
  return out;
}

}  // namespace psse::obs
