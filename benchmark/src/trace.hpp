// Span recorder for traced runs.
//
// Spans wrap the benchmark's own calls into each layer's public functions,
// from the outside: nothing inside the library is instrumented. They live in
// memory and are written out once, as a Chrome trace-event file, when the
// run ends. A disabled tracer hands out inert spans that cost one branch,
// which is what the untraced (end-to-end) runs use.
//
// Span names are "<layer>.<operation>" (e.g. "index.build"); the layer is
// the library module the call goes into. Spans nest strictly on the calling
// thread, so a span's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "perf/bench_json.hpp"

namespace lbe::benchmark {

class Tracer {
 public:
  struct Record {
    std::string name;
    int parent = -1;  ///< index into records(), -1 for a top-level span
    double start_s = 0.0;
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  class Span {
   public:
    Span(Tracer* tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span that closes when the returned object goes out of scope.
  Span span(std::string_view name) {
    return Span(enabled_ ? this : nullptr, name);
  }

  /// Seconds since the tracer was created.
  double now() const;

  const std::vector<Record>& records() const noexcept { return records_; }

  /// Index of the first span called `name`; throws InvariantError if none.
  std::size_t index_of(std::string_view name) const;

  /// Summed duration of the spans called `name` directly under `parent`.
  double total_under(std::size_t parent, std::string_view name) const;

  /// Duration of span `index` minus the part its children cover.
  double self_seconds(std::size_t index) const;

  /// Writes `path` in Chrome trace-event format (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

  /// {"spans": {"<name>": {"count", "total_s", "self_s"}, ...},
  ///  "layer_self_s": {"<layer>": seconds, ...}}.
  perf::Json summary() const;

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace lbe::benchmark
