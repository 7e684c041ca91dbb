// Shared pieces of the benchmark driver: run options, timing statistics, the
// outside-in span log, canonical row bags for multiset comparison, and the
// result record every workload fills in.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "engine/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Quick mode: one short round per workload, every correctness check.
  bool quick = false;
  /// Scratch directory for checkpoints and write-ahead logs (inside the
  /// checkout); removed when the run ends.
  std::string workdir;
  /// Where the traced run writes its Chrome trace JSON.
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything one run reports. `correct` speaks of the operations that did
/// not fail; `failed` counts operations that returned an error.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Records a failed check (correct = false) with a message on stderr.
  void Mismatch(const std::string& what);
  /// Counts one attempted operation, and a failure when `status` is an error.
  bool Count(const onesql::Status& status, const std::string& what);
};

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Each call position's median time across rounds (`rounds[r][i]` is call
/// i of round r). Rounds replay the same calls, so a position's median is
/// that call's typical time: a host stall that hits one round moves no
/// position's median, and calls whose cost grows over the feed (reads of
/// growing tables) keep their order instead of forming clusters that a
/// quantile over all samples would fall between.
std::vector<double> PositionMedians(
    const std::vector<std::vector<double>>& rounds);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1 when the
/// affinity cannot be read or set.
int PinToOneCpu();

// -- Outside-in spans ---------------------------------------------------------

/// Spans recorded by the benchmark around its calls into the program's public
/// API, kept in memory and written as Chrome trace_event JSON at the end of a
/// traced run. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  void Add(const char* name, const char* cat, Clock::time_point start,
           Clock::time_point end);
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call: records a span (when enabled) and returns milliseconds.
template <typename F>
double Timed(SpanLog* log, const char* name, const char* cat, F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  const Clock::time_point end = Clock::now();
  if (log != nullptr && log->enabled()) log->Add(name, cat, start, end);
  return MillisBetween(start, end);
}

// -- Canonical rows -----------------------------------------------------------

/// A multiset of rows, each rendered canonically (type-tagged cells), so two
/// results compare as bags independent of row order.
using Bag = std::unordered_map<std::string, int64_t>;

std::string CanonicalRow(const onesql::Row& row);
Bag BagOf(const std::vector<onesql::Row>& rows);
/// Folds a changelog: +1 per insert, -1 per undo row; zero counts erased.
Bag FoldChangelog(const std::vector<onesql::exec::Emission>& emissions);
/// Empty when equal; otherwise a short description of the first differences.
std::string DiffBags(const Bag& want, const Bag& got);

// -- Input --------------------------------------------------------------------

/// The NEXMark feed in its standard form: 1 person : 3 auctions : 46 bids,
/// perfect watermarks every 10 events on all three streams, arrival disorder
/// of up to 10 positions.
std::vector<onesql::FeedEvent> MakeNexmarkFeed(uint32_t seed, int num_events);

/// Splits a feed into consecutive calls of `size` events.
std::vector<std::vector<onesql::FeedEvent>> SplitCalls(
    const std::vector<onesql::FeedEvent>& feed, size_t size);

constexpr size_t kCallSize = 256;

// -- Workloads ----------------------------------------------------------------

RunResult RunNexmark(const Options& options);
RunResult RunServerDurable(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
