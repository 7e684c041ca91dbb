// Counts read back from the program's own registry through the public
// Engine::ExplainAnalyze JSON: per-operator batch-size medians under the
// program's operator labels, kernel-path rows, and stall sums.

#ifndef PERFBENCH_EXPLAIN_STATS_H_
#define PERFBENCH_EXPLAIN_STATS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/engine.h"

namespace perfbench {

struct ExplainStats {
  /// Operator label ("join", "window_2", ...) -> batch-size p50.
  std::map<std::string, double> batch_p50;
  double vectorized_rows = 0;
  double scalar_rows = 0;
  double shard_wait_us = 0;
  double merge_us = 0;
  double wal_stall_us = 0;
};

/// Fails when the engine has no profiling-enabled observability or the JSON
/// does not have the documented shape.
onesql::Result<ExplainStats> ReadExplainStats(
    onesql::Engine* engine, const onesql::ContinuousQuery* query);

/// Adds `exec.<q>.<op>.batch_p50` for every window, aggregate and join
/// operator of Q3, Q4, Q5 and Q7 and the sources of Q1 and Q2, under the
/// program's operator labels. `explain` is indexed like QueryNames(); a null
/// entry (a query the workload does not run) or a missing label reads 0.
void AddBatchMedians(const std::vector<const ExplainStats*>& explain,
                     RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_EXPLAIN_STATS_H_
