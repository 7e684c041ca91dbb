// Independent reference results for the six NEXMark queries, computed from
// the generated feed with plain loops. Nothing here reuses the engine's
// operators, planner or test harness: the point is a second computation the
// engine's final snapshots can be compared against as multisets.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// The query names, in the order the workloads execute them.
inline const std::vector<std::string>& QueryNames() {
  static const std::vector<std::string> kNames = {"q1", "q2", "q3",
                                                  "q4", "q5", "q7"};
  return kNames;
}

/// The final result of each query (indexed like QueryNames()) over `feed`,
/// which must end with every stream's watermark at the maximum.
std::vector<Bag> ReferenceResults(const std::vector<onesql::FeedEvent>& feed);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
