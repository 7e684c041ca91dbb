#include "explain_stats.h"

#include <cstdio>

#include "reference.h"
#include "server/json.h"

namespace perfbench {

using onesql::server::Json;

namespace {

double NumberAt(const Json* j, const std::string& key) {
  if (j == nullptr) return 0;
  const Json* v = j->Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : 0;
}

void Walk(const Json& node, ExplainStats* out) {
  const Json* op = node.Find("op");
  const Json* profile = node.Find("profile");
  if (op != nullptr && op->is_string() && profile != nullptr) {
    out->batch_p50[op->AsString()] =
        NumberAt(profile->Find("batch_size"), "p50");
    const Json* kernel = profile->Find("kernel");
    out->vectorized_rows += NumberAt(kernel, "vectorized_rows");
    out->scalar_rows += NumberAt(kernel, "scalar_rows");
  }
  const Json* inputs = node.Find("inputs");
  if (inputs == nullptr || !inputs->is_array()) return;
  for (const Json& child : inputs->items()) Walk(child, out);
}

}  // namespace

onesql::Result<ExplainStats> ReadExplainStats(
    onesql::Engine* engine, const onesql::ContinuousQuery* query) {
  ONESQL_ASSIGN_OR_RETURN(onesql::ExplainAnalysis analysis,
                          engine->ExplainAnalyze(query));
  ONESQL_ASSIGN_OR_RETURN(Json doc, Json::Parse(analysis.json));
  const Json* plan = doc.Find("plan");
  if (plan == nullptr) {
    return onesql::Status::Internal("EXPLAIN ANALYZE JSON has no plan");
  }
  ExplainStats stats;
  Walk(*plan, &stats);
  const Json* stalls = doc.Find("stalls");
  if (stalls != nullptr) {
    stats.shard_wait_us = NumberAt(stalls->Find("shard_wait_us"), "sum");
    stats.merge_us = NumberAt(stalls->Find("merge_us"), "sum");
  }
  const Json* eng = doc.Find("engine");
  if (eng != nullptr) {
    stats.wal_stall_us = NumberAt(eng->Find("feed_wal_stall_us"), "sum");
  }
  return stats;
}

void AddBatchMedians(const std::vector<const ExplainStats*>& explain,
                     RunResult* out) {
  const std::vector<std::vector<std::string>> labels = {
      {"source"},
      {"source"},
      {"join"},
      {"window", "join", "aggregate"},
      {"window", "window_2", "aggregate", "aggregate_2", "aggregate_3",
       "join"},
      {"window", "aggregate", "join"}};
  for (size_t i = 0; i < labels.size(); ++i) {
    for (const std::string& label : labels[i]) {
      double value = 0;
      if (i < explain.size() && explain[i] != nullptr) {
        auto it = explain[i]->batch_p50.find(label);
        if (it != explain[i]->batch_p50.end()) {
          value = it->second;
        } else {
          std::fprintf(stderr, "note: %s has no operator labelled %s\n",
                       QueryNames()[i].c_str(), label.c_str());
        }
      }
      out->Add("exec." + QueryNames()[i] + "." + label + ".batch_p50", "rows",
               value);
    }
  }
}

}  // namespace perfbench
