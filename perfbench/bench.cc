#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include <sched.h>

#include "nexmark/nexmark.h"

namespace perfbench {

using onesql::DataType;
using onesql::Row;
using onesql::Value;

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

bool RunResult::Count(const onesql::Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return true;
  ++failed;
  std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return false;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> PositionMedians(
    const std::vector<std::vector<double>>& rounds) {
  std::vector<double> medians;
  if (rounds.empty()) return medians;
  size_t calls = rounds[0].size();
  for (const auto& r : rounds) calls = std::min(calls, r.size());
  for (size_t i = 0; i < calls; ++i) {
    std::vector<double> at;
    for (const auto& r : rounds) at.push_back(r[i]);
    medians.push_back(Median(std::move(at)));
  }
  return medians;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

void SpanLog::Add(const char* name, const char* cat, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back(
      {name, cat,
       std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count()});
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",\n", s.name, s.cat, s.ts_us, s.dur_us);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

namespace {

void AppendCell(const Value& v, std::string* out) {
  char buf[64];
  if (v.is_null()) {
    out->append("N");
    return;
  }
  switch (v.type()) {
    case DataType::kBoolean:
      out->append(v.AsBool() ? "b1" : "b0");
      break;
    case DataType::kBigint:
      std::snprintf(buf, sizeof(buf), "i%" PRId64, v.AsInt64());
      out->append(buf);
      break;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "d%.17g", v.AsDouble());
      out->append(buf);
      break;
    case DataType::kVarchar:
      out->append("s");
      out->append(v.AsString());
      break;
    case DataType::kTimestamp:
      std::snprintf(buf, sizeof(buf), "t%" PRId64, v.AsTimestamp().millis());
      out->append(buf);
      break;
    case DataType::kInterval:
      std::snprintf(buf, sizeof(buf), "v%" PRId64, v.AsInterval().millis());
      out->append(buf);
      break;
    default:
      out->append("?");
      out->append(v.ToString());
      break;
  }
}

}  // namespace

std::string CanonicalRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back('|');
    AppendCell(row[i], &out);
  }
  return out;
}

Bag BagOf(const std::vector<Row>& rows) {
  Bag bag;
  for (const Row& r : rows) ++bag[CanonicalRow(r)];
  return bag;
}

Bag FoldChangelog(const std::vector<onesql::exec::Emission>& emissions) {
  Bag bag;
  for (const auto& e : emissions) {
    const std::string key = CanonicalRow(e.row);
    const int64_t n = (bag[key] += e.undo ? -1 : 1);
    if (n == 0) bag.erase(key);
  }
  return bag;
}

std::string DiffBags(const Bag& want, const Bag& got) {
  std::map<std::string, std::pair<int64_t, int64_t>> diff;
  for (const auto& [row, n] : want) {
    auto it = got.find(row);
    const int64_t g = it == got.end() ? 0 : it->second;
    if (g != n) diff[row] = {n, g};
  }
  for (const auto& [row, n] : got) {
    if (want.find(row) == want.end()) diff[row] = {0, n};
  }
  if (diff.empty()) return "";
  std::string out = std::to_string(diff.size()) + " rows differ (want/got):";
  int shown = 0;
  for (const auto& [row, counts] : diff) {
    if (++shown > 5) break;
    out += " [" + row + "] " + std::to_string(counts.first) + "/" +
           std::to_string(counts.second) + ";";
  }
  return out;
}

std::vector<onesql::FeedEvent> MakeNexmarkFeed(uint32_t seed, int num_events) {
  onesql::nexmark::GeneratorConfig config;
  config.seed = seed;
  config.num_events = num_events;
  config.max_disorder = 10;
  config.watermark_period = 10;
  config.watermark_strategy = onesql::nexmark::WatermarkStrategy::kPerfect;
  onesql::nexmark::Generator gen(config);
  return gen.Generate();
}

std::vector<std::vector<onesql::FeedEvent>> SplitCalls(
    const std::vector<onesql::FeedEvent>& feed, size_t size) {
  std::vector<std::vector<onesql::FeedEvent>> calls;
  for (size_t i = 0; i < feed.size(); i += size) {
    const size_t end = std::min(feed.size(), i + size);
    calls.emplace_back(feed.begin() + static_cast<std::ptrdiff_t>(i),
                       feed.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return calls;
}

}  // namespace perfbench
