// Workload nexmark-n1: the six NEXMark queries as standing queries on one
// in-memory engine at shards=1, fed by a single closed-loop thread in calls
// of 256 events, with table-rendering reads of Q2, Q3, Q4, Q5 and Q7 between
// the calls.
//
// A run repeats whole rounds until its time is up. A round is: set up a
// fresh engine (register, Execute the six queries), feed the whole generated
// feed, check every query's final result, checkpoint the engine and restore
// it into fresh engines. Every round does the same operations on the same
// input, so rounds are interchangeable samples.
//
// The same feed at shards=2 is not a timed workload of its own: its feed
// times swing by a quarter between runs of identical input on a shared
// four-core machine, following the host's load, which no bound can gate.
// Each run instead checks that a shards=2 engine writes the identical
// changelogs, and the traced run times the sharded runtime on twin engines.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "explain_stats.h"
#include "nexmark/nexmark.h"
#include "reference.h"

namespace perfbench {

using onesql::ContinuousQuery;
using onesql::Engine;
using onesql::ExecutionOptions;
using onesql::FeedEvent;
using onesql::Status;

namespace {

/// Generated events per round (the feed adds 3 watermarks per 10 events).
/// Rounds of this size repeat within a few percent of each other on a quiet
/// machine; rounds twice as long spread three times wider (the engine's
/// memory layout differs from round to round, and Q5's hash state grows with
/// the round), so a run takes many short rounds and reports medians.
constexpr int kRoundEvents = 20000;
constexpr int kQuickEvents = 3000;
/// Feed calls between two rounds of snapshot reads.
constexpr size_t kReadEvery = 16;
/// Shard count of the timed engine, and of the engines that cross-check it.
constexpr int kShards = 1;
constexpr int kCrossShards = 2;
/// Restores per round (each into a fresh engine).
constexpr int kRestoresPerRound = 3;
/// Extra set-ups after each round, discarded right away: one set-up takes
/// well under a millisecond, so its median needs many samples, and taking
/// them throughout the run makes it span the run like the other metrics.
constexpr int kExtraSetupsPerRound = 8;

struct QuerySpec {
  std::string name;
  std::string sql;
  bool read;  // table rendering read between feed calls
};

std::vector<QuerySpec> Queries() {
  using namespace onesql::nexmark;
  return {{"q1", Q1(), false}, {"q2", Q2(), true}, {"q3", Q3(), true},
          {"q4", Q4(), true},  {"q5", Q5(), true}, {"q7", Q7(), true}};
}

/// One engine with some of the queries running.
struct Instance {
  std::unique_ptr<Engine> engine;
  std::vector<ContinuousQuery*> queries;  // parallel to the chosen specs
  double execute_ms = 0;
  double setup_s = 0;
};

struct RunContext {
  const Options& options;
  int shards;
  std::vector<QuerySpec> specs;
  std::vector<std::vector<FeedEvent>> calls;
  size_t feed_events = 0;
  std::vector<Bag> reference;
  RunResult* result;
  SpanLog* spans;
};

/// Creates an engine with the NEXMark registrations and executes the specs
/// selected by `which` (indices into ctx.specs).
bool Build(RunContext& ctx, const std::vector<size_t>& which, bool observe,
           Instance* out) {
  const Clock::time_point t0 = Clock::now();
  out->engine = std::make_unique<Engine>();
  if (!ctx.result->Count(onesql::nexmark::RegisterNexmark(out->engine.get()),
                         "register")) {
    return false;
  }
  if (observe) {
    onesql::obs::ObsOptions obs;
    obs.metrics = true;
    obs.profiling = true;
    if (!ctx.result->Count(out->engine->EnableObservability(obs),
                           "observability")) {
      return false;
    }
  }
  ExecutionOptions exec;
  exec.shards = ctx.shards;
  out->execute_ms = 0;
  out->queries.clear();
  for (size_t i : which) {
    onesql::Result<ContinuousQuery*> q = nullptr;
    out->execute_ms += Timed(ctx.spans, "Engine::Execute", "engine", [&] {
      q = out->engine->Execute(ctx.specs[i].sql, exec);
    });
    if (!ctx.result->Count(q.status(), "execute " + ctx.specs[i].name)) {
      return false;
    }
    out->queries.push_back(q.value());
  }
  out->setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return true;
}

std::vector<size_t> AllQueries(const RunContext& ctx) {
  std::vector<size_t> all;
  for (size_t i = 0; i < ctx.specs.size(); ++i) all.push_back(i);
  return all;
}

/// Feeds every call into `inst`, returning the total Feed time in ms.
double FeedAll(RunContext& ctx, Instance& inst, const char* span) {
  double total = 0;
  for (const auto& call : ctx.calls) {
    Status st;
    total += Timed(ctx.spans, span, "engine",
                   [&] { st = inst.engine->Feed(call); });
    ctx.result->Count(st, "feed");
  }
  return total;
}

struct RoundStats {
  double setup_s = 0;
  double execute_ms = 0;
  std::vector<double> feed_ms;
  double feed_total_ms = 0;
  std::vector<double> snapshot_ms;
  std::vector<double> snapshot_total_ms;  // per query
  double checkpoint_ms = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<double> restore_s;
  uint64_t emissions = 0;
  std::vector<uint64_t> emissions_by_query;
  uint64_t history_events = 0;
  // Observed rounds only.
  std::vector<ExplainStats> explain;
  std::vector<double> peak_state_bytes;
};

/// Compares every query's final table rendering with the reference and
/// with its folded changelog.
void CheckFinal(RunContext& ctx, Instance& inst,
                std::vector<Bag>* snapshots) {
  snapshots->assign(ctx.specs.size(), Bag());
  for (size_t i = 0; i < ctx.specs.size(); ++i) {
    ContinuousQuery* q = inst.queries[i];
    auto rows = q->CurrentSnapshot();
    if (!ctx.result->Count(rows.status(), "final snapshot")) continue;
    (*snapshots)[i] = BagOf(rows.value());
    const std::string& name = ctx.specs[i].name;
    std::string diff = DiffBags(ctx.reference[i], (*snapshots)[i]);
    if (!diff.empty()) ctx.result->Mismatch(name + " vs reference: " + diff);
    diff = DiffBags((*snapshots)[i], FoldChangelog(q->Emissions()));
    if (!diff.empty()) {
      ctx.result->Mismatch(name + " folded changelog vs snapshot: " + diff);
    }
  }
}

/// Checkpoints `inst`, restores it kRestoresPerRound times into fresh
/// engines, and checks the last restore renders what `inst` rendered.
void CheckpointAndRestore(RunContext& ctx, Instance& inst,
                          const std::vector<Bag>& snapshots,
                          RoundStats* stats) {
  namespace fs = std::filesystem;
  const std::string dir = ctx.options.workdir + "/checkpoint";
  std::error_code ec;
  fs::remove_all(dir, ec);
  Status st;
  stats->checkpoint_ms = Timed(ctx.spans, "Engine::Checkpoint", "state",
                               [&] { st = inst.engine->Checkpoint(dir); });
  if (!ctx.result->Count(st, "checkpoint")) return;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    stats->checkpoint_bytes += entry.file_size(ec);
  }
  std::unique_ptr<Engine> restored;
  for (int r = 0; r < kRestoresPerRound; ++r) {
    restored.reset();
    const double ms = Timed(ctx.spans, "Engine::Restore", "state", [&] {
      restored = std::make_unique<Engine>();
      st = restored->Restore(dir);
    });
    if (!ctx.result->Count(st, "restore")) return;
    stats->restore_s.push_back(ms / 1000.0);
  }
  if (restored->num_queries() != ctx.specs.size()) {
    ctx.result->Mismatch("restore brought back " +
                         std::to_string(restored->num_queries()) + " queries");
    return;
  }
  for (size_t i = 0; i < ctx.specs.size(); ++i) {
    auto rows = restored->query(i)->CurrentSnapshot();
    if (!ctx.result->Count(rows.status(), "restored snapshot")) continue;
    const std::string diff = DiffBags(snapshots[i], BagOf(rows.value()));
    if (!diff.empty()) {
      ctx.result->Mismatch(ctx.specs[i].name + " after restore: " + diff);
    }
  }
}

/// One round over the full feed. Returns the engine so the caller can
/// compare it with another shard count.
std::unique_ptr<Engine> RunRound(RunContext& ctx, bool observe,
                                 RoundStats* stats) {
  Instance inst;
  if (!Build(ctx, AllQueries(ctx), observe, &inst)) return nullptr;
  stats->setup_s = inst.setup_s;
  stats->execute_ms = inst.execute_ms;
  stats->snapshot_total_ms.assign(ctx.specs.size(), 0);
  stats->peak_state_bytes.assign(ctx.specs.size(), 0);
  for (size_t c = 0; c < ctx.calls.size(); ++c) {
    Status st;
    const double ms = Timed(ctx.spans, "Engine::Feed", "engine",
                            [&] { st = inst.engine->Feed(ctx.calls[c]); });
    ctx.result->Count(st, "feed");
    stats->feed_ms.push_back(ms);
    stats->feed_total_ms += ms;
    if (c % kReadEvery != kReadEvery - 1) continue;
    // One read renders all five tables, as a dashboard refresh would; its
    // time is one snapshot_ms sample.
    double read_ms = 0;
    for (size_t i = 0; i < ctx.specs.size(); ++i) {
      if (!ctx.specs[i].read) continue;
      onesql::Result<std::vector<onesql::Row>> rows =
          std::vector<onesql::Row>();
      const double snap_ms =
          Timed(ctx.spans, "ContinuousQuery::CurrentSnapshot", "exec",
                [&] { rows = inst.queries[i]->CurrentSnapshot(); });
      ctx.result->Count(rows.status(), "snapshot");
      read_ms += snap_ms;
      stats->snapshot_total_ms[i] += snap_ms;
    }
    stats->snapshot_ms.push_back(read_ms);
    if (observe) {
      for (size_t i = 0; i < ctx.specs.size(); ++i) {
        stats->peak_state_bytes[i] =
            std::max(stats->peak_state_bytes[i],
                     static_cast<double>(inst.queries[i]->StateBytes()));
      }
    }
  }
  stats->history_events = inst.engine->history_size();
  for (ContinuousQuery* q : inst.queries) {
    stats->emissions_by_query.push_back(q->Emissions().size());
    stats->emissions += q->Emissions().size();
  }
  if (observe) {
    for (ContinuousQuery* q : inst.queries) {
      auto ex = ReadExplainStats(inst.engine.get(), q);
      if (!ex.ok()) {
        ctx.result->Mismatch("explain: " + ex.status().ToString());
        stats->explain.emplace_back();
      } else {
        stats->explain.push_back(ex.value());
      }
    }
  }
  std::vector<Bag> snapshots;
  CheckFinal(ctx, inst, &snapshots);
  CheckpointAndRestore(ctx, inst, snapshots, stats);
  return std::move(inst.engine);
}

/// The shard-invariance property: a shards=2 engine fed the same calls
/// writes changelogs identical, row for row, to those of `sequential`.
void CheckShardInvariance(RunContext& ctx, Engine* sequential) {
  RunContext cross = ctx;
  cross.shards = kCrossShards;
  Instance inst;
  if (!Build(cross, AllQueries(cross), false, &inst)) return;
  FeedAll(cross, inst, "Engine::Feed(shards=2)");
  for (size_t i = 0; i < ctx.specs.size(); ++i) {
    const auto& want = sequential->query(i)->Emissions();
    const auto& got = inst.queries[i]->Emissions();
    if (want.size() != got.size()) {
      ctx.result->Mismatch(ctx.specs[i].name + " changelog length " +
                           std::to_string(got.size()) + " at shards=" +
                           std::to_string(kCrossShards) + ", " +
                           std::to_string(want.size()) + " at shards=" +
                           std::to_string(kShards));
      continue;
    }
    for (size_t k = 0; k < want.size(); ++k) {
      const auto& a = want[k];
      const auto& b = got[k];
      if (a.row != b.row || a.undo != b.undo || a.ptime != b.ptime ||
          a.ver != b.ver) {
        ctx.result->Mismatch(ctx.specs[i].name + " changelog row " +
                             std::to_string(k) + " differs: " + a.ToString() +
                             " vs " + b.ToString());
        break;
      }
    }
  }
}

/// Twin engines for the traced run's attribution: the same registrations
/// and feed calls with no queries (ingest), each query alone, and the same
/// at shards=2. They run a few at a time between the rounds, in a fixed
/// cycle, so their timings span the same stretch of the run as the rounds'.
class Twins {
 public:
  explicit Twins(RunContext& ctx) : ctx_(ctx) {
    // Order fixes the indices the accessors below read.
    specs_.push_back({kShards, {}});
    for (size_t i = 0; i < ctx.specs.size(); ++i) {
      specs_.push_back({kShards, {i}});
    }
    specs_.push_back({kCrossShards, AllQueries(ctx)});
    for (size_t i = 0; i < ctx.specs.size(); ++i) {
      specs_.push_back({kCrossShards, {i}});
    }
    ms_.resize(specs_.size());
  }

  void RunNext() {
    const Spec& spec = specs_[next_];
    RunContext twin = ctx_;
    twin.shards = spec.shards;
    Instance inst;
    if (Build(twin, spec.which, false, &inst)) {
      ms_[next_].push_back(FeedAll(twin, inst, "twin:Engine::Feed"));
    }
    next_ = (next_ + 1) % specs_.size();
  }
  bool Complete() const {
    for (const auto& v : ms_) {
      if (v.empty()) return false;
    }
    return true;
  }

  double Ingest() const { return Median(ms_[0]); }
  double Alone(size_t query) const { return Median(ms_[1 + query]); }
  double ShardedAll() const { return Median(ms_[1 + ctx_.specs.size()]); }
  double ShardedAlone(size_t query) const {
    return Median(ms_[2 + ctx_.specs.size() + query]);
  }

 private:
  struct Spec {
    int shards;
    std::vector<size_t> which;
  };
  RunContext& ctx_;
  std::vector<Spec> specs_;
  std::vector<std::vector<double>> ms_;
  size_t next_ = 0;
};

/// Twins run after each plain round of a traced run.
constexpr int kTwinsPerRound = 3;

void AddEndToEnd(const std::vector<RoundStats>& rounds,
                 const std::vector<double>& setups, RunContext& ctx) {
  std::vector<std::vector<double>> feed_ms, snapshot_ms;
  std::vector<double> checkpoint_ms, restore_s, emissions;
  for (const RoundStats& r : rounds) {
    feed_ms.push_back(r.feed_ms);
    snapshot_ms.push_back(r.snapshot_ms);
    restore_s.insert(restore_s.end(), r.restore_s.begin(), r.restore_s.end());
    checkpoint_ms.push_back(r.checkpoint_ms);
    emissions.push_back(static_cast<double>(r.emissions));
  }
  // A typical round: every feed call at its median time across rounds.
  const std::vector<double> calls = PositionMedians(feed_ms);
  double round_s = 0;
  for (double ms : calls) round_s += ms / 1000.0;
  RunResult& out = *ctx.result;
  out.Add("events_per_s", "events/s",
          static_cast<double>(ctx.feed_events) / round_s);
  out.Add("feed_ms_p50", "ms", Quantile(calls, 0.5));
  out.Add("feed_ms_p90", "ms", Quantile(calls, 0.9));
  out.Add("snapshot_ms_p50", "ms", Median(PositionMedians(snapshot_ms)));
  out.Add("setup_s", "s", Median(setups));
  out.Add("peak_rss_mb", "MB", PeakRssMb());
  out.Add("deltas_per_s", "deltas/s", Median(emissions) / round_s);
  out.Add("checkpoint_ms_p50", "ms", Median(checkpoint_ms));
  out.Add("restore_s", "s", Median(restore_s));
}

}  // namespace

RunResult RunNexmark(const Options& options) {
  RunResult result;
  SpanLog spans(options.trace);
  RunContext ctx{options, kShards, Queries(), {}, 0, {}, &result, &spans};
  {
    const std::vector<FeedEvent> feed = MakeNexmarkFeed(
        options.seed, options.quick ? kQuickEvents : kRoundEvents);
    ctx.feed_events = feed.size();
    ctx.reference = ReferenceResults(feed);
    ctx.calls = SplitCalls(feed, kCallSize);
  }

  // Rounds until the time is up. The traced run alternates observed rounds
  // (observability on, for the registry's counts) with plain ones, which
  // give every timing and the tracing overhead.
  std::vector<double> setups;
  std::vector<RoundStats> plain, observed;
  Twins twins(ctx);
  std::unique_ptr<Engine> last;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    const bool observe = options.trace && round % 2 == 1;
    last.reset();
    RoundStats stats;
    last = RunRound(ctx, observe, &stats);
    if (last == nullptr) break;
    if (!observe) setups.push_back(stats.setup_s);
    for (int k = 0; k < kExtraSetupsPerRound; ++k) {
      Instance inst;
      if (Build(ctx, AllQueries(ctx), false, &inst)) {
        setups.push_back(inst.setup_s);
      }
    }
    (observe ? observed : plain).push_back(std::move(stats));
    if (options.trace && !observe) {
      for (int k = 0; k < kTwinsPerRound; ++k) twins.RunNext();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool enough =
        !options.trace || (!observed.empty() && twins.Complete());
    if (enough && (options.quick || elapsed >= options.seconds)) break;
  }
  std::fprintf(stderr, "%s: %zu plain and %zu observed rounds of %zu feed "
               "calls\n", options.workload.c_str(), plain.size(),
               observed.size(), ctx.calls.size());
  if (!options.trace) {
    AddEndToEnd(plain, setups, ctx);
  }
  if (last != nullptr) CheckShardInvariance(ctx, last.get());
  last.reset();
  if (!options.trace || plain.empty() || observed.empty()) return result;

  // Stall sums of the sharded runtime, from the registry of one observed
  // twin at shards=2.
  RunContext cross = ctx;
  cross.shards = kCrossShards;
  double shard_wait_us = 0, merge_us = 0;
  {
    Instance all;
    if (Build(cross, AllQueries(cross), true, &all)) {
      FeedAll(cross, all, "twin:Engine::Feed(shards=2, observed)");
      for (ContinuousQuery* q : all.queries) {
        auto ex = ReadExplainStats(all.engine.get(), q);
        if (!ex.ok()) {
          result.Mismatch("explain: " + ex.status().ToString());
          continue;
        }
        shard_wait_us += ex.value().shard_wait_us;
        merge_us += ex.value().merge_us;
      }
    }
  }

  std::vector<double> all_feed, obs_eps, plain_eps, execute, history;
  std::vector<std::vector<double>> snap_ms(ctx.specs.size());
  for (const RoundStats& r : plain) {
    all_feed.push_back(r.feed_total_ms);
    plain_eps.push_back(ctx.feed_events / r.feed_total_ms);
    execute.push_back(r.execute_ms);
    history.push_back(static_cast<double>(r.history_events));
    for (size_t i = 0; i < ctx.specs.size(); ++i) {
      snap_ms[i].push_back(r.snapshot_total_ms[i]);
    }
  }
  for (const RoundStats& r : observed) {
    obs_eps.push_back(ctx.feed_events / r.feed_total_ms);
  }
  const RoundStats& seen = observed.back();
  const double ingest_ms = twins.Ingest();
  const double feed_ms = Median(all_feed);
  double pushed = 0;
  result.Add("engine.ingest_ms", "ms", ingest_ms);
  result.Add("engine.execute_ms", "ms", Median(execute));
  result.Add("engine.history_events", "events", Median(history));
  for (size_t i = 0; i < ctx.specs.size(); ++i) {
    const std::string q = "exec." + ctx.specs[i].name;
    const double push = twins.Alone(i) - ingest_ms;
    pushed += push;
    result.Add(q + ".push_ms", "ms", push);
    result.Add(q + ".push_sharded_ms", "ms",
               twins.ShardedAlone(i) - ingest_ms);
    const ExplainStats& ex = seen.explain[i];
    result.Add(q + ".vectorized_rows", "rows", ex.vectorized_rows);
    result.Add(q + ".scalar_rows", "rows", ex.scalar_rows);
    result.Add(q + ".emissions", "rows",
               static_cast<double>(seen.emissions_by_query[i]));
    result.Add(q + ".state_mb", "MB", seen.peak_state_bytes[i] / 1e6);
    if (ctx.specs[i].read) {
      result.Add(q + ".snapshot_ms", "ms", Median(snap_ms[i]));
    }
  }
  result.Add("exec.sharded_feed_ms", "ms", twins.ShardedAll());
  result.Add("exec.shard_wait_ms", "ms", shard_wait_us / 1000.0);
  result.Add("exec.merge_ms", "ms", merge_us / 1000.0);
  std::vector<const ExplainStats*> explain;
  for (const ExplainStats& ex : seen.explain) explain.push_back(&ex);
  AddBatchMedians(explain, &result);
  result.Add("state.wal_stall_ms", "ms", 0);
  result.Add("state.checkpoint_bytes", "bytes",
             static_cast<double>(seen.checkpoint_bytes));
  result.Add("state.wal_bytes", "bytes", 0);
  result.Add("state.replayed_events", "events", 0);
  for (const char* name :
       {"server.feed_cmd_ms", "server.decode_ms", "server.encode_ms",
        "server.drain_ms", "server.submit_ms", "server.snapshot_cmd_ms"}) {
    result.Add(name, "ms", 0);
  }
  result.Add("server.pushed_lines", "lines", 0);
  result.Add("server.pushed_bytes", "bytes", 0);
  result.Add("ledger.residual_pct", "%",
             100.0 * (feed_ms - ingest_ms - pushed) / feed_ms);
  result.Add("trace.overhead_pct", "%",
             100.0 * (1.0 - Median(obs_eps) / Median(plain_eps)));
  if (!spans.WriteChromeJson(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  return result;
}

}  // namespace perfbench
