// Workload server-durable: one in-process ServerCore with a durable
// directory (group-commit write-ahead log) and default_shards=1. Tenant
// sessions submit alias-renamed variants of NEXMark Q4 and Q7 with
// "share":true and subscribe, so they ride two shared operator trees. One
// feeder session sends the NEXMark feed as `feed` commands of 256 events;
// after each one every tenant's outbound queue is drained. Snapshots and
// checkpoints are issued at fixed feed counts. At the end of a round the
// server is destroyed and recreated from its directory (checkpoint restore
// plus write-ahead-log suffix replay).
//
// As in the NEXMark workloads, a run repeats identical whole rounds until
// its time is up.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "explain_stats.h"
#include "nexmark/nexmark.h"
#include "reference.h"
#include "server/json.h"
#include "server/server_core.h"
#include "server/wire.h"

namespace perfbench {

using onesql::Engine;
using onesql::FeedEvent;
using onesql::Status;
using onesql::server::Json;
using onesql::server::ServerCore;
using onesql::server::ServerOptions;

namespace {

/// Generated events per round.
constexpr int kRoundEvents = 20000;
constexpr int kQuickEvents = 3000;
/// Tenant sessions (half on Q4 variants, half on Q7 variants); with the
/// feeder this stays within the server's default session limit.
constexpr int kTenants = 32;
/// Feed commands between snapshot commands, and between checkpoints (the
/// quick mode's short feed uses the smaller cadences).
constexpr size_t kSnapshotEvery = 16;
constexpr size_t kCheckpointEvery = 32;
constexpr size_t kQuickSnapshotEvery = 4;
constexpr size_t kQuickCheckpointEvery = 8;
constexpr int kRestoresPerRound = 3;
/// Extra set-ups after each round (discarded right away), so the set-up
/// median spans the whole run like the other metrics.
constexpr int kExtraSetupsPerRound = 2;

/// Index of Q4 and Q7 in QueryNames() / the reference results.
constexpr size_t kQ4 = 3;
constexpr size_t kQ7 = 5;

/// Alias-renamed variants: tenant 0 and 1 submit the repository's own Q4 and
/// Q7 text; the others rename every alias, which the plan fingerprint
/// erases, so all of them share two operator trees.
std::string TenantSql(int tenant) {
  if (tenant < 2) {
    return tenant == 0 ? onesql::nexmark::Q4() : onesql::nexmark::Q7();
  }
  const std::string n = std::to_string(tenant);
  if (tenant % 2 == 0) {
    const std::string b = "b" + n, a = "a" + n;
    return "SELECT " + b + ".wend, " + a + ".category, AVG(" + b +
           ".price) AS avg_price FROM Tumble(data => TABLE(Bid), "
           "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) " +
           b + " JOIN Auction " + a + " ON " + b + ".auction = " + a +
           ".id GROUP BY " + b + ".wend, " + a + ".category";
  }
  const std::string m = "M" + n, t = "t" + n, b = "B" + n;
  return "SELECT " + m + ".wstart, " + m + ".wend, " + b + ".bidtime, " + b +
         ".price, " + b + ".auction FROM Bid " + b + ", (SELECT MAX(" + t +
         ".price) maxPrice, " + t + ".wstart wstart, " + t +
         ".wend wend FROM Tumble(data => TABLE(Bid), timecol => "
         "DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) " + t +
         " GROUP BY " + t + ".wend) " + m + " WHERE " + b + ".price = " + m +
         ".maxPrice AND " + b + ".bidtime >= " + m +
         ".wend - INTERVAL '10' MINUTE AND " + b + ".bidtime < " + m +
         ".wend";
}

std::string Command(const std::string& cmd,
                    std::vector<std::pair<std::string, Json>> fields) {
  Json j = Json::Object();
  j.Set("cmd", Json::Str(cmd));
  for (auto& [k, v] : fields) j.Set(k, std::move(v));
  return j.Serialize();
}

/// What one tenant has received: its folded deltas (row JSON -> count) and a
/// running hash of its (seq, payload) sequence.
struct Tenant {
  uint64_t session = 0;
  std::string plan;  // "p<id>"
  std::string snapshot_cmd;
  Bag folded;
  uint64_t hash = 1469598103934665603ull;
  uint64_t lines = 0;
};

struct RunContext {
  const Options& options;
  std::vector<std::string> register_lines;
  std::vector<std::string> feed_lines;
  std::vector<std::vector<FeedEvent>> calls;
  size_t feed_events = 0;
  std::vector<Bag> reference;
  RunResult* result;
  SpanLog* spans;
};

struct RoundStats {
  double setup_s = 0;
  double submit_ms = 0;
  std::vector<double> feed_ms;  // feed command plus draining every tenant
  double feed_total_ms = 0;
  double feed_cmd_ms = 0;
  double drain_ms = 0;
  std::vector<double> snapshot_ms;
  double snapshot_total_ms = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> restore_s;
  uint64_t pushed_lines = 0;
  uint64_t pushed_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t replayed_events = 0;
  // Traced runs only.
  double encode_ms = 0;
  uint64_t history_events = 0;
  // Observed rounds only.
  std::vector<ExplainStats> explain;  // Q4, Q7
  std::vector<uint64_t> emissions;    // Q4, Q7
  std::vector<double> state_bytes;    // Q4, Q7 (end of feed)
};

bool ResponseOk(RunContext& ctx, const std::string& response,
                const std::string& what, Json* parsed = nullptr) {
  auto j = Json::Parse(response);
  Status st = j.status();
  if (st.ok()) {
    const Json* ok = j.value().Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
      st = Status::Internal(response);
    }
  }
  if (!ctx.result->Count(st, what)) return false;
  if (parsed != nullptr) *parsed = std::move(j).value();
  return true;
}

/// Rows of a snapshot response, each re-serialized, as a bag.
Bag SnapshotBag(const Json& response) {
  Bag bag;
  const Json* rows = response.Find("rows");
  if (rows == nullptr) return bag;
  for (const Json& r : rows->items()) ++bag[r.Serialize()];
  return bag;
}

/// Folds one pushed delta line into the tenant's record.
void Absorb(Tenant* t, const std::string& line) {
  ++t->lines;
  const size_t row_at = line.find("\"row\":");
  const size_t undo_at = line.find(",\"undo\":", row_at);
  if (row_at == std::string::npos || undo_at == std::string::npos) {
    t->folded["<malformed " + line + ">"] += 1;
    return;
  }
  const size_t seq_at = line.find("\"seq\":");
  for (size_t i = seq_at; i < line.size(); ++i) {
    t->hash = (t->hash ^ static_cast<unsigned char>(line[i])) *
              1099511628211ull;
  }
  const std::string row = line.substr(row_at + 6, undo_at - row_at - 6);
  const bool undo = line.compare(undo_at + 8, 4, "true") == 0;
  const int64_t n = (t->folded[row] += undo ? -1 : 1);
  if (n == 0) t->folded.erase(row);
}

/// Re-renders folded row JSON through the parser so it compares with the
/// re-serialized snapshot rows.
Bag Normalize(const Bag& folded) {
  Bag out;
  for (const auto& [row, n] : folded) {
    auto j = Json::Parse(row);
    out[j.ok() ? j.value().Serialize() : row] += n;
  }
  return out;
}

struct Server {
  std::unique_ptr<ServerCore> core;
  uint64_t feeder = 0;
  std::vector<Tenant> tenants;
};

ServerOptions MakeOptions(const std::string& dir, bool observe) {
  ServerOptions o;
  o.durable_dir = dir;
  o.default_shards = 1;
  o.metrics = observe;
  o.profiling = observe;
  return o;
}

/// Creates the server, registers the NEXMark relations, and has every
/// tenant submit and subscribe. Returns false on a failed operation.
bool Setup(RunContext& ctx, const std::string& dir, bool observe,
           Server* s, RoundStats* stats) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(dir, ec);
  const Clock::time_point t0 = Clock::now();
  auto created = ServerCore::Create(MakeOptions(dir, observe));
  if (!ctx.result->Count(created.status(), "server create")) return false;
  s->core = std::move(created).value();
  auto feeder = s->core->OpenSession();
  if (!ctx.result->Count(feeder.status(), "open session")) return false;
  s->feeder = feeder.value();
  for (const std::string& line : ctx.register_lines) {
    if (!ResponseOk(ctx, s->core->HandleLine(s->feeder, line), "register")) {
      return false;
    }
  }
  s->tenants.assign(kTenants, Tenant());
  for (int i = 0; i < kTenants; ++i) {
    Tenant& t = s->tenants[i];
    auto session = s->core->OpenSession();
    if (!ctx.result->Count(session.status(), "open session")) return false;
    t.session = session.value();
    const std::string submit = Command(
        "submit",
        {{"sql", Json::Str(TenantSql(i))}, {"share", Json::Bool(true)}});
    std::string response;
    stats->submit_ms += Timed(ctx.spans, "HandleLine:submit", "server", [&] {
      response = s->core->HandleLine(t.session, submit);
    });
    Json parsed;
    if (!ResponseOk(ctx, response, "submit", &parsed)) return false;
    t.plan = parsed.Find("query")->AsString();
    t.snapshot_cmd = Command("snapshot", {{"query", Json::Str(t.plan)}});
    const std::string subscribe =
        Command("subscribe", {{"query", Json::Str(t.plan)}});
    stats->submit_ms += Timed(ctx.spans, "HandleLine:subscribe", "server", [&] {
      response = s->core->HandleLine(t.session, subscribe);
    });
    if (!ResponseOk(ctx, response, "subscribe")) return false;
  }
  stats->setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (s->core->num_plans() != 2) {
    ctx.result->Mismatch(std::to_string(kTenants) + " tenants run " +
                         std::to_string(s->core->num_plans()) +
                         " plans; alias-renamed variants should share 2");
  }
  return true;
}

/// Snapshot of each tenant's plan through tenants 0 (Q4) and 1 (Q7). The
/// two commands together are one read, one snapshot_ms sample: timed apart,
/// the small Q7 table and the larger Q4 one would make two clusters of
/// equal size with the median between them.
bool PlanSnapshots(RunContext& ctx, Server& s, std::vector<Bag>* out,
                   RoundStats* stats) {
  out->assign(2, Bag());
  std::string responses[2];
  double read_ms = 0;
  for (size_t k = 0; k < 2; ++k) {
    read_ms += Timed(ctx.spans, "HandleLine:snapshot", "server", [&] {
      responses[k] = s.core->HandleLine(s.tenants[k].session,
                                        s.tenants[k].snapshot_cmd);
    });
  }
  if (stats != nullptr) {
    stats->snapshot_ms.push_back(read_ms);
    stats->snapshot_total_ms += read_ms;
  }
  for (size_t k = 0; k < 2; ++k) {
    Json parsed;
    if (!ResponseOk(ctx, responses[k], "snapshot", &parsed)) return false;
    (*out)[k] = SnapshotBag(parsed);
  }
  return true;
}

/// Engine-level reference check of the server's two standing queries.
void CheckReference(RunContext& ctx, Engine* engine, const char* when) {
  if (engine->num_queries() != 2) {
    ctx.result->Mismatch(std::string(when) + ": engine runs " +
                         std::to_string(engine->num_queries()) + " queries");
    return;
  }
  const size_t which[2] = {kQ4, kQ7};
  for (size_t k = 0; k < 2; ++k) {
    auto rows = engine->query(k)->CurrentSnapshot();
    if (!ctx.result->Count(rows.status(), "engine snapshot")) continue;
    const std::string diff =
        DiffBags(ctx.reference[which[k]], BagOf(rows.value()));
    if (!diff.empty()) {
      ctx.result->Mismatch(std::string(when) + " " + QueryNames()[which[k]] +
                           " vs reference: " + diff);
    }
  }
}

uint64_t FileBytes(const std::string& dir, const std::string& suffix) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

bool RunRound(RunContext& ctx, bool observe, RoundStats* stats) {
  const std::string dir = ctx.options.workdir + "/server";
  Server s;
  if (!Setup(ctx, dir, observe, &s, stats)) return false;

  const size_t snapshot_every =
      ctx.options.quick ? kQuickSnapshotEvery : kSnapshotEvery;
  const size_t checkpoint_every =
      ctx.options.quick ? kQuickCheckpointEvery : kCheckpointEvery;
  size_t events_since_checkpoint = 0;
  std::vector<Bag> plan_bags;
  for (size_t c = 0; c < ctx.feed_lines.size(); ++c) {
    std::string response;
    std::vector<std::vector<std::shared_ptr<const std::string>>> drained(
        s.tenants.size());
    const Clock::time_point t0 = Clock::now();
    stats->feed_cmd_ms += Timed(ctx.spans, "HandleLine:feed", "server", [&] {
      response = s.core->HandleLine(s.feeder, ctx.feed_lines[c]);
    });
    stats->drain_ms += Timed(ctx.spans, "DrainOutbound", "server", [&] {
      for (size_t i = 0; i < s.tenants.size(); ++i) {
        drained[i] = s.core->DrainOutbound(s.tenants[i].session);
      }
    });
    const double ms = MillisBetween(t0, Clock::now());
    stats->feed_ms.push_back(ms);
    stats->feed_total_ms += ms;
    ResponseOk(ctx, response, "feed");
    events_since_checkpoint += ctx.calls[c].size();
    for (size_t i = 0; i < s.tenants.size(); ++i) {
      for (const auto& line : drained[i]) {
        Absorb(&s.tenants[i], *line);
        ++stats->pushed_lines;
        stats->pushed_bytes += line->size() + 1;
      }
    }
    if (c % snapshot_every == snapshot_every - 1) {
      PlanSnapshots(ctx, s, &plan_bags, stats);
    }
    if (c % checkpoint_every == checkpoint_every - 1 &&
        c + 1 < ctx.feed_lines.size()) {
      const std::string cmd = Command("checkpoint", {});
      stats->checkpoint_ms.push_back(
          Timed(ctx.spans, "HandleLine:checkpoint", "state", [&] {
            response = s.core->HandleLine(s.feeder, cmd);
          }));
      if (ResponseOk(ctx, response, "checkpoint")) events_since_checkpoint = 0;
    }
  }
  if (observe) {
    Engine* engine = s.core->engine();
    for (size_t k = 0; k < engine->num_queries() && k < 2; ++k) {
      auto ex = ReadExplainStats(engine, engine->query(k));
      if (!ex.ok()) ctx.result->Mismatch("explain: " + ex.status().ToString());
      stats->explain.push_back(ex.ok() ? ex.value() : ExplainStats());
      stats->emissions.push_back(engine->query(k)->Emissions().size());
      stats->state_bytes.push_back(
          static_cast<double>(engine->query(k)->StateBytes()));
    }
  }

  // Subscribers: folded deltas equal the plan's last snapshot, and every
  // subscriber of one plan saw the identical payload sequence.
  if (!PlanSnapshots(ctx, s, &plan_bags, stats)) return true;
  for (size_t i = 0; i < s.tenants.size(); ++i) {
    const Tenant& t = s.tenants[i];
    const Tenant& first = s.tenants[i % 2];
    const std::string diff = DiffBags(plan_bags[i % 2], Normalize(t.folded));
    if (!diff.empty()) {
      ctx.result->Mismatch("tenant " + std::to_string(i) +
                           " folded deltas vs snapshot: " + diff);
    }
    if (t.hash != first.hash || t.lines != first.lines) {
      ctx.result->Mismatch("tenant " + std::to_string(i) +
                           " received a different delta sequence than tenant " +
                           std::to_string(i % 2));
    }
  }
  CheckReference(ctx, s.core->engine(), "before restart");
  if (ctx.options.trace) {
    // Payload encoding of every emission of both plans, timed on its own.
    Engine* engine = s.core->engine();
    stats->history_events = engine->history_size();
    for (size_t k = 0; k < engine->num_queries(); ++k) {
      const auto& emissions = engine->query(k)->Emissions();
      stats->encode_ms += Timed(ctx.spans, "EncodeDeltaPayload", "server", [&] {
        for (const auto& e : emissions) {
          onesql::server::EncodeDeltaPayload(e);
        }
      });
    }
  }
  stats->wal_bytes = FileBytes(dir, ".wal");
  stats->checkpoint_bytes = FileBytes(dir, ".osql");
  stats->replayed_events = events_since_checkpoint;

  // Restart: destroy the server and recreate it from its directory.
  s.tenants.clear();
  s.core.reset();
  std::unique_ptr<ServerCore> restored;
  for (int r = 0; r < kRestoresPerRound; ++r) {
    restored.reset();
    onesql::Status st;
    const double ms = Timed(ctx.spans, "ServerCore::Create(restore)", "state",
                            [&] {
                              auto c = ServerCore::Create(
                                  MakeOptions(dir, false));
                              st = c.status();
                              if (c.ok()) restored = std::move(c).value();
                            });
    if (!ctx.result->Count(st, "restore")) return true;
    stats->restore_s.push_back(ms / 1000.0);
  }
  if (restored->engine()->feed_seq() != ctx.feed_events) {
    ctx.result->Mismatch("restored feed position " +
                         std::to_string(restored->engine()->feed_seq()) +
                         " != " + std::to_string(ctx.feed_events));
  }
  CheckReference(ctx, restored->engine(), "after restart");
  // Re-attach through the wire and compare the rendered snapshots.
  s.core = std::move(restored);
  s.tenants.assign(2, Tenant());
  for (int i = 0; i < 2; ++i) {
    auto session = s.core->OpenSession();
    if (!ctx.result->Count(session.status(), "open session")) return true;
    s.tenants[i].session = session.value();
    std::string response = s.core->HandleLine(
        session.value(),
        Command("submit", {{"sql", Json::Str(TenantSql(i))},
                           {"share", Json::Bool(true)}}));
    Json parsed;
    if (!ResponseOk(ctx, response, "submit", &parsed)) return true;
    const Json* shared = parsed.Find("shared");
    if (shared == nullptr || !shared->AsBool()) {
      ctx.result->Mismatch("resubmit after restart did not attach to the "
                           "restored plan");
    }
    s.tenants[i].snapshot_cmd = Command(
        "snapshot", {{"query", Json::Str(parsed.Find("query")->AsString())}});
  }
  std::vector<Bag> after;
  if (!PlanSnapshots(ctx, s, &after, nullptr)) return true;
  for (size_t k = 0; k < 2; ++k) {
    const std::string diff = DiffBags(plan_bags[k], after[k]);
    if (!diff.empty()) {
      ctx.result->Mismatch(QueryNames()[k == 0 ? kQ4 : kQ7] +
                           " snapshot after restart: " + diff);
    }
  }
  return true;
}

/// Feed time of an in-memory twin engine with the NEXMark registrations and
/// the given queries (Q4 = 0, Q7 = 1); also reports their Execute time.
double TwinFeedMs(RunContext& ctx, const std::vector<int>& tenants,
                  double* execute_ms) {
  Engine engine;
  if (!ctx.result->Count(onesql::nexmark::RegisterNexmark(&engine),
                         "register")) {
    return 0;
  }
  onesql::ExecutionOptions exec;
  exec.shards = 1;
  for (int t : tenants) {
    onesql::Result<onesql::ContinuousQuery*> q = nullptr;
    const double ms = Timed(ctx.spans, "twin:Engine::Execute", "engine",
                            [&] { q = engine.Execute(TenantSql(t), exec); });
    if (execute_ms != nullptr) *execute_ms += ms;
    if (!ctx.result->Count(q.status(), "execute")) return 0;
  }
  double total = 0;
  for (const auto& call : ctx.calls) {
    Status st;
    total += Timed(ctx.spans, "twin:Engine::Feed", "engine",
                   [&] { st = engine.Feed(call); });
    ctx.result->Count(st, "feed");
  }
  return total;
}

/// Json::Parse plus DecodeFeedEvent over the round's feed lines, in ms.
double DecodeMs(RunContext& ctx) {
  Engine engine;
  ctx.result->Count(onesql::nexmark::RegisterNexmark(&engine), "register");
  return Timed(ctx.spans, "Json::Parse+DecodeFeedEvent", "server", [&] {
    for (const std::string& line : ctx.feed_lines) {
      auto parsed = Json::Parse(line);
      if (!parsed.ok()) {
        ctx.result->Mismatch("feed line does not parse");
        continue;
      }
      for (const Json& e : parsed.value().Find("events")->items()) {
        if (!onesql::server::DecodeFeedEvent(e, engine.catalog()).ok()) {
          ctx.result->Mismatch("feed event does not decode");
        }
      }
    }
  });
}

/// The traced run's twin measurements — an in-memory engine with no
/// queries, Q4 alone and Q7 alone, and the decode pass — run a few at a time
/// between the rounds, in a fixed cycle, so their timings span the same
/// stretch of the run as the rounds'.
struct Twins {
  std::vector<double> ingest, q4, q7, execute, decode;
  int next = 0;

  void RunNext(RunContext& ctx) {
    switch (next) {
      case 0:
        ingest.push_back(TwinFeedMs(ctx, {}, nullptr));
        break;
      case 1: {
        double exec_ms = 0;
        q4.push_back(TwinFeedMs(ctx, {0}, &exec_ms));
        q7.push_back(TwinFeedMs(ctx, {1}, &exec_ms));
        execute.push_back(exec_ms);
        break;
      }
      default:
        decode.push_back(DecodeMs(ctx));
        break;
    }
    next = (next + 1) % 3;
  }
  bool Complete() const {
    return !ingest.empty() && !q4.empty() && !decode.empty();
  }
};

/// Twins run after each plain round of a traced run.
constexpr int kTwinsPerRound = 2;

void AddPerLayer(RunContext& ctx, const Twins& twins,
                 const std::vector<RoundStats>& plain,
                 const std::vector<RoundStats>& observed) {
  RunResult& out = *ctx.result;
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const RoundStats& r : plain) v.push_back(field(r));
    return Median(v);
  };
  const double ingest_ms = Median(twins.ingest);
  const double push_q4 = Median(twins.q4) - ingest_ms;
  const double push_q7 = Median(twins.q7) - ingest_ms;
  const RoundStats& seen = observed.back();
  const double feed_cmd_ms = median_of([](const RoundStats& r) {
    return r.feed_cmd_ms;
  });
  const double drain_ms = median_of([](const RoundStats& r) {
    return r.drain_ms;
  });
  const double encode_ms = median_of([](const RoundStats& r) {
    return r.encode_ms;
  });
  const double decode_ms = Median(twins.decode);
  const double wal_stall_ms =
      seen.explain.empty() ? 0 : seen.explain[0].wal_stall_us / 1000.0;

  out.Add("engine.ingest_ms", "ms", ingest_ms);
  out.Add("engine.execute_ms", "ms", Median(twins.execute));
  out.Add("engine.history_events", "events", median_of([](const RoundStats& r) {
            return static_cast<double>(r.history_events);
          }));
  double shard_wait_us = 0, merge_us = 0;
  for (size_t i = 0; i < QueryNames().size(); ++i) {
    const std::string q = "exec." + QueryNames()[i];
    const int k = i == kQ4 ? 0 : i == kQ7 ? 1 : -1;
    const bool ran = k >= 0 && static_cast<size_t>(k) < seen.explain.size();
    const ExplainStats ex = ran ? seen.explain[k] : ExplainStats();
    out.Add(q + ".push_ms", "ms", k == 0 ? push_q4 : k == 1 ? push_q7 : 0);
    out.Add(q + ".push_sharded_ms", "ms", 0);
    out.Add(q + ".vectorized_rows", "rows", ex.vectorized_rows);
    out.Add(q + ".scalar_rows", "rows", ex.scalar_rows);
    out.Add(q + ".emissions", "rows",
            ran ? static_cast<double>(seen.emissions[k]) : 0);
    out.Add(q + ".state_mb", "MB", ran ? seen.state_bytes[k] / 1e6 : 0);
    if (i != 0) out.Add(q + ".snapshot_ms", "ms", 0);
    shard_wait_us += ex.shard_wait_us;
    merge_us += ex.merge_us;
  }
  out.Add("exec.sharded_feed_ms", "ms", 0);
  out.Add("exec.shard_wait_ms", "ms", shard_wait_us / 1000.0);
  out.Add("exec.merge_ms", "ms", merge_us / 1000.0);
  // The server runs only Q4 and Q7; the other queries' operators read 0.
  std::vector<const ExplainStats*> explain(QueryNames().size(), nullptr);
  if (seen.explain.size() == 2) {
    explain[kQ4] = &seen.explain[0];
    explain[kQ7] = &seen.explain[1];
  }
  AddBatchMedians(explain, &out);
  out.Add("state.wal_stall_ms", "ms", wal_stall_ms);
  out.Add("state.checkpoint_bytes", "bytes", median_of([](const RoundStats& r) {
            return static_cast<double>(r.checkpoint_bytes);
          }));
  out.Add("state.wal_bytes", "bytes", median_of([](const RoundStats& r) {
            return static_cast<double>(r.wal_bytes);
          }));
  out.Add("state.replayed_events", "events", median_of([](const RoundStats& r) {
            return static_cast<double>(r.replayed_events);
          }));
  out.Add("server.feed_cmd_ms", "ms", feed_cmd_ms);
  out.Add("server.decode_ms", "ms", decode_ms);
  out.Add("server.encode_ms", "ms", encode_ms);
  out.Add("server.drain_ms", "ms", drain_ms);
  out.Add("server.submit_ms", "ms", median_of([](const RoundStats& r) {
            return r.submit_ms;
          }));
  out.Add("server.snapshot_cmd_ms", "ms", median_of([](const RoundStats& r) {
            return r.snapshot_total_ms;
          }));
  out.Add("server.pushed_lines", "lines", median_of([](const RoundStats& r) {
            return static_cast<double>(r.pushed_lines);
          }));
  out.Add("server.pushed_bytes", "bytes", median_of([](const RoundStats& r) {
            return static_cast<double>(r.pushed_bytes);
          }));
  // The feed command plus draining, less what the twins and the registry
  // attribute to its parts.
  const double whole = feed_cmd_ms + drain_ms;
  const double parts = decode_ms + ingest_ms + push_q4 + push_q7 +
                       wal_stall_ms + encode_ms + drain_ms;
  out.Add("ledger.residual_pct", "%", 100.0 * (whole - parts) / whole);
  std::vector<double> plain_eps, obs_eps;
  for (const RoundStats& r : plain) {
    plain_eps.push_back(ctx.feed_events / r.feed_total_ms);
  }
  for (const RoundStats& r : observed) {
    obs_eps.push_back(ctx.feed_events / r.feed_total_ms);
  }
  out.Add("trace.overhead_pct", "%",
          100.0 * (1.0 - Median(obs_eps) / Median(plain_eps)));
}

}  // namespace

RunResult RunServerDurable(const Options& options) {
  // The feeding thread and the write-ahead log's appender thread hand every
  // feed call back and forth. Spread over several CPUs, each hand-off waits
  // on a cross-CPU wake-up and the log splits a call into a varying number
  // of fsync groups, which follows the host's load from run to run; on one
  // CPU both are steady.
  const int cpu = PinToOneCpu();
  std::fprintf(stderr, "%s: pinned to cpu %d\n", options.workload.c_str(),
               cpu);
  RunResult result;
  SpanLog spans(options.trace);
  RunContext ctx{options, {}, {}, {}, 0, {}, &result, &spans};
  {
    const std::vector<FeedEvent> feed = MakeNexmarkFeed(
        options.seed, options.quick ? kQuickEvents : kRoundEvents);
    ctx.feed_events = feed.size();
    ctx.reference = ReferenceResults(feed);
    ctx.calls = SplitCalls(feed, kCallSize);
  }
  // Input generation: the wire lines, built once before any timing.
  using onesql::server::EncodeFeedEvent;
  using onesql::server::EncodeRow;
  using onesql::server::EncodeSchema;
  namespace nx = onesql::nexmark;
  for (const auto& [name, schema] :
       {std::pair<std::string, onesql::Schema>{"Person", nx::PersonSchema()},
        {"Auction", nx::AuctionSchema()},
        {"Bid", nx::BidSchema()}}) {
    ctx.register_lines.push_back(Command(
        "register_stream",
        {{"name", Json::Str(name)}, {"schema", EncodeSchema(schema)}}));
  }
  {
    Json rows = Json::Array();
    for (const onesql::Row& r :
         nx::Generator(nx::GeneratorConfig{}).CategoryRows()) {
      rows.Add(EncodeRow(r));
    }
    ctx.register_lines.push_back(Command(
        "register_table", {{"name", Json::Str("Category")},
                           {"schema", EncodeSchema(nx::CategorySchema())},
                           {"rows", std::move(rows)}}));
  }
  for (const auto& call : ctx.calls) {
    Json events = Json::Array();
    for (const FeedEvent& e : call) events.Add(EncodeFeedEvent(e));
    ctx.feed_lines.push_back(Command("feed", {{"events", std::move(events)}}));
  }

  std::vector<RoundStats> plain, observed;
  std::vector<double> setups;
  Twins twins;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    const bool observe = options.trace && round % 2 == 1;
    RoundStats stats;
    if (!RunRound(ctx, observe, &stats)) break;
    if (!observe) setups.push_back(stats.setup_s);
    for (int k = 0; k < kExtraSetupsPerRound; ++k) {
      RoundStats scratch;
      Server s;
      if (Setup(ctx, ctx.options.workdir + "/setup", false, &s, &scratch)) {
        setups.push_back(scratch.setup_s);
      }
    }
    (observe ? observed : plain).push_back(std::move(stats));
    if (options.trace && !observe) {
      for (int k = 0; k < kTwinsPerRound; ++k) twins.RunNext(ctx);
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
    std::vector<std::vector<double>> feed_ms, snapshot_ms;
    std::vector<double> checkpoint_ms, restore_s, pushed_lines;
    for (const RoundStats& r : plain) {
      feed_ms.push_back(r.feed_ms);
      snapshot_ms.push_back(r.snapshot_ms);
      checkpoint_ms.insert(checkpoint_ms.end(), r.checkpoint_ms.begin(),
                           r.checkpoint_ms.end());
      restore_s.insert(restore_s.end(), r.restore_s.begin(),
                       r.restore_s.end());
      pushed_lines.push_back(static_cast<double>(r.pushed_lines));
    }
    // A typical round: every feed call at its median time across rounds.
    const std::vector<double> calls = PositionMedians(feed_ms);
    double round_s = 0;
    for (double ms : calls) round_s += ms / 1000.0;
    result.Add("events_per_s", "events/s",
               static_cast<double>(ctx.feed_events) / round_s);
    result.Add("feed_ms_p50", "ms", Quantile(calls, 0.5));
    result.Add("feed_ms_p90", "ms", Quantile(calls, 0.9));
    result.Add("snapshot_ms_p50", "ms", Median(PositionMedians(snapshot_ms)));
    result.Add("setup_s", "s", Median(setups));
    result.Add("peak_rss_mb", "MB", PeakRssMb());
    result.Add("deltas_per_s", "deltas/s", Median(pushed_lines) / round_s);
    result.Add("checkpoint_ms_p50", "ms", Median(checkpoint_ms));
    result.Add("restore_s", "s", Median(restore_s));
    return result;
  }
  if (plain.empty() || observed.empty()) return result;
  AddPerLayer(ctx, twins, plain, observed);
  if (!spans.WriteChromeJson(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  return result;
}

}  // namespace perfbench
