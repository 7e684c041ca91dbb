// Join state under watermark purging, in the shape of NEXMark Q5: both sides
// are keyed by (wend, count) and purge on `wend`, which hundreds of rows of
// one window share. The input churns like Q5's Cnt side (retract a count,
// insert the next one), re-inserts retracted rows, carries rows with a
// multiplicity above one, and mixes in rows whose event time is NULL. A
// plain model of the join — both sides as RowLess-ordered multisets, probed
// in that order and purged by event time — fixes the exact emission
// sequence and the retained row counts after every watermark; restores that
// change the shard count must continue that sequence unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/sharded_dataflow.h"
#include "state/serde.h"

namespace onesql {
namespace {

using exec::InputEvent;

constexpr const char* kQ5Shaped =
    "SELECT R.wend, L.auction, L.c, R.mx FROM L, R "
    "WHERE L.wend = R.wend AND L.c = R.mx";

Timestamp Minute(int m) { return Timestamp(int64_t{m} * 60 * 1000); }

Schema LeftSchema() {
  return Schema({{"wend", DataType::kTimestamp, true},
                 {"auction", DataType::kBigint},
                 {"c", DataType::kBigint}});
}

Schema RightSchema() {
  return Schema({{"wend", DataType::kTimestamp, true},
                 {"mx", DataType::kBigint}});
}

/// Builds the feed: three windows of 240 auctions each. Per window, every
/// auction gets a first count, then random auctions are bumped (DELETE the
/// old count, INSERT the next) and R follows the window's maximum count.
/// Interleaved: duplicate rows (multiplicity 2), a retract-and-re-insert of
/// the same row, NULL-wend rows on both sides, and per-side watermarks that
/// release each window after the next one has started.
std::vector<InputEvent> BuildFeed() {
  std::vector<InputEvent> feed;
  int64_t ptime_ms = 0;
  auto push = [&](InputEvent::Kind kind, const char* source, Row row) {
    InputEvent e;
    e.kind = kind;
    e.source = source;
    e.ptime = Timestamp(++ptime_ms);
    e.row = std::move(row);
    feed.push_back(std::move(e));
  };
  auto watermark = [&](const char* source, Timestamp mark) {
    InputEvent e;
    e.kind = InputEvent::Kind::kWatermark;
    e.source = source;
    e.ptime = Timestamp(++ptime_ms);
    e.watermark = mark;
    feed.push_back(std::move(e));
  };
  auto left = [](Timestamp wend, int64_t auction, int64_t c) {
    return Row{Value::Time(wend), Value::Int64(auction), Value::Int64(c)};
  };
  auto right = [](Timestamp wend, int64_t mx) {
    return Row{Value::Time(wend), Value::Int64(mx)};
  };
  const auto kIns = InputEvent::Kind::kInsert;
  const auto kDel = InputEvent::Kind::kDelete;

  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&](uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };

  constexpr int kAuctions = 240;
  for (int w = 0; w < 3; ++w) {
    const Timestamp wend = Minute(10 * (w + 1));
    std::vector<int64_t> counts(kAuctions, 1);
    int64_t max = 1;
    push(kIns, "R", right(wend, max));
    for (int a = 0; a < kAuctions; ++a) push(kIns, "L", left(wend, a, 1));
    // A second instance of a few rows: multiplicity 2 in one bucket entry.
    for (int a = 0; a < kAuctions; a += 40) push(kIns, "L", left(wend, a, 1));
    for (int step = 0; step < 600; ++step) {
      const int64_t a = static_cast<int64_t>(next(kAuctions));
      push(kDel, "L", left(wend, a, counts[a]));
      ++counts[a];
      push(kIns, "L", left(wend, a, counts[a]));
      if (counts[a] > max) {
        push(kDel, "R", right(wend, max));
        max = counts[a];
        push(kIns, "R", right(wend, max));
      }
      if (step % 97 == 0) {
        // Retract and re-insert the same row.
        push(kDel, "L", left(wend, a, counts[a]));
        push(kIns, "L", left(wend, a, counts[a]));
      }
      if (step % 131 == 0) {
        push(kIns, "L", Row{Value(), Value::Int64(a), Value::Int64(max)});
        push(kIns, "R", Row{Value(), Value::Int64(max)});
      }
      if (step == 300 && w > 0) {
        // The previous window is complete: release it on both sides.
        watermark("L", Minute(10 * w));
        watermark("R", Minute(10 * w));
      }
    }
  }
  watermark("L", Minute(30));
  watermark("R", Minute(30));
  return feed;
}

/// The join as plain multisets: probes in RowLess order of the other side,
/// purges every row whose wend is at or below the combined watermark.
class ModelJoin {
 public:
  struct Output {
    Row row;
    bool undo;
    Timestamp ptime;
  };

  /// Applies one event; returns true when the combined watermark advanced.
  bool Apply(const InputEvent& e, std::vector<Output>* out) {
    const bool from_left = e.source == "L";
    if (e.kind == InputEvent::Kind::kWatermark) {
      (from_left ? wm_left_ : wm_right_) = e.watermark;
      const Timestamp combined = std::min(wm_left_, wm_right_);
      if (combined <= combined_) return false;
      combined_ = combined;
      Purge(&left_);
      Purge(&right_);
      return true;
    }
    // Key (wend, count): a NULL wend never matches and is not retained.
    if (e.row[0].is_null()) return false;
    const Row key = KeyOf(e.row, from_left);
    const bool undo = e.kind == InputEvent::Kind::kDelete;
    for (const auto& [other, count] : from_left ? right_ : left_) {
      if (!RowsEqual(KeyOf(other, !from_left), key)) continue;
      Row joined = from_left ? e.row : other;
      const Row& tail = from_left ? other : e.row;
      joined.insert(joined.end(), tail.begin(), tail.end());
      // Output columns: R.wend, L.auction, L.c, R.mx.
      const Row projected = {joined[3], joined[1], joined[2], joined[4]};
      for (int64_t i = 0; i < count; ++i) {
        out->push_back({projected, undo, e.ptime});
      }
    }
    auto& side = from_left ? left_ : right_;
    if (undo) {
      auto it = side.find(e.row);
      if (it == side.end()) {
        ADD_FAILURE() << "model: DELETE of an absent row";
        return false;
      }
      if (--it->second == 0) side.erase(it);
    } else {
      side[e.row] += 1;
    }
    return false;
  }

  size_t left_rows() const { return Count(left_); }
  size_t right_rows() const { return Count(right_); }

 private:
  using Side = std::map<Row, int64_t, RowLess>;

  static Row KeyOf(const Row& row, bool left) {
    return {row[0], row[left ? 2 : 1]};
  }
  void Purge(Side* side) const {
    std::erase_if(*side, [&](const auto& entry) {
      return entry.first[0].AsTimestamp() <= combined_;
    });
  }
  static size_t Count(const Side& side) {
    size_t n = 0;
    for (const auto& [row, count] : side) n += static_cast<size_t>(count);
    return n;
  }

  Side left_;
  Side right_;
  Timestamp wm_left_ = Timestamp::Min();
  Timestamp wm_right_ = Timestamp::Min();
  Timestamp combined_ = Timestamp::Min();
};

std::unique_ptr<exec::DataflowRuntime> BuildRuntime(int shards) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("L", LeftSchema()).ok());
  EXPECT_TRUE(engine.RegisterStream("R", RightSchema()).ok());
  auto plan = engine.Plan(kQ5Shaped);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto flow = exec::BuildDataflowRuntime(std::move(*plan), shards);
  EXPECT_TRUE(flow.ok()) << flow.status().ToString();
  return std::move(*flow);
}

size_t LeftRows(const exec::DataflowRuntime& flow) {
  size_t n = 0;
  for (const exec::JoinOperator* join : flow.joins()) n += join->left_rows();
  return n;
}

size_t RightRows(const exec::DataflowRuntime& flow) {
  size_t n = 0;
  for (const exec::JoinOperator* join : flow.joins()) n += join->right_rows();
  return n;
}

/// FNV-1a over the rendered emissions: pins the sequence byte for byte.
uint64_t Digest(const std::vector<exec::Emission>& emissions) {
  uint64_t h = 14695981039346656037ull;
  for (const exec::Emission& e : emissions) {
    for (char c : e.ToString() + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

void ExpectSameEmissions(const exec::DataflowRuntime& got,
                         const exec::DataflowRuntime& want) {
  const auto& g = got.sink().emissions();
  const auto& w = want.sink().emissions();
  ASSERT_EQ(g.size(), w.size()) << "emission count";
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g[i].ToString(), w[i].ToString()) << "emission " << i;
  }
}

TEST(JoinPurgeSharedEventTimeTest, PlanPurgesBothSidesOnWend) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("L", LeftSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("R", RightSchema()).ok());
  auto plan = engine.Plan(kQ5Shaped);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string text = plan->root->ToString(0);
  EXPECT_NE(text.find("left_purge"), std::string::npos) << text;
  EXPECT_NE(text.find("right_purge"), std::string::npos) << text;
}

TEST(JoinPurgeSharedEventTimeTest, EmissionsAndStateMatchModel) {
  const std::vector<InputEvent> feed = BuildFeed();
  auto flow = BuildRuntime(1);
  ModelJoin model;
  std::vector<ModelJoin::Output> want;
  size_t watermarks = 0;
  size_t peak_left = 0;
  for (const InputEvent& e : feed) {
    ASSERT_TRUE(flow->PushBatch({e}).ok());
    peak_left = std::max(peak_left, LeftRows(*flow));
    if (model.Apply(e, &want)) {
      ++watermarks;
      SCOPED_TRACE("watermark " + std::to_string(watermarks));
      EXPECT_EQ(LeftRows(*flow), model.left_rows());
      EXPECT_EQ(RightRows(*flow), model.right_rows());
    }
  }
  EXPECT_EQ(watermarks, 3u);
  // At least 200 rows of one window were retained at once under one wend.
  EXPECT_GE(peak_left, 200u);
  // The final watermark passed every window: both sides are empty.
  EXPECT_EQ(LeftRows(*flow), 0u);
  EXPECT_EQ(RightRows(*flow), 0u);

  const auto& got = flow->sink().emissions();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(RowsEqual(got[i].row, want[i].row)) << "emission " << i;
    ASSERT_EQ(got[i].undo, want[i].undo) << "emission " << i;
    ASSERT_EQ(got[i].ptime, want[i].ptime) << "emission " << i;
  }
  // The sequence as the engine rendered it before the join state moved to
  // keyed buckets with a derived purge queue.
  EXPECT_EQ(got.size(), 1826u);
  EXPECT_EQ(Digest(got), 17927849013874713907ull);
}

TEST(JoinPurgeSharedEventTimeTest, RestoreAcrossShardCounts) {
  const std::vector<InputEvent> feed = BuildFeed();
  auto reference = BuildRuntime(1);
  ASSERT_TRUE(reference->PushBatch(feed).ok());

  // Cut inside the second window, after the first one was purged.
  const size_t cut = feed.size() * 11 / 20;
  for (const auto& [save_shards, load_shards] :
       std::vector<std::pair<int, int>>{{2, 1}, {1, 8}}) {
    SCOPED_TRACE("save=" + std::to_string(save_shards) +
                 " load=" + std::to_string(load_shards));
    auto saver = BuildRuntime(save_shards);
    ASSERT_TRUE(saver->PushBatch({feed.begin(), feed.begin() + cut}).ok());
    state::Writer w;
    ASSERT_TRUE(saver->SaveState(&w).ok());

    auto loader = BuildRuntime(load_shards);
    state::Reader r(w.buffer());
    const Status loaded = loader->LoadState(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(LeftRows(*loader), LeftRows(*saver));
    EXPECT_EQ(RightRows(*loader), RightRows(*saver));
    EXPECT_GT(LeftRows(*loader), 200u);

    // The restored purge queue releases the second window on time.
    ASSERT_TRUE(loader->PushBatch({feed.begin() + cut, feed.end()}).ok());
    EXPECT_EQ(LeftRows(*loader), 0u);
    EXPECT_EQ(RightRows(*loader), 0u);
    ExpectSameEmissions(*loader, *reference);
  }
}

// With the event time outside the join key, rows whose event time is NULL
// stay in their buckets (they can still match) but no watermark purges them.
TEST(JoinPurgeSharedEventTimeTest, NullEventTimeRowsAreNeverPurged) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("L", LeftSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("R", RightSchema()).ok());
  auto plan = engine.Plan(
      "SELECT L.auction, R.mx FROM L, R "
      "WHERE L.c = R.mx AND L.wend >= R.wend AND L.wend <= R.wend");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto made = exec::BuildDataflowRuntime(std::move(*plan), 1);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  exec::DataflowRuntime& flow = **made;

  auto event = [](InputEvent::Kind kind, const char* source, int64_t p,
                  Row row) {
    InputEvent e;
    e.kind = kind;
    e.source = source;
    e.ptime = Timestamp(p);
    e.row = std::move(row);
    return e;
  };
  auto mark = [](const char* source, int64_t p, Timestamp wm) {
    InputEvent e;
    e.kind = InputEvent::Kind::kWatermark;
    e.source = source;
    e.ptime = Timestamp(p);
    e.watermark = wm;
    return e;
  };
  const auto kIns = InputEvent::Kind::kInsert;
  const Value null_time;
  std::vector<InputEvent> feed;
  for (int64_t i = 0; i < 6; ++i) {
    const Value wend = i % 2 == 0 ? Value::Time(Minute(10)) : null_time;
    feed.push_back(event(kIns, "L", 2 * i + 1,
                         {wend, Value::Int64(i), Value::Int64(7)}));
    feed.push_back(event(kIns, "R", 2 * i + 2, {wend, Value::Int64(7)}));
  }
  ASSERT_TRUE(flow.PushBatch(feed).ok());
  EXPECT_EQ(flow.joins()[0]->left_rows(), 6u);
  EXPECT_EQ(flow.joins()[0]->right_rows(), 6u);
  ASSERT_TRUE(
      flow.PushBatch({mark("L", 20, Minute(60)), mark("R", 21, Minute(60))})
          .ok());
  // The three timed rows per side are gone; the NULL-time ones remain.
  EXPECT_EQ(flow.joins()[0]->left_rows(), 3u);
  EXPECT_EQ(flow.joins()[0]->right_rows(), 3u);
}

}  // namespace
}  // namespace onesql
