// Aggregate expiry (Extension 2): a group is released once the watermark,
// less the allowed lateness, passes its largest non-NULL event-time key.
// These cases pin the watermark at which each group goes: groups emptied and
// re-created before they complete, allowed lateness, NULL event-time keys,
// groups restored at another shard count, and the live group count after
// every watermark of the Section 4 dataset and of a NEXMark prefix.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/sharded_dataflow.h"
#include "nexmark/nexmark.h"
#include "state/serde.h"

namespace onesql {
namespace {

using exec::InputEvent;

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

constexpr const char* kWindowedMax =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend";

constexpr const char* kHoppedCount =
    "SELECT wend, item, COUNT(*) AS n "
    "FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES) t "
    "GROUP BY wend, item";

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

Row Bid(Timestamp bidtime, int64_t price, const std::string& item) {
  return {Value::Time(bidtime), Value::Int64(price), Value::String(item)};
}

size_t NumGroups(const exec::DataflowRuntime& flow) {
  size_t n = 0;
  for (const exec::AggregateOperator* agg : flow.aggregates()) {
    n += agg->NumGroups();
  }
  return n;
}

int64_t LateDrops(const exec::DataflowRuntime& flow) {
  int64_t n = 0;
  for (const exec::AggregateOperator* agg : flow.aggregates()) {
    n += agg->late_drops();
  }
  return n;
}

class AggregateExpiryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterStream("Bid", BidSchema()).ok());
  }

  const exec::DataflowRuntime* Run(const std::string& sql,
                                   ExecutionOptions options = {}) {
    auto q = engine_.Execute(sql, options);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? &(*q)->dataflow() : nullptr;
  }

  void Insert(int pm, Timestamp bidtime, int64_t price,
              const std::string& item = "x") {
    ASSERT_TRUE(engine_.Insert("Bid", T(9, pm), Bid(bidtime, price, item)).ok());
  }
  void Delete(int pm, Timestamp bidtime, int64_t price,
              const std::string& item = "x") {
    ASSERT_TRUE(engine_.Delete("Bid", T(9, pm), Bid(bidtime, price, item)).ok());
  }
  void Watermark(int pm, Timestamp mark) {
    ASSERT_TRUE(engine_.AdvanceWatermark("Bid", T(9, pm), mark).ok());
  }

  Engine engine_;
};

// Emptying a group erases it; re-creating it schedules its expiry a second
// time. Both entries come due at the window end, and the group goes exactly
// then — not before, and the stale entry removes nothing else.
TEST_F(AggregateExpiryTest, GroupEmptiedAndRecreatedExpiresOnTime) {
  const exec::DataflowRuntime* flow = Run(kWindowedMax);
  ASSERT_NE(flow, nullptr);
  Insert(1, T(8, 5), 3);
  Delete(2, T(8, 5), 3);
  EXPECT_EQ(NumGroups(*flow), 0u);
  Insert(3, T(8, 5), 4);
  Insert(4, T(8, 12), 7);
  Delete(5, T(8, 5), 4);
  Insert(6, T(8, 7), 5);
  EXPECT_EQ(NumGroups(*flow), 2u);
  Watermark(7, T(8, 9));
  EXPECT_EQ(NumGroups(*flow), 2u);
  Watermark(8, T(8, 10));
  EXPECT_EQ(NumGroups(*flow), 1u);  // [8:00, 8:10) is complete
  Insert(9, T(8, 9), 99);            // late: dropped
  EXPECT_EQ(LateDrops(*flow), 1);
  EXPECT_EQ(NumGroups(*flow), 1u);
  Watermark(10, T(8, 19));
  EXPECT_EQ(NumGroups(*flow), 1u);
  Watermark(11, T(8, 20));
  EXPECT_EQ(NumGroups(*flow), 0u);
}

// With allowed lateness the group outlives the window end by the budget.
TEST_F(AggregateExpiryTest, AllowedLatenessDelaysExpiry) {
  ExecutionOptions options;
  options.allowed_lateness = Interval::Minutes(5);
  const exec::DataflowRuntime* flow = Run(kWindowedMax, options);
  ASSERT_NE(flow, nullptr);
  Insert(1, T(8, 5), 3);
  Watermark(2, T(8, 12));
  EXPECT_EQ(NumGroups(*flow), 1u);
  Insert(3, T(8, 6), 9);  // within the budget: corrects the group
  EXPECT_EQ(LateDrops(*flow), 0);
  Watermark(4, T(8, 14));
  EXPECT_EQ(NumGroups(*flow), 1u);
  Watermark(5, T(8, 15));
  EXPECT_EQ(NumGroups(*flow), 0u);
  Insert(6, T(8, 6), 11);  // past the budget: dropped
  EXPECT_EQ(LateDrops(*flow), 1);
  EXPECT_EQ(NumGroups(*flow), 0u);
}

// Event-time keys that are NULL do not hold a group open: the largest
// non-NULL one decides, and a group whose event-time keys are all NULL is
// complete from the start, so its rows are dropped as late.
TEST(AggregateExpiryNullKeysTest, LargestNonNullEventTimeKeyDecides) {
  Engine engine;
  ASSERT_TRUE(engine
                  .RegisterStream("E",
                                  Schema({{"t1", DataType::kTimestamp, true},
                                          {"t2", DataType::kTimestamp, true},
                                          {"v", DataType::kBigint}}))
                  .ok());
  auto q = engine.Execute("SELECT t1, t2, SUM(v) AS s FROM E GROUP BY t1, t2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const exec::DataflowRuntime& flow = (*q)->dataflow();
  const Value null_time;
  auto insert = [&](int pm, Value t1, Value t2) {
    ASSERT_TRUE(
        engine.Insert("E", T(9, pm), {t1, t2, Value::Int64(1)}).ok());
  };
  insert(1, Value::Time(T(8, 5)), null_time);
  insert(2, null_time, Value::Time(T(8, 7)));
  insert(3, Value::Time(T(8, 3)), Value::Time(T(8, 9)));
  insert(4, null_time, null_time);  // complete already: dropped
  EXPECT_EQ(NumGroups(flow), 3u);
  EXPECT_EQ(LateDrops(flow), 1);
  ASSERT_TRUE(engine.AdvanceWatermark("E", T(9, 5), T(8, 5)).ok());
  EXPECT_EQ(NumGroups(flow), 2u);
  ASSERT_TRUE(engine.AdvanceWatermark("E", T(9, 6), T(8, 8)).ok());
  EXPECT_EQ(NumGroups(flow), 1u);
  ASSERT_TRUE(engine.AdvanceWatermark("E", T(9, 7), T(8, 9)).ok());
  EXPECT_EQ(NumGroups(flow), 0u);
}

// Groups that arrive through LoadState at another shard count expire at the
// same watermarks as in the run that never stopped.
TEST(AggregateExpiryRestoreTest, RestoredGroupsExpireOnTime) {
  std::vector<InputEvent> feed;
  int64_t p = 0;
  auto insert = [&](int m, int64_t price, const std::string& item) {
    InputEvent e;
    e.source = "Bid";
    e.ptime = Timestamp(++p);
    e.row = Bid(T(8, 0) + Interval::Minutes(m), price, item);
    feed.push_back(std::move(e));
  };
  auto watermark = [&](int m) {
    InputEvent e;
    e.kind = InputEvent::Kind::kWatermark;
    e.source = "Bid";
    e.ptime = Timestamp(++p);
    e.watermark = T(8, 0) + Interval::Minutes(m);
    feed.push_back(std::move(e));
  };
  for (int m = 0; m < 60; ++m) {
    insert(m, m % 7, "item" + std::to_string(m % 5));
    insert(m, m % 3, "item" + std::to_string(m % 4));
    if (m % 4 == 3) watermark(m - 6);
  }
  watermark(70);
  const size_t cut = feed.size() / 2;

  auto build = [](int shards) {
    Engine engine;
    EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    auto plan = engine.Plan(kHoppedCount);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto flow = exec::BuildDataflowRuntime(std::move(*plan), shards);
    EXPECT_TRUE(flow.ok()) << flow.status().ToString();
    return std::move(*flow);
  };
  // Group counts after every watermark of the uninterrupted run.
  auto groups_after_watermarks = [&](exec::DataflowRuntime* flow,
                                     size_t begin) {
    std::vector<size_t> counts;
    for (size_t i = begin; i < feed.size(); ++i) {
      EXPECT_TRUE(flow->PushBatch({feed[i]}).ok());
      if (feed[i].kind == InputEvent::Kind::kWatermark) {
        counts.push_back(NumGroups(*flow));
      }
    }
    return counts;
  };
  auto reference = build(1);
  ASSERT_TRUE(reference->PushBatch({feed.begin(), feed.begin() + cut}).ok());
  const std::vector<size_t> want = groups_after_watermarks(reference.get(), cut);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.back(), 0u);

  for (const auto& [save_shards, load_shards] :
       std::vector<std::pair<int, int>>{{2, 1}, {1, 8}, {8, 2}}) {
    SCOPED_TRACE("save=" + std::to_string(save_shards) +
                 " load=" + std::to_string(load_shards));
    auto saver = build(save_shards);
    ASSERT_TRUE(saver->PushBatch({feed.begin(), feed.begin() + cut}).ok());
    state::Writer w;
    ASSERT_TRUE(saver->SaveState(&w).ok());
    auto loader = build(load_shards);
    state::Reader r(w.buffer());
    const Status loaded = loader->LoadState(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(NumGroups(*loader), NumGroups(*saver));
    EXPECT_GT(NumGroups(*loader), 0u);
    EXPECT_EQ(groups_after_watermarks(loader.get(), cut), want);
  }
}

// The live group count after every watermark of the Section 4 dataset.
TEST_F(AggregateExpiryTest, PaperDatasetGroupCounts) {
  const exec::DataflowRuntime* max_flow = Run(kWindowedMax);
  const exec::DataflowRuntime* hop_flow = Run(kHoppedCount);
  ASSERT_NE(max_flow, nullptr);
  ASSERT_NE(hop_flow, nullptr);
  std::vector<size_t> max_counts;
  std::vector<size_t> hop_counts;
  auto wm = [&](int ph, int pm, int eh, int em) {
    ASSERT_TRUE(engine_.AdvanceWatermark("Bid", T(ph, pm), T(eh, em)).ok());
    max_counts.push_back(NumGroups(*max_flow));
    hop_counts.push_back(NumGroups(*hop_flow));
  };
  auto bid = [&](int ph, int pm, int eh, int em, int64_t price,
                 const std::string& item) {
    ASSERT_TRUE(engine_.Insert("Bid", T(ph, pm), Bid(T(eh, em), price, item))
                    .ok());
  };
  wm(8, 7, 8, 5);
  bid(8, 8, 8, 7, 2, "A");
  bid(8, 12, 8, 11, 3, "B");
  bid(8, 13, 8, 5, 4, "C");
  wm(8, 14, 8, 8);
  bid(8, 15, 8, 9, 5, "D");
  wm(8, 16, 8, 12);
  bid(8, 17, 8, 13, 1, "E");
  bid(8, 18, 8, 17, 6, "F");
  wm(8, 21, 8, 20);
  EXPECT_EQ(max_counts, (std::vector<size_t>{0, 2, 1, 0}));
  EXPECT_EQ(hop_counts, (std::vector<size_t>{0, 6, 5, 1}));
}

// The live group count of every NEXMark aggregate after every watermark of
// a feed prefix, as the per-watermark scan of all groups left it.
TEST(AggregateExpiryNexmarkTest, GroupCountsAfterEveryWatermark) {
  Engine engine;
  ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
  nexmark::GeneratorConfig config;
  config.seed = 11;
  config.num_events = 3000;
  config.max_disorder = 10;
  nexmark::Generator gen(config);
  const std::vector<FeedEvent> feed = gen.Generate();
  std::vector<const exec::DataflowRuntime*> flows;
  for (const std::string& sql :
       {nexmark::Q4(), nexmark::Q5(), nexmark::Q7()}) {
    auto q = engine.Execute(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    flows.push_back(&(*q)->dataflow());
  }
  std::vector<FeedEvent> pending;
  size_t watermarks = 0;
  uint64_t digest = 14695981039346656037ull;
  std::vector<size_t> peak(flows.size(), 0);
  for (const FeedEvent& e : feed) {
    pending.push_back(e);
    if (e.kind != FeedEvent::Kind::kWatermark) continue;
    ASSERT_TRUE(engine.Feed(pending).ok());
    pending.clear();
    ++watermarks;
    for (size_t i = 0; i < flows.size(); ++i) {
      const size_t n = NumGroups(*flows[i]);
      peak[i] = std::max(peak[i], n);
      digest = (digest ^ n) * 1099511628211ull;
    }
  }
  EXPECT_EQ(watermarks, 903u);
  EXPECT_EQ(peak, (std::vector<size_t>{16, 693, 2}));
  EXPECT_EQ(digest, 4350278377720525807ull);
}

}  // namespace
}  // namespace onesql
