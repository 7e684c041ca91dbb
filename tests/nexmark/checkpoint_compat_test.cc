// Checkpoint compatibility: `fixtures/q5_q7_mid_feed.osql` is a checkpoint
// written by the engine before join state moved to keyed buckets with a
// derived purge queue, when the join's purge entries were saved in arrival
// order rather than derived from the rows. It holds NEXMark Q5 (one shard)
// and Q7 (two shards) halfway through the feed below, with join rows under
// purge specs and open aggregation groups. It must restore unchanged: the
// restored snapshots equal those of a run that never checkpointed, and
// feeding the rest gives the same changelogs.
//
// The fixture is what MidFeedEngine() followed by Engine::Checkpoint wrote;
// regenerating it with the current engine would no longer test old files.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "nexmark/nexmark.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace nexmark {
namespace {

std::vector<FeedEvent> CompatFeed() {
  GeneratorConfig config;
  config.seed = 5;
  config.num_events = 1200;
  config.max_disorder = 10;
  return Generator(config).Generate();
}

/// Registers NEXMark, runs Q5 at one shard and Q7 at two, and feeds the
/// first half of CompatFeed().
void MidFeedEngine(Engine* engine) {
  ASSERT_TRUE(RegisterNexmark(engine).ok());
  ExecutionOptions one;
  one.shards = 1;
  ExecutionOptions two;
  two.shards = 2;
  ASSERT_TRUE(engine->Execute(Q5(), one).ok());
  ASSERT_TRUE(engine->Execute(Q7(), two).ok());
  const std::vector<FeedEvent> feed = CompatFeed();
  ASSERT_TRUE(
      engine->Feed({feed.begin(), feed.begin() + feed.size() / 2}).ok());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CheckpointCompatTest, OldCheckpointRestoresAndContinues) {
  const std::string bytes =
      ReadFile(std::string(ONESQL_TEST_FIXTURE_DIR) + "/q5_q7_mid_feed.osql");
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  const std::string dir = state::NewTempDir("compat");
  {
    std::ofstream out(dir + "/checkpoint.osql", std::ios::binary);
    out << bytes;
  }

  Engine reference;
  MidFeedEngine(&reference);
  Engine restored;
  const Status status = restored.Restore(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(restored.num_queries(), 2u);
  EXPECT_EQ(restored.feed_seq(), reference.feed_seq());

  // The checkpoint caught join rows under purge specs and open groups.
  size_t join_rows = 0;
  size_t groups = 0;
  for (size_t i = 0; i < 2; ++i) {
    const exec::DataflowRuntime& flow = restored.query(i)->dataflow();
    for (const exec::JoinOperator* join : flow.joins()) {
      join_rows += join->left_rows() + join->right_rows();
    }
    for (const exec::AggregateOperator* agg : flow.aggregates()) {
      groups += agg->NumGroups();
    }
  }
  EXPECT_GT(join_rows, 0u);
  EXPECT_GT(groups, 0u);

  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto want = reference.query(i)->CurrentSnapshot();
    auto got = restored.query(i)->CurrentSnapshot();
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got->size(), want->size());
    for (size_t r = 0; r < want->size(); ++r) {
      EXPECT_TRUE(RowsEqual((*got)[r], (*want)[r])) << "row " << r;
    }
  }

  const std::vector<FeedEvent> feed = CompatFeed();
  const std::vector<FeedEvent> rest(feed.begin() + feed.size() / 2,
                                    feed.end());
  ASSERT_TRUE(reference.Feed(rest).ok());
  ASSERT_TRUE(restored.Feed(rest).ok());
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const auto& want = reference.query(i)->Emissions();
    const auto& got = restored.query(i)->Emissions();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_GT(want.size(), 0u);
    for (size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(got[e].ToString(), want[e].ToString()) << "emission " << e;
    }
  }
}

}  // namespace
}  // namespace nexmark
}  // namespace onesql
