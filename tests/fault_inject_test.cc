// The fault-injection harness (util/fault_inject.h): spec grammar, hit
// accounting, deterministic payload damage, hang bounding — plus the
// transport-level behaviors the harness exists to exercise (atomic
// publish on FileTransport, LIVE payload codec).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.h"
#include "est/partial_gather.h"
#include "test_util.h"
#include "util/fault_inject.h"

namespace gus {
namespace {

TEST(FaultInjectTest, ParsesTheFullGrammar) {
  ASSERT_OK_AND_ASSIGN(
      FaultPlan plan,
      FaultPlan::Parse("worker.execute@1=fail*2+5; transport.send=corrupt;"
                       "coordinator.gather=hang*0"));
  ASSERT_EQ(3u, plan.rules.size());
  EXPECT_EQ("worker.execute", plan.rules[0].site);
  EXPECT_EQ(1, plan.rules[0].shard);
  EXPECT_EQ(FaultAction::kFail, plan.rules[0].action);
  EXPECT_EQ(2, plan.rules[0].times);
  EXPECT_EQ(5, plan.rules[0].delay_ms);
  EXPECT_EQ("transport.send", plan.rules[1].site);
  EXPECT_EQ(-1, plan.rules[1].shard);
  EXPECT_EQ(FaultAction::kCorrupt, plan.rules[1].action);
  EXPECT_EQ(1, plan.rules[1].times);
  EXPECT_EQ("coordinator.gather", plan.rules[2].site);
  EXPECT_EQ(FaultAction::kHang, plan.rules[2].action);
  EXPECT_EQ(0, plan.rules[2].times);  // 0 = every hit

  // An empty spec is an empty plan, not an error.
  ASSERT_OK_AND_ASSIGN(FaultPlan empty, FaultPlan::Parse(""));
  EXPECT_TRUE(empty.rules.empty());

  for (const char* bad :
       {"no-equals", "=fail", "site=explode", "s@x=fail", "s=fail*abc",
        "s=fail+x", "s@1@2=fail"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(FaultPlan::Parse(bad).ok());
  }
}

TEST(FaultInjectTest, HitCountingAndShardRestriction) {
  FaultInjector* inj = FaultInjector::Global();
  {
    ScopedFaultPlan plan("site.a@1=fail*2");
    // Wrong shard: never fires.
    ASSERT_OK(inj->Hit("site.a", 0));
    // A shard-restricted rule must not fire at shard-agnostic sites.
    ASSERT_OK(inj->Hit("site.a", -1));
    // Right shard: fires exactly twice, then the budget is spent.
    EXPECT_STATUS_CODE(kUnavailable, inj->Hit("site.a", 1));
    EXPECT_STATUS_CODE(kUnavailable, inj->Hit("site.a", 1));
    ASSERT_OK(inj->Hit("site.a", 1));
    // Unknown site: free.
    ASSERT_OK(inj->Hit("site.b", 1));
    EXPECT_EQ(2, inj->faults_injected());
  }
  // Scope exit disarmed the plan.
  EXPECT_FALSE(inj->armed());
  ASSERT_OK(inj->Hit("site.a", 1));
}

TEST(FaultInjectTest, PayloadActionsAreDeterministic) {
  FaultInjector* inj = FaultInjector::Global();
  const std::string original = "the quick brown fox jumps over the lazy dog";
  {
    ScopedFaultPlan plan("payload.site=corrupt*0");
    std::string a = original;
    std::string b = original;
    bool dropped = false;
    ASSERT_OK(inj->MutatePayload("payload.site", 0, &a, &dropped));
    EXPECT_FALSE(dropped);
    ASSERT_OK(inj->MutatePayload("payload.site", 0, &b, &dropped));
    EXPECT_NE(original, a);
    EXPECT_EQ(a, b);  // same damage every time
    EXPECT_EQ(original.size(), a.size());
  }
  {
    ScopedFaultPlan plan("payload.site=truncate");
    std::string t = original;
    bool dropped = false;
    ASSERT_OK(inj->MutatePayload("payload.site", 0, &t, &dropped));
    EXPECT_EQ(original.size() / 2, t.size());
    EXPECT_EQ(original.substr(0, original.size() / 2), t);
  }
  {
    ScopedFaultPlan plan("payload.site=drop");
    std::string d = original;
    bool dropped = false;
    ASSERT_OK(inj->MutatePayload("payload.site", 0, &d, &dropped));
    EXPECT_TRUE(dropped);
  }
  // Unarmed: payloads pass through untouched.
  std::string clean = original;
  bool dropped = false;
  ASSERT_OK(inj->MutatePayload("payload.site", 0, &clean, &dropped));
  EXPECT_EQ(original, clean);
  EXPECT_FALSE(dropped);
}

TEST(FaultInjectTest, HangIsBoundedByTheCapAndReleasable) {
  FaultInjector* inj = FaultInjector::Global();
  // Cap bounds the wait even when nobody releases.
  inj->set_hang_cap_ms(60);
  {
    ScopedFaultPlan plan("hang.site=hang");
    const auto start = std::chrono::steady_clock::now();
    EXPECT_STATUS_CODE(kUnavailable, inj->Hit("hang.site", 0));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_GE(ms, 50);
    EXPECT_LT(ms, 5000);
  }
  // ReleaseHangs wakes a hung hit well before the cap.
  inj->set_hang_cap_ms(30000);
  {
    ScopedFaultPlan plan("hang.site=hang");
    Status hung = Status::OK();
    std::thread hitter(
        [&] { hung = FaultInjector::Global()->Hit("hang.site", 0); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto start = std::chrono::steady_clock::now();
    inj->ReleaseHangs();
    hitter.join();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_STATUS_CODE(kUnavailable, hung);
    EXPECT_LT(ms, 5000);
  }
  inj->set_hang_cap_ms(2000);
}

TEST(FaultInjectTest, FileTransportPublishesAtomically) {
  // A Send that fails at the pre-publish fault site must leave NO final
  // shard file — only the invisible .tmp — so a coordinator polling the
  // directory never sees a half-written bundle.
  const std::string dir = testing::UniqueTempDir("atomic_publish");
  FileTransport files(dir);
  const std::string payload = "bundle-bytes-0123456789";
  {
    ScopedFaultPlan plan("transport.file.write@0=fail");
    EXPECT_STATUS_CODE(kUnavailable, files.Send(0, payload));
    EXPECT_FALSE(std::filesystem::exists(files.ShardPath(0)));
    // Retry (rule budget spent): publishes, and the read-back round-trips.
    ASSERT_OK(files.Send(0, payload));
  }
  EXPECT_TRUE(std::filesystem::exists(files.ShardPath(0)));
  EXPECT_FALSE(std::filesystem::exists(files.ShardPath(0) + ".tmp"));
  ASSERT_OK_AND_ASSIGN(std::string received, files.Receive(0));
  EXPECT_EQ(payload, received);
}

TEST(FaultInjectTest, SurvivingRangesPayloadRoundTrips) {
  SurvivingRangesInfo info;
  info.pivot_relation = "lineitem";
  info.total_shards = 4;
  info.total_units = 11;
  info.surviving = {{0, 0, 2}, {1, 2, 5}, {3, 8, 11}};
  const std::string bytes = SurvivingRangesToBytes(info);
  ASSERT_OK_AND_ASSIGN(SurvivingRangesInfo decoded,
                       SurvivingRangesFromBytes(bytes));
  EXPECT_EQ(info.pivot_relation, decoded.pivot_relation);
  EXPECT_EQ(info.total_shards, decoded.total_shards);
  EXPECT_EQ(info.total_units, decoded.total_units);
  EXPECT_TRUE(info.surviving == decoded.surviving);
  // Truncation fails loudly, never partially decodes.
  EXPECT_FALSE(SurvivingRangesFromBytes(
                   std::string_view(bytes).substr(0, bytes.size() - 4))
                   .ok());
}

TEST(FaultInjectTest, CanonicalShardRangeMatchesTheCarveFormula) {
  // 11 units over 4 shards: 2/3/3/3, contiguous, tiling.
  int64_t covered = 0;
  for (int k = 0; k < 4; ++k) {
    const ShardUnitRange r = CanonicalShardRange(11, 4, k);
    EXPECT_EQ(k, r.shard_index);
    EXPECT_EQ(covered, r.unit_begin);
    covered = r.unit_end;
  }
  EXPECT_EQ(11, covered);
  // More shards than units: trailing shards are empty, still tiling.
  covered = 0;
  int empty = 0;
  for (int k = 0; k < 8; ++k) {
    const ShardUnitRange r = CanonicalShardRange(3, 8, k);
    EXPECT_EQ(covered, r.unit_begin);
    covered = r.unit_end;
    if (r.unit_begin == r.unit_end) ++empty;
  }
  EXPECT_EQ(3, covered);
  EXPECT_EQ(5, empty);
}

}  // namespace
}  // namespace gus
