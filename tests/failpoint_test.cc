#include "src/util/failpoint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace thor {
namespace {

// Each test works on registered-for-test names so arming never collides
// with the built-in catalog other tests (or the library) evaluate.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = FailpointRegistry::Global();
    registry_->Register("test.alpha");
    registry_->Register("test.beta");
    registry_->DisarmAll();
  }
  void TearDown() override {
    registry_->DisarmAll();
    registry_->SetClock(nullptr);
  }

  FailpointRegistry* registry_ = nullptr;
};

TEST_F(FailpointTest, CatalogEnumeratesEveryBuiltinFailpoint) {
  std::vector<std::string> names = registry_->Names();
  // The chaos suite iterates this list; the store/serve/thord boundaries
  // must all be present and the list sorted for stable iteration order.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* required :
       {"store.put.serialize", "store.put.template_rename",
        "store.put.template_committed", "store.put.manifest_rename",
        "store.put.manifest_committed", "store.put.gc", "store.load.read",
        "store.load.deserialize", "serve.batch.resolve",
        "serve.batch.extract", "serve.batch.account", "thord.batch.drain",
        "thord.batch.flush", "relearn_mgr.enqueue", "relearn_mgr.commit",
        "canary.poison", "canary.promote", "canary.rollback"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
}

TEST_F(FailpointTest, DisarmedEvaluationIsOkAndArmingUnknownNamesFails) {
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_TRUE(THOR_FAILPOINT("no.such.failpoint").ok());
  Status st = registry_->Arm("no.such.failpoint", "error");
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_F(FailpointTest, ErrorFiresOnceThenDisarms) {
  ASSERT_TRUE(registry_->Arm("test.alpha", "error").ok());
  Status st = THOR_FAILPOINT("test.alpha");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("test.alpha"), std::string::npos);
  // One-shot: the site recovers on the next pass.
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
}

TEST_F(FailpointTest, ArmedFailpointsAreIndependent) {
  ASSERT_TRUE(registry_->Arm("test.alpha", "error").ok());
  EXPECT_TRUE(THOR_FAILPOINT("test.beta").ok());
  EXPECT_FALSE(THOR_FAILPOINT("test.alpha").ok());
}

TEST_F(FailpointTest, AtNSuffixFiresOnTheNthHit) {
  ASSERT_TRUE(registry_->Arm("test.alpha", "error@3").ok());
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_FALSE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
}

TEST_F(FailpointTest, DelayAdvancesTheInjectedClockAndKeepsFiring) {
  SimulatedClock clock(1000.0);
  registry_->SetClock(&clock);
  ASSERT_TRUE(registry_->Arm("test.alpha", "delay=250").ok());
  ASSERT_TRUE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_DOUBLE_EQ(clock.NowMs(), 1250.0);
  // Delays model a persistently slow dependency: every hit waits.
  ASSERT_TRUE(THOR_FAILPOINT("test.alpha").ok());
  EXPECT_DOUBLE_EQ(clock.NowMs(), 1500.0);
}

TEST_F(FailpointTest, HitCountTracksCrossingsWhileArmed) {
  ASSERT_TRUE(registry_->Arm("test.beta", "error@100").ok());
  int64_t before = registry_->HitCount("test.beta");
  ASSERT_TRUE(THOR_FAILPOINT("test.beta").ok());
  ASSERT_TRUE(THOR_FAILPOINT("test.beta").ok());
  EXPECT_EQ(registry_->HitCount("test.beta"), before + 2);
  EXPECT_EQ(registry_->HitCount("no.such.failpoint"), 0);
}

TEST_F(FailpointTest, ArmFromSpecParsesTheEnvGrammar) {
  ASSERT_TRUE(
      registry_->ArmFromSpec("test.alpha:error,test.beta:delay=5").ok());
  EXPECT_FALSE(THOR_FAILPOINT("test.alpha").ok());
  SimulatedClock clock;
  registry_->SetClock(&clock);
  EXPECT_TRUE(THOR_FAILPOINT("test.beta").ok());
  EXPECT_DOUBLE_EQ(clock.NowMs(), 5.0);
}

TEST_F(FailpointTest, MalformedSpecsAreTypedErrors) {
  EXPECT_EQ(registry_->ArmFromSpec("test.alpha").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_->Arm("test.alpha", "explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_->Arm("test.alpha", "error@0").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_->Arm("test.alpha", "delay=-3").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_->ArmFromSpec("nope:error").code(),
            StatusCode::kNotFound);
  // Nothing half-armed after the failures above.
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
}

TEST_F(FailpointTest, OffSpecDisarms) {
  ASSERT_TRUE(registry_->Arm("test.alpha", "error").ok());
  ASSERT_TRUE(registry_->Arm("test.alpha", "off").ok());
  EXPECT_TRUE(THOR_FAILPOINT("test.alpha").ok());
}

}  // namespace
}  // namespace thor
