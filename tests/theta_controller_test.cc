// Tests for the dynamic-Theta controller (paper §5 future-work extension).

#include <limits>

#include <gtest/gtest.h>

#include "core/theta_controller.h"

namespace fedra {
namespace {

ThetaControllerConfig BaseConfig() {
  ThetaControllerConfig config;
  config.target_bytes_per_step = 1000.0;
  config.adjust_every_steps = 10;
  config.gain = 1.0;
  config.min_theta = 1e-6;
  config.max_theta = 1e6;
  config.max_step_ratio = 4.0;
  return config;
}

TEST(ThetaControllerConfigTest, Validation) {
  EXPECT_TRUE(BaseConfig().Validate().ok());
  auto config = BaseConfig();
  config.target_bytes_per_step = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.adjust_every_steps = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.gain = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.min_theta = 10.0;
  config.max_theta = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.max_step_ratio = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  // NaN fails every range check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = BaseConfig();
  config.max_theta = nan;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.max_step_ratio = nan;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ThetaControllerTest, NoAdjustmentBeforeWindow) {
  ThetaController controller(BaseConfig(), 1.0);
  EXPECT_EQ(controller.Update(5, 100000), 1.0);
  EXPECT_TRUE(controller.adjustments().empty());
}

TEST(ThetaControllerTest, OverBudgetRaisesTheta) {
  // Usage = 50000 bytes / 10 steps = 5000 bytes/step, 5x over the budget
  // => Theta rises (sync less often => less traffic).
  ThetaController controller(BaseConfig(), 1.0);
  const double theta = controller.Update(10, 50000);
  EXPECT_GT(theta, 1.0);
  ASSERT_EQ(controller.adjustments().size(), 1u);
  EXPECT_DOUBLE_EQ(controller.adjustments()[0].observed_bytes_per_step,
                   5000.0);
}

TEST(ThetaControllerTest, UnderBudgetLowersTheta) {
  ThetaController controller(BaseConfig(), 1.0);
  const double theta = controller.Update(10, 100);  // 10 bytes/step
  EXPECT_LT(theta, 1.0);
}

TEST(ThetaControllerTest, OnBudgetKeepsTheta) {
  ThetaController controller(BaseConfig(), 2.0);
  const double theta = controller.Update(10, 10000);  // exactly on budget
  EXPECT_NEAR(theta, 2.0, 1e-12);
}

TEST(ThetaControllerTest, StepRatioClampsAdjustment) {
  ThetaController controller(BaseConfig(), 1.0);
  // 1e9 bytes over 10 steps: raw ratio is enormous; clamp at 4x.
  const double theta = controller.Update(10, 1000000000ULL);
  EXPECT_DOUBLE_EQ(theta, 4.0);
}

TEST(ThetaControllerTest, AbsoluteBoundsHold) {
  auto config = BaseConfig();
  config.max_theta = 2.5;
  ThetaController controller(config, 1.0);
  controller.Update(10, 1000000000ULL);
  EXPECT_LE(controller.theta(), 2.5);
  ThetaController low(config, 1e-5);
  low.Update(10, 0);
  EXPECT_GE(low.theta(), config.min_theta);
}

TEST(ThetaControllerTest, ConvergesTowardBudgetUnderProportionalModel) {
  // Toy closed loop: bytes/step inversely proportional to Theta
  // (usage = C / theta). Fixed point: theta* = C / target.
  auto config = BaseConfig();
  config.gain = 0.5;
  ThetaController controller(config, 0.1);
  const double c = 5000.0;  // usage at theta=1
  uint64_t cumulative = 0;
  size_t step = 0;
  for (int round = 0; round < 60; ++round) {
    const double usage = c / controller.theta();
    cumulative += static_cast<uint64_t>(usage * 10);
    step += 10;
    controller.Update(step, cumulative);
  }
  // theta* = 5000 / 1000 = 5.
  EXPECT_NEAR(controller.theta(), 5.0, 1.0);
}

TEST(ThetaControllerTest, WindowsAreDisjoint) {
  ThetaController controller(BaseConfig(), 1.0);
  controller.Update(10, 10000);
  controller.Update(12, 11000);  // inside window: ignored
  controller.Update(20, 20000);  // second full window: 1000 bytes/step
  ASSERT_EQ(controller.adjustments().size(), 2u);
  EXPECT_DOUBLE_EQ(controller.adjustments()[1].observed_bytes_per_step,
                   1000.0);
}

}  // namespace
}  // namespace fedra
