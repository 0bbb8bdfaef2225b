// Model-zoo tests: each architecture builds, has the expected relative
// scale, produces correct logits shapes, initializes deterministically, and
// learns (loss decreases / gradient check passes) on small inputs.

#include <cstring>

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "nn/zoo.h"
#include "opt/optimizer.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

using testing::CheckParamGradient;
using testing::FillUniform;

struct ZooCase {
  std::string name;
  std::function<std::unique_ptr<Model>()> factory;
  int channels;
  int image_size;
};

std::vector<ZooCase> AllZooCases() {
  return {
      {"LeNet5", [] { return zoo::LeNet5(1, 16, 10); }, 1, 16},
      {"VggStar", [] { return zoo::VggStar(1, 16, 10); }, 1, 16},
      {"DenseNet121", [] { return zoo::DenseNet121Lite(3, 16, 10); }, 3, 16},
      {"DenseNet201", [] { return zoo::DenseNet201Lite(3, 16, 10); }, 3, 16},
      {"ConvNeXt", [] { return zoo::ConvNeXtLite(3, 16, 10, 16); }, 3, 16},
      {"MLP", [] { return zoo::Mlp(16 * 16, {64, 32}, 10); }, 1, 16},
  };
}

class ZooModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZooModelTest, BuildsAndForwardShapeIsLogits) {
  ZooCase test_case = AllZooCases()[GetParam()];
  auto model = test_case.factory();
  ASSERT_NE(model, nullptr);
  EXPECT_GT(model->num_params(), 100u);
  model->InitParams(42);
  Tensor x({2, test_case.channels, test_case.image_size,
            test_case.image_size});
  Rng rng(1);
  FillUniform(&x, &rng);
  Tensor logits = model->Forward(x, false);
  ASSERT_EQ(logits.rank(), 2);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
  for (size_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits[i]));
  }
}

TEST_P(ZooModelTest, InitIsDeterministic) {
  ZooCase test_case = AllZooCases()[GetParam()];
  auto m1 = test_case.factory();
  auto m2 = test_case.factory();
  m1->InitParams(7);
  m2->InitParams(7);
  for (size_t i = 0; i < m1->num_params(); ++i) {
    ASSERT_EQ(m1->params()[i], m2->params()[i]) << "param " << i;
  }
}

TEST_P(ZooModelTest, DifferentSeedsGiveDifferentInit) {
  ZooCase test_case = AllZooCases()[GetParam()];
  auto m1 = test_case.factory();
  auto m2 = test_case.factory();
  m1->InitParams(7);
  m2->InitParams(8);
  size_t differing = 0;
  for (size_t i = 0; i < m1->num_params(); ++i) {
    differing += m1->params()[i] != m2->params()[i];
  }
  // Norm layers init to constants; the rest must differ.
  EXPECT_GT(differing, m1->num_params() / 4);
}

TEST_P(ZooModelTest, ParamGradientMatchesFiniteDifferences) {
  ZooCase test_case = AllZooCases()[GetParam()];
  auto model = test_case.factory();
  model->InitParams(11);
  Tensor x({2, test_case.channels, test_case.image_size,
            test_case.image_size});
  Rng rng(2);
  FillUniform(&x, &rng, -0.5f, 0.5f);
  auto result = CheckParamGradient(model.get(), x, {1, 7},
                                   /*num_probes=*/24, 300);
  EXPECT_LT(result.max_rel_error, 0.12)
      << test_case.name << " abs=" << result.max_abs_error;
}

// ModelGraph::Backward tells the root that nobody reads its input gradient,
// so the walk stops at the first layer with parameters, which skips its own
// input gradient. The parameter gradients must not move by a bit against
// the full walk (a root Backward with input_grad left true).
TEST_P(ZooModelTest, GraphBackwardParamGradsMatchFullWalk) {
  ZooCase test_case = AllZooCases()[GetParam()];
  auto model = test_case.factory();
  model->InitParams(13);
  Tensor x({2, test_case.channels, test_case.image_size,
            test_case.image_size});
  Rng input_rng(3);
  FillUniform(&x, &input_rng);
  ModelGraph& graph = model->graph();
  const ParameterView view = model->view();
  auto step_grads = [&](bool full_walk) {
    model->ZeroGrads();
    ModelGraph::ExecSlot slot = graph.AcquireSlot();
    Rng dropout_rng(4);
    Tensor logits =
        graph.Forward(x, view, slot, /*training=*/true, &dropout_rng);
    LossResult loss = SoftmaxCrossEntropy(logits, {1, 7});
    if (full_walk) {
      ExecContext ctx;
      ctx.view = view;
      ctx.states = slot.states();
      EXPECT_TRUE(graph.root().Backward(loss.grad_logits, ctx).SameShape(x));
    } else {
      graph.Backward(loss.grad_logits, view, slot);
    }
    return std::vector<float>(view.grads, view.grads + view.dim);
  };
  const std::vector<float> full = step_grads(true);
  const std::vector<float> skipped = step_grads(false);
  ASSERT_EQ(full.size(), skipped.size());
  EXPECT_EQ(0, std::memcmp(full.data(), skipped.data(),
                           full.size() * sizeof(float)))
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooModelTest,
                         ::testing::Range<size_t>(0, 6));

TEST(ZooScaleTest, ParameterOrderingMatchesPaper) {
  // The paper's ordering: LeNet-5 < VGG16* < DenseNet121 < DenseNet201
  // < ConvNeXtLarge. Our reduced-width zoo must preserve it.
  const size_t lenet = zoo::LeNet5(1, 16, 10)->num_params();
  const size_t vgg = zoo::VggStar(1, 16, 10)->num_params();
  const size_t d121 = zoo::DenseNet121Lite(3, 16, 10)->num_params();
  const size_t d201 = zoo::DenseNet201Lite(3, 16, 10)->num_params();
  const size_t convnext = zoo::ConvNeXtLite(3, 16, 10, 40)->num_params();
  EXPECT_LT(lenet, vgg);
  EXPECT_LT(vgg, d121);
  EXPECT_LT(d121, d201);
  EXPECT_LT(d201, convnext);
}

TEST(ZooScaleTest, MlpWidthControlsDimension) {
  const size_t small = zoo::Mlp(64, {16}, 10)->num_params();
  const size_t large = zoo::Mlp(64, {128}, 10)->num_params();
  EXPECT_GT(large, 4 * small);
}

TEST(ZooTrainTest, LeNetLossDecreasesOnToyProblem) {
  auto model = zoo::LeNet5(1, 16, 4);
  model->InitParams(3);
  auto optimizer = Optimizer::Create(OptimizerConfig::Adam(0.003f),
                                     model->num_params());
  Rng rng(4);
  // Four fixed patterns, one per class.
  Tensor x({4, 1, 16, 16});
  FillUniform(&x, &rng);
  const std::vector<int> labels = {0, 1, 2, 3};
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    model->ZeroGrads();
    Tensor logits = model->Forward(x, true, &rng);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    model->Backward(loss.grad_logits);
    optimizer->Step(model->params(), model->grads(), model->num_params());
    if (step == 0) {
      first_loss = loss.loss;
    }
    last_loss = loss.loss;
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
}

TEST(ZooTrainTest, MlpMemorizesToyProblem) {
  auto model = zoo::Mlp(8, {32}, 2);
  model->InitParams(5);
  auto optimizer = Optimizer::Create(OptimizerConfig::Adam(0.01f),
                                     model->num_params());
  Rng rng(6);
  Tensor x({8, 8});
  FillUniform(&x, &rng);
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    labels.push_back(i % 2);
  }
  for (int step = 0; step < 200; ++step) {
    model->ZeroGrads();
    Tensor logits = model->Forward(x, true, &rng);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    model->Backward(loss.grad_logits);
    optimizer->Step(model->params(), model->grads(), model->num_params());
  }
  Tensor logits = model->Forward(x, false);
  EXPECT_EQ(CountCorrect(logits, labels), 8u);
}

TEST(ModelTest, CopyParamsFromMakesReplicas) {
  auto a = zoo::Mlp(8, {16}, 3);
  auto b = zoo::Mlp(8, {16}, 3);
  a->InitParams(1);
  b->InitParams(2);
  b->CopyParamsFrom(*a);
  for (size_t i = 0; i < a->num_params(); ++i) {
    ASSERT_EQ(a->params()[i], b->params()[i]);
  }
  // Replicas produce identical outputs.
  Rng rng(3);
  Tensor x({2, 8});
  FillUniform(&x, &rng);
  Tensor ya = a->Forward(x, false);
  Tensor yb = b->Forward(x, false);
  for (size_t i = 0; i < ya.numel(); ++i) {
    ASSERT_EQ(ya[i], yb[i]);
  }
}

TEST(ModelDeathTest, CopyAcrossArchitecturesDies) {
  auto a = zoo::Mlp(8, {16}, 3);
  auto b = zoo::Mlp(8, {17}, 3);
  EXPECT_DEATH(b->CopyParamsFrom(*a), "architecture");
}

TEST(ZooDeathTest, BadGeometryDies) {
  EXPECT_DEATH(zoo::LeNet5(1, 10, 10), "image_size");
  EXPECT_DEATH(zoo::VggStar(1, 12, 10), "image_size");
}

}  // namespace
}  // namespace fedra
