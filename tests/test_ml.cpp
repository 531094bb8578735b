#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <tuple>

#include "attacks/cryptominer.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "core/traces.hpp"
#include "ml/dataset.hpp"
#include "ml/detector.hpp"
#include "ml/gbt.hpp"
#include "ml/lstm.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::ml {
namespace {

// --- Shared synthetic corpus -------------------------------------------------
//
// Two well-separated HPC populations: "benign" (high instructions, low LLC
// misses) and "attack" (the reverse), with noise. Every model family must
// learn to separate them; that is the substrate of the Fig. 1 experiment.

hpc::HpcSample draw(util::Rng& rng, bool malicious) {
  hpc::HpcSample s;
  const double scale = malicious ? 1.0 : 8.0;
  s[hpc::Event::kInstructions] =
      std::max(0.0, rng.normal(3e8 * scale / 8.0, 2e7));
  s[hpc::Event::kCycles] = std::max(0.0, rng.normal(3.5e8, 1e7));
  s[hpc::Event::kLlcMisses] =
      std::max(0.0, rng.normal(malicious ? 4e7 : 4e5, malicious ? 4e6 : 8e4));
  s[hpc::Event::kL1dMisses] =
      std::max(0.0, rng.normal(malicious ? 6e7 : 2e6, malicious ? 5e6 : 3e5));
  s[hpc::Event::kMemBandwidth] =
      std::max(0.0, rng.normal(malicious ? 2e9 : 5e7, malicious ? 2e8 : 1e7));
  return s;
}

TraceSet make_corpus(int per_class, int trace_len, std::uint64_t seed) {
  util::Rng rng(seed);
  TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < per_class; ++t) {
      LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = (trace.malicious ? "attack-" : "benign-") +
                   std::to_string(t);
      for (int i = 0; i < trace_len; ++i) {
        trace.samples.push_back(draw(rng, trace.malicious));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

double trace_accuracy(const Detector& d, const TraceSet& set,
                      std::size_t window) {
  ConfusionMatrix cm;
  for (const LabeledTrace& t : set.traces) {
    const std::size_t n = std::min(window, t.samples.size());
    const bool malicious =
        d.infer({t.samples.data(), n}) == Inference::kMalicious;
    cm.record(t.malicious, malicious);
  }
  return cm.accuracy();
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, PerfectClassifier) {
  ConfusionMatrix cm;
  for (int i = 0; i < 10; ++i) {
    cm.record(true, true);
    cm.record(false, false);
  }
  EXPECT_DOUBLE_EQ(cm.f1(), 1.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(Metrics, KnownValues) {
  ConfusionMatrix cm;
  cm.true_positives = 8;
  cm.false_negatives = 2;
  cm.false_positives = 4;
  cm.true_negatives = 6;
  EXPECT_DOUBLE_EQ(cm.precision(), 8.0 / 12.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.8);
  EXPECT_NEAR(cm.f1(), 2 * (8.0 / 12.0) * 0.8 / ((8.0 / 12.0) + 0.8), 1e-12);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.4);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.7);
  EXPECT_EQ(cm.total(), 20u);
}

TEST(Metrics, DegenerateCasesAreZeroNotNan) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
}

TEST(Metrics, Accumulation) {
  ConfusionMatrix a;
  a.record(true, true);
  ConfusionMatrix b;
  b.record(false, true);
  a += b;
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_positives, 1u);
}

// --- Dataset -----------------------------------------------------------------

TEST(Dataset, FlattenKeepsLabelsAndCounts) {
  const TraceSet set = make_corpus(3, 5, 1);
  const std::vector<Example> flat = flatten(set);
  EXPECT_EQ(flat.size(), 2u * 3u * 5u);
  const auto malicious = static_cast<std::size_t>(
      std::count_if(flat.begin(), flat.end(),
                    [](const Example& e) { return e.malicious; }));
  EXPECT_EQ(malicious, 15u);
  EXPECT_EQ(flat.front().features.size(), hpc::kFeatureDim);
}

TEST(Dataset, FlattenColumnsHoldsFlattensBits) {
  const TraceSet set = make_corpus(3, 5, 1);
  const std::vector<Example> flat = flatten(set);
  const FeatureColumns columns = flatten_columns(set);
  ASSERT_EQ(columns.count, flat.size());
  ASSERT_EQ(columns.dim, hpc::kFeatureDim);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(columns.malicious[i] != 0, flat[i].malicious);
    for (std::size_t f = 0; f < columns.dim; ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(columns.column(f)[i]),
                std::bit_cast<std::uint64_t>(flat[i].features[f]));
    }
  }
  const FeatureColumns copied = to_columns(flat);
  EXPECT_EQ(copied.values, columns.values);
  EXPECT_EQ(copied.malicious, columns.malicious);
}

TEST(Dataset, SplitPreservesClassBalanceByTrace) {
  const TraceSet set = make_corpus(10, 3, 2);
  util::Rng rng(3);
  const TraceSplit split = split_traces(set, 0.7, rng);
  EXPECT_EQ(split.train.traces.size() + split.test.traces.size(), 20u);
  EXPECT_EQ(split.train.count_malicious(), 7u);
  EXPECT_EQ(split.test.count_malicious(), 3u);
  EXPECT_EQ(split.train.count_benign(), 7u);
}

TEST(Dataset, ShuffleIsPermutation) {
  std::vector<Example> xs;
  for (int i = 0; i < 20; ++i) {
    xs.push_back({{static_cast<double>(i)}, false});
  }
  util::Rng rng(4);
  shuffle(xs, rng);
  double sum = 0;
  for (const Example& e : xs) sum += e.features[0];
  EXPECT_DOUBLE_EQ(sum, 190.0);  // 0+..+19 preserved
}

TEST(Dataset, WindowFeaturesConcentrate) {
  // The variance features shrink in expectation as windows grow — the
  // statistical driver behind Fig. 1.
  util::Rng rng(5);
  LabeledTrace trace;
  for (int i = 0; i < 200; ++i) trace.samples.push_back(draw(rng, false));
  const auto f_small =
      window_features({trace.samples.data(), 3});
  const auto f_large =
      window_features({trace.samples.data(), trace.samples.size()});
  ASSERT_EQ(f_small.size(), kWindowFeatureDim);
  // Mean features agree to within noise; both are near the true mean.
  EXPECT_NEAR(f_small[0], f_large[0], 1.0);
}

// --- Statistical detector ----------------------------------------------------

TEST(StatDetector, SeparatesPopulations) {
  const TraceSet train = make_corpus(10, 20, 6);
  StatisticalDetector det;
  det.fit(flatten(train));
  const TraceSet test = make_corpus(10, 20, 7);
  EXPECT_GE(trace_accuracy(det, test, 1), 0.95);
}

TEST(StatDetector, ScoreLowForBenignHighForAttack) {
  const TraceSet train = make_corpus(10, 20, 8);
  StatisticalDetector det;
  det.fit(flatten(train));
  util::Rng rng(9);
  const auto benign_f = hpc::to_features(draw(rng, false));
  const auto attack_f = hpc::to_features(draw(rng, true));
  EXPECT_LT(det.score(benign_f), det.score(attack_f));
}

TEST(StatDetector, UntrainedThrows) {
  StatisticalDetector det;
  const std::vector<double> f(hpc::kFeatureDim, 0.0);
  EXPECT_THROW((void)det.score(f), std::logic_error);
}

TEST(StatDetector, NoBenignExamplesThrows) {
  StatisticalDetector det;
  std::vector<Example> only_attack{{std::vector<double>(12, 1.0), true}};
  EXPECT_THROW(det.fit(only_attack), std::invalid_argument);
}

TEST(StatDetector, EmptyWindowIsBenign) {
  StatisticalDetector det;
  EXPECT_EQ(det.infer(std::span<const hpc::HpcSample>{}), Inference::kBenign);
}

// --- MLP ---------------------------------------------------------------------

TEST(Mlp, RejectsBadArchitectures) {
  EXPECT_THROW(Mlp({4}), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 2}), std::invalid_argument);  // output must be 1
}

TEST(Mlp, LearnsLinearlySeparableData) {
  util::Rng rng(10);
  std::vector<Example> xs;
  for (int i = 0; i < 400; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 2.0 : -2.0;
    xs.push_back({{rng.normal(base, 0.5), rng.normal(-base, 0.5)}, pos});
  }
  Mlp mlp({2, 4, 1}, 11);
  MlpTrainOptions opts;
  opts.epochs = 40;
  mlp.train(xs, opts);
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 2.0 : -2.0;
    const std::vector<double> x{rng.normal(base, 0.5), rng.normal(-base, 0.5)};
    if ((mlp.predict(x) > 0.5) == pos) ++correct;
  }
  EXPECT_GE(correct, 190);
}

TEST(Mlp, SmallAnnDetectorSeparatesTraces) {
  const TraceSet train = make_corpus(12, 30, 12);
  const MlpDetector det = MlpDetector::make_small_ann(train, 13);
  const TraceSet test = make_corpus(8, 30, 14);
  EXPECT_GE(trace_accuracy(det, test, 30), 0.9);
  EXPECT_EQ(det.name(), "small-ann");
}

TEST(Mlp, LargeAnnArchitecture) {
  const TraceSet train = make_corpus(6, 10, 15);
  const MlpDetector det = MlpDetector::make_large_ann(train, 16);
  EXPECT_EQ(det.model().layer_sizes(),
            (std::vector<std::size_t>{kWindowFeatureDim, 8, 8, 1}));
}

TEST(Mlp, TrainRequiresBothClasses) {
  Mlp mlp({2, 2, 1});
  std::vector<Example> xs{{{1.0, 2.0}, true}};
  EXPECT_THROW(mlp.train(xs, {}), std::invalid_argument);
}

// --- SVM ---------------------------------------------------------------------

TEST(Svm, LearnsLinearlySeparableData) {
  util::Rng rng(17);
  std::vector<Example> xs;
  for (int i = 0; i < 400; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 1.5 : -1.5;
    xs.push_back({{rng.normal(base, 0.4), rng.normal(base, 0.4)}, pos});
  }
  LinearSvm svm;
  svm.train(xs, {});
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 1.5 : -1.5;
    const std::vector<double> x{rng.normal(base, 0.4), rng.normal(base, 0.4)};
    if ((svm.decision(x) > 0.0) == pos) ++correct;
  }
  EXPECT_GE(correct, 190);
}

TEST(Svm, DetectorMajorityVotesOverWindow) {
  const TraceSet train = make_corpus(10, 20, 18);
  const SvmDetector det = SvmDetector::make(train, 19);
  const TraceSet test = make_corpus(8, 20, 20);
  EXPECT_GE(trace_accuracy(det, test, 20), 0.9);
}

TEST(Svm, UntrainedThrows) {
  LinearSvm svm;
  EXPECT_THROW((void)svm.decision(std::vector<double>{1.0}), std::logic_error);
}

// --- GBT ---------------------------------------------------------------------

TEST(Gbt, LearnsNonLinearBoundary) {
  // XOR-ish: class = sign(x*y); trees must capture the interaction.
  util::Rng rng(21);
  std::vector<Example> xs;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    xs.push_back({{x, y}, x * y > 0});
  }
  GradientBoostedTrees gbt;
  gbt.train(xs);
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    if ((gbt.predict_logit({std::vector<double>{x, y}}) > 0) == (x * y > 0)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 270);
}

TEST(Gbt, DetectorSeparatesTraces) {
  const TraceSet train = make_corpus(10, 20, 22);
  const GbtDetector det = GbtDetector::make(train);
  const TraceSet test = make_corpus(8, 20, 23);
  EXPECT_GE(trace_accuracy(det, test, 20), 0.9);
  EXPECT_EQ(det.name(), "xgboost");
}

TEST(Gbt, PredictIsSigmoidOfLogit) {
  const TraceSet train = make_corpus(5, 10, 24);
  GradientBoostedTrees gbt;
  gbt.train(flatten(train));
  const std::vector<double> f(hpc::kFeatureDim, 1.0);
  const double p = gbt.predict(f);
  const double logit = gbt.predict_logit(f);
  EXPECT_NEAR(p, 1.0 / (1.0 + std::exp(-logit)), 1e-12);
}

TEST(Gbt, ConfigRespected) {
  GbtConfig cfg;
  cfg.num_trees = 7;
  GradientBoostedTrees gbt(cfg);
  gbt.train(flatten(make_corpus(5, 10, 25)));
  EXPECT_EQ(gbt.tree_count(), 7u);
}

TEST(Gbt, SingleClassThrows) {
  GradientBoostedTrees gbt;
  std::vector<Example> xs{{std::vector<double>{1.0}, true}};
  EXPECT_THROW(gbt.train(xs), std::invalid_argument);
}

// --- The fit against its oracle ------------------------------------------------
//
// SortingGbt is the fit as it stood before the presorted columns: at every
// node it copies the node's examples and std::sorts them once per feature.
// It is kept as the reference the presorted fit must match bit for bit. The
// two can differ only inside a run of equal values, whose left sums the
// sort added in introsort's order and the presorted fit adds in ascending
// example order; a left sum that rounds differently can flip a split whose
// gain ties another's to the last bit.

class SortingGbt {
 public:
  SortingGbt(const std::vector<Example>& examples, const GbtConfig& config)
      : config_(config) {
    const std::size_t n = examples.size();
    const auto n_pos = static_cast<double>(
        std::count_if(examples.begin(), examples.end(),
                      [](const Example& e) { return e.malicious; }));
    base_score_ = std::log(n_pos / (static_cast<double>(n) - n_pos));
    std::vector<double> score(n, base_score_);
    std::vector<double> grad(n);
    std::vector<double> hess(n);
    std::vector<std::uint32_t> indices(n);
    for (int round = 0; round < config_.num_trees; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const double p = 1.0 / (1.0 + std::exp(-score[i]));
        const double y = examples[i].malicious ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-9);
      }
      std::iota(indices.begin(), indices.end(), 0u);
      Tree tree;
      build_node(tree, examples, indices, 0, n, grad, hess, 0);
      for (std::size_t i = 0; i < n; ++i) {
        score[i] += config_.learning_rate *
                    tree_output(tree, examples[i].features);
      }
      trees_.push_back(std::move(tree));
    }
  }

  [[nodiscard]] double predict_logit(std::span<const double> features) const {
    double score = base_score_;
    for (const Tree& tree : trees_) {
      score += config_.learning_rate * tree_output(tree, features);
    }
    return score;
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double leaf_value = 0.0;
    int left = -1;
    int right = -1;
  };
  using Tree = std::vector<Node>;

  int build_node(Tree& tree, const std::vector<Example>& examples,
                 std::vector<std::uint32_t>& indices, std::size_t begin,
                 std::size_t end, const std::vector<double>& grad,
                 const std::vector<double>& hess, int depth) {
    double g_total = 0.0;
    double h_total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      g_total += grad[indices[i]];
      h_total += hess[indices[i]];
    }
    const auto make_leaf = [&]() {
      Node leaf;
      leaf.leaf_value = -g_total / (h_total + config_.lambda);
      tree.push_back(leaf);
      return static_cast<int>(tree.size()) - 1;
    };
    const std::size_t count = end - begin;
    if (depth >= config_.max_depth || count < 2 * config_.min_leaf) {
      return make_leaf();
    }
    const std::size_t dim = examples.front().features.size();
    const double parent_obj = g_total * g_total / (h_total + config_.lambda);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = config_.min_gain;
    std::vector<std::uint32_t> sorted(
        indices.begin() + static_cast<long>(begin),
        indices.begin() + static_cast<long>(end));
    for (std::size_t f = 0; f < dim; ++f) {
      std::sort(sorted.begin(), sorted.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return examples[a].features[f] < examples[b].features[f];
                });
      double g_left = 0.0;
      double h_left = 0.0;
      for (std::size_t i = 0; i + 1 < count; ++i) {
        g_left += grad[sorted[i]];
        h_left += hess[sorted[i]];
        const double v = examples[sorted[i]].features[f];
        const double v_next = examples[sorted[i + 1]].features[f];
        if (v == v_next) continue;
        const std::size_t n_left = i + 1;
        if (n_left < config_.min_leaf || count - n_left < config_.min_leaf) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        const double gain =
            g_left * g_left / (h_left + config_.lambda) +
            g_right * g_right / (h_right + config_.lambda) - parent_obj;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
    if (best_feature < 0) return make_leaf();
    const auto mid_it = std::partition(
        indices.begin() + static_cast<long>(begin),
        indices.begin() + static_cast<long>(end), [&](std::uint32_t idx) {
          return examples[idx]
                     .features[static_cast<std::size_t>(best_feature)] <
                 best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    Node node;
    node.feature = best_feature;
    node.threshold = best_threshold;
    tree.push_back(node);
    const int self = static_cast<int>(tree.size()) - 1;
    const int left =
        build_node(tree, examples, indices, begin, mid, grad, hess, depth + 1);
    const int right =
        build_node(tree, examples, indices, mid, end, grad, hess, depth + 1);
    tree[static_cast<std::size_t>(self)].left = left;
    tree[static_cast<std::size_t>(self)].right = right;
    return self;
  }

  static double tree_output(const Tree& tree,
                            std::span<const double> features) {
    std::size_t node = 0;
    while (tree[node].feature >= 0) {
      const auto f = static_cast<std::size_t>(tree[node].feature);
      node = static_cast<std::size_t>(features[f] < tree[node].threshold
                                          ? tree[node].left
                                          : tree[node].right);
    }
    return tree[node].leaf_value;
  }

  GbtConfig config_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;
};

/// 600 examples of 8 features, uniform on [0, 1) or, with `levels` > 0,
/// quantised to that many values, labelled by a noisy rule with an
/// interaction so the trees split on several features.
std::vector<Example> synthetic_examples(util::Rng& rng, int levels) {
  std::vector<Example> xs(600);
  for (Example& ex : xs) {
    ex.features.resize(8);
    for (double& x : ex.features) {
      x = rng.uniform();
      if (levels > 0) x = std::floor(x * levels) / levels;
    }
    const std::vector<double>& f = ex.features;
    ex.malicious = f[0] + f[1] * f[2] - 0.5 * f[3] + rng.normal(0.0, 0.2) > 0.6;
  }
  return xs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// (levels, seed); 0 levels is continuous data. At 16 and 256 levels every
// column holds runs of equal values, so the two fits add left sums in
// different orders throughout, yet no seed here moves a split. Coarser data
// can: over seeds 1-100 at 2, 3, 4, 6 and 8 levels, one fit (8 levels, seed
// 84) split differently, so those levels are not asserted. With a stable
// sort in the oracle, every one of those fits matched too.
class GbtSortingOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GbtSortingOracle, SameLogitsOnTrainingExamplesAndProbes) {
  const auto [levels, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const std::vector<Example> xs = synthetic_examples(rng, levels);
  GradientBoostedTrees fit;
  fit.train(xs);
  const SortingGbt oracle(xs, GbtConfig{});
  for (const Example& ex : xs) {
    ASSERT_EQ(bits(fit.predict_logit(ex.features)),
              bits(oracle.predict_logit(ex.features)));
  }
  const std::vector<Example> probes = synthetic_examples(rng, levels);
  for (const Example& ex : probes) {
    ASSERT_EQ(bits(fit.predict_logit(ex.features)),
              bits(oracle.predict_logit(ex.features)));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, GbtSortingOracle,
                         ::testing::Combine(::testing::Values(0, 16, 256),
                                            ::testing::Range(1, 13)));

// perfbench's training set, built as perfbench/bench.cpp's train_detector
// builds it: every palette program for 20 epochs; 6 miners and 10
// ransomware samples over all five families for 30; one rowhammer for 16.
TraceSet perfbench_training_set() {
  std::vector<core::WorkloadFactory> benign;
  for (const workloads::BenchmarkSpec& spec :
       workloads::all_single_threaded()) {
    benign.push_back(
        [spec] { return std::make_unique<workloads::BenchmarkWorkload>(spec); });
  }
  TraceSet set = core::collect_traces(benign, 20);
  std::vector<core::WorkloadFactory> attacks;
  const std::vector<attacks::CryptominerConfig> miners =
      attacks::cryptominer_corpus(0x11);
  const std::vector<attacks::RansomwareConfig> ransomware =
      attacks::ransomware_corpus(0x22);
  for (std::size_t i = 0; i < 6; ++i) {
    const attacks::CryptominerConfig mc = miners[i * 5 % miners.size()];
    attacks.push_back(
        [mc] { return std::make_unique<attacks::CryptominerAttack>(mc); });
  }
  for (std::size_t i = 0; i < 10; ++i) {
    const attacks::RansomwareConfig rc =
        ransomware[i * 7 % ransomware.size()];
    attacks.push_back(
        [rc] { return std::make_unique<attacks::RansomwareAttack>(rc); });
  }
  for (LabeledTrace& t : core::collect_traces(attacks, 30, {}, 0x99).traces) {
    set.traces.push_back(std::move(t));
  }
  attacks::RowhammerConfig rh;
  rh.dram_seed = 0x100;
  set.traces.push_back(core::collect_trace(
      std::make_unique<attacks::RowhammerAttack>(rh), 16, {}, 0x77));
  return set;
}

// The trained ensembles' fingerprints, recorded with the fit that sorted
// each node's examples per feature: any change to a split, a threshold or
// a leaf value moves them.
TEST(GbtFit, TrainedModelsArePinned) {
  const TraceSet perfbench = perfbench_training_set();
  ASSERT_EQ(flatten(perfbench).size(), 2036u);
  EXPECT_EQ(GbtDetector::make(perfbench).state_hash(), 0xe6b3583aee26287cULL);
  EXPECT_EQ(GbtDetector::make(make_corpus(10, 20, 22)).state_hash(),
            0xef175d0ae1641d59ULL);
}

// GbtDetector::make fits from columns written straight from the traces;
// train(examples) copies its examples into columns. Same trees either way.
TEST(GbtFit, ColumnsFromTracesFitAsFlattenedExamples) {
  const TraceSet set = make_corpus(6, 15, 40);
  GradientBoostedTrees from_examples;
  from_examples.train(flatten(set));
  EXPECT_NE(from_examples.param_hash(), 0u);
  EXPECT_EQ(GbtDetector::make(set).state_hash(), from_examples.param_hash());
}

TEST(GbtFit, MalformedInputIsRefused) {
  GradientBoostedTrees gbt;
  const std::vector<Example> xs{{{1.0, 2.0}, true}, {{1.0}, false}};
  EXPECT_THROW(gbt.train(xs), std::invalid_argument);
  FeatureColumns columns = to_columns(flatten(make_corpus(2, 3, 41)));
  columns.malicious.pop_back();
  EXPECT_THROW(gbt.train(columns), std::invalid_argument);
}

// --- LSTM --------------------------------------------------------------------

TEST(Lstm, LearnsSequenceClassification) {
  const TraceSet train = make_corpus(10, 25, 26);
  LstmTrainOptions opts;
  opts.epochs = 12;
  const LstmDetector det = LstmDetector::make(train, 27, opts);
  const TraceSet test = make_corpus(8, 25, 28);
  EXPECT_GE(trace_accuracy(det, test, 25), 0.9);
}

TEST(Lstm, EmptySequencePredictsBenign) {
  Lstm model;
  EXPECT_DOUBLE_EQ(model.predict({}), 0.0);
  LstmDetector det(Lstm{});
  EXPECT_EQ(det.infer(std::span<const hpc::HpcSample>{}), Inference::kBenign);
}

TEST(Lstm, RejectsDimensionMismatch) {
  Lstm model;  // input dim = kFeatureDim
  const std::vector<std::vector<double>> bad{{1.0, 2.0}};
  EXPECT_THROW((void)model.predict(bad), std::invalid_argument);
}

TEST(Lstm, DefaultArchitectureMatchesPaper) {
  // Fig. 6b's detector: hidden layer of 8 nodes.
  const Lstm model;
  EXPECT_EQ(model.config().hidden_dim, 8u);
}

// Property: every detector family improves (or at least does not get
// worse) when given more measurements — the monotonic backbone of Fig. 1.
class WindowGrowth : public ::testing::TestWithParam<int> {};

TEST_P(WindowGrowth, MoreMeasurementsNoWorse) {
  // Use a harder corpus (closer populations) so small windows err.
  const TraceSet train = make_corpus(12, 40, 29);
  const SvmDetector det = SvmDetector::make(train, 30);
  const TraceSet test = make_corpus(10, 40, static_cast<std::uint64_t>(
                                                 31 + GetParam()));
  const double small = trace_accuracy(det, test, 2);
  const double large = trace_accuracy(det, test, 40);
  EXPECT_GE(large + 0.05, small);  // allow sampling slack
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowGrowth, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace valkyrie::ml
