#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/serial.hpp"
#include "util/simd.hpp"

namespace valkyrie::ml {
namespace {

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

/// A depth<=2 tree fully hoisted for one column block: the root row, the
/// two possible level-1 rows, their thresholds, and the four reachable
/// leaf values. Shallower shapes degenerate correctly through the leaf
/// self-loop (-inf threshold forces the right/self branch), so this one
/// struct covers depth 0, 1 and 2.
struct Depth2Tree {
  const double* row0;
  const double* rowl;
  const double* rowr;
  double t0, tl, tr;
  double vll, vlr, vrl, vrr;
};

/// Branch-free depth<=2 accumulation: two unit-stride row loads and three
/// compare/selects per column, no per-column node cursor and no indirect
/// node loads — everything data-dependent was hoisted into `t`. The
/// comparisons, selected leaf values and the per-tree `out += lr * v`
/// accumulation are exactly the scalar walk's, so bit-identity holds (the
/// clone list excludes FMA, see util/simd.hpp).
VALKYRIE_TARGET_CLONES
void accumulate_depth2(const Depth2Tree& t, std::size_t bw,
                       double learning_rate, double* out) {
  for (std::size_t c = 0; c < bw; ++c) {
    const bool c0 = t.row0[c] < t.t0;
    // Load both candidate rows unconditionally so the selects lower to
    // blends (a speculated conditional load would block vectorization).
    const double xl = t.rowl[c];
    const double xr = t.rowr[c];
    const double x1 = c0 ? xl : xr;
    const double t1 = c0 ? t.tl : t.tr;
    const bool c1 = x1 < t1;
    const double v = c0 ? (c1 ? t.vll : t.vlr) : (c1 ? t.vrl : t.vrr);
    out[c] += learning_rate * v;
  }
}

/// A node of the depth being grown: its members indices[begin, end), their
/// totals, the column walk's running left sums and the best split so far.
struct Grow {
  std::size_t node = 0;  // index in the level-ordered tree
  std::size_t begin = 0;
  std::size_t end = 0;
  double g_total = 0.0;
  double h_total = 0.0;
  double parent_obj = 0.0;
  double g_left = 0.0;
  double h_left = 0.0;
  std::size_t n_left = 0;
  double last = 0.0;  // the last walked member's value
  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
};

/// Copies a level-ordered tree into preorder (parent, left subtree, right
/// subtree), the layout predict walks from index 0 and param_hash reads.
template <class Tree>
void append_preorder(const Tree& level_order, int node, Tree& out) {
  const auto from = static_cast<std::size_t>(node);
  out.push_back(level_order[from]);
  if (level_order[from].feature < 0) return;
  const std::size_t self = out.size() - 1;
  out[self].left = static_cast<int>(out.size());
  append_preorder(level_order, level_order[from].left, out);
  out[self].right = static_cast<int>(out.size());
  append_preorder(level_order, level_order[from].right, out);
}

}  // namespace

/// One fit's scratch. Column f's example indices sorted by value, ties in
/// ascending example order (a stable order, without a stable sort's
/// temporary buffer), sit at order[f * count, (f + 1) * count); the sort
/// runs once per fit. `indices` holds the members of each node of the
/// tree being grown as a contiguous range, partitioned as splits are
/// chosen, and `open` maps an example to the node of the current depth
/// whose split is being searched, or -1.
struct GradientBoostedTrees::Fit {
  const FeatureColumns& data;
  std::vector<std::uint32_t> order;
  std::vector<double> score;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<std::uint32_t> indices;
  std::vector<std::int32_t> open;
};

void GradientBoostedTrees::train(const std::vector<Example>& examples) {
  train(to_columns(examples));
}

void GradientBoostedTrees::train(const FeatureColumns& data) {
  const std::size_t n = data.count;
  if (n == 0) {
    throw std::invalid_argument("GradientBoostedTrees: empty dataset");
  }
  if (data.values.size() != data.dim * n || data.malicious.size() != n) {
    throw std::invalid_argument("GradientBoostedTrees: malformed columns");
  }
  const auto n_pos = static_cast<double>(
      std::count_if(data.malicious.begin(), data.malicious.end(),
                    [](std::uint8_t m) { return m != 0; }));
  if (n_pos == 0.0 || n_pos == static_cast<double>(n)) {
    throw std::invalid_argument("GradientBoostedTrees: need both classes");
  }
  // Start from the prior log-odds.
  base_score_ = std::log(n_pos / (static_cast<double>(n) - n_pos));
  trees_.clear();

  Fit fit{.data = data,
          .order = std::vector<std::uint32_t>(data.dim * n),
          .score = std::vector<double>(n, base_score_),
          .grad = std::vector<double>(n),
          .hess = std::vector<double>(n),
          .indices = std::vector<std::uint32_t>(n),
          .open = std::vector<std::int32_t>(n)};
  for (std::size_t f = 0; f < data.dim; ++f) {
    const double* column = data.column(f);
    const auto first = fit.order.begin() + static_cast<std::ptrdiff_t>(f * n);
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    std::iota(first, last, 0u);
    std::sort(first, last, [column](std::uint32_t a, std::uint32_t b) {
      return column[a] < column[b] || (column[a] == column[b] && a < b);
    });
  }

  for (int round = 0; round < config_.num_trees; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(fit.score[i]);
      const double y = data.malicious[i] != 0 ? 1.0 : 0.0;
      fit.grad[i] = p - y;
      fit.hess[i] = std::max(p * (1.0 - p), 1e-9);
    }
    std::iota(fit.indices.begin(), fit.indices.end(), 0u);
    trees_.push_back(fit_tree(fit));
  }

  // Fix the plane-tile eligibility once per model: models trained on
  // wider-than-per-measurement features can't use the fixed-height gather
  // tile in predict_logit_plane.
  plane_tile_ok_ = true;
  for (const Tree& tree : trees_) {
    for (const Node& node : tree) {
      plane_tile_ok_ &= node.feature < static_cast<int>(hpc::kFeatureDim);
    }
  }
  build_flat();

  param_hash_ = util::fnv1a(std::string_view("xgboost"));
  const double head[] = {base_score_, config_.learning_rate};
  param_hash_ = util::fnv1a(head, param_hash_);
  for (const Tree& tree : trees_) {
    for (const Node& node : tree) {
      // Feature and child indices are small integers, exact as doubles. A
      // tree is a full binary tree in preorder, so the concatenation
      // delimits itself.
      const double fields[] = {static_cast<double>(node.feature),
                               node.threshold, node.leaf_value,
                               static_cast<double>(node.left),
                               static_cast<double>(node.right)};
      param_hash_ = util::fnv1a(fields, param_hash_);
    }
  }
}

void GradientBoostedTrees::build_flat() {
  flat_.clear();
  flat_.reserve(trees_.size());
  for (const Tree& tree : trees_) {
    FlatTree ft;
    const std::size_t n = tree.size();
    ft.feature.resize(n);
    ft.threshold.resize(n);
    ft.left.resize(n);
    ft.right.resize(n);
    ft.value.resize(n);
    std::vector<int> depth(n, 0);
    // Trees are laid out in preorder, parents before children, so a
    // reverse walk sees both children's depths before the parent needs
    // them.
    for (std::size_t i = n; i-- > 0;) {
      const Node& node = tree[i];
      const auto self = static_cast<std::int32_t>(i);
      if (node.feature < 0) {
        ft.feature[i] = 0;
        ft.threshold[i] = -std::numeric_limits<double>::infinity();
        ft.left[i] = self;
        ft.right[i] = self;
        ft.value[i] = node.leaf_value;
      } else {
        ft.feature[i] = node.feature;
        ft.threshold[i] = node.threshold;
        ft.left[i] = node.left;
        ft.right[i] = node.right;
        ft.value[i] = 0.0;
        depth[i] = 1 + std::max(depth[static_cast<std::size_t>(node.left)],
                                depth[static_cast<std::size_t>(node.right)]);
      }
    }
    ft.depth = depth[0];
    flat_.push_back(std::move(ft));
  }
}

GradientBoostedTrees::Tree GradientBoostedTrees::fit_tree(Fit& fit) const {
  const FeatureColumns& data = fit.data;
  const std::size_t n = data.count;
  Tree level_order(1);
  std::vector<Grow> level(1);
  std::vector<Grow> next;
  level[0].end = n;
  for (int depth = 0; !level.empty(); ++depth) {
    // Totals over each node's members in partition order. A node that may
    // still split claims its members for the column walk.
    bool searching = false;
    std::fill(fit.open.begin(), fit.open.end(), -1);
    for (std::size_t k = 0; k < level.size(); ++k) {
      Grow& g = level[k];
      for (std::size_t i = g.begin; i < g.end; ++i) {
        g.g_total += fit.grad[fit.indices[i]];
        g.h_total += fit.hess[fit.indices[i]];
      }
      g.best_gain = config_.min_gain;
      if (depth >= config_.max_depth ||
          g.end - g.begin < 2 * config_.min_leaf) {
        continue;
      }
      g.parent_obj = g.g_total * g.g_total / (g.h_total + config_.lambda);
      for (std::size_t i = g.begin; i < g.end; ++i) {
        fit.open[fit.indices[i]] = static_cast<std::int32_t>(k);
      }
      searching = true;
    }
    // One walk per sorted column serves every open node: each sees its own
    // members in ascending value order and scores the split between every
    // pair of unequal neighbours, feature by feature.
    for (std::size_t f = 0; searching && f < data.dim; ++f) {
      const double* column = data.column(f);
      const std::uint32_t* order = fit.order.data() + f * n;
      for (Grow& g : level) {
        g.g_left = 0.0;
        g.h_left = 0.0;
        g.n_left = 0;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t i = order[k];
        const std::int32_t slot = fit.open[i];
        if (slot < 0) continue;
        Grow& g = level[static_cast<std::size_t>(slot)];
        const double v = column[i];
        if (g.n_left > 0 && v != g.last) {
          const std::size_t count = g.end - g.begin;
          if (g.n_left >= config_.min_leaf &&
              count - g.n_left >= config_.min_leaf) {
            const double g_right = g.g_total - g.g_left;
            const double h_right = g.h_total - g.h_left;
            const double gain =
                g.g_left * g.g_left / (g.h_left + config_.lambda) +
                g_right * g_right / (h_right + config_.lambda) - g.parent_obj;
            if (gain > g.best_gain) {
              g.best_gain = gain;
              g.best_feature = static_cast<int>(f);
              g.best_threshold = 0.5 * (g.last + v);
            }
          }
        }
        g.g_left += fit.grad[i];
        g.h_left += fit.hess[i];
        ++g.n_left;
        g.last = v;
      }
    }
    // Close each node as a leaf, or split its range with std::partition and
    // open its children one depth down.
    next.clear();
    for (const Grow& g : level) {
      if (g.best_feature < 0) {
        const double value = -g.g_total / (g.h_total + config_.lambda);
        level_order[g.node].leaf_value = value;
        for (std::size_t i = g.begin; i < g.end; ++i) {
          fit.score[fit.indices[i]] += config_.learning_rate * value;
        }
        continue;
      }
      const double* column =
          data.column(static_cast<std::size_t>(g.best_feature));
      const double threshold = g.best_threshold;
      const auto mid_it = std::partition(
          fit.indices.begin() + static_cast<std::ptrdiff_t>(g.begin),
          fit.indices.begin() + static_cast<std::ptrdiff_t>(g.end),
          [column, threshold](std::uint32_t i) {
            return column[i] < threshold;
          });
      const auto mid = static_cast<std::size_t>(mid_it - fit.indices.begin());
      const auto left = static_cast<int>(level_order.size());
      Node& node = level_order[g.node];
      node.feature = g.best_feature;
      node.threshold = threshold;
      node.left = left;
      node.right = left + 1;
      level_order.resize(level_order.size() + 2);
      next.push_back({.node = static_cast<std::size_t>(left),
                      .begin = g.begin,
                      .end = mid});
      next.push_back({.node = static_cast<std::size_t>(left + 1),
                      .begin = mid,
                      .end = g.end});
    }
    level.swap(next);
  }
  Tree tree;
  tree.reserve(level_order.size());
  append_preorder(level_order, 0, tree);
  return tree;
}

double GradientBoostedTrees::tree_output(const Tree& tree,
                                         std::span<const double> features) {
  // Trees are laid out in preorder, so index 0 is the root.
  std::size_t node = 0;
  while (tree[node].feature >= 0) {
    const std::size_t f = static_cast<std::size_t>(tree[node].feature);
    node = static_cast<std::size_t>(features[f] < tree[node].threshold
                                        ? tree[node].left
                                        : tree[node].right);
  }
  return tree[node].leaf_value;
}

double GradientBoostedTrees::predict_logit(
    std::span<const double> features) const {
  if (!trained()) throw std::logic_error("GradientBoostedTrees: not trained");
  double score = base_score_;
  for (const Tree& tree : trees_) {
    score += config_.learning_rate * tree_output(tree, features);
  }
  return score;
}

double GradientBoostedTrees::predict(std::span<const double> features) const {
  return sigmoid(predict_logit(features));
}

void GradientBoostedTrees::predict_logit_plane(const double* features,
                                               std::size_t stride,
                                               std::size_t n,
                                               double* out) const {
  if (!trained()) throw std::logic_error("GradientBoostedTrees: not trained");
  // Models trained on wider features than the per-measurement vector
  // can't use the fixed-height gather tile below; walk the strided rows
  // directly (correct for any dimensionality, just not cache-blocked).
  if (!plane_tile_ok_) {
    for (std::size_t c = 0; c < n; ++c) out[c] = base_score_;
    for (const Tree& tree : trees_) {
      for (std::size_t c = 0; c < n; ++c) {
        std::size_t node = 0;
        while (tree[node].feature >= 0) {
          const std::size_t f = static_cast<std::size_t>(tree[node].feature);
          node = static_cast<std::size_t>(
              features[f * stride + c] < tree[node].threshold
                  ? tree[node].left
                  : tree[node].right);
        }
        out[c] += config_.learning_rate * tree[node].leaf_value;
      }
    }
    return;
  }
  // Column blocks with the tree loop outermost, so each tree's flat node
  // tables stay hot across the block. Traversal is LAYERED over the
  // flat-SoA tables: every column holds a node cursor and each of the
  // tree's `depth` passes advances all cursors one level with a select
  // (leaves self-loop, see FlatTree). The inner loop has no data-dependent
  // branch — a mixed benign/attack batch costs the same as a uniform one —
  // and every pass reads the plane rows at unit stride in the column
  // index, so no gather tile is needed. Comparisons, leaf values and
  // accumulation order are exactly the scalar walk's, so the output stays
  // bit-identical.
  constexpr std::size_t kCols = 128;
  std::int32_t nodes[kCols];
  for (std::size_t base = 0; base < n; base += kCols) {
    const std::size_t bw = std::min(kCols, n - base);
    const double* block = features + base;
    double* out_block = out + base;
    for (std::size_t c = 0; c < bw; ++c) out_block[c] = base_score_;
    for (const FlatTree& ft : flat_) {
      if (ft.depth <= 2) {
        const auto l = static_cast<std::size_t>(ft.left[0]);
        const auto r = static_cast<std::size_t>(ft.right[0]);
        Depth2Tree t;
        t.row0 = block + static_cast<std::size_t>(ft.feature[0]) * stride;
        t.rowl = block + static_cast<std::size_t>(ft.feature[l]) * stride;
        t.rowr = block + static_cast<std::size_t>(ft.feature[r]) * stride;
        t.t0 = ft.threshold[0];
        t.tl = ft.threshold[l];
        t.tr = ft.threshold[r];
        t.vll = ft.value[static_cast<std::size_t>(ft.left[l])];
        t.vlr = ft.value[static_cast<std::size_t>(ft.right[l])];
        t.vrl = ft.value[static_cast<std::size_t>(ft.left[r])];
        t.vrr = ft.value[static_cast<std::size_t>(ft.right[r])];
        accumulate_depth2(t, bw, config_.learning_rate, out_block);
        continue;
      }
      for (std::size_t c = 0; c < bw; ++c) nodes[c] = 0;
      for (int d = 0; d < ft.depth; ++d) {
        for (std::size_t c = 0; c < bw; ++c) {
          const auto node = static_cast<std::size_t>(nodes[c]);
          const auto f = static_cast<std::size_t>(ft.feature[node]);
          nodes[c] = block[f * stride + c] < ft.threshold[node]
                         ? ft.left[node]
                         : ft.right[node];
        }
      }
      for (std::size_t c = 0; c < bw; ++c) {
        out_block[c] += config_.learning_rate *
                        ft.value[static_cast<std::size_t>(nodes[c])];
      }
    }
  }
}

void GbtDetector::measurement_votes(const FeatureMatrixView& batch,
                                    std::span<std::uint8_t> out) const {
  constexpr std::size_t kCols = 256;
  double logits[kCols];
  for (std::size_t base = 0; base < batch.count; base += kCols) {
    const std::size_t bw = std::min(kCols, batch.count - base);
    model_.predict_logit_plane(batch.features + base, batch.stride, bw,
                               logits);
    for (std::size_t c = 0; c < bw; ++c) out[base + c] = logits[c] > 0.0;
  }
}

Inference GbtDetector::infer(std::span<const hpc::HpcSample> window) const {
  if (window.empty()) return Inference::kBenign;
  std::size_t malicious_votes = 0;
  hpc::FeatureVec f;
  for (const hpc::HpcSample& s : window) {
    hpc::to_features(s, f);
    if (model_.predict_logit(f) > 0.0) ++malicious_votes;
  }
  return 2 * malicious_votes > window.size() ? Inference::kMalicious
                                             : Inference::kBenign;
}

GbtDetector GbtDetector::make(const TraceSet& train, GbtConfig config) {
  GradientBoostedTrees model(config);
  model.train(flatten_columns(train));
  return GbtDetector(std::move(model));
}

}  // namespace valkyrie::ml
