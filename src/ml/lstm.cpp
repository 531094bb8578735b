#include "ml/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/serial.hpp"

namespace valkyrie::ml {
namespace {

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

struct Lstm::ForwardState {
  // Per time step: input, gate activations (post-nonlinearity), cell, hidden.
  std::vector<std::vector<double>> x, gi, gf, gg, go, c, h;
  double output = 0.0;  // final sigmoid probability
};

Lstm::Lstm(LstmConfig config, std::uint64_t seed) : config_(config) {
  const std::size_t d = config_.input_dim;
  const std::size_t hdim = config_.hidden_dim;
  if (d == 0 || hdim == 0) {
    throw std::invalid_argument("Lstm: zero dimension");
  }
  params_.resize(param_count());
  util::Rng rng(seed);
  const double scale = std::sqrt(1.0 / static_cast<double>(d + hdim));
  for (double& p : params_) p = rng.uniform(-scale, scale);
  // Forget-gate bias starts at 1 (standard trick: remember by default).
  const std::size_t w_size = 4 * hdim * (d + hdim);
  for (std::size_t j = 0; j < hdim; ++j) params_[w_size + hdim + j] = 1.0;
  adam_m_.assign(params_.size(), 0.0);
  adam_v_.assign(params_.size(), 0.0);
}

std::size_t Lstm::param_count() const noexcept {
  const std::size_t d = config_.input_dim;
  const std::size_t h = config_.hidden_dim;
  return 4 * h * (d + h) + 4 * h + h + 1;
}

void Lstm::advance_cell(std::span<const double> x, std::vector<double>& h,
                        std::vector<double>& c, std::vector<double>& gates,
                        std::vector<double>& gi, std::vector<double>& gf,
                        std::vector<double>& gg,
                        std::vector<double>& go) const {
  const std::size_t d = config_.input_dim;
  const std::size_t hdim = config_.hidden_dim;
  const std::size_t w_size = 4 * hdim * (d + hdim);
  const double* w = params_.data();
  const double* b = params_.data() + w_size;
  // gates = W [x; h_prev] + b, rows ordered i, f, g, o per hidden unit
  // block: row r of W has (d + hdim) columns.
  for (std::size_t r = 0; r < 4 * hdim; ++r) {
    const double* row = w + r * (d + hdim);
    double sum = b[r];
    for (std::size_t k = 0; k < d; ++k) sum += row[k] * x[k];
    for (std::size_t k = 0; k < hdim; ++k) sum += row[d + k] * h[k];
    gates[r] = sum;
  }
  for (std::size_t j = 0; j < hdim; ++j) {
    gi[j] = sigmoid(gates[j]);
    gf[j] = sigmoid(gates[hdim + j]);
    gg[j] = std::tanh(gates[2 * hdim + j]);
    go[j] = sigmoid(gates[3 * hdim + j]);
  }
  for (std::size_t j = 0; j < hdim; ++j) {
    c[j] = gf[j] * c[j] + gi[j] * gg[j];
    h[j] = go[j] * std::tanh(c[j]);
  }
}

double Lstm::output_prob(std::span<const double> h) const {
  const std::size_t d = config_.input_dim;
  const std::size_t hdim = config_.hidden_dim;
  const std::size_t w_size = 4 * hdim * (d + hdim);
  const double* w_out = params_.data() + w_size + 4 * hdim;
  double logit = *(w_out + hdim);  // b_out
  for (std::size_t j = 0; j < hdim; ++j) logit += w_out[j] * h[j];
  return sigmoid(logit);
}

double Lstm::forward(std::span<const std::vector<double>> sequence,
                     ForwardState* record) const {
  const std::size_t d = config_.input_dim;
  const std::size_t hdim = config_.hidden_dim;

  std::vector<double> h(hdim, 0.0);
  std::vector<double> c(hdim, 0.0);
  std::vector<double> gates(4 * hdim);
  std::vector<double> gi(hdim), gf(hdim), gg(hdim), go(hdim);

  for (const std::vector<double>& x : sequence) {
    if (x.size() != d) throw std::invalid_argument("Lstm: input dim mismatch");
    advance_cell(x, h, c, gates, gi, gf, gg, go);
    if (record != nullptr) {
      record->x.push_back(x);
      record->gi.push_back(gi);
      record->gf.push_back(gf);
      record->gg.push_back(gg);
      record->go.push_back(go);
      record->c.push_back(c);
      record->h.push_back(h);
    }
  }

  const double p = output_prob(h);
  if (record != nullptr) record->output = p;
  return p;
}

Lstm::StreamState Lstm::stream_begin() const {
  return {std::vector<double>(config_.hidden_dim, 0.0),
          std::vector<double>(config_.hidden_dim, 0.0), 0};
}

void Lstm::stream_step(StreamState& state,
                       std::span<const double> features) const {
  if (features.size() != config_.input_dim ||
      state.h.size() != config_.hidden_dim ||
      state.c.size() != config_.hidden_dim) {
    throw std::invalid_argument("Lstm::stream_step: dimension mismatch");
  }
  std::vector<double> x =
      scaler_.fitted() ? scaler_.transform(features)
                       : std::vector<double>(features.begin(), features.end());
  const std::size_t hdim = config_.hidden_dim;
  std::vector<double> gates(4 * hdim);
  std::vector<double> gi(hdim), gf(hdim), gg(hdim), go(hdim);
  advance_cell(x, state.h, state.c, gates, gi, gf, gg, go);
  ++state.steps;
}

double Lstm::stream_prob(const StreamState& state) const {
  if (state.h.size() != config_.hidden_dim) {
    throw std::invalid_argument("Lstm::stream_prob: state size mismatch");
  }
  if (state.steps == 0) return 0.0;  // predict() on an empty sequence
  return output_prob(state.h);
}

void Lstm::stream_save(const StreamState& state, util::ByteWriter& out) {
  out.f64_span(state.h);
  out.f64_span(state.c);
  out.u64(state.steps);
}

Lstm::StreamState Lstm::stream_load(util::ByteReader& in) {
  StreamState state;
  state.h = in.f64_vec();
  state.c = in.f64_vec();
  state.steps = in.u64();
  if (state.h.size() != state.c.size()) {
    throw util::SerialError(util::SerialError::Code::kMalformed,
                            "Lstm stream state: h/c size mismatch");
  }
  return state;
}

void Lstm::snapshot_save(util::ByteWriter& out) const {
  out.u64(config_.input_dim);
  out.u64(config_.hidden_dim);
  out.f64_span(scaler_.means());
  out.f64_span(scaler_.inv_stddevs());
  out.f64_span(params_);
  out.f64_span(adam_m_);
  out.f64_span(adam_v_);
  out.u64(adam_t_);
}

Lstm Lstm::snapshot_load(util::ByteReader& in) {
  using util::SerialError;
  LstmConfig config;
  config.input_dim = static_cast<std::size_t>(in.u64());
  config.hidden_dim = static_cast<std::size_t>(in.u64());
  // Keep the dimensions sane before the constructor sizes the parameter
  // vector from their product (a corrupt image must not drive a huge
  // allocation; real models are orders of magnitude smaller).
  constexpr std::size_t kMaxDim = 1 << 16;
  if (config.input_dim == 0 || config.hidden_dim == 0 ||
      config.input_dim > kMaxDim || config.hidden_dim > kMaxDim) {
    throw SerialError(SerialError::Code::kMalformed,
                      "Lstm snapshot: implausible dimensions");
  }
  Lstm model(config, 0);
  std::vector<double> mean = in.f64_vec();
  std::vector<double> inv_std = in.f64_vec();
  if (mean.size() != inv_std.size() ||
      (!mean.empty() && mean.size() != config.input_dim)) {
    throw SerialError(SerialError::Code::kMalformed,
                      "Lstm snapshot: scaler dimension mismatch");
  }
  if (!mean.empty()) model.scaler_.restore(std::move(mean), std::move(inv_std));
  model.params_ = in.f64_vec();
  model.adam_m_ = in.f64_vec();
  model.adam_v_ = in.f64_vec();
  if (model.params_.size() != model.param_count() ||
      model.adam_m_.size() != model.params_.size() ||
      model.adam_v_.size() != model.params_.size()) {
    throw SerialError(SerialError::Code::kMalformed,
                      "Lstm snapshot: parameter count mismatch");
  }
  model.adam_t_ = in.u64();
  return model;
}

std::uint64_t Lstm::param_hash() const noexcept {
  std::uint64_t h = util::fnv1a(std::string_view("lstm"));
  h = util::fnv1a(std::span<const double>(params_), h);
  h = util::fnv1a(scaler_.means(), h);
  h = util::fnv1a(scaler_.inv_stddevs(), h);
  return h;
}

double Lstm::predict(std::span<const std::vector<double>> sequence) const {
  if (sequence.empty()) return 0.0;
  if (!scaler_.fitted()) return forward(sequence, nullptr);
  std::vector<std::vector<double>> scaled;
  scaled.reserve(sequence.size());
  for (const std::vector<double>& x : sequence) {
    scaled.push_back(scaler_.transform(x));
  }
  return forward(scaled, nullptr);
}

double Lstm::backward(std::span<const std::vector<double>> sequence,
                      double target, double sample_weight,
                      std::vector<double>& grad) const {
  const std::size_t d = config_.input_dim;
  const std::size_t hdim = config_.hidden_dim;
  const std::size_t w_size = 4 * hdim * (d + hdim);
  const double* w = params_.data();
  const double* w_out = params_.data() + w_size + 4 * hdim;

  ForwardState fs;
  const double p = forward(sequence, &fs);
  const std::size_t steps = fs.x.size();
  if (steps == 0) return 0.0;

  const double loss = -(target * std::log(std::max(p, 1e-12)) +
                        (1.0 - target) * std::log(std::max(1.0 - p, 1e-12)));

  double* g_w = grad.data();
  double* g_b = grad.data() + w_size;
  double* g_wout = grad.data() + w_size + 4 * hdim;
  double* g_bout = g_wout + hdim;

  // Output layer: dLoss/dlogit = p - target.
  const double dlogit = (p - target) * sample_weight;
  std::vector<double> dh(hdim, 0.0);
  for (std::size_t j = 0; j < hdim; ++j) {
    g_wout[j] += dlogit * fs.h[steps - 1][j];
    dh[j] = dlogit * w_out[j];
  }
  *g_bout += dlogit;

  std::vector<double> dc(hdim, 0.0);
  for (std::size_t t = steps; t-- > 0;) {
    const std::vector<double>& c_t = fs.c[t];
    const std::vector<double>& c_prev =
        t > 0 ? fs.c[t - 1] : std::vector<double>(hdim, 0.0);
    const std::vector<double>& h_prev =
        t > 0 ? fs.h[t - 1] : std::vector<double>(hdim, 0.0);

    std::vector<double> dgates(4 * hdim);
    for (std::size_t j = 0; j < hdim; ++j) {
      const double tanh_c = std::tanh(c_t[j]);
      const double go = fs.go[t][j];
      const double dc_total = dc[j] + dh[j] * go * (1.0 - tanh_c * tanh_c);
      const double gi = fs.gi[t][j];
      const double gf = fs.gf[t][j];
      const double gg = fs.gg[t][j];
      // Gate pre-activation gradients.
      dgates[j] = dc_total * gg * gi * (1.0 - gi);                   // input
      dgates[hdim + j] = dc_total * c_prev[j] * gf * (1.0 - gf);     // forget
      dgates[2 * hdim + j] = dc_total * gi * (1.0 - gg * gg);        // cell
      dgates[3 * hdim + j] = dh[j] * tanh_c * go * (1.0 - go);       // output
      dc[j] = dc_total * gf;  // carry to t-1
    }

    std::vector<double> dh_prev(hdim, 0.0);
    for (std::size_t r = 0; r < 4 * hdim; ++r) {
      const double* row = w + r * (d + hdim);
      double* g_row = g_w + r * (d + hdim);
      const double dg = dgates[r];
      for (std::size_t k = 0; k < d; ++k) g_row[k] += dg * fs.x[t][k];
      for (std::size_t k = 0; k < hdim; ++k) {
        g_row[d + k] += dg * h_prev[k];
        dh_prev[k] += dg * row[d + k];
      }
      g_b[r] += dg;
    }
    dh = std::move(dh_prev);
  }
  return loss * sample_weight;
}

void Lstm::train(const TraceSet& train_set, const LstmTrainOptions& options) {
  // Build (sequence, label) pairs: full tails plus random prefixes.
  struct Seq {
    std::vector<std::vector<double>> steps;
    bool malicious;
  };
  util::Rng rng(options.seed);

  // Fit the input scaler on every training feature vector first.
  std::vector<std::vector<double>> all_features;
  std::size_t total_samples = 0;
  for (const LabeledTrace& trace : train_set.traces) {
    total_samples += trace.samples.size();
  }
  all_features.reserve(total_samples);
  for (const LabeledTrace& trace : train_set.traces) {
    for (const hpc::HpcSample& s : trace.samples) {
      const hpc::FeatureVec f = hpc::to_features(s);
      all_features.emplace_back(f.begin(), f.end());
    }
  }
  if (all_features.empty()) {
    throw std::invalid_argument("Lstm::train: no sequences");
  }
  scaler_.fit(all_features);

  std::vector<Seq> seqs;
  for (const LabeledTrace& trace : train_set.traces) {
    if (trace.samples.empty()) continue;
    std::vector<std::vector<double>> full;
    full.reserve(trace.samples.size());
    for (const hpc::HpcSample& s : trace.samples) {
      hpc::FeatureVec f = hpc::to_features(s);
      scaler_.transform(f, f);  // standardise in place
      full.emplace_back(f.begin(), f.end());
    }
    for (int k = 0; k < options.prefixes_per_trace; ++k) {
      const std::size_t len = 1 + rng.below(full.size());
      const std::size_t start =
          len > options.max_bptt_steps ? len - options.max_bptt_steps : 0;
      Seq seq;
      seq.steps.assign(full.begin() + static_cast<long>(start),
                       full.begin() + static_cast<long>(len));
      seq.malicious = trace.malicious;
      seqs.push_back(std::move(seq));
    }
  }
  if (seqs.empty()) throw std::invalid_argument("Lstm::train: no sequences");

  const auto n_pos = static_cast<double>(
      std::count_if(seqs.begin(), seqs.end(),
                    [](const Seq& s) { return s.malicious; }));
  const auto n_total = static_cast<double>(seqs.size());
  if (n_pos == 0.0 || n_pos == n_total) {
    throw std::invalid_argument("Lstm::train: need both classes");
  }
  const double w_pos = n_total / (2.0 * n_pos);
  const double w_neg = n_total / (2.0 * (n_total - n_pos));

  std::vector<double> grad(params_.size());
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Shuffle sequence order.
    for (std::size_t i = seqs.size(); i > 1; --i) {
      std::swap(seqs[i - 1], seqs[rng.below(i)]);
    }
    for (const Seq& seq : seqs) {
      std::fill(grad.begin(), grad.end(), 0.0);
      backward(seq.steps, seq.malicious ? 1.0 : 0.0,
               seq.malicious ? w_pos : w_neg, grad);

      // Clip by global norm.
      double norm_sq = 0.0;
      for (const double g : grad) norm_sq += g * g;
      const double norm = std::sqrt(norm_sq);
      const double clip = norm > options.grad_clip_norm
                              ? options.grad_clip_norm / norm
                              : 1.0;

      ++adam_t_;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
      for (std::size_t i = 0; i < params_.size(); ++i) {
        const double g = grad[i] * clip;
        adam_m_[i] = kBeta1 * adam_m_[i] + (1.0 - kBeta1) * g;
        adam_v_[i] = kBeta2 * adam_v_[i] + (1.0 - kBeta2) * g * g;
        const double m_hat = adam_m_[i] / bc1;
        const double v_hat = adam_v_[i] / bc2;
        params_[i] -= options.learning_rate * m_hat /
                      (std::sqrt(v_hat) + kEps);
      }
    }
  }
}

Inference LstmDetector::infer(std::span<const hpc::HpcSample> window) const {
  if (window.empty()) return Inference::kBenign;
  const std::size_t start =
      window.size() > kMaxSteps ? window.size() - kMaxSteps : 0;
  std::vector<std::vector<double>> seq;
  seq.reserve(window.size() - start);
  for (std::size_t i = start; i < window.size(); ++i) {
    const hpc::FeatureVec f = hpc::to_features(window[i]);
    seq.emplace_back(f.begin(), f.end());
  }
  return model_.predict(seq) > 0.5 ? Inference::kMalicious
                                   : Inference::kBenign;
}

std::uint64_t LstmDetector::state_hash() const { return model_.param_hash(); }

LstmDetector LstmDetector::make(const TraceSet& train, std::uint64_t seed,
                                LstmTrainOptions options) {
  options.seed = seed;
  Lstm model(LstmConfig{}, seed ^ 0xfeed);
  model.train(train, options);
  return LstmDetector(std::move(model));
}

}  // namespace valkyrie::ml
