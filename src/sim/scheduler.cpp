#include "sim/scheduler.hpp"

#include <algorithm>

namespace valkyrie::sim {

double threat_step_factor(double factor, double delta_threat,
                          const SchedulerConfig& config) {
  // s_i = s_{i-1} -/+ gamma * s_{i-1} * |dT| for rising/falling threat. A
  // drop of gamma per unit of threat change, multiplicative.
  const double s = factor * (1.0 - config.gamma * delta_threat);
  return std::clamp(s, config.min_share_fraction, 1.0);
}

double share_from_factor(double factor, double total) {
  // Untouched process: share_now and share_default are the same 1/total,
  // so the ratio is exactly 1.0. The total - 1 + 1 == total guard proves
  // the slow path would compute identical bits (it fails only at absurd
  // totals where the round-trip rounds), and skipping three divides
  // matters — this runs once per live process per epoch.
  if (factor == 1.0 && total - 1.0 + 1.0 == total && total > 0.0) return 1.0;
  // Share this process would have at default weight, holding the others at
  // their current weights.
  const double total_default = total - factor + 1.0;
  const double share_now = factor / total;
  const double share_default = 1.0 / total_default;
  return share_default > 0.0 ? std::min(1.0, share_now / share_default) : 0.0;
}

}  // namespace valkyrie::sim
