// §V-C worked example: N* = 15 epochs, incremental penalty/compensation,
// CPU actuator dropping the share 10% per unit of threat increase (floor
// 1%). Prints the epoch-by-epoch share trajectory and effective slowdowns
// (Eq. 4) for both actuator-interpretation conventions, next to the
// paper's reported numbers (79.6% attack / 26% false-positive case).
#include <cstdio>

#include "core/slowdown.hpp"
#include "util/table.hpp"

namespace {
using namespace valkyrie;
}

int main() {
  std::printf("== SV-C worked example: slowdown arithmetic ==\n\n");

  const auto attack = core::always_malicious_schedule(15);
  const auto fp = core::fp_burst_schedule(5, 15);

  for (const auto& [actuator, label] :
       {std::pair{core::WorkedActuator::kPercentagePoint,
                  "percentage-point (share -= 0.1*dT)"},
        std::pair{core::WorkedActuator::kMultiplicative,
                  "multiplicative Eq. 8 (share *= 1-0.1*dT)"}}) {
    core::WorkedExampleConfig cfg;
    cfg.actuator = actuator;

    util::TextTable table({"epoch", "share (attack)", "share (FP burst)"});
    const auto attack_shares = core::worked_example_shares(attack, cfg);
    const auto fp_shares = core::worked_example_shares(fp, cfg);
    for (std::size_t e = 0; e < attack_shares.size(); ++e) {
      table.add_row({std::to_string(e), util::fmt(attack_shares[e], 3),
                     util::fmt(fp_shares[e], 3)});
    }
    std::printf("-- actuator convention: %s --\n%s", label,
                table.render().c_str());
    std::printf(
        "attack slowdown: %.2f%% (paper: 79.6%%) | FP-burst slowdown: "
        "%.2f%% (paper: 26%%)\n\n",
        core::worked_example_slowdown_pct(attack, cfg),
        core::worked_example_slowdown_pct(fp, cfg));
  }

  // The configurable floor trades security for performance (paper §V-C).
  util::TextTable floors({"share floor", "attack slowdown", "FP slowdown"});
  for (const double floor : {0.01, 0.1, 0.25, 0.5}) {
    core::WorkedExampleConfig cfg;
    cfg.floor = floor;
    floors.add_row({util::fmt_pct(floor, 0),
                    util::fmt(core::worked_example_slowdown_pct(attack, cfg), 1) + "%",
                    util::fmt(core::worked_example_slowdown_pct(fp, cfg), 1) + "%"});
  }
  std::printf("-- user-configurable slowdown cap --\n%s\n",
              floors.render().c_str());
  return 0;
}
