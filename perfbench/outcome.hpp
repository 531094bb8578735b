// Outcome extraction: the paper's response metrics (Figs. 5-6), computed
// from the program's public observers only — exit_reason, epochs_run,
// last_progress, is_live and the engine's last_action — plus the arrival
// epochs the tracker records itself. Nothing here reaches into the engine.
//
// The tracker follows every process from the epoch it first executes until
// it exits. Call observe() once after every epoch step (a ScenarioDriver or
// SupervisedEngine step). A supervised recovery replays to the same epoch,
// so the observers answer as if no crash had happened.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/valkyrie.hpp"
#include "sim/system.hpp"

namespace perfbench {

/// One attack process, from its first executed epoch on.
struct AttackOutcome {
  valkyrie::sim::ProcessId pid = 0;
  std::string family;
  std::uint64_t first_epoch = 0;
  /// Epochs from the first executed epoch to the first kThrottled action,
  /// counting both ends (throttled in its first epoch = 1). 0 = never.
  std::uint64_t throttle_epochs = 0;
  /// Epochs from the first executed epoch to the epoch whose commit killed
  /// it, counting both ends. 0 = still alive.
  std::uint64_t kill_epochs = 0;
  std::uint64_t epochs_run = 0;
  double progress = 0.0;        ///< progress made before the kill
  double first_progress = 0.0;  ///< progress in the first, unthrottled epoch
  /// Progress the same program makes at full share over the same epochs.
  /// Negative = not measured: the first epoch's progress times epochs_run
  /// stands in, which is exact for programs whose full-share rate is
  /// constant (the miner and ransomware models).
  double full_share_progress = -1.0;

  [[nodiscard]] double reference_progress() const noexcept {
    return full_share_progress >= 0.0
               ? full_share_progress
               : first_progress * static_cast<double>(epochs_run);
  }
};

struct OutcomeSummary {
  std::size_t benign = 0;
  std::size_t attacks = 0;
  std::size_t benign_policy_kills = 0;
  std::size_t benign_slowed = 0;  ///< benign processes that lost any progress
  /// Median over attacks of progress before the kill / progress at full
  /// share over the same epochs.
  std::size_t attacks_alive = 0;
  double attack_throttle_epochs_p50 = 0.0;
  double attack_kill_epochs_p50 = 0.0;
  double attack_progress_ratio = 0.0;
  double attack_contained_share = 0.0;
  double benign_slowdown_pct = 0.0;
  double benign_throttled_share = 0.0;
  double benign_survival_share = 0.0;

  [[nodiscard]] std::size_t attempted() const noexcept { return benign + attacks; }
  [[nodiscard]] std::size_t failed() const noexcept {
    return benign_policy_kills + attacks_alive;
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

class OutcomeTracker {
 public:
  void reserve(std::size_t processes) {
    procs_.reserve(processes);
    running_.reserve(processes);
  }

  /// Observes the epoch that just ran. Returns how many processes executed
  /// in it (the process-epochs the step simulated).
  std::size_t observe(const valkyrie::sim::SimSystem& sys,
                      const valkyrie::core::ValkyrieEngine& engine) {
    using valkyrie::core::ValkyrieMonitor;
    using valkyrie::sim::ExitReason;
    const std::uint64_t epoch = sys.current_epoch() - 1;
    for (auto pid = static_cast<valkyrie::sim::ProcessId>(procs_.size());
         pid < sys.total_spawned(); ++pid) {
      Proc proc;
      // An attack never finishes in its first epoch, so a process that is
      // already gone was benign (and its workload may be reclaimed).
      if (sys.is_live(pid) && sys.workload(pid).is_attack()) {
        proc.attack = static_cast<std::int32_t>(attacks_.size());
        AttackOutcome a;
        a.pid = pid;
        a.family = std::string(sys.workload(pid).name());
        a.first_epoch = epoch;
        attacks_.push_back(std::move(a));
      }
      procs_.push_back(proc);
      running_.push_back(pid);
    }

    std::size_t ran = 0;
    std::size_t kept = 0;
    for (const valkyrie::sim::ProcessId pid : running_) {
      Proc& proc = procs_[pid];
      const std::uint64_t epochs = sys.epochs_run(pid);
      const bool stepped = epochs > proc.epochs;
      if (stepped) {
        ++ran;
        proc.progress += sys.last_progress(pid);
        proc.epochs = epochs;
      }
      const bool live = sys.is_live(pid);
      if (proc.attack >= 0) {
        AttackOutcome& a = attacks_[static_cast<std::size_t>(proc.attack)];
        if (stepped && a.epochs_run == 0) a.first_progress = sys.last_progress(pid);
        a.epochs_run = proc.epochs;
        a.progress = proc.progress;
        if (a.throttle_epochs == 0 && engine.is_attached(pid) &&
            engine.last_action(pid) == ValkyrieMonitor::Action::kThrottled) {
          a.throttle_epochs = epoch - a.first_epoch + 1;
        }
        if (!live && sys.exit_reason(pid) == ExitReason::kKilled) {
          a.kill_epochs = epoch - a.first_epoch + 1;
        }
      }
      if (live) running_[kept++] = pid;
    }
    running_.resize(kept);
    return ran;
  }

  [[nodiscard]] std::vector<AttackOutcome>& attacks() noexcept { return attacks_; }
  [[nodiscard]] const std::vector<AttackOutcome>& attacks() const noexcept {
    return attacks_;
  }

  /// `policy_kills` is every kill the response made (the driver's
  /// Stats::policy_kills): attack kills are known per pid, so the rest were
  /// benign processes killed by the policy.
  [[nodiscard]] OutcomeSummary summarize(std::size_t policy_kills) const {
    OutcomeSummary s;
    s.attacks = attacks_.size();
    s.benign = procs_.size() - attacks_.size();
    std::vector<double> throttle;
    std::vector<double> kill;
    std::vector<double> ratios;
    std::size_t attack_kills = 0;
    for (const AttackOutcome& a : attacks_) {
      if (a.throttle_epochs > 0) throttle.push_back(static_cast<double>(a.throttle_epochs));
      if (a.kill_epochs > 0) {
        kill.push_back(static_cast<double>(a.kill_epochs));
        ++attack_kills;
      } else {
        ++s.attacks_alive;
      }
      const double reference = a.reference_progress();
      if (reference > 0.0) ratios.push_back(a.progress / reference);
    }
    s.attack_throttle_epochs_p50 = percentile(throttle, 0.5);
    s.attack_kill_epochs_p50 = percentile(kill, 0.5);
    s.attack_progress_ratio = percentile(ratios, 0.5);
    s.attack_contained_share =
        s.attacks > 0 ? static_cast<double>(attack_kills) / static_cast<double>(s.attacks)
                      : 0.0;
    s.benign_policy_kills = policy_kills > attack_kills ? policy_kills - attack_kills : 0;

    double slowdown_sum = 0.0;
    for (const Proc& proc : procs_) {
      if (proc.attack >= 0 || proc.epochs == 0) continue;
      const double lost = static_cast<double>(proc.epochs) - proc.progress;
      slowdown_sum += lost / static_cast<double>(proc.epochs);
      if (lost > 0.0) ++s.benign_slowed;
    }
    s.benign_slowdown_pct =
        s.benign > 0 ? 100.0 * slowdown_sum / static_cast<double>(s.benign) : 0.0;
    s.benign_throttled_share =
        s.benign > 0 ? static_cast<double>(s.benign_slowed) / static_cast<double>(s.benign)
                     : 0.0;
    s.benign_survival_share =
        s.benign > 0 ? 1.0 - static_cast<double>(s.benign_policy_kills) /
                                 static_cast<double>(s.benign)
                     : 0.0;
    return s;
  }

 private:
  struct Proc {
    double progress = 0.0;
    std::uint64_t epochs = 0;
    std::int32_t attack = -1;  // index into attacks_, -1 = benign
  };

  std::vector<Proc> procs_;  // by pid (pids are dense)
  std::vector<valkyrie::sim::ProcessId> running_;  // followed, live last epoch
  std::vector<AttackOutcome> attacks_;
};

/// FNV-1a over the observable outcome: epochs run, every process's exit
/// census (exit reason, epochs executed) and the final threat index of
/// every live attached process. Two runs with equal digests ended in the
/// same observable state.
[[nodiscard]] inline std::uint64_t outcome_digest(
    const valkyrie::sim::SimSystem& sys, const valkyrie::core::ValkyrieEngine& engine) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(sys.current_epoch());
  mix(sys.total_spawned());
  for (valkyrie::sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    mix(static_cast<std::uint64_t>(sys.exit_reason(pid)));
    mix(sys.epochs_run(pid));
  }
  for (const valkyrie::sim::ProcessId pid : sys.live_processes()) {
    if (!engine.is_attached(pid)) continue;
    const double threat = engine.monitor(pid).threat();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &threat, sizeof bits);
    mix(pid);
    mix(bits);
  }
  return h;
}

}  // namespace perfbench
