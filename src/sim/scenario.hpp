// ScenarioDriver: declarative population dynamics for churn studies.
//
// Valkyrie targets *time-progressive* attacks, and a production monitor
// faces a process population that is itself time-progressive: programs
// arrive, fork, finish and die while the campaign unfolds. The driver turns
// a declarative arrival script — deterministic Poisson churn, scheduled
// bursts, lifetime distributions, a benign/attack mix, staged attack
// campaigns reusing the shipped attack families — into the spawn / attach /
// kill / step sequence against a ValkyrieEngine, so a multi-thousand-process
// churn run is a one-liner:
//
//   sim::SimSystem sys;
//   core::ValkyrieEngine engine(sys, detector, threads);
//   sim::ScenarioDriver driver(engine, script, actuators);
//   driver.run(epochs);
//
// Everything is driven from one seeded RNG and executes in the engine's
// serial phases, so a scenario is bit-reproducible for any worker count —
// the churn determinism suite (tests/test_churn_engine.cpp) pins that down.
//
// Timing model: arrivals drawn for epoch E are admitted before E runs (they
// first execute in E — they were spawned at the E-1/E boundary); departures
// drawn for epoch E are killed at the same boundary. Both therefore follow
// the same next-epoch semantics as every other lifecycle delta.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/valkyrie.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::snapshot {
struct DriverImage;
}  // namespace valkyrie::snapshot

namespace valkyrie::sim {

/// The shipped attack families a scenario can inject (reusing the
/// src/attacks/* workloads).
enum class AttackFamily : std::uint8_t {
  kCryptominer,  // CPU-bound proof-of-work grind (Fig. 6c)
  kRansomware,   // AES + file-system churn encryptor (Fig. 6b)
  kRowhammer,    // DRAM hammering loop (Fig. 6a)
  kExfiltrator,  // hash-and-upload network exfiltration (Table II)
};

/// A staged attack campaign: `count` processes of one family arriving
/// `stagger` epochs apart, starting at `start_epoch`. Models the paper's
/// time-progressive threat arriving mid-run instead of at epoch 0.
struct AttackCampaign {
  std::uint64_t start_epoch = 0;
  std::size_t count = 1;
  std::uint64_t stagger = 0;  ///< epochs between consecutive arrivals
  AttackFamily family = AttackFamily::kCryptominer;
};

/// A scheduled burst: `count` extra arrivals in one epoch (flash crowd,
/// cron fan-out, service restart), drawn from the same benign/attack mix
/// as the Poisson stream.
struct ArrivalBurst {
  std::uint64_t epoch = 0;
  std::size_t count = 0;
};

/// Declarative churn script.
struct ScenarioScript {
  std::uint64_t seed = 0x5ce0;
  /// Processes admitted before epoch 0 (the standing population).
  std::size_t initial_processes = 0;
  /// Mean Poisson arrivals per epoch (0 = closed population).
  double arrival_rate = 0.0;
  /// Fraction of stream arrivals (initial, Poisson and burst) that are
  /// attacks, drawn per arrival; campaign arrivals are always attacks.
  double attack_fraction = 0.0;
  /// Families eligible for mix-driven attack arrivals (uniform pick).
  /// Empty = kCryptominer only.
  std::vector<AttackFamily> attack_families;
  /// Mean lifetime (epochs) of benign arrivals, geometrically distributed
  /// with minimum 1. 0 = immortal (the process runs until killed).
  double mean_lifetime = 0.0;
  /// Fraction of finite-lifetime arrivals that depart by an external kill
  /// at their drawn lifetime (service stop, user exit); the rest get their
  /// lifetime as workload length and depart by natural completion — which
  /// stretches under throttling, exactly like real work does.
  double kill_exit_fraction = 0.5;
  /// Hard cap on the live population; arrivals beyond it are dropped
  /// (counted in Stats::rejected).
  std::size_t max_live = 1 << 20;
  /// Attach every arrival to the engine with this config.
  core::ValkyrieConfig monitor_config{};
  /// Scheduled extras.
  std::vector<ArrivalBurst> bursts;
  std::vector<AttackCampaign> campaigns;
  /// Reclaim retired histories/workloads (bounded memory for long runs).
  bool recycle_histories = true;
};

class ScenarioDriver {
 public:
  using ActuatorFactory = std::function<std::unique_ptr<core::Actuator>()>;

  /// Builds one benign arrival with the given drawn lifetime (epochs of
  /// work at full resources; 0 = endless, the process departs only by
  /// kill). The default factory cycles the shipped benchmark palette
  /// (workloads::all_single_threaded), which keeps the paper's population
  /// structure; benches and tests substitute detector-matched workloads.
  using BenignFactory =
      std::function<std::unique_ptr<Workload>(std::uint64_t lifetime)>;

  /// What happened so far (monotonic across step()/run() calls).
  struct Stats {
    std::size_t spawned = 0;          ///< total admissions, incl. initial
    std::size_t attack_spawned = 0;   ///< ... of which attacks
    std::size_t driver_kills = 0;     ///< scheduled departures executed
    std::size_t completed = 0;        ///< natural completions observed
    std::size_t policy_kills = 0;     ///< kills NOT scheduled by the driver
                                      ///< (i.e. the response's terminations)
    std::size_t rejected = 0;         ///< arrivals dropped at max_live
    std::size_t peak_live = 0;
    std::uint64_t epochs = 0;
    double live_epoch_sum = 0.0;      ///< sum of live counts per epoch

    [[nodiscard]] double mean_live() const noexcept {
      return epochs == 0 ? 0.0 : live_epoch_sum / static_cast<double>(epochs);
    }
    // Note `spawned` includes the constructor's standing population, so a
    // per-epoch arrival rate must subtract it (or difference two Stats
    // snapshots), not divide the totals.
  };

  /// The engine (and its system) must outlive the driver. `actuators` is
  /// invoked once per arrival; null uses SchedulerWeightActuator for every
  /// process. `benign` overrides the benign arrival factory (null = the
  /// benchmark palette). Initial processes are admitted here, before the
  /// first epoch.
  ScenarioDriver(core::ValkyrieEngine& engine, ScenarioScript script,
                 ActuatorFactory actuators = nullptr,
                 BenignFactory benign = nullptr);

  /// Restore constructor: resumes a driver from a snapshot's driver
  /// section over an engine that was itself just restored from the same
  /// snapshot. The script (and factories) are code and must be supplied
  /// again; the recorded fingerprint of the script's data fields is
  /// verified (SnapshotError kIncompatible on mismatch). Admits nothing —
  /// the standing population is already live in the restored system.
  ScenarioDriver(core::ValkyrieEngine& engine, ScenarioScript script,
                 const snapshot::DriverImage& image,
                 ActuatorFactory actuators = nullptr,
                 BenignFactory benign = nullptr);

  /// Captures the driver's full progress state (RNG, stats, scheduled
  /// departures, campaign progress, palette cursor) into the snapshot's
  /// driver section, overwriting every field and reusing its capacity.
  void snapshot_state(snapshot::DriverImage& image) const;

  /// One epoch: boundary departures, then boundary arrivals (admitted so
  /// they first run in this epoch... see the header timing note), then
  /// engine.step(). Departed processes are detached from the engine as
  /// they exit — long runs stay O(live), at the cost of per-pid monitor
  /// post-mortems (the system's retirement snapshot keeps answering).
  /// Returns the live process count after the epoch.
  std::size_t step();

  /// Runs `epochs` steps, pre-reserving system/engine tables and history
  /// capacity for the expected population first.
  void run(std::size_t epochs);

  /// Pre-sizes the driver's own bookkeeping (exit-census snapshot,
  /// departure heap) for `expected` processes. run() calls it with
  /// expected_processes(); callers driving step() directly (timed
  /// benches) call it themselves alongside SimSystem/ValkyrieEngine
  /// reserve so no driver vector regrows mid-measurement.
  void reserve(std::size_t expected);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ScenarioScript& script() const noexcept {
    return script_;
  }
  [[nodiscard]] core::ValkyrieEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const core::ValkyrieEngine& engine() const noexcept {
    return engine_;
  }

  /// Expected admissions over `epochs` (initial + Poisson mean + bursts +
  /// campaigns) with `slack` headroom — what run() passes to
  /// SimSystem::reserve / ValkyrieEngine::reserve. Exposed so callers that
  /// drive step() directly can reserve identically.
  [[nodiscard]] std::size_t expected_processes(std::size_t epochs,
                                               double slack = 1.25) const;

 private:
  struct Departure {
    std::uint64_t epoch;
    ProcessId pid;
  };

  /// Heap ordering shared by the push (admit) and pop (step) sites —
  /// std::push_heap/pop_heap silently corrupt the heap if the two ever
  /// used different comparators. Earliest departure on top (the standard
  /// heap algorithms build max-heaps, so the comparison inverts).
  [[nodiscard]] static bool departs_later(const Departure& a,
                                          const Departure& b) noexcept {
    return a.epoch > b.epoch;
  }

  /// The script half both constructors share: throws std::invalid_argument
  /// on a negative rate or lifetime or a fraction outside [0, 1], defaults
  /// an empty attack-family list to the cryptominer (before the restore
  /// constructor fingerprints the script), and arms history recycling on
  /// the system when the script asks for it.
  void adopt_script();

  /// Admits one arrival (workload chosen from the mix or forced to
  /// `forced_family`), attaches it, and schedules its departure.
  void admit(std::uint64_t now, const AttackFamily* forced_family);

  [[nodiscard]] std::unique_ptr<Workload> make_benign(
      std::uint64_t lifetime, std::size_t palette_slot);
  [[nodiscard]] std::unique_ptr<Workload> make_attack(AttackFamily family,
                                                      std::uint64_t seed);

  /// Geometric lifetime with mean script_.mean_lifetime, minimum 1;
  /// 0 when the script models immortal processes.
  [[nodiscard]] std::uint64_t draw_lifetime();

  /// Poisson(rate) by inversion (Knuth's product method), deterministic in
  /// the driver RNG.
  [[nodiscard]] std::size_t draw_poisson(double rate);

  core::ValkyrieEngine& engine_;
  SimSystem& sys_;
  ScenarioScript script_;
  ActuatorFactory actuators_;
  BenignFactory benign_factory_;  // null = benchmark palette
  util::Rng rng_;
  Stats stats_;
  // Scheduled kills, a min-heap on epoch (std::greater via make/push/pop).
  std::vector<Departure> departures_;
  // Per-campaign progress: arrivals already injected.
  std::vector<std::size_t> campaign_progress_;
  // Benign arrivals cycle through the shipped benchmark specs so the
  // population keeps the paper's program-class structure under churn.
  std::vector<workloads::BenchmarkSpec> benign_palette_;
  std::size_t benign_palette_cursor_ = 0;
  // Last epoch's live list, for the post-step exit census (ascending-pid
  // merge against the new list classifies completions vs. policy kills).
  std::vector<ProcessId> prev_live_;
  std::size_t live_ = 0;  // live count, refreshed after every step
};

}  // namespace valkyrie::sim
