#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "attacks/cryptominer.hpp"
#include "attacks/exfiltrator.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "core/actuator.hpp"
#include "snapshot/snapshot.hpp"

namespace valkyrie::sim {

ScenarioDriver::ScenarioDriver(core::ValkyrieEngine& engine,
                               ScenarioScript script, ActuatorFactory actuators,
                               BenignFactory benign)
    : engine_(engine),
      sys_(engine.system()),
      script_(std::move(script)),
      actuators_(std::move(actuators)),
      benign_factory_(std::move(benign)),
      rng_(script_.seed),
      benign_palette_(benign_factory_ == nullptr
                          ? workloads::all_single_threaded()
                          : std::vector<workloads::BenchmarkSpec>{}) {
  adopt_script();
  campaign_progress_.assign(script_.campaigns.size(), 0);
  live_ = sys_.live_processes().size();
  // The standing population: admitted before the first driven epoch, so
  // it first runs there like any boundary admission runs in the next
  // epoch. Departure scheduling is anchored at the system's CURRENT epoch
  // — the engine may already have run before the driver was attached.
  for (std::size_t i = 0; i < script_.initial_processes; ++i) {
    admit(sys_.current_epoch(), nullptr);
  }
}

ScenarioDriver::ScenarioDriver(core::ValkyrieEngine& engine,
                               ScenarioScript script,
                               const snapshot::DriverImage& image,
                               ActuatorFactory actuators, BenignFactory benign)
    : engine_(engine),
      sys_(engine.system()),
      script_(std::move(script)),
      actuators_(std::move(actuators)),
      benign_factory_(std::move(benign)),
      rng_(script_.seed),
      benign_palette_(benign_factory_ == nullptr
                          ? workloads::all_single_threaded()
                          : std::vector<workloads::BenchmarkSpec>{}) {
  using util::SerialError;
  adopt_script();
  if (snapshot::script_fingerprint(script_) != image.script_fingerprint) {
    throw SerialError(SerialError::Code::kIncompatible,
                      "driver restore: script fingerprint mismatch");
  }
  if (image.campaign_progress.size() != script_.campaigns.size()) {
    throw SerialError(SerialError::Code::kMalformed,
                      "driver restore: campaign progress count mismatch");
  }
  // The heap array verbatim, no make_heap. step() pops it with
  // std::pop_heap and reads each due pid's liveness, so it must be a heap
  // of pids the restored system has spawned.
  departures_.reserve(image.departures.size());
  for (const auto& [epoch, pid] : image.departures) {
    if (pid >= sys_.total_spawned()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "driver restore: departure for an unspawned pid");
    }
    departures_.push_back({epoch, pid});
  }
  if (!std::is_heap(departures_.begin(), departures_.end(), departs_later)) {
    throw SerialError(SerialError::Code::kMalformed,
                      "driver restore: departures are not a heap");
  }
  // No admissions: the standing population is already live in the restored
  // system. Everything below resumes the recorded progress verbatim.
  rng_.set_state(image.rng);
  stats_.spawned = static_cast<std::size_t>(image.spawned);
  stats_.attack_spawned = static_cast<std::size_t>(image.attack_spawned);
  stats_.driver_kills = static_cast<std::size_t>(image.driver_kills);
  stats_.completed = static_cast<std::size_t>(image.completed);
  stats_.policy_kills = static_cast<std::size_t>(image.policy_kills);
  stats_.rejected = static_cast<std::size_t>(image.rejected);
  stats_.peak_live = static_cast<std::size_t>(image.peak_live);
  stats_.epochs = image.epochs;
  stats_.live_epoch_sum = image.live_epoch_sum;
  campaign_progress_.clear();
  campaign_progress_.reserve(image.campaign_progress.size());
  for (const std::uint64_t progress : image.campaign_progress) {
    campaign_progress_.push_back(static_cast<std::size_t>(progress));
  }
  benign_palette_cursor_ = static_cast<std::size_t>(image.benign_palette_cursor);
  prev_live_ = image.prev_live;
  live_ = static_cast<std::size_t>(image.live);
}

void ScenarioDriver::adopt_script() {
  if (script_.arrival_rate < 0.0 || script_.mean_lifetime < 0.0 ||
      script_.attack_fraction < 0.0 || script_.attack_fraction > 1.0 ||
      script_.kill_exit_fraction < 0.0 || script_.kill_exit_fraction > 1.0) {
    throw std::invalid_argument("ScenarioDriver: malformed script");
  }
  if (script_.attack_families.empty()) {
    script_.attack_families = {AttackFamily::kCryptominer};
  }
  if (script_.recycle_histories) sys_.enable_history_recycling();
}

void ScenarioDriver::snapshot_state(snapshot::DriverImage& image) const {
  image.script_fingerprint = snapshot::script_fingerprint(script_);
  image.rng = rng_.state();
  image.spawned = stats_.spawned;
  image.attack_spawned = stats_.attack_spawned;
  image.driver_kills = stats_.driver_kills;
  image.completed = stats_.completed;
  image.policy_kills = stats_.policy_kills;
  image.rejected = stats_.rejected;
  image.peak_live = stats_.peak_live;
  image.epochs = stats_.epochs;
  image.live_epoch_sum = stats_.live_epoch_sum;
  image.departures.resize(departures_.size());
  for (std::size_t i = 0; i < departures_.size(); ++i) {
    image.departures[i] = {departures_[i].epoch, departures_[i].pid};
  }
  image.campaign_progress.assign(campaign_progress_.begin(),
                                 campaign_progress_.end());
  image.benign_palette_cursor = benign_palette_cursor_;
  image.prev_live = prev_live_;
  image.live = live_;
}

std::size_t ScenarioDriver::expected_processes(std::size_t epochs,
                                               double slack) const {
  // The live count already includes the standing population the
  // constructor admitted (plus any processes the caller spawned itself).
  double expected = static_cast<double>(sys_.live_processes().size()) +
                    script_.arrival_rate * static_cast<double>(epochs);
  for (const ArrivalBurst& burst : script_.bursts) {
    expected += static_cast<double>(burst.count);
  }
  for (const AttackCampaign& campaign : script_.campaigns) {
    expected += static_cast<double>(campaign.count);
  }
  return static_cast<std::size_t>(expected * slack) + 64;
}

std::uint64_t ScenarioDriver::draw_lifetime() {
  if (script_.mean_lifetime <= 0.0) return 0;  // immortal
  // Geometric by inversion: ceil(ln(U) / ln(1 - p)) with p = 1/mean,
  // minimum 1 epoch. Memoryless departures are the discrete analogue of
  // the exponential holding times timing-games models assume for process
  // arrival/exit dynamics.
  const double p = std::min(1.0, 1.0 / script_.mean_lifetime);
  if (p >= 1.0) return 1;
  double u = rng_.uniform();
  while (u <= 0.0) u = rng_.uniform();
  const double draw = std::ceil(std::log(u) / std::log1p(-p));
  return draw < 1.0 ? 1 : static_cast<std::uint64_t>(draw);
}

std::size_t ScenarioDriver::draw_poisson(double rate) {
  if (rate <= 0.0) return 0;
  if (rate > 64.0) {
    // Knuth's product method needs exp(-rate) comparisons — fine up to
    // moderate rates, numerically silly beyond. A rounded normal with the
    // Poisson's moments is the standard tail approximation and keeps the
    // draw at one uniform pair.
    const double draw = std::round(rng_.normal(rate, std::sqrt(rate)));
    return draw < 0.0 ? 0 : static_cast<std::size_t>(draw);
  }
  const double floor = std::exp(-rate);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng_.uniform();
  } while (p > floor);
  return k - 1;
}

std::unique_ptr<Workload> ScenarioDriver::make_benign(
    std::uint64_t lifetime, std::size_t palette_slot) {
  if (benign_factory_ != nullptr) return benign_factory_(lifetime);
  workloads::BenchmarkSpec spec =
      benign_palette_[palette_slot % benign_palette_.size()];
  // The palette supplies the program-class signature; the scenario owns
  // the program length. 0 = endless (departs only by kill).
  spec.epochs_of_work =
      lifetime == 0 ? 1e18 : static_cast<double>(lifetime);
  return std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
}

std::unique_ptr<Workload> ScenarioDriver::make_attack(AttackFamily family,
                                                      std::uint64_t seed) {
  // Per-instance seeds keep samples of one family from being clones; the
  // caller draws the seed with the other classification draws, so the RNG
  // stream shape does not depend on which family was picked or on whether
  // the arrival was admitted.
  switch (family) {
    case AttackFamily::kRansomware: {
      attacks::RansomwareConfig config;
      config.seed = seed;
      config.family_jitter = 0.1;
      return std::make_unique<attacks::RansomwareAttack>(config);
    }
    case AttackFamily::kRowhammer: {
      attacks::RowhammerConfig config;
      config.dram_seed = seed;
      return std::make_unique<attacks::RowhammerAttack>(config);
    }
    case AttackFamily::kExfiltrator: {
      attacks::ExfiltratorConfig config;
      return std::make_unique<attacks::ExfiltratorAttack>(config);
    }
    case AttackFamily::kCryptominer:
      break;
  }
  attacks::CryptominerConfig config;
  config.seed = seed;
  config.family_jitter = 0.1;
  return std::make_unique<attacks::CryptominerAttack>(config);
}

void ScenarioDriver::admit(std::uint64_t now, const AttackFamily* forced) {
  // Every RNG draw lands before the cap check, so a saturated run rejects
  // exactly the arrivals an uncapped run would have admitted and the
  // stream stays aligned afterwards.
  const bool attack =
      forced != nullptr || rng_.chance(script_.attack_fraction);
  const AttackFamily family =
      forced != nullptr
          ? *forced
          : script_.attack_families[rng_.below(script_.attack_families.size())];
  const std::uint64_t lifetime = attack ? 0 : draw_lifetime();
  const bool kill_exit =
      lifetime != 0 && rng_.chance(script_.kill_exit_fraction);
  const std::uint64_t attack_seed = rng_();
  // The palette cursor is part of the arrival's identity too: advance it
  // with the draws above so rejection cannot phase-shift later arrivals.
  const std::size_t palette_slot = benign_palette_cursor_++;

  if (live_ >= script_.max_live) {
    ++stats_.rejected;
    return;
  }
  std::unique_ptr<Workload> workload =
      attack ? make_attack(family, attack_seed)
             : make_benign(kill_exit ? 0 : lifetime, palette_slot);
  const ProcessId pid = sys_.spawn(std::move(workload));
  engine_.attach(pid, script_.monitor_config,
                 actuators_ != nullptr
                     ? actuators_()
                     : std::make_unique<core::SchedulerWeightActuator>());
  if (kill_exit) {
    departures_.push_back({now + lifetime, pid});
    std::push_heap(departures_.begin(), departures_.end(), departs_later);
  }
  ++stats_.spawned;
  if (attack) ++stats_.attack_spawned;
  ++live_;
}

std::size_t ScenarioDriver::step() {
  const std::uint64_t now = sys_.current_epoch();

  // Boundary departures due this epoch (scheduled kills). A pid the
  // response already terminated or that completed early is simply gone —
  // kill() is a no-op on the dead.
  while (!departures_.empty() && departures_.front().epoch <= now) {
    std::pop_heap(departures_.begin(), departures_.end(), departs_later);
    const Departure due = departures_.back();
    departures_.pop_back();
    if (sys_.is_live(due.pid)) {
      sys_.kill(due.pid);
      if (engine_.is_attached(due.pid)) engine_.detach(due.pid);
      ++stats_.driver_kills;
      // Keep the cap check below honest: the slot this kill freed is
      // available to this very boundary's arrivals.
      --live_;
    }
  }

  // Boundary arrivals: staged campaigns first (they model the scripted
  // threat), then scheduled bursts, then the Poisson stream.
  for (std::size_t c = 0; c < script_.campaigns.size(); ++c) {
    const AttackCampaign& campaign = script_.campaigns[c];
    std::size_t& progress = campaign_progress_[c];
    while (progress < campaign.count &&
           campaign.start_epoch + progress * campaign.stagger <= now) {
      admit(now, &campaign.family);
      ++progress;
    }
  }
  for (const ArrivalBurst& burst : script_.bursts) {
    if (burst.epoch == now) {
      for (std::size_t i = 0; i < burst.count; ++i) admit(now, nullptr);
    }
  }
  const std::size_t poisson = draw_poisson(script_.arrival_rate);
  for (std::size_t i = 0; i < poisson; ++i) admit(now, nullptr);

  // Snapshot the pre-step live list (driver kills excluded, arrivals
  // included), run the epoch, then classify this epoch's exits by merging
  // the two ascending-pid lists.
  {
    const std::span<const ProcessId> live = sys_.live_processes();
    prev_live_.assign(live.begin(), live.end());
  }
  engine_.step();
  const std::span<const ProcessId> live = sys_.live_processes();
  std::size_t l = 0;
  for (const ProcessId pid : prev_live_) {
    if (l < live.size() && live[l] == pid) {
      ++l;
      continue;
    }
    if (sys_.exit_reason(pid) == ExitReason::kCompleted) {
      ++stats_.completed;
    } else {
      ++stats_.policy_kills;  // terminated by the response, not the script
    }
    // Departed processes leave the engine too: keeping dead attachments
    // would grow the attachment table with every process ever admitted.
    if (engine_.is_attached(pid)) engine_.detach(pid);
  }

  live_ = live.size();
  ++stats_.epochs;
  stats_.live_epoch_sum += static_cast<double>(live_);
  stats_.peak_live = std::max(stats_.peak_live, live_);
  return live_;
}

void ScenarioDriver::reserve(std::size_t expected) {
  prev_live_.reserve(expected);
  departures_.reserve(expected);
}

void ScenarioDriver::run(std::size_t epochs) {
  const std::size_t expected = expected_processes(epochs);
  sys_.reserve(expected);
  engine_.reserve(expected);
  reserve(expected);
  sys_.reserve_history(epochs);
  for (std::size_t i = 0; i < epochs; ++i) step();
}

}  // namespace valkyrie::sim
