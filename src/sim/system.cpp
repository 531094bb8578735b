#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "fault/fault_plane.hpp"
#include "snapshot/image.hpp"
#include "snapshot/registry.hpp"
#include "util/serial.hpp"
#include "util/thread_pool.hpp"

namespace valkyrie::sim {

template <typename F>
void SimSystem::for_each_hot_array(F&& f) {
  f(slot_pid_);
  f(row_s_);
  f(factor_s_);
  f(rng_s_);
  f(cgroup_s_);
  f(effective_s_);
  f(last_sample_s_);
  f(accum_s_);
  f(last_progress_s_);
  f(epochs_run_s_);
  f(exit_s_);
  f(invalid_streak_s_);
  f(feature_streak_s_);
}

SimSystem::SimSystem(const PlatformProfile& platform, std::uint64_t seed)
    : platform_(platform), rng_(seed) {
  // A zero floor would stall a process entirely — the paper's s_MIN is
  // strictly positive.
  if (platform_.scheduler.min_share_fraction <= 0.0) {
    throw std::invalid_argument(
        "SimSystem: scheduler min_share_fraction must be positive");
  }
}

ProcessId SimSystem::spawn(std::unique_ptr<Workload> workload) {
  if (workload == nullptr) {
    throw std::invalid_argument("SimSystem::spawn: null workload");
  }
  if (next_pid_ >= kFreeRow) {
    throw std::length_error("SimSystem::spawn: pid space exhausted");
  }
  const auto pid = static_cast<ProcessId>(next_pid_++);

  const std::uint32_t row = alloc_row();
  ColdProc& cold = cold_[row];
  cold.pid = pid;
  cold.workload = std::move(workload);
  if (!history_pool_.empty()) {
    // Retirement pool: inherit a retired process's history buffer,
    // capacity and all, so steady-state churn appends without allocating.
    cold.history = std::move(history_pool_.back());
    history_pool_.pop_back();
  }

  if (epoch_open_) {
    // The hot arrays are frozen under the running dispatch: queue the
    // admission; it commits at the epoch boundary, in spawn order.
    pid_map_.insert(pid, {kPendingSlot, row});
    pending_admit_.push_back(pid);
    return pid;
  }
  pid_map_.insert(pid, {kNoSlot, row});  // admit_slot writes the real slot
  admit_slot(pid);
  return pid;
}

std::uint32_t SimSystem::alloc_row() {
  if (!free_rows_.empty()) {
    const std::uint32_t row = free_rows_.back();
    free_rows_.pop_back();
    return row;
  }
  cold_.emplace_back();
  return static_cast<std::uint32_t>(cold_.size() - 1);
}

void SimSystem::admit_slot(ProcessId pid) {
  // New pids are maximal, so appending keeps the slot order ascending in
  // pid — the invariant the stable compaction preserves.
  const auto slot = static_cast<std::uint32_t>(slot_pid_.size());
  PidRec& rec = pid_map_.at(pid);
  rec.slot = slot;
  slot_pid_.push_back(pid);
  row_s_.push_back(rec.row);
  rng_s_.push_back(rng_.fork());
  // Seeded from the retired snapshot, not default-constructed: caps and
  // weights set while the admission was pending were routed there, and
  // must apply from the process's first epoch. A fresh pid's snapshot is
  // all defaults, so the common path is unchanged.
  const RetiredState& seed = cold_[rec.row].retired;
  factor_s_.push_back(seed.factor);
  cgroup_s_.push_back(seed.cgroup);
  effective_s_.emplace_back();
  last_sample_s_.emplace_back();
  accum_s_.emplace_back();
  last_progress_s_.push_back(0.0);
  epochs_run_s_.push_back(0);
  exit_s_.push_back(ExitReason::kRunning);
  invalid_streak_s_.push_back(0);
  feature_streak_s_.push_back({});

  if (plane_enabled_) {
    plane_count_.push_back(0);
    reserve_plane();
  }
}

void SimSystem::reserve(std::size_t max_processes) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::reserve: epoch in progress");
  }
  cold_.reserve(max_processes);
  free_rows_.reserve(max_processes);
  pid_map_.reserve(max_processes);
  // The retire queue's lazy prefix compaction lets up to kRetireCompactMin
  // drained entries sit ahead of the pending ones before the erase fires,
  // so the vector's length peaks at pending + max(kRetireCompactMin,
  // pending) — reserve that, or the first compaction cycle of a
  // steady-state churn run would reallocate once.
  retire_queue_.reserve(2 * max_processes + kRetireCompactMin);
  for_each_hot_array([max_processes](auto& v) { v.reserve(max_processes); });
  pending_admit_.reserve(max_processes);
  pending_kill_.reserve(max_processes);
  history_pool_.reserve(max_processes);
  if (max_processes > reserved_capacity_) {
    reserved_capacity_ = max_processes;
    if (plane_enabled_) {
      plane_count_.reserve(max_processes);
      reserve_plane();
    }
  }
}

void SimSystem::enable_feature_plane(ml::Detector::PlaneSections sections) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::enable_feature_plane: epoch open");
  }
  // Re-enabling widens the maintained section set (two drivers with
  // different needs compose); it never narrows under an existing driver.
  plane_newest_ |= sections != ml::Detector::PlaneSections::kStatsOnly;
  plane_stats_ |= sections != ml::Detector::PlaneSections::kNewestOnly;
  if (!plane_enabled_) {
    plane_enabled_ = true;
    plane_count_.reserve(reserved_capacity_);
    plane_count_.assign(slot_pid_.size(), 0);
  }
  reserve_plane();
}

void SimSystem::reserve_plane() {
  if (!plane_enabled_) return;
  // Pad the stride to a full cache line of doubles so feature rows keep a
  // fixed 64-byte-aligned distance. The stride follows the peak live slot
  // count, so only the rows live slots use are ever written; the storage
  // behind it is reserved (untouched) for the widest plane at the
  // reserve() count, so churn admissions growing the stride never
  // reallocate.
  constexpr std::size_t kPad = 8;
  const auto padded = [](std::size_t n) {
    return (n + kPad - 1) / kPad * kPad;
  };
  plane_.reserve(3 * hpc::kFeatureDim * padded(reserved_capacity_));
  const std::size_t stride = std::max(plane_stride_, padded(slot_pid_.size()));
  if (stride == plane_stride_ && plane_.size() == plane_rows() * stride) {
    return;
  }
  plane_.assign(plane_rows() * stride, 0.0);
  plane_stride_ = stride;
}

ml::SummaryMatrixView SimSystem::feature_plane() const noexcept {
  ml::SummaryMatrixView view;
  const double* rows = plane_.data();
  if (plane_newest_) {
    view.newest = rows;
    rows += hpc::kFeatureDim * plane_stride_;
  }
  if (plane_stats_) {
    view.mean = rows;
    view.stddev = rows + hpc::kFeatureDim * plane_stride_;
  }
  view.counts = plane_count_.data();
  view.count = slot_pid_.size();
  view.stride = plane_stride_;
  return view;
}

void SimSystem::enable_counter_rng() {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::enable_counter_rng: epoch open");
  }
  if (counter_rng_) return;
  counter_rng_ = true;
  // Each stream's counter seed derives from one draw of its current state,
  // so the switch is deterministic and fork() from the converted master
  // hands counter-mode children to every later admission.
  rng_ = util::Rng::counter_stream(rng_());
  for (util::Rng& r : rng_s_) r = util::Rng::counter_stream(r());
}

void SimSystem::set_history_window(std::size_t window) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::set_history_window: epoch open");
  }
  if (window == history_window_) return;
  for (ColdProc& cold : cold_) {
    // Straighten a wrapped ring to oldest-first (head 0), the layout both
    // a grown ring and a trimmed one continue from.
    std::rotate(cold.history.begin(),
                cold.history.begin() + static_cast<std::ptrdiff_t>(cold.head),
                cold.history.end());
    cold.head = 0;
    if (cold.history.size() > window) {
      cold.history.erase(cold.history.begin(),
                         cold.history.end() -
                             static_cast<std::ptrdiff_t>(window));
      cold.history.shrink_to_fit();
    }
  }
  history_window_ = window;
}

void SimSystem::history_spans(const ColdProc& cold,
                              std::span<const hpc::HpcSample>& older,
                              std::span<const hpc::HpcSample>& wrap) const {
  // head advances only once a ring is full, so a nonzero head is a wrap.
  older = {cold.history.data() + cold.head, cold.history.size() - cold.head};
  wrap = {cold.history.data(), cold.head};
}

SimSystem::HistoryView SimSystem::history_view(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  HistoryView view;
  history_spans(cold_[rec.row], view.older, view.newer);
  return view;
}

SimSystem::PidRec SimSystem::rec_checked(ProcessId pid) const {
  const PidRec* rec = pid_map_.find(pid);
  if (rec == nullptr) {
    throw std::out_of_range("SimSystem: unknown process id");
  }
  return *rec;
}

void SimSystem::begin_epoch() {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::begin_epoch: epoch already open");
  }
  // Slots killed since the last epoch retire now, in one pass — a
  // step_slot on a stale slot would re-execute a dead process.
  if (retire_pending_) retire_dead_slots();
  // Serial global phase: the CFS total, the background weight plus every
  // live factor in slot (= ascending-pid) order, so each per-slot share
  // below is a pure function of factor_s_[slot] and this one sum.
  double total = platform_.scheduler.background_weight_units;
  for (const double factor : factor_s_) total += factor;
  epoch_total_weight_ = total;
  epoch_any_exited_.store(false, std::memory_order_relaxed);
  epoch_open_ = true;
}

bool SimSystem::step_slot(std::size_t slot) {
  if (!epoch_open_ || slot >= slot_pid_.size()) {
    throw std::logic_error("SimSystem::step_slot: no open epoch / bad slot");
  }
  // Effective CPU share: the scheduler's (possibly demoted) share capped
  // by any cgroup CPU quota. Other resources come from cgroup caps alone.
  const ResourceShares& cg = cgroup_s_[slot];
  ResourceShares eff;
  eff.cpu = std::min(share_from_factor(factor_s_[slot], epoch_total_weight_),
                     cg.cpu);
  eff.mem = cg.mem;
  eff.net = cg.net;
  eff.fs = cg.fs;
  effective_s_[slot] = eff;

  // Counter-mode streams rebase to (stream seed, epoch, draw 0) here, so a
  // slot's epoch draws are a pure function of its seed and the epoch —
  // independent of every other slot and of any draws a previous epoch made.
  if (counter_rng_) rng_s_[slot].set_epoch(epoch_);

  EpochContext ctx;
  ctx.epoch = epoch_;
  ctx.epoch_ms = platform_.epoch_ms;
  ctx.hpc_noise = platform_.hpc_noise;
  ctx.rng = &rng_s_[slot];

  ColdProc& cold = cold_[row_s_[slot]];
  StepResult step = cold.workload->run_epoch(eff, ctx);
  // Sensor fault plane (armed only): inject this (epoch, pid)'s scheduled
  // fault into the captured sample, then validate it. A quarantined sample
  // commits NOTHING to the window state — no last_sample update, no
  // history append, no accumulator fold — so garbage never reaches a
  // detector or a snapshot; the slot coasts on its last-known statistics
  // and the streak below tells the engine how stale they are. Execution
  // state (progress, epochs_run, the per-slot RNG) advances regardless:
  // the process ran, only its telemetry was lost.
  std::uint32_t stale_mask = 0;
  const bool quarantined =
      sensor_faults_ != nullptr &&
      inject_and_validate(slot, step.hpc, stale_mask);
  if (quarantined) {
    ++invalid_streak_s_[slot];
    for (std::uint32_t& fs : feature_streak_s_[slot]) ++fs;
  } else {
    invalid_streak_s_[slot] = 0;
    last_sample_s_[slot] = step.hpc;
    if (cold.history.size() == history_window_) {
      // Full ring: overwrite the oldest retained sample in place. At
      // window 0 nothing is retained, and the row's history is untouched.
      if (history_window_ != 0) {
        cold.history[cold.head] = step.hpc;
        cold.head = cold.head + 1 == history_window_ ? 0 : cold.head + 1;
      }
    } else {
      cold.history.push_back(step.hpc);
    }
    if (stale_mask != 0) {
      // Partial quarantine: the sample was repaired in place (bad columns
      // held at their last committed values) — commit it, but exclude the
      // repaired columns from the window statistics.
      accum_s_[slot].add_masked(step.hpc, stale_mask);
    } else {
      accum_s_[slot].add(step.hpc);
    }
    if (stale_mask != 0) {
      std::array<std::uint32_t, hpc::kFeatureDim>& fs = feature_streak_s_[slot];
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        if (stale_mask & (1u << f)) {
          ++fs[f];
        } else {
          fs[f] = 0;
        }
      }
    } else if (sensor_faults_ != nullptr) {
      feature_streak_s_[slot].fill(0);
    }
  }
  last_progress_s_[slot] = step.progress;
  ++epochs_run_s_[slot];
  if (plane_enabled_) {
    // The slot's plane column — the same bits window_summary() would
    // assemble, written while the accumulator state is register/L1-hot,
    // and only the sections the batch driver's detector actually reads
    // (a vote detector skips the mean/stddev stores and their stddev
    // square roots entirely). Distinct slots write distinct columns, so
    // the plane fill shards with the rest of the per-slot phase.
    double* col = plane_.data() + slot;
    const ml::WindowAccumulator& acc = accum_s_[slot];
    if (plane_newest_) {
      acc.store_newest_column(col, plane_stride_);
      col += hpc::kFeatureDim * plane_stride_;
    }
    if (plane_stats_) {
      acc.store_stats_columns(col, col + hpc::kFeatureDim * plane_stride_,
                              plane_stride_);
    }
    plane_count_[slot] = acc.count();
  }
  if (step.finished) {
    exit_s_[slot] = ExitReason::kCompleted;
    epoch_any_exited_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool SimSystem::inject_and_validate(std::size_t slot, hpc::HpcSample& sample,
                                    std::uint32_t& stale_mask) {
  stale_mask = 0;
  const auto pid = static_cast<std::uint32_t>(slot_pid_[slot]);
  const fault::FaultPlane& plane = *sensor_faults_;
  const fault::SensorFaultKind kind = plane.sensor_fault(epoch_, pid);

  if (!plane.sensor.per_feature()) {
    // Whole-sample path (feature_fraction == 1), byte-identical to the
    // pre-partial pipeline.
    switch (kind) {
      case fault::SensorFaultKind::kNone:
        break;
      case fault::SensorFaultKind::kDropout:
        return true;  // the sample never arrived
      case fault::SensorFaultKind::kStuck:
        // A counter stuck before the first sample ever landed has nothing
        // to repeat — it reads as a dropout.
        if (epochs_run_s_[slot] == 0) return true;
        sample = last_sample_s_[slot];
        break;
      case fault::SensorFaultKind::kNaN:
        sample.counts.fill(std::numeric_limits<double>::quiet_NaN());
        break;
      case fault::SensorFaultKind::kSaturated:
        sample.counts.fill(fault::kSaturationValue);
        break;
    }
    // Validation (the honest half of the pipeline): non-finite or
    // saturated values are transport garbage, and a bit-exact repeat of
    // the previous sample is a stuck counter bank — continuous measurement
    // noise makes a genuine repeat vanishingly unlikely, and this check
    // only runs while a fault plane is armed.
    for (const double c : sample.counts) {
      if (!std::isfinite(c) || c >= fault::kSaturationThreshold) return true;
    }
    return epochs_run_s_[slot] > 0 &&
           std::memcmp(&sample, &last_sample_s_[slot], sizeof(sample)) == 0;
  }

  // Per-feature path: the fault hits the columns sensor_feature_mask
  // selects, validation re-derives the bad set per column (it never trusts
  // the injector), and a partially-bad sample is repaired instead of
  // dropped. A dropout is still the whole sample — the transport lost it,
  // there are no columns to save.
  if (kind == fault::SensorFaultKind::kDropout) return true;
  const bool first = epochs_run_s_[slot] == 0;
  const hpc::HpcSample& held = last_sample_s_[slot];
  if (kind != fault::SensorFaultKind::kNone) {
    // A first-epoch fault has no committed value to hold or repair from:
    // the whole sample quarantines, exactly like the whole-sample path's
    // stuck-before-first rule.
    if (first) return true;
    const std::uint32_t inject = plane.sensor_feature_mask(epoch_, pid);
    for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
      if (!(inject & (1u << f))) continue;
      switch (kind) {
        case fault::SensorFaultKind::kStuck:
          sample.counts[f] = held.counts[f];
          break;
        case fault::SensorFaultKind::kNaN:
          sample.counts[f] = std::numeric_limits<double>::quiet_NaN();
          break;
        case fault::SensorFaultKind::kSaturated:
          sample.counts[f] = fault::kSaturationValue;
          break;
        case fault::SensorFaultKind::kNone:
        case fault::SensorFaultKind::kDropout:
          break;  // unreachable
      }
    }
  }
  // Per-column validation: non-finite / saturated transport garbage, plus
  // a bit-exact repeat of the column's last committed value (a stuck
  // counter; continuous measurement noise makes a genuine single-column
  // repeat vanishingly unlikely).
  std::uint32_t bad = 0;
  for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
    const double c = sample.counts[f];
    if (!std::isfinite(c) || c >= fault::kSaturationThreshold) {
      bad |= 1u << f;
      continue;
    }
    if (!first &&
        std::memcmp(&sample.counts[f], &held.counts[f], sizeof(double)) == 0) {
      bad |= 1u << f;
    }
  }
  if (bad == 0) return false;
  constexpr std::uint32_t kAll = (1u << hpc::kNumEvents) - 1;
  if (first || bad == kAll) return true;  // nothing healthy left to commit
  // Cycles is the shared denominator of every rate feature to_features
  // derives: holding it at a stale value would skew ALL columns while
  // stale_mask flagged only the cycles bit (itself a no-op — the cycles
  // feature is pinned to 0). No column is repairable through a lying
  // denominator, so the whole sample quarantines.
  constexpr std::uint32_t kCyclesBit =
      1u << static_cast<std::uint32_t>(hpc::Event::kCycles);
  if (bad & kCyclesBit) return true;
  // Repair: hold each bad column at its last committed value so the sample
  // entering history/last_sample carries no garbage; the caller's masked
  // fold keeps the repaired columns out of the statistics.
  for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
    if (bad & (1u << f)) sample.counts[f] = held.counts[f];
  }
  stale_mask = bad;
  return false;
}

void SimSystem::arm_sensor_faults(const fault::FaultPlane* plane) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::arm_sensor_faults: epoch open");
  }
  // Fail loudly at arm time: a degenerate rate (NaN, negative, > 1) would
  // otherwise just skew a hash threshold into never/always firing.
  if (plane != nullptr) plane->validate();
  sensor_faults_ = plane;
}

std::uint64_t SimSystem::invalid_streak(ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) ? invalid_streak_s_[slot] : 0;
}

std::array<std::uint32_t, hpc::kFeatureDim> SimSystem::feature_streaks(
    ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) ? feature_streak_s_[slot]
                           : std::array<std::uint32_t, hpc::kFeatureDim>{};
}

void SimSystem::end_epoch() {
  if (!epoch_open_) {
    throw std::logic_error("SimSystem::end_epoch: no open epoch");
  }
  epoch_open_ = false;
  ++epoch_;
  commit_lifecycle();
}

void SimSystem::abort_epoch() {
  // The epoch did not complete (epoch_ stays), but shards may have marked
  // completions and callers may have queued lifecycle deltas — both must
  // still commit, or a retry would re-execute finished workloads or lose
  // an admission. Idempotent: layered drivers (engine catch blocks, a
  // supervisor unwinding through them) may each try to abort the same
  // failed epoch, and only the first may commit — a second commit at a
  // closed boundary would double-apply queued deltas.
  if (!epoch_open_) return;
  epoch_open_ = false;
  commit_lifecycle();
}

void SimSystem::commit_lifecycle() {
  // (1) Deferred kills mark their slots. A slot that completed naturally
  // during the epoch keeps kCompleted: the process finished before the
  // kill could land.
  for (const ProcessId pid : pending_kill_) {
    const std::uint32_t slot = pid_map_.at(pid).slot;
    if (is_hot_slot(slot) && exit_s_[slot] == ExitReason::kRunning) {
      exit_s_[slot] = ExitReason::kKilled;
      epoch_any_exited_.store(true, std::memory_order_relaxed);
    }
  }
  pending_kill_.clear();
  // (2) One stable compaction pass retires completions and kills together.
  if (epoch_any_exited_.load(std::memory_order_relaxed)) retire_dead_slots();
  // (3) Admissions append in spawn order, after compaction, so the slot
  // order stays ascending-pid. Cancelled admissions (killed while
  // pending) were already diverted to the retired state by kill().
  for (const ProcessId pid : pending_admit_) {
    if (pid_map_.at(pid).slot != kPendingSlot) continue;  // cancelled
    admit_slot(pid);
  }
  pending_admit_.clear();
  // (4) Retention-window reclamation, LAST: a cancelled admission queued
  // for reclaim must still be visible to step (3)'s cancellation check at
  // this boundary before its map entry can ever be dropped.
  drain_retired();
}

void SimSystem::run_epoch(util::ThreadPool* pool) {
  begin_epoch();
  const std::size_t live = slot_pid_.size();
  const auto run_range = [this](std::size_t begin, std::size_t end) {
    for (std::size_t slot = begin; slot < end; ++slot) (void)step_slot(slot);
  };

  // Per-slot phase: every slot touches only its own hot-array entries and
  // cold row, and reads the serial share snapshot, so sharding is safe and
  // bit-identical to the sequential loop.
  try {
    if (pool != nullptr) {
      // Degenerate sizes run inline inside the pool, which counts them in
      // inline_run_count() — keeping schedule statistics exact.
      pool->parallel_for(live, run_range);
    } else {
      run_range(0, live);
    }
  } catch (...) {
    abort_epoch();
    throw;
  }
  end_epoch();
}

void SimSystem::run_epochs(std::size_t n, util::ThreadPool* pool) {
  reserve_history(n);
  for (std::size_t i = 0; i < n; ++i) run_epoch(pool);
}

void SimSystem::reserve_history(std::size_t epochs) {
  for (const std::uint32_t row : row_s_) {
    std::vector<hpc::HpcSample>& history = cold_[row].history;
    // A ring never grows past the history window.
    history.reserve(std::min(history.size() + epochs, history_window_));
  }
}

void SimSystem::reclaim_cold(ColdProc& cold) {
  // Retirement pool: the history buffer (capacity intact) feeds the next
  // admission; the workload is destroyed. The scalar retirement snapshot
  // stays, so the cheap post-mortem observers keep answering.
  // A capacity-less buffer (a cancelled admission that never inherited
  // one) is not worth pooling: popping it later would hand a fresh
  // process an empty buffer in place of a real donation.
  if (cold.history.capacity() != 0) {
    cold.history.clear();
    history_pool_.push_back(std::move(cold.history));
    cold.history = {};
  }
  cold.head = 0;
  cold.workload.reset();
}

void SimSystem::release_row(std::uint32_t row) {
  // Full reclaim: everything reclaim_cold leaves behind goes too — the
  // retirement snapshot resets and the row returns to the free pool for
  // the next spawn. The history buffer is donated even without recycling
  // armed (spawn consumes the pool unconditionally), so a retention-bound
  // run recycles buffers at reclaim granularity.
  ColdProc& cold = cold_[row];
  reclaim_cold(cold);
  cold.retired = RetiredState{};
  cold.pid = kFreeRow;
  free_rows_.push_back(row);
}

void SimSystem::enable_retirement_retention(std::uint64_t window_epochs) {
  if (epoch_open_) {
    throw std::logic_error(
        "SimSystem::enable_retirement_retention: epoch open");
  }
  if (window_epochs == 0) {
    // Drivers read exit state at the boundary that retires a process; a
    // zero window would reclaim it out from under them mid-commit.
    throw std::invalid_argument(
        "SimSystem::enable_retirement_retention: zero window");
  }
  retention_enabled_ = true;
  retention_epochs_ = window_epochs;
}

void SimSystem::drain_retired() {
  if (!retention_enabled_) return;
  while (retire_head_ < retire_queue_.size()) {
    const RetiredPid entry = retire_queue_[retire_head_];
    // Entries carry non-decreasing epochs (epoch_ is monotone), so the
    // first unexpired entry ends the drain.
    if (epoch_ < entry.epoch + retention_epochs_) break;
    ++retire_head_;
    const PidRec rec = pid_map_.at(entry.pid);
    release_row(rec.row);
    pid_map_.erase(entry.pid);
  }
  if (retire_head_ == retire_queue_.size()) {
    retire_queue_.clear();
    retire_head_ = 0;
  } else if (retire_head_ >= kRetireCompactMin &&
             retire_head_ >= retire_queue_.size() / 2) {
    // Compact the consumed prefix in place (no allocation) so steady-state
    // churn keeps the queue's footprint at O(window), not O(total spawns).
    retire_queue_.erase(
        retire_queue_.begin(),
        retire_queue_.begin() + static_cast<std::ptrdiff_t>(retire_head_));
    retire_head_ = 0;
  }
}

void SimSystem::retire_dead_slots() {
  retire_pending_ = false;
  const std::size_t n = slot_pid_.size();
  const auto dead = [this](std::size_t s) {
    return exit_s_[s] != ExitReason::kRunning;
  };
  std::size_t w = 0;
  std::size_t s = 0;
  while (s < n) {
    // The maximal run of survivors [s, end) shifts down to w in one move
    // per hot array, preserving ascending pid order; the run before the
    // first dead slot is already in place. The feature plane is per-epoch
    // scratch (step_slot rewrites every live column before the batch call
    // reads it), so its columns stay behind.
    std::size_t end = s;
    while (end < n && !dead(end)) ++end;
    const std::size_t run = end - s;
    if (w != s) {
      for_each_hot_array([w, s, run](auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        static_assert(std::is_trivially_copyable_v<T>);
        std::memmove(v.data() + w, v.data() + s, run * sizeof(T));
      });
      for (std::size_t i = w; i < w + run; ++i) {
        pid_map_.at(slot_pid_[i]).slot = static_cast<std::uint32_t>(i);
      }
    }
    w += run;
    for (s = end; s < n && dead(s); ++s) {
      const ProcessId pid = slot_pid_[s];
      PidRec& rec = pid_map_.at(pid);
      ColdProc& cold = cold_[rec.row];
      RetiredState& retired = cold.retired;
      // The final weight stays readable, and leaves the CFS total with
      // the slot: a dead process stops competing for CPU from the next
      // epoch on.
      retired.factor = factor_s_[s];
      retired.cgroup = cgroup_s_[s];
      retired.effective = effective_s_[s];
      retired.last_sample = last_sample_s_[s];
      retired.accumulator = accum_s_[s];
      retired.last_progress = last_progress_s_[s];
      retired.epochs_run = epochs_run_s_[s];
      retired.exit = exit_s_[s];
      rec.slot = kNoSlot;
      if (recycle_histories_) reclaim_cold(cold);
      // Retention: schedule the full reclaim for when the window closes.
      // epoch_ is monotone, so queue epochs are non-decreasing (FIFO drain
      // can stop at the first unexpired entry).
      if (retention_enabled_) retire_queue_.push_back({pid, epoch_});
    }
  }
  // Shrinking never releases capacity, so later spawns reuse it.
  for_each_hot_array([w](auto& v) { v.resize(w); });
  if (plane_enabled_) plane_count_.resize(w);
}

void SimSystem::set_cgroup_caps(ProcessId pid, std::optional<double> cpu,
                                std::optional<double> mem,
                                std::optional<double> net,
                                std::optional<double> fs) {
  const PidRec rec = rec_checked(pid);
  ResourceShares& cg = is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                                             : cold_[rec.row].retired.cgroup;
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  if (cpu) cg.cpu = clamp01(*cpu);
  if (mem) cg.mem = clamp01(*mem);
  if (net) cg.net = clamp01(*net);
  if (fs) cg.fs = clamp01(*fs);
}

void SimSystem::clear_cgroup_caps(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  (is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                         : cold_[rec.row].retired.cgroup) = ResourceShares{};
}

double* SimSystem::mutable_factor(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  if (is_hot_slot(rec.slot)) return &factor_s_[rec.slot];
  // A retired weight is final: a late command must not resurrect it.
  if (rec.slot == kNoSlot) return nullptr;
  return &cold_[rec.row].retired.factor;
}

void SimSystem::apply_sched_threat_delta(ProcessId pid, double delta_threat) {
  // A NaN would pass Eq. 8's clamp, and the NaN total would zero every
  // live process's share.
  if (std::isnan(delta_threat)) {
    throw std::invalid_argument(
        "SimSystem::apply_sched_threat_delta: NaN threat delta");
  }
  if (double* factor = mutable_factor(pid)) {
    *factor = threat_step_factor(*factor, delta_threat, platform_.scheduler);
  }
}

void SimSystem::reset_sched_weight(ProcessId pid) {
  if (double* factor = mutable_factor(pid)) *factor = 1.0;
}

double SimSystem::weight_factor(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? factor_s_[rec.slot]
                               : cold_[rec.row].retired.factor;
}

void SimSystem::kill(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  const std::uint32_t slot = rec.slot;
  if (slot == kPendingSlot) {
    // Killed before its admission committed: cancel the admission. The
    // process never runs; it exits straight into the retired state, whose
    // snapshot already holds any caps and weight set while it was pending.
    ColdProc& cold = cold_[rec.row];
    pid_map_.at(pid).slot = kNoSlot;
    cold.retired.exit = ExitReason::kKilled;
    if (recycle_histories_) reclaim_cold(cold);
    // Cancelled admissions retire here, not in a compaction pass, so this
    // is their entry into the retention queue.
    if (retention_enabled_) retire_queue_.push_back({pid, epoch_});
    return;
  }
  if (slot == kNoSlot || exit_s_[slot] != ExitReason::kRunning) return;
  if (epoch_open_) {
    // The dispatch may be mid-flight over this slot: defer to the epoch
    // boundary so the process runs the open epoch in full and results
    // cannot depend on where in the epoch the kill landed.
    pending_kill_.push_back(pid);
    return;
  }
  // Mark now, compact later (next live_processes() or begin_epoch): every
  // pid-addressed observer already answers correctly for a marked slot,
  // and deferring keeps a mass-termination commit — k kills applied
  // back-to-back — at one O(live) compaction pass instead of k.
  exit_s_[slot] = ExitReason::kKilled;
  retire_pending_ = true;
}

bool SimSystem::is_live(ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) && exit_s_[slot] == ExitReason::kRunning;
}

ExitReason SimSystem::exit_reason(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? exit_s_[rec.slot]
                               : cold_[rec.row].retired.exit;
}

const Workload& SimSystem::workload(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  if (cold_[rec.row].workload == nullptr) {
    throw std::logic_error("SimSystem::workload: reclaimed by retirement pool");
  }
  return *cold_[rec.row].workload;
}

Workload& SimSystem::workload(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  if (cold_[rec.row].workload == nullptr) {
    throw std::logic_error("SimSystem::workload: reclaimed by retirement pool");
  }
  return *cold_[rec.row].workload;
}

const ResourceShares& SimSystem::effective_shares(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? effective_s_[rec.slot]
                               : cold_[rec.row].retired.effective;
}

const ResourceShares& SimSystem::cgroup_caps(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                               : cold_[rec.row].retired.cgroup;
}

const hpc::HpcSample& SimSystem::last_sample(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? last_sample_s_[rec.slot]
                               : cold_[rec.row].retired.last_sample;
}

const std::vector<hpc::HpcSample>& SimSystem::sample_history(
    ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return cold_[rec.row].history;
}

ml::WindowSummary SimSystem::window_summary(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  std::span<const hpc::HpcSample> older;
  std::span<const hpc::HpcSample> wrap;
  history_spans(cold_[rec.row], older, wrap);
  ml::WindowSummary out = window_accumulator(pid).summary(older);
  out.window_wrap = wrap;
  return out;
}

const ml::WindowAccumulator& SimSystem::window_accumulator(
    ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? accum_s_[rec.slot]
                               : cold_[rec.row].retired.accumulator;
}

double SimSystem::last_progress(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? last_progress_s_[rec.slot]
                               : cold_[rec.row].retired.last_progress;
}

std::uint64_t SimSystem::epochs_run(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? epochs_run_s_[rec.slot]
                               : cold_[rec.row].retired.epochs_run;
}

std::span<const ProcessId> SimSystem::live_processes() const {
  // The slot->pid array IS the live list: no separate rebuild, no
  // allocation, ever. Kills since the last epoch compact here first —
  // logically const (the live *set* is unchanged; only the internal slot
  // layout tightens), hence the cast.
  if (retire_pending_) const_cast<SimSystem*>(this)->retire_dead_slots();
  return slot_pid_;
}

snapshot::SystemImage SimSystem::snapshot_state() const {
  snapshot::SystemImage image;
  snapshot_state(image);
  return image;
}

void SimSystem::snapshot_state(snapshot::SystemImage& image,
                               util::ThreadPool* pool) const {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::snapshot_state: epoch in progress");
  }
  // Closed-boundary invariant: the lifecycle queues drain at every
  // end_epoch/abort_epoch, so nothing can be pending here.
  if (!pending_admit_.empty() || !pending_kill_.empty()) {
    throw std::logic_error(
        "SimSystem::snapshot_state: lifecycle queues not drained");
  }

  // The tracked rows in ascending-pid order, canonical whatever the pid
  // map's bucket layout. Rows are allocated in spawn order and a restore
  // packs them in pid order, so row order already is pid order unless
  // retention has handed a reclaimed row to a later spawn.
  std::vector<ProcessId> pids;
  std::vector<std::uint32_t> rows;
  pids.reserve(pid_map_.size());
  rows.reserve(pid_map_.size());
  bool ordered = true;
  for (std::uint32_t row = 0; row < cold_.size(); ++row) {
    const ProcessId pid = cold_[row].pid;
    if (pid == kFreeRow) continue;
    ordered = ordered && (pids.empty() || pids.back() < pid);
    pids.push_back(pid);
    rows.push_back(row);
  }
  if (!ordered) {
    std::sort(rows.begin(), rows.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
      return cold_[a].pid < cold_[b].pid;
    });
    for (std::size_t i = 0; i < rows.size(); ++i) pids[i] = cold_[rows[i]].pid;
  }
  // Serially, before anything is filled: the first row in pid order
  // without snapshot support throws, whatever the worker count.
  for (const std::uint32_t row : rows) {
    if (cold_[row].workload != nullptr) {
      snapshot::require_snapshot_type(*cold_[row].workload);
    }
  }

  image.epoch_ms = platform_.epoch_ms;
  image.hpc_noise = platform_.hpc_noise;
  image.scheduler = platform_.scheduler;
  image.rng = rng_.state();
  image.epoch = epoch_;
  image.retire_pending = retire_pending_;
  image.recycle_histories = recycle_histories_;
  image.counter_rng = counter_rng_;
  image.history_window = history_window_;
  image.total_spawned = next_pid_;
  image.retention_enabled = retention_enabled_;
  image.retention_epochs = retention_epochs_;
  image.retire_queue.resize(retire_queue_.size() - retire_head_);
  for (std::size_t i = retire_head_; i < retire_queue_.size(); ++i) {
    image.retire_queue[i - retire_head_] = {retire_queue_[i].pid,
                                            retire_queue_[i].epoch};
  }

  // Slots [0, live), then rows: each item overwrites its own element. A
  // row's weight entry is filled with the row: its slot's factor, or the
  // retired factor negated.
  const std::size_t tracked = pids.size();
  const std::size_t live = slot_pid_.size();
  image.slots.resize(live);
  image.procs.resize(tracked);
  image.sched_entries.resize(tracked);
  const auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < std::min(end, live); ++s) {
      snapshot::SlotImage& slot = image.slots[s];
      slot.pid = slot_pid_[s];
      slot.rng = rng_s_[s].state();
      slot.cgroup = cgroup_s_[s];
      slot.effective = effective_s_[s];
      slot.last_sample = last_sample_s_[s];
      slot.accum = accum_s_[s].state();
      slot.last_progress = last_progress_s_[s];
      slot.epochs_run = epochs_run_s_[s];
      slot.exit = static_cast<std::uint8_t>(exit_s_[s]);
      slot.invalid_streak = invalid_streak_s_[s];
      slot.feature_streak = feature_streak_s_[s];
    }
    if (end <= live) return;
    const std::size_t first = std::max(begin, live) - live;
    // Slots are ascending-pid too, so a row's slot is found by one merge
    // walk from the chunk's first pid instead of a pid-map probe per row.
    std::size_t s = static_cast<std::size_t>(
        std::lower_bound(slot_pid_.begin(), slot_pid_.end(), pids[first]) -
        slot_pid_.begin());
    for (std::size_t i = first; i < end - live; ++i) {
      while (s < live && slot_pid_[s] < pids[i]) ++s;
      const ColdProc& cold = cold_[rows[i]];
      snapshot::ProcImage& proc = image.procs[i];
      proc.pid = pids[i];
      proc.slot = s < live && slot_pid_[s] == pids[i]
                      ? static_cast<std::uint32_t>(s)
                      : kNoSlot;
      image.sched_entries[i] = {pids[i], proc.slot != kNoSlot
                                             ? factor_s_[s]
                                             : -cold.retired.factor};
      if (cold.workload != nullptr) {
        snapshot::poly_image(*cold.workload, proc.workload);
      } else {
        proc.workload.type.clear();
        proc.workload.payload.clear();
      }
      // Linearize a wrapped ring oldest-first, so the image is layout-
      // independent and a restored ring restarts with head 0 pointing at
      // its (then-oldest) first element.
      std::span<const hpc::HpcSample> older;
      std::span<const hpc::HpcSample> wrap;
      history_spans(cold, older, wrap);
      proc.history.assign(older.begin(), older.end());
      proc.history.insert(proc.history.end(), wrap.begin(), wrap.end());
      proc.retired_cgroup = cold.retired.cgroup;
      proc.retired_effective = cold.retired.effective;
      proc.retired_last_sample = cold.retired.last_sample;
      proc.retired_accum = cold.retired.accumulator.state();
      proc.retired_last_progress = cold.retired.last_progress;
      proc.retired_epochs_run = cold.retired.epochs_run;
      proc.retired_exit = static_cast<std::uint8_t>(cold.retired.exit);
    }
  };
  if (pool != nullptr && live + tracked > 1) {
    pool->parallel_for(live + tracked, fill);
  } else {
    fill(0, live + tracked);
  }
}

void SimSystem::restore_from(const snapshot::SystemImage& image,
                             const snapshot::WorkloadRegistry& registry) {
  using util::SerialError;
  if (epoch_open_) {
    throw std::logic_error("SimSystem::restore_from: epoch in progress");
  }

  // Compatibility: the platform/scheduler configuration is code-level (set
  // at construction); the image only records its numbers for this check.
  const SchedulerConfig& sc = platform_.scheduler;
  const SchedulerConfig& ic = image.scheduler;
  if (platform_.epoch_ms != image.epoch_ms ||
      platform_.hpc_noise != image.hpc_noise ||
      sc.targeted_latency_ms != ic.targeted_latency_ms ||
      sc.gamma != ic.gamma || sc.weight_levels != ic.weight_levels ||
      sc.default_level != ic.default_level ||
      sc.background_weight_units != ic.background_weight_units ||
      sc.min_share_fraction != ic.min_share_fraction) {
    throw SerialError(SerialError::Code::kIncompatible,
                      "restore: platform/scheduler configuration mismatch");
  }

  // Structural validation — everything throws before any mutation. Pids
  // stay below kFreeRow, the free-row mark capture skips, as spawn keeps
  // them. The v5 keyed form: cold rows and scheduler entries are sparse,
  // ascending-pid, and must key exactly the same pid set.
  if (image.total_spawned > kFreeRow) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: total_spawned beyond the pid space");
  }
  const std::size_t procs = image.procs.size();
  ProcessId prev_row_pid = 0;
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    if (proc.pid >= image.total_spawned ||
        (i != 0 && proc.pid <= prev_row_pid)) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: cold rows not ascending-pid / pid beyond "
                        "total_spawned");
    }
    prev_row_pid = proc.pid;
  }
  if (image.sched_entries.size() != procs) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: scheduler entries do not match cold rows");
  }
  for (std::size_t i = 0; i < procs; ++i) {
    const sim::SchedFactorEntry& entry = image.sched_entries[i];
    // One weight per row, keyed alike; the sign must match liveness (hot
    // slots — compacted or not — are live, retired rows negated), and the
    // magnitude must lie where Eq. 8, reset and the default weight keep
    // every factor, [min_share_fraction, 1]. A NaN fails both compares.
    const double magnitude =
        is_hot_slot(image.procs[i].slot) ? entry.factor : -entry.factor;
    if (entry.pid != image.procs[i].pid ||
        !(magnitude >= sc.min_share_fraction && magnitude <= 1.0)) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: scheduler entry inconsistent with its row");
    }
  }
  for (const snapshot::ProcImage& proc : image.procs) {
    if (proc.history.size() > image.history_window) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: history exceeds the history window");
    }
  }
  // Rows are ascending-pid (just checked), so pid -> row index resolves by
  // binary search; -1 = untracked.
  const auto proc_index = [&image](ProcessId pid) -> std::ptrdiff_t {
    const auto it = std::lower_bound(
        image.procs.begin(), image.procs.end(), pid,
        [](const snapshot::ProcImage& p, ProcessId v) { return p.pid < v; });
    if (it == image.procs.end() || it->pid != pid) return -1;
    return it - image.procs.begin();
  };
  ProcessId prev_pid = 0;
  for (std::size_t s = 0; s < image.slots.size(); ++s) {
    const snapshot::SlotImage& slot = image.slots[s];
    const std::ptrdiff_t row = proc_index(slot.pid);
    if (row < 0 || (s != 0 && slot.pid <= prev_pid) ||
        image.procs[static_cast<std::size_t>(row)].slot != s ||
        slot.exit > 2) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: hot slot table inconsistent");
    }
    prev_pid = slot.pid;
  }
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    const bool hot = is_hot_slot(proc.slot);
    if ((proc.slot != kNoSlot && !hot) ||
        (hot && (proc.slot >= image.slots.size() ||
                 image.slots[proc.slot].pid != proc.pid)) ||
        proc.retired_exit > 2) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: pid -> slot table inconsistent");
    }
    if (hot && !proc.workload.present()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: live slot without a workload");
    }
  }
  // Retention state: queue entries must reference tracked, retired rows,
  // with non-decreasing epochs no later than the capture epoch, no pid
  // twice (a reclaim is one-shot), and no queue at all without the policy.
  if (!image.retention_enabled &&
      (!image.retire_queue.empty() || image.retention_epochs != 0)) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: retirement queue without retention policy");
  }
  if (image.retention_enabled && image.retention_epochs == 0) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: zero retention window");
  }
  std::uint64_t prev_epoch = 0;
  for (std::size_t i = 0; i < image.retire_queue.size(); ++i) {
    const auto& [pid, retired_at] = image.retire_queue[i];
    const std::ptrdiff_t row = proc_index(pid);
    if (row < 0 ||
        is_hot_slot(image.procs[static_cast<std::size_t>(row)].slot) ||
        (i != 0 && retired_at < prev_epoch) || retired_at > image.epoch) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: retirement queue inconsistent");
    }
    prev_epoch = retired_at;
  }
  {
    std::vector<ProcessId> queue_pids;
    queue_pids.reserve(image.retire_queue.size());
    for (const auto& [pid, retired_at] : image.retire_queue) {
      queue_pids.push_back(pid);
    }
    std::sort(queue_pids.begin(), queue_pids.end());
    if (std::adjacent_find(queue_pids.begin(), queue_pids.end()) !=
        queue_pids.end()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: pid queued for reclamation twice");
    }
  }

  // Stage the workloads: loader failures (unknown type, malformed payload)
  // must leave the target untouched.
  std::vector<std::unique_ptr<Workload>> staged(procs);
  for (std::size_t pid = 0; pid < procs; ++pid) {
    if (image.procs[pid].workload.present()) {
      staged[pid] = registry.load(image.procs[pid].workload);
    }
  }

  // Commit.
  rng_.set_state(image.rng);
  // The RNG kind is run state the image carries (set_state only restores
  // the counters/words): adopt it both ways, so restoring a xoshiro image
  // into a counter-mode system — or vice versa — replays faithfully.
  counter_rng_ = image.counter_rng;
  rng_.set_counter_mode(counter_rng_);
  history_window_ = static_cast<std::size_t>(image.history_window);
  epoch_ = image.epoch;
  retire_pending_ = image.retire_pending;
  recycle_histories_ = image.recycle_histories;
  epoch_any_exited_.store(false, std::memory_order_relaxed);
  pending_admit_.clear();
  pending_kill_.clear();
  history_pool_.clear();
  next_pid_ = static_cast<std::size_t>(image.total_spawned);
  retention_enabled_ = image.retention_enabled;
  retention_epochs_ = image.retention_epochs;
  retire_queue_.clear();
  retire_head_ = 0;
  for (const auto& [pid, retired_at] : image.retire_queue) {
    retire_queue_.push_back({pid, retired_at});
  }

  // Cold rows pack densely in image (ascending-pid) order; the pid map is
  // rebuilt from scratch, so its capacity — and therefore its bucket
  // layout — is a pure function of the tracked count, never of the churn
  // history that produced the image. No observable output iterates the
  // map, so the layout difference is invisible.
  cold_.clear();
  cold_.resize(procs);
  free_rows_.clear();
  pid_map_.clear();
  pid_map_.reserve(procs);
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    ColdProc& cold = cold_[i];
    cold.pid = proc.pid;
    cold.workload = std::move(staged[i]);
    cold.history = proc.history;
    // Image histories are linearized oldest-first, so a full ring resumes
    // with head 0 = its oldest sample (exactly where the overwrite goes).
    cold.head = 0;
    // A live row's weight sits in its slot (set below); a retired row's
    // is stored negated.
    if (!is_hot_slot(proc.slot)) {
      cold.retired.factor = -image.sched_entries[i].factor;
    }
    cold.retired.cgroup = proc.retired_cgroup;
    cold.retired.effective = proc.retired_effective;
    cold.retired.last_sample = proc.retired_last_sample;
    cold.retired.accumulator.restore(proc.retired_accum);
    cold.retired.last_progress = proc.retired_last_progress;
    cold.retired.epochs_run = proc.retired_epochs_run;
    cold.retired.exit = static_cast<ExitReason>(proc.retired_exit);
    pid_map_.insert(proc.pid,
                    PidRec{proc.slot, static_cast<std::uint32_t>(i)});
  }

  const std::size_t live = image.slots.size();
  for_each_hot_array([live](auto& v) { v.resize(live); });
  for (std::size_t s = 0; s < live; ++s) {
    const snapshot::SlotImage& slot = image.slots[s];
    slot_pid_[s] = slot.pid;
    row_s_[s] = pid_map_.at(slot.pid).row;
    factor_s_[s] = image.sched_entries[row_s_[s]].factor;
    rng_s_[s].set_state(slot.rng);
    rng_s_[s].set_counter_mode(counter_rng_);
    cgroup_s_[s] = slot.cgroup;
    effective_s_[s] = slot.effective;
    last_sample_s_[s] = slot.last_sample;
    accum_s_[s].restore(slot.accum);
    last_progress_s_[s] = slot.last_progress;
    epochs_run_s_[s] = slot.epochs_run;
    exit_s_[s] = static_cast<ExitReason>(slot.exit);
    invalid_streak_s_[s] = slot.invalid_streak;
    feature_streak_s_[s] = slot.feature_streak;
  }

  // The feature-plane arming flags are run config, not snapshot state
  // (the image carries none): the target keeps whatever sections its own
  // engine armed. The plane CONTENTS are derived — step_slot rewrites every
  // live column before the next batch kernel reads it, so size (not bits)
  // is all restore must provide.
  if (plane_enabled_) {
    plane_count_.assign(live, 0);
    reserve_plane();
  }
}

}  // namespace valkyrie::sim
