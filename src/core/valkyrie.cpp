#include "core/valkyrie.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "fault/fault_plane.hpp"
#include "snapshot/snapshot.hpp"
#include "util/serial.hpp"

namespace valkyrie::core {

ValkyrieMonitor::ValkyrieMonitor(ValkyrieConfig config,
                                 std::unique_ptr<Actuator> actuator)
    : config_(config),
      actuator_(std::move(actuator)),
      threat_(config.threat) {
  if (actuator_ == nullptr) {
    throw std::invalid_argument("ValkyrieMonitor: null actuator");
  }
  if (config_.required_measurements == 0) {
    throw std::invalid_argument("ValkyrieMonitor: N* must be positive");
  }
}

ValkyrieMonitor::PlannedAction ValkyrieMonitor::plan(
    sim::ProcessId pid, ml::Inference inference,
    std::optional<ml::Inference> terminal_inference) {
  PlannedAction out;
  if (state_ == ProcessState::kTerminated) return out;

  // Measurement-accumulation phase (Algorithm 1 lines 5-20). Under episode
  // scoping, counting starts with the epoch that opens a suspicious
  // episode; a benign epoch in the normal state accumulates nothing.
  if (measurements_ < config_.required_measurements) {
    if (inference == ml::Inference::kInvalid) {
      // No usable verdict this epoch: no measurement consumed, no threat
      // change, no action. The process coasts under whatever restrictions
      // it already has — a faulted detector must be able to neither clear
      // nor escalate a process.
      return out;
    }
    const bool counting = !config_.episode_scoped_measurements ||
                          state_ != ProcessState::kNormal ||
                          inference == ml::Inference::kMalicious;
    if (counting) ++measurements_;
    const ThreatIndex::Update update = threat_.on_inference(inference);
    state_ = update.state;
    if (update.recovered) {
      // Suspicious -> normal: threat 0 means no restrictions remain, and
      // an episode-scoped measurement budget starts afresh.
      if (config_.episode_scoped_measurements) measurements_ = 0;
      out.action = Action::kRestored;
      out.command = {ActuatorCommand::Kind::kReset, pid, 0.0, actuator_.get()};
      return out;
    }
    if (update.delta != 0.0) {
      out.action =
          update.delta > 0.0 ? Action::kThrottled : Action::kRelaxed;
      out.command = {ActuatorCommand::Kind::kApply, pid, update.delta,
                     actuator_.get()};
    }
    return out;
  }

  // Terminable phase (lines 21-26 / Fig. 3): the detector has accumulated
  // the user-required evidence; the decision is taken on the accumulated-
  // window view when one is provided. Benign -> full restore (Areset);
  // malicious -> terminate.
  state_ = ProcessState::kTerminable;
  const ml::Inference decision = terminal_inference.value_or(inference);
  if (decision == ml::Inference::kInvalid) {
    // No usable verdict at the decision point: stay terminable and let the
    // next valid epoch decide restore-vs-terminate.
    return out;
  }
  if (decision == ml::Inference::kBenign) {
    if (config_.episode_scoped_measurements) {
      // The episode resolved benign at full evidence: back to normal with
      // a fresh measurement budget; penalty/compensation escalation
      // carries over (repeat episodes throttle harder).
      state_ = ProcessState::kNormal;
      measurements_ = 0;
      threat_.reset_threat();
    }
    out.action = Action::kRestored;
    out.command = {ActuatorCommand::Kind::kReset, pid, 0.0, actuator_.get()};
    return out;
  }
  state_ = ProcessState::kTerminated;
  out.action = Action::kTerminated;
  out.command = {ActuatorCommand::Kind::kKill, pid, 0.0, nullptr};
  return out;
}

ValkyrieMonitor::Action ValkyrieMonitor::on_epoch(
    sim::SimSystem& sys, sim::ProcessId pid, ml::Inference inference,
    std::optional<ml::Inference> terminal_inference) {
  const PlannedAction planned = plan(pid, inference, terminal_inference);
  planned.command.apply(sys);
  return planned.action;
}

ValkyrieEngine::ValkyrieEngine(sim::SimSystem& sys,
                               const ml::Detector& detector,
                               std::size_t worker_threads)
    : sys_(sys), detector_(detector) {
  // The system retains exactly the raw samples the detector reads; from
  // here on the window only widens (attach, step).
  sys_.set_history_window(detector_.raw_window());
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && worker_threads > hw) worker_threads = hw;
  if (worker_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(worker_threads);
  }
  shard_commands_.resize(shard_count());
}

void ValkyrieEngine::reserve_shard_buffers(std::size_t per_shard) {
  for (std::vector<ActuatorCommand>& buf : shard_commands_) {
    buf.reserve(per_shard);  // no-op once capacity has caught up
  }
}

void ValkyrieEngine::reserve(std::size_t max_processes) {
  // Plus the detach tombstones a step leaves in the table (see kPruneRatio).
  attached_.reserve(max_processes + max_processes / (kPruneRatio - 1));
  attached_index_.reserve(max_processes);
  // The per-slot scratch follows the live count, which never exceeds the
  // processes ever spawned.
  batch_finished_.reserve(max_processes);
  batch_votes_.reserve(max_processes);
  batch_infer_.reserve(max_processes);
  // At most one pending retry per attached process.
  retry_.reserve(max_processes);
  reserve_shard_buffers(
      std::min(shard_quota(max_processes), max_processes));
}

void ValkyrieEngine::attach(sim::ProcessId pid, ValkyrieConfig config,
                            std::unique_ptr<Actuator> actuator,
                            const ml::Detector* terminal_detector) {
  if (attached_index_.contains(pid)) {
    throw std::invalid_argument("ValkyrieEngine: process already attached");
  }
  if (terminal_detector != nullptr) {
    widen_history(terminal_detector->raw_window());
  }
  attached_index_.insert(pid, static_cast<std::uint32_t>(attached_.size()));
  Attached a{pid,
             ValkyrieMonitor(config, std::move(actuator)),
             terminal_detector,
             {},
             {},
             ValkyrieMonitor::Action::kNone,
             0};
  attached_.push_back(std::move(a));
  // A shard emits at most one command per attachment it owns; sizing to one
  // ceil-chunk keeps the per-epoch hot path allocation-free without
  // shard_count-fold overcommit. (step() re-checks against its live-slot
  // ranges, which may cluster attachments.)
  reserve_shard_buffers(shard_quota(attached_index_.size()));
}

void ValkyrieEngine::detach(sim::ProcessId pid) {
  const std::uint32_t* idx_entry = attached_index_.find(pid);
  if (idx_entry == nullptr) {
    throw std::out_of_range("ValkyrieEngine: process not attached");
  }
  // Tombstone, don't erase: a step prunes only once tombstones pass
  // 1/kPruneRatio of the table, so many detaches share one stable
  // compaction pass (prune_detached) instead of paying an ordered erase
  // each.
  const auto idx = static_cast<std::size_t>(*idx_entry);
  attached_index_.erase(pid);
  attached_[idx].detached = true;
  ++detached_count_;
}

void ValkyrieEngine::prune_detached() {
  detached_count_ = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < attached_.size(); ++i) {
    if (attached_[i].detached) continue;
    if (w != i) {
      attached_[w] = std::move(attached_[i]);
      attached_index_.at(attached_[w].pid) = static_cast<std::uint32_t>(w);
    }
    ++w;
  }
  // Range erase, not resize: Attached has no default constructor (resize
  // would demand one for its growth path even though this only shrinks).
  attached_.erase(attached_.begin() + static_cast<std::ptrdiff_t>(w),
                  attached_.end());
}

void ValkyrieEngine::widen_history(std::size_t window) {
  if (window > sys_.history_window()) sys_.set_history_window(window);
}

void ValkyrieEngine::infer_attachment(Attached& a, std::size_t slot,
                                      std::vector<ActuatorCommand>& commands) {
  // One summary per process per epoch; both detectors share it, so
  // feature extraction and statistics assembly happen exactly once.
  const ml::WindowSummary summary = sys_.window_summary(a.pid);
  const ml::Inference inference = fault_plane_ == nullptr
                                      ? a.stream.infer(detector_, summary)
                                      : guarded_infer(a, slot, summary);
  finish_attachment(a, slot, &summary, inference, commands);
}

ml::Inference ValkyrieEngine::sanitize(ml::Inference inference) noexcept {
  if (inference != ml::Inference::kBenign &&
      inference != ml::Inference::kMalicious &&
      inference != ml::Inference::kInvalid) {
    health_sanitized_.fetch_add(1, std::memory_order_relaxed);
    return ml::Inference::kInvalid;
  }
  return inference;
}

ml::Inference ValkyrieEngine::guarded_infer(Attached& a, std::size_t slot,
                                            const ml::WindowSummary& summary) {
  const std::uint64_t streak = sys_.slot_invalid_streak(slot);
  if (streak > fault_cfg_.staleness_budget) {
    // Telemetry has been invalid past the staleness budget: the engine
    // goes blind on this slot — no detector call (the summary is stale
    // anyway), an explicit kInvalid downstream.
    health_blind_.fetch_add(1, std::memory_order_relaxed);
    return ml::Inference::kInvalid;
  }
  if (streak > 0) {
    // Coast: the summary is the last valid epoch's; the streaming verdict
    // re-evaluates over the evidence it already has (vote detectors fold
    // nothing new and compare thresholds, O(1)).
    health_coasted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (summary.stale_mask != 0) {
    // Partial-plane epoch: the newest sample committed with quarantined
    // columns substituted by their running means (zero z-scores). The
    // inference proceeds on the degraded plane — counted, not skipped.
    health_masked_.fetch_add(1, std::memory_order_relaxed);
  }
  try {
    return sanitize(a.stream.infer(detector_, summary));
  } catch (...) {
    // Detector exception containment: this slot degrades to an explicit
    // invalid inference instead of aborting the epoch. mark_observed keeps
    // the faulted measurement(s) from being re-scored — and re-throwing,
    // deterministically, forever — on every subsequent epoch.
    health_detector_faults_.fetch_add(1, std::memory_order_relaxed);
    a.stream.mark_observed(summary.count);
    return ml::Inference::kInvalid;
  }
}

std::optional<ml::Inference> ValkyrieEngine::terminal_verdict(
    Attached& a, std::size_t slot, const ml::WindowSummary* summary) {
  const ml::Detector& terminal = *a.terminal_detector;
  const std::optional<double> fraction = terminal.vote_fraction();
  const bool terminable =
      a.monitor.measurements() >= a.monitor.config().required_measurements;
  // A vote-structured terminal detector folds every epoch from attach —
  // O(1), and it never needs the raw window, so the history can retain
  // none. Any other one is consulted at the terminable decision only.
  if (!fraction && !terminable) return std::nullopt;
  const ml::WindowAccumulator& acc = sys_.slot_accumulator(slot);
  ml::Inference verdict;
  try {
    if (fraction && a.terminal_stream.can_fold(acc.count())) {
      verdict = a.terminal_stream.fold_vote(
          terminal.measurement_vote(acc.newest_features()), acc.count(),
          *fraction);
    } else {
      // Catch-up after a mid-run attach, a quarantined epoch, or a
      // whole-window detector's decision: the streaming path over the
      // summary (assembled on demand on the batch route).
      ml::WindowSummary assembled;
      if (summary == nullptr) {
        assembled = sys_.window_summary(a.pid);
        summary = &assembled;
      }
      verdict = a.terminal_stream.infer(terminal, *summary);
    }
  } catch (...) {
    // The terminal detector gets the same containment as the per-epoch
    // one: a throw yields kInvalid (the monitor stays terminable until a
    // valid epoch decides).
    if (fault_plane_ == nullptr) throw;
    health_detector_faults_.fetch_add(1, std::memory_order_relaxed);
    a.terminal_stream.mark_observed(acc.count());
    verdict = ml::Inference::kInvalid;
  }
  if (!terminable) return std::nullopt;
  return fault_plane_ != nullptr ? sanitize(verdict) : verdict;
}

void ValkyrieEngine::finish_attachment(Attached& a, std::size_t slot,
                                       const ml::WindowSummary* summary,
                                       ml::Inference inference,
                                       std::vector<ActuatorCommand>& commands) {
  const std::optional<ml::Inference> terminal =
      a.terminal_detector != nullptr ? terminal_verdict(a, slot, summary)
                                     : std::nullopt;
  const ValkyrieMonitor::PlannedAction planned =
      a.monitor.plan(a.pid, inference, terminal);
  a.last_action = planned.action;
  if (planned.command.kind != ActuatorCommand::Kind::kNone) {
    commands.push_back(planned.command);
  }
}

// Serial commit phase: apply the batched responses once the shards have
// joined. Every command targets only its own process's state (weights,
// caps, liveness), so the committed state is independent of drain order —
// the live-slot order drained here lands exactly where a sequential loop
// applying each command as it is planned does, before the next epoch's
// workload execution (Eq. 3 timing).
void ValkyrieEngine::commit_shard_commands() {
  if (fault_plane_ == nullptr && retry_.empty()) {
    // Fault-free fast path: exactly the seed behaviour, no plane draws, no
    // retry bookkeeping, no allocation.
    for (const std::vector<ActuatorCommand>& buf : shard_commands_) {
      for (const ActuatorCommand& cmd : buf) cmd.apply(sys_);
    }
    return;
  }
  // Hardened path. The epoch counter has already advanced (end_epoch ran),
  // so the plane's transient-failure schedule and the backoff deadlines
  // key on the epoch just closed. Each process plans at most one command
  // per epoch, so per-pid outcomes are independent of the order the shards
  // emitted them in.
  const std::uint64_t epoch = sys_.current_epoch();
  for (const std::vector<ActuatorCommand>& buf : shard_commands_) {
    for (const ActuatorCommand& cmd : buf) commit_command(cmd, epoch);
  }
  process_retries(epoch);
}

std::size_t ValkyrieEngine::find_retry(sim::ProcessId pid) const noexcept {
  const auto it = std::lower_bound(
      retry_.begin(), retry_.end(), pid,
      [](const PendingRetry& e, sim::ProcessId p) { return e.pid < p; });
  if (it != retry_.end() && it->pid == pid) {
    return static_cast<std::size_t>(it - retry_.begin());
  }
  return retry_.size();
}

bool ValkyrieEngine::attempt_command(ActuatorCommand::Kind kind,
                                     sim::ProcessId pid, double delta,
                                     std::uint64_t epoch) {
  if (fault_plane_ != nullptr) {
    // Transient faults drop any command kind this epoch; a permanently
    // dead channel blocks only throttling — kills travel the process-
    // termination channel, which is what gives escalation a way out.
    if (fault_plane_->actuator_fails(epoch, pid) ||
        (kind != ActuatorCommand::Kind::kKill &&
         fault_plane_->actuator_dead(pid))) {
      health_actuator_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  try {
    if (kind == ActuatorCommand::Kind::kKill) {
      sys_.kill(pid);
      return true;
    }
    // Resolve the actuator through the attachment at apply time: retry
    // entries never hold pointers, so a snapshot-restored table re-binds
    // to the restored actuator objects automatically.
    Actuator* const act =
        attached_[static_cast<std::size_t>(attached_index_.at(pid))]
            .monitor.actuator();
    if (kind == ActuatorCommand::Kind::kApply) {
      act->apply(sys_, pid, delta);
    } else {
      act->reset(sys_, pid);
    }
    return true;
  } catch (...) {
    // A genuinely throwing actuator is contained exactly like an injected
    // failure: the command enters the retry ladder instead of aborting.
    health_actuator_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

namespace {

/// Exponential backoff, capped at 64 epochs: 1, 2, 4, ... after the n-th
/// consecutive failure.
[[nodiscard]] std::uint64_t backoff_epochs(std::uint32_t failures) noexcept {
  return 1ull << std::min<std::uint32_t>(failures - 1, 6);
}

}  // namespace

void ValkyrieEngine::commit_command(const ActuatorCommand& cmd,
                                    std::uint64_t epoch) {
  using Kind = ActuatorCommand::Kind;
  if (cmd.kind == Kind::kNone) return;
  const auto rank = [](Kind k) noexcept {
    return k == Kind::kKill ? 3 : k == Kind::kReset ? 2 : 1;
  };
  const std::size_t idx = find_retry(cmd.pid);
  if (idx < retry_.size()) {
    // Coalesce with the pending command for this pid: kill supersedes
    // everything, reset supersedes apply, apply deltas accumulate; a
    // weaker fresh command folds into the stronger pending one. Fresh
    // intent also overrides the backoff deadline — attempt now.
    PendingRetry& entry = retry_[idx];
    if (rank(cmd.kind) > rank(entry.kind)) {
      entry.kind = cmd.kind;
      entry.delta = cmd.kind == Kind::kApply ? cmd.delta : 0.0;
    } else if (cmd.kind == Kind::kApply && entry.kind == Kind::kApply) {
      entry.delta += cmd.delta;
    }
    health_retries_.fetch_add(1, std::memory_order_relaxed);
    if (attempt_command(entry.kind, entry.pid, entry.delta, epoch)) {
      retry_.erase(retry_.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ++entry.failures;
      entry.next_epoch = epoch + backoff_epochs(entry.failures);
    }
    return;
  }
  if (attempt_command(cmd.kind, cmd.pid, cmd.delta, epoch)) return;
  // First failure: enter the ladder, next attempt at the next epoch.
  PendingRetry entry;
  entry.pid = cmd.pid;
  entry.kind = cmd.kind;
  entry.delta = cmd.kind == Kind::kApply ? cmd.delta : 0.0;
  entry.failures = 1;
  entry.next_epoch = epoch + backoff_epochs(1);
  const auto pos = std::lower_bound(
      retry_.begin(), retry_.end(), entry.pid,
      [](const PendingRetry& e, sim::ProcessId p) { return e.pid < p; });
  retry_.insert(pos, entry);
}

void ValkyrieEngine::process_retries(std::uint64_t epoch) {
  using Kind = ActuatorCommand::Kind;
  if (retry_.empty()) return;
  // One stable in-place pass in pid order (deterministic for any shard
  // layout): purge, escalate, retry due entries, reschedule or drop.
  std::size_t w = 0;
  for (std::size_t i = 0; i < retry_.size(); ++i) {
    PendingRetry entry = retry_[i];
    // Death settles the command; detach abandons it (matching detach()'s
    // contract that pending restrictions are discarded).
    if (!sys_.is_live(entry.pid) || !is_attached(entry.pid)) continue;
    bool keep = true;
    if (entry.next_epoch <= epoch) {
      if (entry.kind != Kind::kKill &&
          entry.failures >= fault_cfg_.escalate_after) {
        // The throttle channel has failed often enough: escalate up the
        // response hierarchy — terminate instead of keeping a possibly
        // malicious process unrestrained.
        entry.kind = Kind::kKill;
        entry.delta = 0.0;
        health_escalations_.fetch_add(1, std::memory_order_relaxed);
      }
      health_retries_.fetch_add(1, std::memory_order_relaxed);
      if (attempt_command(entry.kind, entry.pid, entry.delta, epoch)) {
        keep = false;
      } else {
        ++entry.failures;
        if (entry.kind == Kind::kKill &&
            entry.failures > fault_cfg_.max_kill_retries) {
          // Even the kill channel won't take it: drop the command and
          // count it — the caller can read fault_health().unrecoverable
          // and decide (the supervisor treats a rising count as a reason
          // to restore from checkpoint).
          health_unrecoverable_.fetch_add(1, std::memory_order_relaxed);
          keep = false;
        } else {
          entry.next_epoch = epoch + backoff_epochs(entry.failures);
        }
      }
    }
    if (keep) retry_[w++] = entry;
  }
  retry_.erase(retry_.begin() + static_cast<std::ptrdiff_t>(w), retry_.end());
}

void ValkyrieEngine::arm_faults(const fault::FaultPlane* plane) {
  // The system validates the plane's rates (and throws) before anything is
  // armed, so a degenerate config leaves the engine untouched.
  sys_.arm_sensor_faults(plane);
  fault_plane_ = plane;
}

ValkyrieEngine::FaultHealth ValkyrieEngine::fault_health() const noexcept {
  FaultHealth h;
  h.coasted = health_coasted_.load(std::memory_order_relaxed);
  h.blind = health_blind_.load(std::memory_order_relaxed);
  h.masked = health_masked_.load(std::memory_order_relaxed);
  h.detector_faults =
      health_detector_faults_.load(std::memory_order_relaxed);
  h.sanitized = health_sanitized_.load(std::memory_order_relaxed);
  h.batch_fallbacks =
      health_batch_fallbacks_.load(std::memory_order_relaxed);
  h.actuator_failures =
      health_actuator_failures_.load(std::memory_order_relaxed);
  h.retries = health_retries_.load(std::memory_order_relaxed);
  h.escalations = health_escalations_.load(std::memory_order_relaxed);
  h.unrecoverable = health_unrecoverable_.load(std::memory_order_relaxed);
  return h;
}

std::size_t ValkyrieEngine::live_attached_count() const {
  // Walk the live list, not the attachment table: under churn the table
  // accumulates one entry per process ever attached, while the live list
  // stays at the live population. (Reading live_processes here also folds
  // any kill marked by this epoch's commands into the compaction before
  // the caller sees the count.)
  std::size_t live = 0;
  for (const sim::ProcessId pid : sys_.live_processes()) {
    if (is_attached(pid)) ++live;
  }
  return live;
}

bool ValkyrieEngine::batch_segment(const ml::SummaryMatrixView& segment,
                                   std::size_t begin,
                                   const std::optional<double>& fraction) {
  // With the fault plane armed the batch kernels can throw (a faulted
  // detector rejects the whole segment): contain it and let the caller
  // serve the shard per slot.
  try {
    if (fraction) {
      detector_.measurement_votes(
          segment.newest_view(),
          std::span<std::uint8_t>(batch_votes_).subspan(begin, segment.count));
    } else {
      detector_.infer_batch(segment, std::span<ml::Inference>(batch_infer_)
                                         .subspan(begin, segment.count));
    }
    return true;
  } catch (...) {
    if (fault_plane_ == nullptr) throw;
    health_batch_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

std::optional<ml::Inference> ValkyrieEngine::batch_verdict(
    Attached& a, std::size_t slot, std::size_t count,
    const std::optional<double>& fraction) {
  std::uint64_t streak = 0;
  if (fault_plane_ != nullptr) {
    streak = sys_.slot_invalid_streak(slot);
    // Past the staleness budget the slot goes blind; the per-slot path
    // owns that accounting (the batch result was computed over stale bits
    // and is discarded).
    if (streak > fault_cfg_.staleness_budget) return std::nullopt;
  }
  // A vote folds only the common one-new-measurement step; mid-run attach
  // catch-up, episode shrink and a quarantined (unchanged) count take the
  // per-slot path — a one-time cost per attachment.
  if (fraction && !a.stream.can_fold(count)) return std::nullopt;
  if (fault_plane_ != nullptr) {
    // guarded_infer's accounting, so both routes report the same health.
    if (streak > 0) health_coasted_.fetch_add(1, std::memory_order_relaxed);
    if (sys_.slot_accumulator(slot).newest_mask() != 0) {
      health_masked_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (fraction) {
    return a.stream.fold_vote(batch_votes_[slot] != 0, count, *fraction);
  }
  return fault_plane_ != nullptr ? sanitize(batch_infer_[slot])
                                 : batch_infer_[slot];
}

std::size_t ValkyrieEngine::step() {
  ++step_tag_;
  // Tombstones are invisible to the step (their index entries are gone),
  // so pruning waits until they pass 1/kPruneRatio of the table.
  if (detached_count_ * kPruneRatio > attached_.size()) prune_detached();
  // The route, from the detector's declaration — re-read every step, so a
  // detector whose needs changed (e.g. StatisticalDetector::set_vote_window
  // moving it onto the raw-window path) is served by what it declares now.
  // Arming is widening-only and a no-op once the sections are maintained.
  const ml::Detector::PlaneSections sections = detector_.plane_sections();
  const bool batch_route = sections != ml::Detector::PlaneSections::kFull;
  if (batch_route) sys_.enable_feature_plane(sections);
  // Likewise the raw window it reads (widening only).
  widen_history(detector_.raw_window());
  // Serial open phase: CFS share snapshot; the live list and pid -> slot
  // remap are frozen until the epoch closes, so slot i below is live[i]
  // for the whole dispatch.
  sys_.begin_epoch();
  const std::span<const sim::ProcessId> live = sys_.live_processes();

  for (std::vector<ActuatorCommand>& buf : shard_commands_) buf.clear();
  // The dispatch shards over live slots, not attachments, so a single
  // shard can own up to one ceil-chunk of *processes* worth of attachments
  // when they cluster. Re-check capacity against that bound (a no-op in
  // steady state; live counts only shrink between attaches).
  if (!attached_index_.empty() && !live.empty()) {
    reserve_shard_buffers(
        std::min(shard_quota(live.size()), attached_index_.size()));
  }
  // Per-slot scratch, sized to the live list; capacity only grows, so the
  // steady-state epoch allocates nothing.
  if (batch_finished_.size() < live.size()) {
    batch_finished_.resize(live.size());
    batch_votes_.resize(live.size());
    batch_infer_.resize(live.size(), ml::Inference::kBenign);
  }
  const std::optional<double> fraction = detector_.vote_fraction();

  const auto run_range = [&](std::size_t shard, std::size_t begin,
                             std::size_t end) {
    std::vector<ActuatorCommand>& commands = shard_commands_[shard];
    // (1) Simulate every slot; on the batch route step_slot also fills the
    // shard's plane segment.
    for (std::size_t slot = begin; slot < end; ++slot) {
      batch_finished_[slot] = sys_.step_slot(slot) ? 1 : 0;
    }
    // (2) One batch detector call over the segment.
    const ml::SummaryMatrixView plane = sys_.feature_plane();
    const bool batched =
        batch_route && batch_segment(plane.slice(begin, end), begin, fraction);
    // (3) Fold the batch results and plan every attached slot.
    for (std::size_t slot = begin; slot < end; ++slot) {
      const std::uint32_t* idx = attached_index_.find(live[slot]);
      if (idx == nullptr) continue;
      Attached& a = attached_[*idx];
      a.last_action = ValkyrieMonitor::Action::kNone;
      a.last_action_step = step_tag_;
      // A process that completed this epoch gets no inference.
      if (batch_finished_[slot] != 0) continue;
      std::optional<ml::Inference> verdict;
      if (batched) {
        // The plane's dense count row, not the accumulator array: phase
        // (3) must not re-stream 300-byte accumulator strides per slot.
        verdict = batch_verdict(a, slot, plane.counts[slot], fraction);
      }
      if (verdict) {
        finish_attachment(a, slot, nullptr, *verdict, commands);
      } else {
        infer_attachment(a, slot, commands);
      }
    }
  };

  // On a shard exception the commands planned so far are still committed
  // before the rethrow — a monitor that recorded a decision (e.g.
  // kTerminated) must never have its side effect dropped, or engine and
  // system state diverge. abort_epoch still retires completed processes
  // but does not count the epoch.
  try {
    if (pool_ != nullptr) {
      // n <= 1 runs inline inside the pool, which counts it — so the
      // schedule-run statistic stays exact for degenerate epochs too.
      pool_->parallel_for_shards(live.size(), run_range);
    } else if (!live.empty()) {
      ++inline_runs_;
      run_range(0, 0, live.size());
    }
  } catch (...) {
    sys_.abort_epoch();
    commit_shard_commands();
    throw;
  }
  sys_.end_epoch();
  commit_shard_commands();

  return live_attached_count();
}

void ValkyrieEngine::run(std::size_t epochs) {
  sys_.reserve_history(epochs);
  for (std::size_t i = 0; i < epochs; ++i) step();
}

const ValkyrieEngine::Attached& ValkyrieEngine::attachment(
    sim::ProcessId pid) const {
  const std::uint32_t* idx = attached_index_.find(pid);
  if (idx == nullptr) {
    throw std::out_of_range("ValkyrieEngine: process not attached");
  }
  return attached_[*idx];
}

const ValkyrieMonitor& ValkyrieEngine::monitor(sim::ProcessId pid) const {
  return attachment(pid).monitor;
}

ValkyrieMonitor::Action ValkyrieEngine::last_action(sim::ProcessId pid) const {
  const Attached& a = attachment(pid);
  // The step never visits attachments of already-dead processes, so an
  // action from an older step reads as "nothing happened this epoch".
  return a.last_action_step == step_tag_ ? a.last_action
                                         : ValkyrieMonitor::Action::kNone;
}

// --- Snapshot/restore --------------------------------------------------------

void ValkyrieMonitor::snapshot_state(snapshot::MonitorImage& image) const {
  image.required_measurements = config_.required_measurements;
  image.episode_scoped = config_.episode_scoped_measurements;
  image.reset_metrics_on_normal = config_.threat.reset_metrics_on_normal;
  snapshot::poly_image(*actuator_, image.actuator);
  image.threat = threat_.threat();
  image.penalty = threat_.penalty();
  image.compensation = threat_.compensation();
  image.threat_state = static_cast<std::uint8_t>(threat_.state());
  image.measurements = measurements_;
  image.state = static_cast<std::uint8_t>(state_);
}

ValkyrieMonitor ValkyrieMonitor::restore_from(
    const snapshot::MonitorImage& image, const ValkyrieConfig& base,
    const snapshot::ActuatorRegistry& registry) {
  ValkyrieConfig config = base;
  config.required_measurements =
      static_cast<std::size_t>(image.required_measurements);
  config.episode_scoped_measurements = image.episode_scoped;
  config.threat.reset_metrics_on_normal = image.reset_metrics_on_normal;
  ValkyrieMonitor monitor(config, registry.load(image.actuator));
  monitor.threat_.restore(image.threat, image.penalty, image.compensation,
                          static_cast<ProcessState>(image.threat_state));
  monitor.measurements_ = static_cast<std::size_t>(image.measurements);
  monitor.state_ = static_cast<ProcessState>(image.state);
  return monitor;
}

void ValkyrieEngine::snapshot_system(snapshot::SystemImage& image) const {
  const std::uint64_t before = pool_ != nullptr ? pool_->dispatch_count() : 0;
  sys_.snapshot_state(image, pool_.get());
  if (pool_ != nullptr) capture_dispatches_ += pool_->dispatch_count() - before;
}

void ValkyrieEngine::snapshot_state(snapshot::EngineImage& image) const {
  image.detector_hash = detector_.state_hash();
  image.step_tag = step_tag_;
  // Tombstones are skipped: no output reads them, so the live entries in
  // attach order are exactly what a restored engine's first step must
  // start from, whenever the uninterrupted run happens to prune.
  image.attachments.resize(attached_.size() - detached_count_);
  std::size_t next = 0;
  for (const Attached& a : attached_) {
    if (a.detached) continue;
    snapshot::AttachmentImage& att = image.attachments[next++];
    att.pid = a.pid;
    a.monitor.snapshot_state(att.monitor);
    att.has_terminal = a.terminal_detector != nullptr;
    att.terminal_hash =
        att.has_terminal ? a.terminal_detector->state_hash() : 0;
    att.stream_malicious = a.stream.malicious_count();
    att.stream_counted = a.stream.counted();
    att.stream_skipped = a.stream.skipped();
    att.terminal_malicious = a.terminal_stream.malicious_count();
    att.terminal_counted = a.terminal_stream.counted();
    att.terminal_skipped = a.terminal_stream.skipped();
    // Canonicalize to the observable view (see AttachmentImage): the raw
    // pair also records idle kNone visits, which last_action() cannot tell
    // from no visit, so only a real action from THIS step survives into
    // the snapshot.
    const bool acted = a.last_action_step == step_tag_ &&
                       a.last_action != ValkyrieMonitor::Action::kNone;
    att.last_action = static_cast<std::uint8_t>(
        acted ? a.last_action : ValkyrieMonitor::Action::kNone);
    att.last_action_step = acted ? a.last_action_step : 0;
  }
  // The retry table is real state — a restored run must resume the same
  // backoff schedule. Already pid-sorted (an invariant commit maintains
  // precisely so snapshots are byte-identical across worker counts).
  image.retries.resize(retry_.size());
  for (std::size_t i = 0; i < retry_.size(); ++i) {
    const PendingRetry& r = retry_[i];
    image.retries[i] = {r.pid, static_cast<std::uint8_t>(r.kind), r.delta,
                        r.failures, r.next_epoch};
  }
}

ValkyrieEngine::StagedRestore ValkyrieEngine::stage_restore(
    const snapshot::EngineImage& image,
    const snapshot::RestoreContext& ctx) const {
  using util::SerialError;
  if (image.detector_hash != detector_.state_hash()) {
    throw SerialError(SerialError::Code::kIncompatible,
                      "restore: detector fingerprint mismatch");
  }

  StagedRestore staged;
  staged.step_tag_ = image.step_tag;
  staged.attached_.reserve(image.attachments.size());
  staged.index_.reserve(image.attachments.size());
  for (const snapshot::AttachmentImage& att : image.attachments) {
    if (att.monitor.state >
            static_cast<std::uint8_t>(ProcessState::kTerminated) ||
        att.monitor.threat_state >
            static_cast<std::uint8_t>(ProcessState::kTerminated) ||
        att.last_action >
            static_cast<std::uint8_t>(ValkyrieMonitor::Action::kTerminated) ||
        att.monitor.required_measurements == 0) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: attachment fields out of range");
    }
    const ml::Detector* terminal = nullptr;
    if (att.has_terminal) {
      if (ctx.terminal_detector == nullptr ||
          ctx.terminal_detector->state_hash() != att.terminal_hash) {
        throw SerialError(SerialError::Code::kIncompatible,
                          "restore: terminal detector fingerprint mismatch");
      }
      terminal = ctx.terminal_detector;
    }
    const auto index = static_cast<std::uint32_t>(staged.attached_.size());
    if (!staged.index_.insert(att.pid, index).second) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: duplicate attachment pid");
    }
    Attached a{att.pid,
               ValkyrieMonitor::restore_from(att.monitor, ctx.base_config,
                                             ctx.actuators),
               terminal,
               {},
               {},
               static_cast<ValkyrieMonitor::Action>(att.last_action),
               att.last_action_step};
    a.stream.restore(static_cast<std::size_t>(att.stream_malicious),
                     static_cast<std::size_t>(att.stream_counted),
                     static_cast<std::size_t>(att.stream_skipped));
    a.terminal_stream.restore(
        static_cast<std::size_t>(att.terminal_malicious),
        static_cast<std::size_t>(att.terminal_counted),
        static_cast<std::size_t>(att.terminal_skipped));
    staged.attached_.push_back(std::move(a));
  }

  staged.retries_.reserve(image.retries.size());
  for (const snapshot::RetryImage& r : image.retries) {
    if (r.kind == static_cast<std::uint8_t>(ActuatorCommand::Kind::kNone) ||
        r.kind > static_cast<std::uint8_t>(ActuatorCommand::Kind::kKill) ||
        r.failures == 0 ||
        (!staged.retries_.empty() && r.pid <= staged.retries_.back().pid)) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: retry table entry out of range or unsorted");
    }
    staged.retries_.push_back({r.pid,
                               static_cast<ActuatorCommand::Kind>(r.kind),
                               r.delta, r.failures, r.next_epoch});
  }
  return staged;
}

void ValkyrieEngine::commit_restore(StagedRestore staged) {
  attached_ = std::move(staged.attached_);
  attached_index_ = std::move(staged.index_);
  retry_ = std::move(staged.retries_);
  step_tag_ = staged.step_tag_;
  detached_count_ = 0;
  reserve_shard_buffers(shard_quota(attached_.size()));
}

}  // namespace valkyrie::core
