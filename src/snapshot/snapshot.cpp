#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "sim/scenario.hpp"

namespace valkyrie::snapshot {
namespace {

using util::ByteCursor;
using util::ByteReader;
using util::ByteWriter;
using util::SerialError;

// Framing: magic, format version, then fourcc/length/payload/CRC sections.
constexpr std::array<std::uint8_t, 8> kMagic = {'V', 'L', 'K', 'Y',
                                                'S', 'N', 'P', '1'};
// v2 appends SlotImage.invalid_streak (telemetry quarantine) and the
// engine's actuator-retry table. v3 appends the per-feature degradation
// state: SlotImage.feature_streak and the accumulator's per-feature fold
// counts + newest-sample stale mask. v4 appends the system's RNG kind
// (counter-mode armed) and the bounded-history ring capacity — both change
// how restored state evolves, so they must travel with the state words.
// v5 re-keys the cold-row and scheduler tables by pid (rows sparse,
// ascending-pid, each carrying its ProcessId; scheduler factors become
// {pid, factor} entries) and adds total_spawned plus the retirement-
// retention state (policy flags + pending reclamation queue) — a v4
// image's dense positional tables cannot represent a run whose reclaimed
// pids have no row at all.
// v6 sizes histories by what the detectors read: the v4 ring capacity
// field becomes the history window (kWholeWindow = every sample, 0 = none),
// histories carry only the retained window, and each attachment carries
// its two streams' skip counters.
// Older snapshots are refused rather than defaulted: the restore contract
// is bit-replay, and an older capture cannot promise the newer fields were
// all zero at capture time.
constexpr std::uint32_t kVersion = 6;

constexpr std::uint32_t fourcc(char a, char b, char c, char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kSysSection = fourcc('S', 'Y', 'S', ' ');
constexpr std::uint32_t kEngSection = fourcc('E', 'N', 'G', ' ');
constexpr std::uint32_t kDrvSection = fourcc('D', 'R', 'V', ' ');

// --- Encoded sizes -----------------------------------------------------------
// Widths of the field groups the encoders below write. The per-element
// minimums (snapshot.hpp) are their sums; the fixed parts size encode()'s
// reservation.
constexpr std::size_t kRngBytes = 4 * sizeof(std::uint64_t);
constexpr std::size_t kSharesBytes = 4 * sizeof(double);
constexpr std::size_t kFeaturesBytes = hpc::kFeatureDim * sizeof(double);
// count, mean/m2/newest, fcount, newest_mask
constexpr std::size_t kAccumBytes =
    8 + 3 * kFeaturesBytes + 8 * hpc::kFeatureDim + 4;
constexpr std::size_t kEmptyPolyBytes = 8 + 8;  // two zero length prefixes
// pid, rng, cgroup/effective, last sample, accum, progress, epochs, exit,
// invalid streak, feature streaks
static_assert(kMinSlotBytes == 4 + kRngBytes + 2 * kSharesBytes + kSampleBytes +
                                   kAccumBytes + 8 + 8 + 1 + 8 +
                                   4 * hpc::kFeatureDim);
// A row's retired state: cgroup/effective, last sample, accum, progress,
// epochs, exit.
constexpr std::size_t kRetiredBytes =
    2 * kSharesBytes + kSampleBytes + kAccumBytes + 8 + 8 + 1;
// pid, slot, workload, history count, the retired state
static_assert(kMinRowBytes == 4 + 4 + kEmptyPolyBytes + 8 + kRetiredBytes);
// pid, monitor config, actuator, threat/penalty/compensation, threat
// state, measurements, state, terminal flag and hash, six verdict
// counters, last action and its step
static_assert(kMinAttachmentBytes == 4 + 8 + 1 + 1 + kEmptyPolyBytes + 3 * 8 +
                                         1 + 8 + 1 + 1 + 8 + 6 * 8 + 1 + 8);
// pid, kind, delta, failures, next epoch
static_assert(kMinRetryBytes == 4 + 1 + 8 + 4 + 8);
// {pid, 8-byte word}: retire queue, scheduler entries, departures
constexpr std::size_t kPidPairBytes = 4 + 8;
constexpr std::size_t kFramingBytes = 4 + 8 + 4;  // fourcc, length, CRC
// Each section's fields outside its tables, table counts included.
// System: eight scheduler/platform numbers, RNG, epoch, three flags,
// history window, total spawned, retention flag and window, four counts.
constexpr std::size_t kSystemFixedBytes =
    8 * 8 + kRngBytes + 8 + 3 + 8 + 8 + 1 + 8 + 4 * 8;
// Engine: detector hash, step tag, two counts.
constexpr std::size_t kEngineFixedBytes = 8 + 8 + 2 * 8;
// Driver: fingerprint, RNG, eight counters and the live-epoch sum, three
// counts, palette cursor, live.
constexpr std::size_t kDriverFixedBytes = 8 + kRngBytes + 9 * 8 + 5 * 8;

// --- Field-group helpers -----------------------------------------------------
// The put_* helpers write through a ByteWriter, or through the ByteCursor
// of one ByteWriter::run when a whole fixed-width group (a slot, a row's
// retired state) is written with a single growth.

template <class Out>
void put_rng(Out& out, const std::array<std::uint64_t, 4>& state) {
  for (const std::uint64_t word : state) out.u64(word);
}

std::array<std::uint64_t, 4> get_rng(ByteReader& in) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = in.u64();
  return state;
}

template <class Out>
void put_shares(Out& out, const sim::ResourceShares& s) {
  out.f64(s.cpu);
  out.f64(s.mem);
  out.f64(s.net);
  out.f64(s.fs);
}

sim::ResourceShares get_shares(ByteReader& in) {
  sim::ResourceShares s;
  s.cpu = in.f64();
  s.mem = in.f64();
  s.net = in.f64();
  s.fs = in.f64();
  return s;
}

template <class Out>
void put_sample(Out& out, const hpc::HpcSample& sample) {
  out.f64_block(sample.counts);
}

hpc::HpcSample get_sample(ByteReader& in) {
  hpc::HpcSample sample;
  in.f64_block(sample.counts);
  return sample;
}

template <class Out>
void put_features(Out& out, const hpc::FeatureVec& vec) {
  out.f64_block(vec);
}

hpc::FeatureVec get_features(ByteReader& in) {
  hpc::FeatureVec vec{};
  in.f64_block(vec);
  return vec;
}

template <class Out>
void put_accum(Out& out, const ml::WindowAccumulator::State& s) {
  out.u64(s.count);
  put_features(out, s.mean);
  put_features(out, s.m2);
  put_features(out, s.newest);
  for (const std::size_t c : s.fcount) out.u64(c);  // v3
  out.u32(s.newest_mask);                           // v3
}

ml::WindowAccumulator::State get_accum(ByteReader& in) {
  ml::WindowAccumulator::State s;
  s.count = static_cast<std::size_t>(in.u64());
  s.mean = get_features(in);
  s.m2 = get_features(in);
  s.newest = get_features(in);
  for (std::size_t& c : s.fcount) c = static_cast<std::size_t>(in.u64());
  s.newest_mask = in.u32();
  return s;
}

void put_poly(ByteWriter& out, const PolyImage& poly) {
  out.str(poly.type);
  out.u64(poly.payload.size());
  out.bytes(poly.payload);
}

PolyImage get_poly(ByteReader& in) {
  PolyImage poly;
  poly.type = in.str();
  const std::size_t n = in.length(1);
  const std::span<const std::uint8_t> payload = in.bytes(n);
  poly.payload.assign(payload.begin(), payload.end());
  return poly;
}

// --- System section ----------------------------------------------------------

void encode_system(ByteWriter& out, const SystemImage& sys) {
  out.f64(sys.epoch_ms);
  out.f64(sys.hpc_noise);
  out.f64(sys.scheduler.targeted_latency_ms);
  out.f64(sys.scheduler.gamma);
  out.i64(sys.scheduler.weight_levels);
  out.i64(sys.scheduler.default_level);
  out.f64(sys.scheduler.background_weight_units);
  out.f64(sys.scheduler.min_share_fraction);
  put_rng(out, sys.rng);
  out.u64(sys.epoch);
  out.boolean(sys.retire_pending);
  out.boolean(sys.recycle_histories);
  out.boolean(sys.counter_rng);     // v4
  out.u64(sys.history_window);      // v6 (v4: ring capacity)
  out.u64(sys.total_spawned);       // v5
  out.boolean(sys.retention_enabled);  // v5
  out.u64(sys.retention_epochs);       // v5
  out.u64(sys.retire_queue.size());    // v5
  for (const auto& [pid, retired_at] : sys.retire_queue) {
    out.u32(pid);
    out.u64(retired_at);
  }

  out.u64(sys.slots.size());
  for (const SlotImage& slot : sys.slots) {
    ByteCursor run = out.run(kMinSlotBytes);  // a slot is all fixed-width
    run.u32(slot.pid);
    put_rng(run, slot.rng);
    put_shares(run, slot.cgroup);
    put_shares(run, slot.effective);
    put_sample(run, slot.last_sample);
    put_accum(run, slot.accum);
    run.f64(slot.last_progress);
    run.u64(slot.epochs_run);
    run.u8(slot.exit);
    run.u64(slot.invalid_streak);
    for (const std::uint32_t fs : slot.feature_streak) run.u32(fs);  // v3
  }

  out.u64(sys.procs.size());
  for (const ProcImage& proc : sys.procs) {
    out.u32(proc.pid);  // v5: rows are keyed, not positional
    out.u32(proc.slot);
    put_poly(out, proc.workload);
    out.u64(proc.history.size());
    out.f64_rows(std::span(proc.history), &hpc::HpcSample::counts);
    ByteCursor retired = out.run(kRetiredBytes);
    put_shares(retired, proc.retired_cgroup);
    put_shares(retired, proc.retired_effective);
    put_sample(retired, proc.retired_last_sample);
    put_accum(retired, proc.retired_accum);
    retired.f64(proc.retired_last_progress);
    retired.u64(proc.retired_epochs_run);
    retired.u8(proc.retired_exit);
  }

  out.u64(sys.sched_entries.size());  // v5: keyed {pid, factor} entries
  for (const sim::SchedFactorEntry& entry : sys.sched_entries) {
    out.u32(entry.pid);
    out.f64(entry.factor);
  }
}

SystemImage decode_system(ByteReader& in) {
  SystemImage sys;
  sys.epoch_ms = in.f64();
  sys.hpc_noise = in.f64();
  sys.scheduler.targeted_latency_ms = in.f64();
  sys.scheduler.gamma = in.f64();
  sys.scheduler.weight_levels = static_cast<int>(in.i64());
  sys.scheduler.default_level = static_cast<int>(in.i64());
  sys.scheduler.background_weight_units = in.f64();
  sys.scheduler.min_share_fraction = in.f64();
  sys.rng = get_rng(in);
  sys.epoch = in.u64();
  sys.retire_pending = in.boolean();
  sys.recycle_histories = in.boolean();
  sys.counter_rng = in.boolean();
  sys.history_window = in.u64();
  sys.total_spawned = in.u64();
  sys.retention_enabled = in.boolean();
  sys.retention_epochs = in.u64();
  const std::size_t queue_count = in.length(kPidPairBytes);
  sys.retire_queue.reserve(queue_count);
  for (std::size_t q = 0; q < queue_count; ++q) {
    const sim::ProcessId pid = in.u32();
    const std::uint64_t retired_at = in.u64();
    sys.retire_queue.emplace_back(pid, retired_at);
  }

  sys.slots.resize(in.length(kMinSlotBytes));
  for (SlotImage& slot : sys.slots) {
    slot.pid = in.u32();
    slot.rng = get_rng(in);
    slot.cgroup = get_shares(in);
    slot.effective = get_shares(in);
    slot.last_sample = get_sample(in);
    slot.accum = get_accum(in);
    slot.last_progress = in.f64();
    slot.epochs_run = in.u64();
    slot.exit = in.u8();
    slot.invalid_streak = in.u64();
    for (std::uint32_t& fs : slot.feature_streak) fs = in.u32();
  }

  sys.procs.resize(in.length(kMinRowBytes));
  for (ProcImage& proc : sys.procs) {
    proc.pid = in.u32();
    proc.slot = in.u32();
    proc.workload = get_poly(in);
    proc.history.resize(in.length(kSampleBytes));
    in.f64_rows(std::span(proc.history), &hpc::HpcSample::counts);
    proc.retired_cgroup = get_shares(in);
    proc.retired_effective = get_shares(in);
    proc.retired_last_sample = get_sample(in);
    proc.retired_accum = get_accum(in);
    proc.retired_last_progress = in.f64();
    proc.retired_epochs_run = in.u64();
    proc.retired_exit = in.u8();
  }

  const std::size_t entry_count = in.length(kPidPairBytes);
  sys.sched_entries.reserve(entry_count);
  for (std::size_t e = 0; e < entry_count; ++e) {
    sim::SchedFactorEntry entry;
    entry.pid = in.u32();
    entry.factor = in.f64();
    sys.sched_entries.push_back(entry);
  }
  return sys;
}

// --- Engine section ----------------------------------------------------------

void encode_engine(ByteWriter& out, const EngineImage& engine) {
  out.u64(engine.detector_hash);
  out.u64(engine.step_tag);
  out.u64(engine.attachments.size());
  for (const AttachmentImage& att : engine.attachments) {
    out.u32(att.pid);
    out.u64(att.monitor.required_measurements);
    out.boolean(att.monitor.episode_scoped);
    out.boolean(att.monitor.reset_metrics_on_normal);
    put_poly(out, att.monitor.actuator);
    out.f64(att.monitor.threat);
    out.f64(att.monitor.penalty);
    out.f64(att.monitor.compensation);
    out.u8(att.monitor.threat_state);
    out.u64(att.monitor.measurements);
    out.u8(att.monitor.state);
    out.boolean(att.has_terminal);
    out.u64(att.terminal_hash);
    out.u64(att.stream_malicious);
    out.u64(att.stream_counted);
    out.u64(att.stream_skipped);  // v6
    out.u64(att.terminal_malicious);
    out.u64(att.terminal_counted);
    out.u64(att.terminal_skipped);  // v6
    out.u8(att.last_action);
    out.u64(att.last_action_step);
  }
  out.u64(engine.retries.size());
  for (const RetryImage& r : engine.retries) {
    out.u32(r.pid);
    out.u8(r.kind);
    out.f64(r.delta);
    out.u32(r.failures);
    out.u64(r.next_epoch);
  }
}

EngineImage decode_engine(ByteReader& in) {
  EngineImage engine;
  engine.detector_hash = in.u64();
  engine.step_tag = in.u64();
  engine.attachments.resize(in.length(kMinAttachmentBytes));
  for (AttachmentImage& att : engine.attachments) {
    att.pid = in.u32();
    att.monitor.required_measurements = in.u64();
    att.monitor.episode_scoped = in.boolean();
    att.monitor.reset_metrics_on_normal = in.boolean();
    att.monitor.actuator = get_poly(in);
    att.monitor.threat = in.f64();
    att.monitor.penalty = in.f64();
    att.monitor.compensation = in.f64();
    att.monitor.threat_state = in.u8();
    att.monitor.measurements = in.u64();
    att.monitor.state = in.u8();
    att.has_terminal = in.boolean();
    att.terminal_hash = in.u64();
    att.stream_malicious = in.u64();
    att.stream_counted = in.u64();
    att.stream_skipped = in.u64();
    att.terminal_malicious = in.u64();
    att.terminal_counted = in.u64();
    att.terminal_skipped = in.u64();
    att.last_action = in.u8();
    att.last_action_step = in.u64();
  }
  engine.retries.resize(in.length(kMinRetryBytes));
  for (RetryImage& r : engine.retries) {
    r.pid = in.u32();
    r.kind = in.u8();
    r.delta = in.f64();
    r.failures = in.u32();
    r.next_epoch = in.u64();
  }
  return engine;
}

// --- Driver section ----------------------------------------------------------

void encode_driver(ByteWriter& out, const DriverImage& driver) {
  out.u64(driver.script_fingerprint);
  put_rng(out, driver.rng);
  out.u64(driver.spawned);
  out.u64(driver.attack_spawned);
  out.u64(driver.driver_kills);
  out.u64(driver.completed);
  out.u64(driver.policy_kills);
  out.u64(driver.rejected);
  out.u64(driver.peak_live);
  out.u64(driver.epochs);
  out.f64(driver.live_epoch_sum);
  out.u64(driver.departures.size());
  for (const auto& [epoch, pid] : driver.departures) {
    out.u64(epoch);
    out.u32(pid);
  }
  out.u64_span(driver.campaign_progress);
  out.u64(driver.benign_palette_cursor);
  out.u64(driver.prev_live.size());
  for (const sim::ProcessId pid : driver.prev_live) out.u32(pid);
  out.u64(driver.live);
}

DriverImage decode_driver(ByteReader& in) {
  DriverImage driver;
  driver.script_fingerprint = in.u64();
  driver.rng = get_rng(in);
  driver.spawned = in.u64();
  driver.attack_spawned = in.u64();
  driver.driver_kills = in.u64();
  driver.completed = in.u64();
  driver.policy_kills = in.u64();
  driver.rejected = in.u64();
  driver.peak_live = in.u64();
  driver.epochs = in.u64();
  driver.live_epoch_sum = in.f64();
  const std::size_t departures = in.length(kPidPairBytes);
  driver.departures.reserve(departures);
  for (std::size_t i = 0; i < departures; ++i) {
    const std::uint64_t epoch = in.u64();
    const sim::ProcessId pid = in.u32();
    driver.departures.emplace_back(epoch, pid);
  }
  driver.campaign_progress = in.u64_vec();
  driver.benign_palette_cursor = in.u64();
  const std::size_t prev = in.length(sizeof(std::uint32_t));
  driver.prev_live.reserve(prev);
  for (std::size_t i = 0; i < prev; ++i) driver.prev_live.push_back(in.u32());
  driver.live = in.u64();
  return driver;
}

// Appends one fourcc/length/payload/CRC section, fixing up the length once
// the payload size is known.
void append_section(std::vector<std::uint8_t>& bytes, std::uint32_t tag,
                    const SnapshotImage& image) {
  ByteWriter out(bytes);
  out.u32(tag);
  const std::size_t length_at = bytes.size();
  out.u64(0);  // placeholder, patched once the payload size is known
  const std::size_t payload_start = bytes.size();
  switch (tag) {
    case kSysSection:
      encode_system(out, image.system);
      break;
    case kEngSection:
      encode_engine(out, image.engine);
      break;
    case kDrvSection:
      encode_driver(out, image.driver);
      break;
    default:
      break;
  }
  const std::size_t payload_size = bytes.size() - payload_start;
  out.patch_u64(length_at, payload_size);
  out.u32(util::crc32({bytes.data() + payload_start, payload_size}));
}

// Exactly the bytes encode() writes for `image`, summed from its counts:
// framing, each section's fixed fields, every table element at its
// minimum, and the variable-length bytes on top (history samples, type
// tags, payloads). encode() reserves this once, so a 100 MB image is
// written into one allocation instead of doubling its way there.
std::size_t encoded_size(const SnapshotImage& image) {
  const auto poly_bytes = [](const PolyImage& poly) {
    return poly.type.size() + poly.payload.size();
  };
  const SystemImage& sys = image.system;
  std::size_t n = kMagic.size() + 4 + 2 * kFramingBytes + kSystemFixedBytes +
                  kEngineFixedBytes;
  n += kPidPairBytes * (sys.retire_queue.size() + sys.sched_entries.size());
  n += kMinSlotBytes * sys.slots.size();
  for (const ProcImage& row : sys.procs) {
    n += kMinRowBytes + kSampleBytes * row.history.size() +
         poly_bytes(row.workload);
  }
  for (const AttachmentImage& att : image.engine.attachments) {
    n += kMinAttachmentBytes + poly_bytes(att.monitor.actuator);
  }
  n += kMinRetryBytes * image.engine.retries.size();
  if (image.has_driver) {
    const DriverImage& driver = image.driver;
    n += kFramingBytes + kDriverFixedBytes +
         kPidPairBytes * driver.departures.size() +
         sizeof(std::uint64_t) * driver.campaign_progress.size() +
         sizeof(sim::ProcessId) * driver.prev_live.size();
  }
  return n;
}

// --- diff helpers ------------------------------------------------------------

struct DiffSink {
  std::vector<FieldDiff>& out;

  static std::string fmt_f64(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string fmt_u64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
  }

  void u64(const std::string& path, std::uint64_t a, std::uint64_t b) {
    if (a != b) out.push_back({path, fmt_u64(a), fmt_u64(b)});
  }
  // Doubles compare by bit pattern: the contract is bit-identity, and a
  // tolerance would hide exactly the drift the diff exists to expose.
  void f64(const std::string& path, double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      out.push_back({path, fmt_f64(a), fmt_f64(b)});
    }
  }
  void str(const std::string& path, const std::string& a,
           const std::string& b) {
    if (a != b) out.push_back({path, a, b});
  }
  void blob(const std::string& path, const std::vector<std::uint8_t>& a,
            const std::vector<std::uint8_t>& b) {
    if (a != b) {
      out.push_back({path, fmt_u64(a.size()) + " bytes",
                     fmt_u64(b.size()) + " bytes (contents differ)"});
    }
  }
  void shares(const std::string& path, const sim::ResourceShares& a,
              const sim::ResourceShares& b) {
    f64(path + ".cpu", a.cpu, b.cpu);
    f64(path + ".mem", a.mem, b.mem);
    f64(path + ".net", a.net, b.net);
    f64(path + ".fs", a.fs, b.fs);
  }
  void sample(const std::string& path, const hpc::HpcSample& a,
              const hpc::HpcSample& b) {
    for (std::size_t e = 0; e < hpc::kNumEvents; ++e) {
      f64(path + "[" + std::to_string(e) + "]", a.counts[e], b.counts[e]);
    }
  }
  void features(const std::string& path, const hpc::FeatureVec& a,
                const hpc::FeatureVec& b) {
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      f64(path + "[" + std::to_string(f) + "]", a[f], b[f]);
    }
  }
  void accum(const std::string& path, const ml::WindowAccumulator::State& a,
             const ml::WindowAccumulator::State& b) {
    u64(path + ".count", a.count, b.count);
    features(path + ".mean", a.mean, b.mean);
    features(path + ".m2", a.m2, b.m2);
    features(path + ".newest", a.newest, b.newest);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      u64(path + ".fcount[" + std::to_string(f) + "]", a.fcount[f],
          b.fcount[f]);
    }
    u64(path + ".newest_mask", a.newest_mask, b.newest_mask);
  }
  void rng(const std::string& path, const std::array<std::uint64_t, 4>& a,
           const std::array<std::uint64_t, 4>& b) {
    for (std::size_t w = 0; w < 4; ++w) {
      u64(path + "[" + std::to_string(w) + "]", a[w], b[w]);
    }
  }
  void poly(const std::string& path, const PolyImage& a, const PolyImage& b) {
    str(path + ".type", a.type, b.type);
    blob(path + ".payload", a.payload, b.payload);
  }
  void monitor(const std::string& path, const MonitorImage& a,
               const MonitorImage& b) {
    u64(path + ".required_measurements", a.required_measurements,
        b.required_measurements);
    u64(path + ".episode_scoped", a.episode_scoped, b.episode_scoped);
    u64(path + ".reset_metrics_on_normal", a.reset_metrics_on_normal,
        b.reset_metrics_on_normal);
    poly(path + ".actuator", a.actuator, b.actuator);
    f64(path + ".threat", a.threat, b.threat);
    f64(path + ".penalty", a.penalty, b.penalty);
    f64(path + ".compensation", a.compensation, b.compensation);
    u64(path + ".threat_state", a.threat_state, b.threat_state);
    u64(path + ".measurements", a.measurements, b.measurements);
    u64(path + ".state", a.state, b.state);
  }
};

}  // namespace

SnapshotImage capture(const core::ValkyrieEngine& engine) {
  SnapshotImage image;
  image.system = engine.system().snapshot_state();
  image.engine = engine.snapshot_state();
  return image;
}

SnapshotImage capture(const sim::ScenarioDriver& driver) {
  SnapshotImage image = capture(driver.engine());
  image.has_driver = true;
  image.driver = driver.snapshot_state();
  return image;
}

std::vector<std::uint8_t> encode(const SnapshotImage& image) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(encoded_size(image));
  {
    ByteWriter out(bytes);
    out.bytes(kMagic);
    out.u32(kVersion);
  }
  append_section(bytes, kSysSection, image);
  append_section(bytes, kEngSection, image);
  if (image.has_driver) append_section(bytes, kDrvSection, image);
  return bytes;
}

SnapshotImage parse(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::span<const std::uint8_t> magic = in.bytes(kMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin())) {
    throw SerialError(SerialError::Code::kBadMagic,
                      "snapshot: bad magic (not a Valkyrie snapshot)");
  }
  const std::uint32_t version = in.u32();
  if (version != kVersion) {
    throw SerialError(SerialError::Code::kBadVersion,
                      "snapshot: unsupported format version " +
                          std::to_string(version));
  }

  SnapshotImage image;
  image.version = version;
  bool have_sys = false;
  bool have_eng = false;
  while (!in.done()) {
    const std::uint32_t tag = in.u32();
    const std::size_t length = in.length(1);
    const std::span<const std::uint8_t> payload = in.bytes(length);
    const std::uint32_t stored_crc = in.u32();
    if (util::crc32(payload) != stored_crc) {
      throw SerialError(SerialError::Code::kBadChecksum,
                        "snapshot: section checksum mismatch");
    }
    ByteReader section(payload);
    switch (tag) {
      case kSysSection:
        if (have_sys) {
          throw SerialError(SerialError::Code::kBadSection,
                            "snapshot: duplicate system section");
        }
        image.system = decode_system(section);
        have_sys = true;
        break;
      case kEngSection:
        if (have_eng) {
          throw SerialError(SerialError::Code::kBadSection,
                            "snapshot: duplicate engine section");
        }
        image.engine = decode_engine(section);
        have_eng = true;
        break;
      case kDrvSection:
        if (image.has_driver) {
          throw SerialError(SerialError::Code::kBadSection,
                            "snapshot: duplicate driver section");
        }
        image.driver = decode_driver(section);
        image.has_driver = true;
        break;
      default:
        throw SerialError(SerialError::Code::kBadSection,
                          "snapshot: unknown section tag");
    }
    if (!section.done()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "snapshot: trailing bytes in section");
    }
  }
  if (!have_sys || !have_eng) {
    throw SerialError(SerialError::Code::kBadSection,
                      "snapshot: missing system or engine section");
  }
  return image;
}

void restore(const SnapshotImage& image, core::ValkyrieEngine& engine,
             const RestoreContext& ctx) {
  // Phase 1: engine-level compatibility checks that mutate nothing, so a
  // doomed restore fails before the system commit below. (The system's own
  // restore_from validates everything it needs internally, also before
  // mutating.) Byte-level corruption never reaches here — parse() already
  // rejected it — so the residual risk is handcrafted in-memory images.
  if (image.engine.detector_hash != engine.detector().state_hash()) {
    throw SerialError(SerialError::Code::kIncompatible,
                      "restore: detector fingerprint mismatch");
  }
  for (const AttachmentImage& att : image.engine.attachments) {
    if (att.monitor.required_measurements == 0 ||
        att.monitor.state >
            static_cast<std::uint8_t>(core::ProcessState::kTerminated) ||
        att.monitor.threat_state >
            static_cast<std::uint8_t>(core::ProcessState::kTerminated) ||
        att.last_action > static_cast<std::uint8_t>(
                              core::ValkyrieMonitor::Action::kTerminated)) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: attachment fields out of range");
    }
    if (!att.monitor.actuator.present() ||
        !ctx.actuators.contains(att.monitor.actuator.type)) {
      throw SerialError(SerialError::Code::kUnsupportedWorkload,
                        "restore: unknown actuator type '" +
                            att.monitor.actuator.type + "'");
    }
    if (att.has_terminal &&
        (ctx.terminal_detector == nullptr ||
         ctx.terminal_detector->state_hash() != att.terminal_hash)) {
      throw SerialError(SerialError::Code::kIncompatible,
                        "restore: terminal detector fingerprint mismatch");
    }
  }

  engine.system().restore_from(image.system, ctx.workloads);
  engine.restore_from(image.engine, ctx);
}

std::vector<FieldDiff> diff(const SnapshotImage& a, const SnapshotImage& b) {
  std::vector<FieldDiff> diffs;
  DiffSink d{diffs};

  const SystemImage& sa = a.system;
  const SystemImage& sb = b.system;
  d.f64("system.epoch_ms", sa.epoch_ms, sb.epoch_ms);
  d.f64("system.hpc_noise", sa.hpc_noise, sb.hpc_noise);
  d.f64("system.scheduler.targeted_latency_ms",
        sa.scheduler.targeted_latency_ms, sb.scheduler.targeted_latency_ms);
  d.f64("system.scheduler.gamma", sa.scheduler.gamma, sb.scheduler.gamma);
  d.u64("system.scheduler.weight_levels",
        static_cast<std::uint64_t>(sa.scheduler.weight_levels),
        static_cast<std::uint64_t>(sb.scheduler.weight_levels));
  d.u64("system.scheduler.default_level",
        static_cast<std::uint64_t>(sa.scheduler.default_level),
        static_cast<std::uint64_t>(sb.scheduler.default_level));
  d.f64("system.scheduler.background_weight_units",
        sa.scheduler.background_weight_units,
        sb.scheduler.background_weight_units);
  d.f64("system.scheduler.min_share_fraction", sa.scheduler.min_share_fraction,
        sb.scheduler.min_share_fraction);
  d.rng("system.rng", sa.rng, sb.rng);
  d.u64("system.epoch", sa.epoch, sb.epoch);
  d.u64("system.retire_pending", sa.retire_pending, sb.retire_pending);
  d.u64("system.recycle_histories", sa.recycle_histories,
        sb.recycle_histories);
  d.u64("system.counter_rng", sa.counter_rng, sb.counter_rng);
  d.u64("system.history_window", sa.history_window, sb.history_window);
  d.u64("system.total_spawned", sa.total_spawned, sb.total_spawned);
  d.u64("system.retention_enabled", sa.retention_enabled,
        sb.retention_enabled);
  d.u64("system.retention_epochs", sa.retention_epochs, sb.retention_epochs);
  d.u64("system.retire_queue.size", sa.retire_queue.size(),
        sb.retire_queue.size());
  const std::size_t queued =
      std::min(sa.retire_queue.size(), sb.retire_queue.size());
  for (std::size_t q = 0; q < queued; ++q) {
    const std::string path = "system.retire_queue[" + std::to_string(q) + "]";
    d.u64(path + ".pid", sa.retire_queue[q].first, sb.retire_queue[q].first);
    d.u64(path + ".epoch", sa.retire_queue[q].second,
          sb.retire_queue[q].second);
  }

  d.u64("system.slots.size", sa.slots.size(), sb.slots.size());
  const std::size_t slots = std::min(sa.slots.size(), sb.slots.size());
  for (std::size_t s = 0; s < slots; ++s) {
    const std::string path = "system.slots[" + std::to_string(s) + "]";
    const SlotImage& la = sa.slots[s];
    const SlotImage& lb = sb.slots[s];
    d.u64(path + ".pid", la.pid, lb.pid);
    d.rng(path + ".rng", la.rng, lb.rng);
    d.shares(path + ".cgroup", la.cgroup, lb.cgroup);
    d.shares(path + ".effective", la.effective, lb.effective);
    d.sample(path + ".last_sample", la.last_sample, lb.last_sample);
    d.accum(path + ".accum", la.accum, lb.accum);
    d.f64(path + ".last_progress", la.last_progress, lb.last_progress);
    d.u64(path + ".epochs_run", la.epochs_run, lb.epochs_run);
    d.u64(path + ".exit", la.exit, lb.exit);
    d.u64(path + ".invalid_streak", la.invalid_streak, lb.invalid_streak);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      d.u64(path + ".feature_streak[" + std::to_string(f) + "]",
            la.feature_streak[f], lb.feature_streak[f]);
    }
  }

  d.u64("system.procs.size", sa.procs.size(), sb.procs.size());
  const std::size_t procs = std::min(sa.procs.size(), sb.procs.size());
  for (std::size_t p = 0; p < procs; ++p) {
    const std::string path = "system.procs[" + std::to_string(p) + "]";
    const ProcImage& pa = sa.procs[p];
    const ProcImage& pb = sb.procs[p];
    d.u64(path + ".pid", pa.pid, pb.pid);
    d.u64(path + ".slot", pa.slot, pb.slot);
    d.poly(path + ".workload", pa.workload, pb.workload);
    d.u64(path + ".history.size", pa.history.size(), pb.history.size());
    const std::size_t history = std::min(pa.history.size(), pb.history.size());
    for (std::size_t h = 0; h < history; ++h) {
      d.sample(path + ".history[" + std::to_string(h) + "]", pa.history[h],
               pb.history[h]);
    }
    d.shares(path + ".retired_cgroup", pa.retired_cgroup, pb.retired_cgroup);
    d.shares(path + ".retired_effective", pa.retired_effective,
             pb.retired_effective);
    d.sample(path + ".retired_last_sample", pa.retired_last_sample,
             pb.retired_last_sample);
    d.accum(path + ".retired_accum", pa.retired_accum, pb.retired_accum);
    d.f64(path + ".retired_last_progress", pa.retired_last_progress,
          pb.retired_last_progress);
    d.u64(path + ".retired_epochs_run", pa.retired_epochs_run,
          pb.retired_epochs_run);
    d.u64(path + ".retired_exit", pa.retired_exit, pb.retired_exit);
  }

  d.u64("system.sched_entries.size", sa.sched_entries.size(),
        sb.sched_entries.size());
  const std::size_t factors =
      std::min(sa.sched_entries.size(), sb.sched_entries.size());
  for (std::size_t f = 0; f < factors; ++f) {
    const std::string path = "system.sched_entries[" + std::to_string(f) + "]";
    d.u64(path + ".pid", sa.sched_entries[f].pid, sb.sched_entries[f].pid);
    d.f64(path + ".factor", sa.sched_entries[f].factor,
          sb.sched_entries[f].factor);
  }

  const EngineImage& ea = a.engine;
  const EngineImage& eb = b.engine;
  d.u64("engine.detector_hash", ea.detector_hash, eb.detector_hash);
  d.u64("engine.step_tag", ea.step_tag, eb.step_tag);
  d.u64("engine.attachments.size", ea.attachments.size(),
        eb.attachments.size());
  const std::size_t atts =
      std::min(ea.attachments.size(), eb.attachments.size());
  for (std::size_t i = 0; i < atts; ++i) {
    const std::string path = "engine.attachments[" + std::to_string(i) + "]";
    const AttachmentImage& aa = ea.attachments[i];
    const AttachmentImage& ab = eb.attachments[i];
    d.u64(path + ".pid", aa.pid, ab.pid);
    d.monitor(path + ".monitor", aa.monitor, ab.monitor);
    d.u64(path + ".has_terminal", aa.has_terminal, ab.has_terminal);
    d.u64(path + ".terminal_hash", aa.terminal_hash, ab.terminal_hash);
    d.u64(path + ".stream_malicious", aa.stream_malicious,
          ab.stream_malicious);
    d.u64(path + ".stream_counted", aa.stream_counted, ab.stream_counted);
    d.u64(path + ".stream_skipped", aa.stream_skipped, ab.stream_skipped);
    d.u64(path + ".terminal_malicious", aa.terminal_malicious,
          ab.terminal_malicious);
    d.u64(path + ".terminal_counted", aa.terminal_counted,
          ab.terminal_counted);
    d.u64(path + ".terminal_skipped", aa.terminal_skipped,
          ab.terminal_skipped);
    d.u64(path + ".last_action", aa.last_action, ab.last_action);
    d.u64(path + ".last_action_step", aa.last_action_step,
          ab.last_action_step);
  }
  d.u64("engine.retries.size", ea.retries.size(), eb.retries.size());
  const std::size_t retries = std::min(ea.retries.size(), eb.retries.size());
  for (std::size_t i = 0; i < retries; ++i) {
    const std::string path = "engine.retries[" + std::to_string(i) + "]";
    const RetryImage& ra = ea.retries[i];
    const RetryImage& rb = eb.retries[i];
    d.u64(path + ".pid", ra.pid, rb.pid);
    d.u64(path + ".kind", ra.kind, rb.kind);
    d.f64(path + ".delta", ra.delta, rb.delta);
    d.u64(path + ".failures", ra.failures, rb.failures);
    d.u64(path + ".next_epoch", ra.next_epoch, rb.next_epoch);
  }

  d.u64("has_driver", a.has_driver, b.has_driver);
  if (a.has_driver && b.has_driver) {
    const DriverImage& da = a.driver;
    const DriverImage& db = b.driver;
    d.u64("driver.script_fingerprint", da.script_fingerprint,
          db.script_fingerprint);
    d.rng("driver.rng", da.rng, db.rng);
    d.u64("driver.spawned", da.spawned, db.spawned);
    d.u64("driver.attack_spawned", da.attack_spawned, db.attack_spawned);
    d.u64("driver.driver_kills", da.driver_kills, db.driver_kills);
    d.u64("driver.completed", da.completed, db.completed);
    d.u64("driver.policy_kills", da.policy_kills, db.policy_kills);
    d.u64("driver.rejected", da.rejected, db.rejected);
    d.u64("driver.peak_live", da.peak_live, db.peak_live);
    d.u64("driver.epochs", da.epochs, db.epochs);
    d.f64("driver.live_epoch_sum", da.live_epoch_sum, db.live_epoch_sum);
    d.u64("driver.departures.size", da.departures.size(),
          db.departures.size());
    const std::size_t deps =
        std::min(da.departures.size(), db.departures.size());
    for (std::size_t i = 0; i < deps; ++i) {
      const std::string path = "driver.departures[" + std::to_string(i) + "]";
      d.u64(path + ".epoch", da.departures[i].first, db.departures[i].first);
      d.u64(path + ".pid", da.departures[i].second, db.departures[i].second);
    }
    d.u64("driver.campaign_progress.size", da.campaign_progress.size(),
          db.campaign_progress.size());
    const std::size_t camps =
        std::min(da.campaign_progress.size(), db.campaign_progress.size());
    for (std::size_t c = 0; c < camps; ++c) {
      d.u64("driver.campaign_progress[" + std::to_string(c) + "]",
            da.campaign_progress[c], db.campaign_progress[c]);
    }
    d.u64("driver.benign_palette_cursor", da.benign_palette_cursor,
          db.benign_palette_cursor);
    d.u64("driver.prev_live.size", da.prev_live.size(), db.prev_live.size());
    const std::size_t prev =
        std::min(da.prev_live.size(), db.prev_live.size());
    for (std::size_t i = 0; i < prev; ++i) {
      d.u64("driver.prev_live[" + std::to_string(i) + "]", da.prev_live[i],
            db.prev_live[i]);
    }
    d.u64("driver.live", da.live, db.live);
  }
  return diffs;
}

std::uint64_t script_fingerprint(const sim::ScenarioScript& script) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u64(script.seed);
  out.u64(script.initial_processes);
  out.f64(script.arrival_rate);
  out.f64(script.attack_fraction);
  out.u64(script.attack_families.size());
  for (const sim::AttackFamily family : script.attack_families) {
    out.u8(static_cast<std::uint8_t>(family));
  }
  out.f64(script.mean_lifetime);
  out.f64(script.kill_exit_fraction);
  out.u64(script.max_live);
  out.u64(script.monitor_config.required_measurements);
  out.boolean(script.monitor_config.episode_scoped_measurements);
  out.boolean(script.monitor_config.threat.reset_metrics_on_normal);
  out.u64(script.bursts.size());
  for (const sim::ArrivalBurst& burst : script.bursts) {
    out.u64(burst.epoch);
    out.u64(burst.count);
  }
  out.u64(script.campaigns.size());
  for (const sim::AttackCampaign& campaign : script.campaigns) {
    out.u64(campaign.start_epoch);
    out.u64(campaign.count);
    out.u64(campaign.stagger);
    out.u8(static_cast<std::uint8_t>(campaign.family));
  }
  out.boolean(script.recycle_histories);
  return util::fnv1a(bytes);
}

}  // namespace valkyrie::snapshot
