#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <concepts>
#include <cstdio>
#include <limits>
#include <string_view>
#include <type_traits>
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
constexpr std::size_t kFramingBytes = 4 + 8 + 4;  // fourcc, length, CRC

// --- The schema --------------------------------------------------------------
// One field list per image type, in wire order. Each `fields` overload names
// every field once and walks one image (Put, Get, Size below) or two side by
// side (Diff): the visitor is called as v(name, field...) per field, and
// v.run(fn) marks a fixed-width group that Put writes through one cursor.
// Fields are typed by their C++ type: u8, bool (one byte), u32, u64 and
// size_t, int (as i64), double (by bit pattern), std::array of those, an
// hpc::HpcSample (its counts), std::string and a Bytes payload (u64 length,
// then the bytes), a std::vector of anything else (a counted table: u64
// count, then the elements), and any type with a field list of its own.

using Bytes = std::vector<std::uint8_t>;

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <class V, Is<sim::SchedulerConfig>... S>
constexpr void fields(V& v, S&... s) {
  v("targeted_latency_ms", s.targeted_latency_ms...);
  v("gamma", s.gamma...);
  v("weight_levels", s.weight_levels...);
  v("default_level", s.default_level...);
  v("background_weight_units", s.background_weight_units...);
  v("min_share_fraction", s.min_share_fraction...);
}

template <class V, Is<sim::ResourceShares>... S>
constexpr void fields(V& v, S&... s) {
  v("cpu", s.cpu...);
  v("mem", s.mem...);
  v("net", s.net...);
  v("fs", s.fs...);
}

template <class V, Is<ml::WindowAccumulator::State>... S>
constexpr void fields(V& v, S&... s) {
  v("count", s.count...);
  v("mean", s.mean...);
  v("m2", s.m2...);
  v("newest", s.newest...);
  v("fcount", s.fcount...);            // v3
  v("newest_mask", s.newest_mask...);  // v3
}

template <class V, Is<PolyImage>... S>
constexpr void fields(V& v, S&... s) {
  v("type", s.type...);
  v("payload", s.payload...);
}

// A retire-queue entry: {pid, retirement epoch}.
template <class V, Is<std::pair<sim::ProcessId, std::uint64_t>>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.first...);
  v("epoch", s.second...);
}

template <class V, Is<SlotImage>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.pid...);
  v("rng", s.rng...);
  v("cgroup", s.cgroup...);
  v("effective", s.effective...);
  v("last_sample", s.last_sample...);
  v("accum", s.accum...);
  v("last_progress", s.last_progress...);
  v("epochs_run", s.epochs_run...);
  v("exit", s.exit...);
  v("invalid_streak", s.invalid_streak...);  // v2
  v("feature_streak", s.feature_streak...);  // v3
}

template <class V, Is<ProcImage>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.pid...);  // v5: rows are keyed, not positional
  v("slot", s.slot...);
  v("workload", s.workload...);
  v("history", s.history...);
  v.run([&](auto& r) {  // the retired state
    r("retired_cgroup", s.retired_cgroup...);
    r("retired_effective", s.retired_effective...);
    r("retired_last_sample", s.retired_last_sample...);
    r("retired_accum", s.retired_accum...);
    r("retired_last_progress", s.retired_last_progress...);
    r("retired_epochs_run", s.retired_epochs_run...);
    r("retired_exit", s.retired_exit...);
  });
}

template <class V, Is<sim::SchedFactorEntry>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.pid...);
  v("factor", s.factor...);
}

template <class V, Is<SystemImage>... S>
constexpr void fields(V& v, S&... s) {
  v("epoch_ms", s.epoch_ms...);
  v("hpc_noise", s.hpc_noise...);
  v("scheduler", s.scheduler...);
  v("rng", s.rng...);
  v("epoch", s.epoch...);
  v("retire_pending", s.retire_pending...);
  v("recycle_histories", s.recycle_histories...);
  v("counter_rng", s.counter_rng...);              // v4
  v("history_window", s.history_window...);        // v6 (v4: ring capacity)
  v("total_spawned", s.total_spawned...);          // v5
  v("retention_enabled", s.retention_enabled...);  // v5
  v("retention_epochs", s.retention_epochs...);    // v5
  v("retire_queue", s.retire_queue...);            // v5
  v("slots", s.slots...);
  v("procs", s.procs...);
  v("sched_entries", s.sched_entries...);  // v5: keyed {pid, factor}
}

template <class V, Is<MonitorImage>... S>
constexpr void fields(V& v, S&... s) {
  v("required_measurements", s.required_measurements...);
  v("episode_scoped", s.episode_scoped...);
  v("reset_metrics_on_normal", s.reset_metrics_on_normal...);
  v("actuator", s.actuator...);
  v("threat", s.threat...);
  v("penalty", s.penalty...);
  v("compensation", s.compensation...);
  v("threat_state", s.threat_state...);
  v("measurements", s.measurements...);
  v("state", s.state...);
}

template <class V, Is<AttachmentImage>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.pid...);
  v("monitor", s.monitor...);
  v("has_terminal", s.has_terminal...);
  v("terminal_hash", s.terminal_hash...);
  v("stream_malicious", s.stream_malicious...);
  v("stream_counted", s.stream_counted...);
  v("stream_skipped", s.stream_skipped...);  // v6
  v("terminal_malicious", s.terminal_malicious...);
  v("terminal_counted", s.terminal_counted...);
  v("terminal_skipped", s.terminal_skipped...);  // v6
  v("last_action", s.last_action...);
  v("last_action_step", s.last_action_step...);
}

template <class V, Is<RetryImage>... S>
constexpr void fields(V& v, S&... s) {
  v("pid", s.pid...);
  v("kind", s.kind...);
  v("delta", s.delta...);
  v("failures", s.failures...);
  v("next_epoch", s.next_epoch...);
}

template <class V, Is<EngineImage>... S>
constexpr void fields(V& v, S&... s) {
  v("detector_hash", s.detector_hash...);
  v("step_tag", s.step_tag...);
  v("attachments", s.attachments...);
  v("retries", s.retries...);  // v2
}

// A scheduled departure: {epoch, pid}.
template <class V, Is<std::pair<std::uint64_t, sim::ProcessId>>... S>
constexpr void fields(V& v, S&... s) {
  v("epoch", s.first...);
  v("pid", s.second...);
}

template <class V, Is<DriverImage>... S>
constexpr void fields(V& v, S&... s) {
  v("script_fingerprint", s.script_fingerprint...);
  v("rng", s.rng...);
  v("spawned", s.spawned...);
  v("attack_spawned", s.attack_spawned...);
  v("driver_kills", s.driver_kills...);
  v("completed", s.completed...);
  v("policy_kills", s.policy_kills...);
  v("rejected", s.rejected...);
  v("peak_live", s.peak_live...);
  v("epochs", s.epochs...);
  v("live_epoch_sum", s.live_epoch_sum...);
  v("departures", s.departures...);
  v("campaign_progress", s.campaign_progress...);
  v("benign_palette_cursor", s.benign_palette_cursor...);
  v("prev_live", s.prev_live...);
  v("live", s.live...);
}

// The field shapes the visitors tell apart (see the schema comment). Any
// visitor type can probe for a field list; int brings no overloads of its
// own into the lookup.
template <class T>
concept Group = requires(int& probe, T& x) { fields(probe, x); };

template <class T>
concept Array = std::same_as<
    T, std::array<typename T::value_type, std::tuple_size<T>::value>>;

template <class T>
concept Table = std::same_as<T, std::vector<typename T::value_type>> &&
                !std::same_as<T, Bytes>;

// A scalar's wire width.
template <class T>
constexpr std::size_t kScalarBytes = std::same_as<T, int> ? 8 : sizeof(T);

// --- Visitors ----------------------------------------------------------------

struct Size;
template <class T>
constexpr Size measure();

// Sums the bytes Put writes. Over one image it is exact; over a default
// element (measure<T>(): every table, string and payload empty) it is the
// element's minimum width, and its exact width when nothing variable was met.
struct Size {
  std::size_t n = 0;
  bool variable = false;  // met a table, a string or a payload

  template <class T>
  constexpr void operator()(std::string_view, const T& x) {
    if constexpr (std::same_as<T, hpc::HpcSample>) {
      (*this)({}, x.counts);
    } else if constexpr (Group<T>) {
      fields(*this, x);
    } else if constexpr (Table<T>) {
      using E = typename T::value_type;
      constexpr Size element = measure<E>();
      n += 8;
      variable = true;
      if constexpr (!element.variable) {
        n += x.size() * element.n;
      } else {
        for (const E& e : x) (*this)({}, e);
      }
    } else if constexpr (std::same_as<T, std::string> ||
                         std::same_as<T, Bytes>) {
      n += 8 + x.size();
      variable = true;
    } else if constexpr (Array<T>) {
      n += x.size() * kScalarBytes<typename T::value_type>;
    } else {
      n += kScalarBytes<T>;
    }
  }

  template <class Fn>
  constexpr void run(Fn fn) {
    fn(*this);
  }
};

template <class T>
constexpr Size measure() {
  Size size;
  size({}, T{});
  return size;
}

// The minimum widths snapshot.hpp publishes are the field lists' widths, so
// a field added to a list without its constant fails the build here.
static_assert(measure<hpc::HpcSample>().n == kSampleBytes);
static_assert(measure<SlotImage>().n == kMinSlotBytes);
static_assert(measure<ProcImage>().n == kMinRowBytes);
static_assert(measure<AttachmentImage>().n == kMinAttachmentBytes);
static_assert(measure<RetryImage>().n == kMinRetryBytes);

template <class Out, class T>
void put_scalar(Out& out, T x) {
  if constexpr (std::same_as<T, double>) {
    out.f64(x);
  } else if constexpr (kScalarBytes<T> == 1) {
    out.u8(x);
  } else if constexpr (kScalarBytes<T> == 4) {
    out.u32(x);
  } else {
    out.u64(static_cast<std::uint64_t>(x));  // an int sign-extends, as i64
  }
}

// Writes through `out`: a ByteWriter, or the cursor of one ByteWriter::run.
// A table of fixed-width elements and each run() group grow the buffer once
// by the width Size gives them and store through a cursor, unchecked; a
// table, string or payload inside such a group does not compile.
template <class Out>
struct Put {
  Out& out;

  template <class T>
  void operator()(std::string_view, const T& x) {
    if constexpr (std::same_as<T, hpc::HpcSample>) {
      out.f64_block(x.counts);
    } else if constexpr (Group<T>) {
      fields(*this, x);
    } else if constexpr (Table<T>) {
      using E = typename T::value_type;
      constexpr Size element = measure<E>();
      out.u64(x.size());
      if constexpr (!element.variable) {
        ByteCursor cursor = out.run(x.size() * element.n);
        Put<ByteCursor> put{cursor};
        for (const E& e : x) put({}, e);
      } else {
        for (const E& e : x) (*this)({}, e);
      }
    } else if constexpr (std::same_as<T, std::string>) {
      out.str(x);
    } else if constexpr (std::same_as<T, Bytes>) {
      out.u64(x.size());
      out.bytes(x);
    } else if constexpr (Array<T>) {
      if constexpr (std::same_as<typename T::value_type, double>) {
        out.f64_block(x);
      } else {
        for (const auto word : x) put_scalar(out, word);
      }
    } else {
      put_scalar(out, x);
    }
  }

  template <class Fn>
  void run(Fn fn) {
    Size size;
    fn(size);
    ByteCursor cursor = out.run(size.n);
    Put<ByteCursor> put{cursor};
    fn(put);
  }
};

template <class T>
void get_scalar(ByteReader& in, T& x) {
  if constexpr (std::same_as<T, double>) {
    x = in.f64();
  } else if constexpr (std::same_as<T, bool>) {
    x = in.boolean();
  } else if constexpr (std::same_as<T, int>) {
    const std::int64_t wide = in.i64();
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "snapshot: int field out of range");
    }
    x = static_cast<int>(wide);
  } else if constexpr (kScalarBytes<T> == 1) {
    x = in.u8();
  } else if constexpr (kScalarBytes<T> == 4) {
    x = in.u32();
  } else {
    x = in.u64();
  }
}

// Reads in place, each field through one bounds check, reusing the
// capacity of the tables, strings and payloads it overwrites. A table's
// count is checked against its element's minimum width before anything is
// allocated.
struct Get {
  ByteReader& in;

  template <class T>
  void operator()(std::string_view, T& x) {
    if constexpr (std::same_as<T, hpc::HpcSample>) {
      in.f64_block(x.counts);
    } else if constexpr (Group<T>) {
      fields(*this, x);
    } else if constexpr (Table<T>) {
      constexpr Size element = measure<typename T::value_type>();
      x.resize(in.length(element.n));
      for (auto& e : x) (*this)({}, e);
    } else if constexpr (std::same_as<T, std::string>) {
      const std::span<const std::uint8_t> chars = in.bytes(in.length());
      x.assign(reinterpret_cast<const char*>(chars.data()), chars.size());
    } else if constexpr (std::same_as<T, Bytes>) {
      const std::span<const std::uint8_t> bytes = in.bytes(in.length());
      x.assign(bytes.begin(), bytes.end());
    } else if constexpr (Array<T>) {
      if constexpr (std::same_as<typename T::value_type, double>) {
        in.f64_block(x);
      } else {
        for (auto& word : x) get_scalar(in, word);
      }
    } else {
      get_scalar(in, x);
    }
  }

  template <class Fn>
  void run(Fn fn) {
    fn(*this);
  }
};

// Compares two images field by field and records each difference under its
// path, e.g. system.slots[3].rng[0]; a table adds `.size`, then compares the
// elements both sides have.
struct Diff {
  std::vector<FieldDiff> out;
  std::string path;

  template <class T>
  void operator()(std::string_view name, const T& a, const T& b) {
    const std::size_t mark = path.size();
    if (!path.empty() && !name.starts_with('[')) path += '.';
    path += name;
    compare(a, b);
    path.resize(mark);
  }

  template <class Fn>
  void run(Fn fn) {
    fn(*this);
  }

 private:
  static std::string index(std::size_t i) {
    return "[" + std::to_string(i) + "]";
  }
  static std::string fmt_u64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
  }
  static std::string fmt_f64(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  template <class T>
  void compare(const T& a, const T& b) {
    if constexpr (std::same_as<T, hpc::HpcSample>) {
      compare(a.counts, b.counts);
    } else if constexpr (Group<T>) {
      fields(*this, a, b);
    } else if constexpr (Table<T>) {
      (*this)("size", a.size(), b.size());
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        (*this)(index(i), a[i], b[i]);
      }
    } else if constexpr (std::same_as<T, std::string>) {
      if (a != b) out.push_back({path, a, b});
    } else if constexpr (std::same_as<T, Bytes>) {
      if (a != b) {
        out.push_back({path, fmt_u64(a.size()) + " bytes",
                       fmt_u64(b.size()) + " bytes (contents differ)"});
      }
    } else if constexpr (Array<T>) {
      for (std::size_t i = 0; i < a.size(); ++i) (*this)(index(i), a[i], b[i]);
    } else if constexpr (std::same_as<T, double>) {
      // Doubles compare by bit pattern: the contract is bit-identity, and a
      // tolerance would hide exactly the drift the diff exists to expose.
      if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
        out.push_back({path, fmt_f64(a), fmt_f64(b)});
      }
    } else if (a != b) {
      out.push_back({path, fmt_u64(static_cast<std::uint64_t>(a)),
                     fmt_u64(static_cast<std::uint64_t>(b))});
    }
  }
};

// Calls fn(fourcc, section image) for each section `image` carries, in wire
// order.
template <class Fn>
void for_each_section(const SnapshotImage& image, Fn fn) {
  fn(kSysSection, image.system);
  fn(kEngSection, image.engine);
  if (image.has_driver) fn(kDrvSection, image.driver);
}

}  // namespace

void capture(const core::ValkyrieEngine& engine, SnapshotImage& image) {
  image.version = kVersion;
  engine.snapshot_system(image.system);
  engine.snapshot_state(image.engine);
  image.has_driver = false;
}

void capture(const sim::ScenarioDriver& driver, SnapshotImage& image) {
  capture(driver.engine(), image);
  driver.snapshot_state(image.driver);
  image.has_driver = true;
}

SnapshotImage capture(const core::ValkyrieEngine& engine) {
  SnapshotImage image;
  capture(engine, image);
  return image;
}

SnapshotImage capture(const sim::ScenarioDriver& driver) {
  SnapshotImage image;
  capture(driver, image);
  return image;
}

std::vector<std::uint8_t> encode(const SnapshotImage& image) {
  // One reservation of exactly the bytes written, so a 100 MB image goes
  // into one allocation instead of doubling its way there.
  Size size{kMagic.size() + sizeof(kVersion)};
  for_each_section(image, [&size](std::uint32_t, const auto& section) {
    size.n += kFramingBytes;
    size({}, section);
  });
  std::vector<std::uint8_t> bytes;
  bytes.reserve(size.n);
  ByteWriter out(bytes);
  out.bytes(kMagic);
  out.u32(kVersion);
  for_each_section(image, [&](std::uint32_t tag, const auto& section) {
    out.u32(tag);
    const std::size_t length_at = bytes.size();
    out.u64(0);  // placeholder, patched once the payload size is known
    const std::size_t payload_start = bytes.size();
    Put<ByteWriter>{out}({}, section);
    const std::size_t payload_size = bytes.size() - payload_start;
    out.patch_u64(length_at, payload_size);
    out.u32(util::crc32({bytes.data() + payload_start, payload_size}));
  });
  return bytes;
}

SnapshotImage parse(std::span<const std::uint8_t> bytes) {
  SnapshotImage image;
  parse(bytes, image);
  return image;
}

void parse(std::span<const std::uint8_t> bytes, SnapshotImage& image) {
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

  image.version = version;
  image.has_driver = false;
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
    const auto decode = [&section](bool& seen, auto& into, const char* name) {
      if (seen) {
        throw SerialError(SerialError::Code::kBadSection,
                          std::string("snapshot: duplicate ") + name +
                              " section");
      }
      Get{section}({}, into);
      seen = true;
    };
    switch (tag) {
      case kSysSection:
        decode(have_sys, image.system, "system");
        break;
      case kEngSection:
        decode(have_eng, image.engine, "engine");
        break;
      case kDrvSection:
        decode(image.has_driver, image.driver, "driver");
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
}

void restore(const SnapshotImage& image, core::ValkyrieEngine& engine,
             const RestoreContext& ctx) {
  // Stage the engine section first — detector and terminal fingerprints,
  // attachment fields and pids, the retry table, every actuator loaded —
  // so an image only the engine refuses throws before the system commit.
  // (The system's restore_from validates and loads everything it needs
  // before mutating, too.) Byte-level corruption never reaches here —
  // parse() already rejected it — so the residual risk is handcrafted
  // in-memory images.
  core::ValkyrieEngine::StagedRestore staged =
      engine.stage_restore(image.engine, ctx);
  // A pending retry reads its pid's liveness at the first step, so it must
  // name a pid the system tracks. Both tables are ascending-pid (the
  // engine stage and the system restore refuse them otherwise), so one
  // merge walk checks all.
  const std::vector<ProcImage>& rows = image.system.procs;
  std::size_t row = 0;
  for (const RetryImage& retry : image.engine.retries) {
    while (row < rows.size() && rows[row].pid < retry.pid) ++row;
    if (row == rows.size() || rows[row].pid != retry.pid) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: retry entry for an untracked pid");
    }
  }

  engine.system().restore_from(image.system, ctx.workloads);
  engine.commit_restore(std::move(staged));
}

std::vector<FieldDiff> diff(const SnapshotImage& a, const SnapshotImage& b) {
  Diff d;
  d("system", a.system, b.system);
  d("engine", a.engine, b.engine);
  d("has_driver", a.has_driver, b.has_driver);
  if (a.has_driver && b.has_driver) d("driver", a.driver, b.driver);
  return std::move(d.out);
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
