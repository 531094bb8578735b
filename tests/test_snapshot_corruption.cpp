// Corruption robustness of the snapshot format: truncated, bit-flipped,
// foreign and future-versioned byte streams must fail parse/restore with a
// TYPED SnapshotError — never undefined behaviour — and a failed restore
// must leave the target engine untouched (all-or-nothing). A corrupt count
// must also be refused before parse allocates for it, which the replaced
// operator new below observes. The same holds one level down, inside a
// CRC-valid image: an attack payload whose fields would size, index or
// divide out of range is refused with kMalformed before the workload is
// built.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "attacks/cryptominer.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "dram/dram.hpp"
#include "ml/gbt.hpp"
#include "ml/lstm.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::snapshot {
namespace {

using core::ValkyrieConfig;
using core::ValkyrieEngine;
using util::SerialError;

ml::TraceSet tiny_corpus(std::uint64_t seed = 0xfeed) {
  util::Rng rng(seed);
  hpc::HpcSignature benign;
  benign.at(hpc::Event::kInstructions) = 3e8;
  benign.at(hpc::Event::kCycles) = 3.5e8;
  hpc::HpcSignature attack;
  attack.at(hpc::Event::kInstructions) = 4e7;
  attack.at(hpc::Event::kLlcMisses) = 4e7;
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < 4; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = std::to_string(label) + "-" + std::to_string(t);
      for (int i = 0; i < 20; ++i) {
        trace.samples.push_back((label == 1 ? attack : benign).sample(rng));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// An unregistered workload: snapshot_type() stays empty, so capture must
/// refuse with kUnsupportedWorkload instead of writing a hole.
class OpaqueWorkload final : public sim::Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "opaque"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    out.hpc = hpc::HpcSignature{}.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return 0.0; }
};

struct Fixture {
  explicit Fixture(const ml::Detector& detector)
      : engine(sys, detector, 2) {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    for (std::size_t i = 0; i < 6; ++i) {
      workloads::BenchmarkSpec spec = palette[i % palette.size()];
      spec.epochs_of_work = 1e9;
      const sim::ProcessId pid =
          sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(spec));
      engine.attach(pid, ValkyrieConfig{},
                    std::make_unique<core::SchedulerWeightActuator>());
    }
    for (int e = 0; e < 40; ++e) engine.step();
  }

  sim::SimSystem sys;
  ValkyrieEngine engine;
};

SerialError::Code parse_failure_code(std::span<const std::uint8_t> bytes) {
  try {
    (void)parse(bytes);
  } catch (const SerialError& e) {
    return e.code();
  }
  throw std::runtime_error("corrupt snapshot parsed successfully");
}

TEST(SnapshotCorruption, TruncationAtAnyLengthIsTyped) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  const std::vector<std::uint8_t> bytes = encode(capture(fx.engine));
  ASSERT_GT(bytes.size(), 64u);

  util::Rng rng(0x7a7a);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 24 && n < bytes.size(); ++n) lengths.push_back(n);
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.below(bytes.size()));

  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    const SerialError::Code code = parse_failure_code(cut);
    // Truncation surfaces as kTruncated wherever the cut lands inside a
    // field; a cut at a section boundary can also read as broken framing.
    EXPECT_TRUE(code == SerialError::Code::kTruncated ||
                code == SerialError::Code::kBadSection ||
                code == SerialError::Code::kBadMagic)
        << "cut at " << n << " -> code " << static_cast<int>(code);
  }
}

TEST(SnapshotCorruption, EverySingleBitFlipFailsParseTyped) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  const std::vector<std::uint8_t> bytes = encode(capture(fx.engine));

  util::Rng rng(0xf11b);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t offset = rng.below(bytes.size());
    const int bit = static_cast<int>(rng.below(8));
    std::vector<std::uint8_t> mutated = bytes;
    mutated[offset] ^= static_cast<std::uint8_t>(1u << bit);
    const SerialError::Code code = parse_failure_code(mutated);
    if (offset >= 12) {
      // Inside the sections: payload flips are caught by CRC32; flips in a
      // section header (fourcc/length/crc) surface as framing damage.
      EXPECT_TRUE(code == SerialError::Code::kBadChecksum ||
                  code == SerialError::Code::kBadSection ||
                  code == SerialError::Code::kTruncated ||
                  code == SerialError::Code::kMalformed)
          << "flip at " << offset << " bit " << bit << " -> code "
          << static_cast<int>(code);
    } else if (offset >= 8) {
      EXPECT_EQ(code, SerialError::Code::kBadVersion)
          << "flip in version field at " << offset;
    } else {
      EXPECT_EQ(code, SerialError::Code::kBadMagic)
          << "flip in magic at " << offset;
    }
  }
}

TEST(SnapshotCorruption, ForeignAndFutureVersionBytesAreRefused) {
  const std::vector<std::uint8_t> garbage = {'n', 'o', 't', ' ',
                                             'a', ' ', 's', 'n'};
  EXPECT_EQ(parse_failure_code(garbage), SerialError::Code::kBadMagic);
  EXPECT_EQ(parse_failure_code(std::vector<std::uint8_t>{}),
            SerialError::Code::kTruncated);

  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  std::vector<std::uint8_t> bytes = encode(capture(fx.engine));
  bytes[8] = 0x7f;  // version LSB -> version 127
  EXPECT_EQ(parse_failure_code(bytes), SerialError::Code::kBadVersion);
}

TEST(SnapshotCorruption, FailedRestoreLeavesTheTargetUntouched) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  const SnapshotImage image = capture(source.engine);

  // An independently advanced target world.
  Fixture target(detector);
  for (int e = 0; e < 7; ++e) target.engine.step();
  const std::vector<std::uint8_t> before = encode(capture(target.engine));

  // Incompatible: detector fingerprint mismatch.
  {
    SnapshotImage bad = image;
    bad.engine.detector_hash ^= 1;
    try {
      restore(bad, target.engine, RestoreContext{});
      FAIL() << "restore accepted a foreign detector hash";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIncompatible);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
  }

  // Malformed: out-of-range enum in a slot.
  {
    SnapshotImage bad = image;
    ASSERT_FALSE(bad.system.slots.empty());
    bad.system.slots[0].exit = 99;
    try {
      restore(bad, target.engine, RestoreContext{});
      FAIL() << "restore accepted an out-of-range exit reason";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kMalformed);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
  }

  // Incompatible: platform numbers differ.
  {
    SnapshotImage bad = image;
    bad.system.epoch_ms *= 2.0;
    try {
      restore(bad, target.engine, RestoreContext{});
      FAIL() << "restore accepted a different platform config";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIncompatible);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
  }

  // Unsupported: unknown workload type tag.
  {
    SnapshotImage bad = image;
    ASSERT_FALSE(bad.system.procs.empty());
    bad.system.procs[0].workload.type = "workload.from-the-future";
    try {
      restore(bad, target.engine, RestoreContext{});
      FAIL() << "restore accepted an unknown workload type";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kUnsupportedWorkload);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
  }
}

// A detector's fingerprint folds in its trained parameters, so an image
// captured over one training run is refused, before anything changes, by
// an engine whose detector was trained on other data, for every detector
// type. The same training run, repeated, restores.
TEST(SnapshotCorruption, RestoreAgainstARetrainedDetectorIsRefused) {
  const ml::TraceSet corpus = tiny_corpus();
  const ml::TraceSet other = tiny_corpus(0xbeef);
  const auto check = [](const ml::Detector& trained,
                        const ml::Detector& same,
                        const ml::Detector& retrained) {
    SCOPED_TRACE(std::string(trained.name()));
    EXPECT_EQ(trained.state_hash(), same.state_hash());
    EXPECT_NE(trained.state_hash(), retrained.state_hash());
    Fixture source(trained);
    const SnapshotImage image = capture(source.engine);
    // Targets run on past the image, so a restore that went through would
    // show in their bytes.
    Fixture target(retrained);
    for (int e = 0; e < 7; ++e) target.engine.step();
    const std::vector<std::uint8_t> before = encode(capture(target.engine));
    try {
      restore(image, target.engine, RestoreContext{});
      ADD_FAILURE() << "restore accepted a retrained detector";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIncompatible);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
    Fixture twin(same);
    for (int e = 0; e < 7; ++e) twin.engine.step();
    restore(image, twin.engine, RestoreContext{});
    EXPECT_EQ(encode(image), encode(capture(twin.engine)));
  };
  check(ml::GbtDetector::make(corpus), ml::GbtDetector::make(corpus),
        ml::GbtDetector::make(other));
  check(ml::SvmDetector::make(corpus, 3), ml::SvmDetector::make(corpus, 3),
        ml::SvmDetector::make(other, 3));
  check(ml::MlpDetector::make_small_ann(corpus, 3),
        ml::MlpDetector::make_small_ann(corpus, 3),
        ml::MlpDetector::make_small_ann(other, 3));
  const auto stat = [](const ml::TraceSet& set) {
    ml::StatisticalDetector detector;
    detector.fit(ml::flatten(set));
    return detector;
  };
  check(stat(corpus), stat(corpus), stat(other));
  ml::LstmTrainOptions quick;
  quick.epochs = 2;
  check(ml::LstmDetector::make(corpus, 3, quick),
        ml::LstmDetector::make(corpus, 3, quick),
        ml::LstmDetector::make(other, 3, quick));
}

// The statistical detector's fingerprint also covers what turns its score
// into a verdict, and stays current when that changes after training.
TEST(SnapshotCorruption, StatFingerprintFollowsThresholdAndVotes) {
  ml::StatisticalDetector detector;
  detector.fit(ml::flatten(tiny_corpus()));
  const std::uint64_t trained = detector.state_hash();
  EXPECT_NE(trained, ml::StatisticalDetector{}.state_hash());
  EXPECT_NE(detector.accumulated_view().state_hash(), trained);
  detector.set_threshold(detector.config().threshold + 0.5);
  const std::uint64_t raised = detector.state_hash();
  EXPECT_NE(raised, trained);
  detector.set_vote_window(3);
  EXPECT_NE(detector.state_hash(), raised);
  detector.set_vote_window(1);
  detector.set_threshold(detector.config().threshold - 0.5);
  EXPECT_EQ(detector.state_hash(), trained);
}

// Images only the engine section refuses. The engine section stages (its
// checks run and its actuators load) before the system commits, so each
// refusal leaves the target as it was rather than at the image's epoch
// under its own old attachments.
TEST(SnapshotCorruption, EngineOnlyRefusalsLeaveTheTargetUntouched) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  const SnapshotImage image = capture(source.engine);
  ASSERT_GE(image.engine.attachments.size(), 2u);
  ASSERT_GE(image.system.procs.size(), 2u);

  Fixture target(detector);
  for (int e = 0; e < 7; ++e) target.engine.step();
  const std::vector<std::uint8_t> before = encode(capture(target.engine));
  const auto expect_refused = [&](const SnapshotImage& bad,
                                  const std::string& what) {
    try {
      restore(bad, target.engine, RestoreContext{});
      ADD_FAILURE() << "restore accepted " << what;
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kMalformed) << what;
    }
    EXPECT_EQ(before, encode(capture(target.engine))) << what;
  };

  {
    SnapshotImage bad = image;
    bad.engine.attachments[1].pid = bad.engine.attachments[0].pid;
    expect_refused(bad, "a duplicated attachment pid");
  }
  // The retry entries below name tracked pids in an order the retry-vs-
  // rows merge walk accepts, so only the staged engine checks refuse them.
  {
    // A pid twice: not strictly ascending.
    SnapshotImage bad = image;
    bad.engine.retries = {{image.system.procs[0].pid, 1, 0.5, 1, 99},
                          {image.system.procs[0].pid, 1, 0.5, 1, 99}};
    expect_refused(bad, "an unsorted retry table");
  }
  {
    // A pending retry has failed at least once.
    SnapshotImage bad = image;
    bad.engine.retries = {{image.system.procs[0].pid, 1, 0.5, 0, 99}};
    expect_refused(bad, "a retry entry that never failed");
  }
  {
    // The scheduler-weight actuator saves nothing; a stray byte is left
    // over after its loader ran.
    SnapshotImage bad = image;
    bad.engine.attachments.back().monitor.actuator.payload.push_back(0);
    expect_refused(bad, "an actuator payload its registry refuses");
  }
  // The untouched image still restores.
  EXPECT_NO_THROW(restore(image, target.engine, RestoreContext{}));
  EXPECT_EQ(encode(image), encode(capture(target.engine)));
}

// Capture skips cold rows whose pid is the free-row mark, the largest
// u32, so a tracked pid never reaches it: restore refuses an image whose
// pid space does, and spawn stops one short of it.
TEST(SnapshotCorruption, PidAtTheFreeRowMarkIsRefused) {
  constexpr sim::ProcessId kMark = std::numeric_limits<sim::ProcessId>::max();
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  const SnapshotImage image = capture(source.engine);

  Fixture target(detector);
  const std::vector<std::uint8_t> before = encode(capture(target.engine));
  {
    // The last (live) process renamed to the mark everywhere it appears,
    // so every other check holds.
    SnapshotImage bad = image;
    const sim::ProcessId old_pid = bad.system.procs.back().pid;
    bad.system.total_spawned = std::uint64_t{kMark} + 1;
    bad.system.procs.back().pid = kMark;
    bad.system.sched_entries.back().pid = kMark;
    ASSERT_EQ(bad.system.slots.back().pid, old_pid);
    bad.system.slots.back().pid = kMark;
    for (AttachmentImage& att : bad.engine.attachments) {
      if (att.pid == old_pid) att.pid = kMark;
    }
    try {
      restore(bad, target.engine, RestoreContext{});
      FAIL() << "restore accepted a process at the free-row mark";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kMalformed);
    }
    EXPECT_EQ(before, encode(capture(target.engine)));
  }

  // The last pid below the mark already allocated: restores, then the next
  // spawn is refused and changes nothing.
  SnapshotImage full = image;
  full.system.total_spawned = kMark;
  ASSERT_NO_THROW(restore(full, target.engine, RestoreContext{}));
  EXPECT_THROW(target.sys.spawn(std::make_unique<OpaqueWorkload>()),
               std::length_error);
  EXPECT_EQ(encode(full), encode(capture(target.engine)));
}

// Eq. 8, reset and the default weight keep every CFS weight factor's
// magnitude in [min_share_fraction, 1], so restore refuses an image whose
// weight lies outside that range or is not a number, live or retired, even
// when the bytes carrying it are CRC-valid: an infinite live weight would
// otherwise make the total infinite and every process's CPU share zero.
TEST(SnapshotCorruption, SchedulerWeightOutsideItsRangeIsRefused) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  source.sys.kill(source.sys.live_processes().front());
  source.engine.step();
  const SnapshotImage image = capture(source.engine);
  // Row 0 is the killed process; find a live one.
  const std::vector<sim::SchedFactorEntry>& entries =
      image.system.sched_entries;
  ASSERT_LT(entries[0].factor, 0.0);
  std::size_t live = 0;
  while (live < entries.size() && entries[live].factor < 0.0) ++live;
  ASSERT_LT(live, entries.size());

  Fixture target(detector);
  const std::vector<std::uint8_t> before = encode(capture(target.engine));
  const double min_share = image.system.scheduler.min_share_fraction;
  const struct {
    std::size_t row;
    double factor;
    const char* what;
  } cases[] = {
      {live, std::numeric_limits<double>::infinity(),
       "an infinite live weight"},
      {live, 1.5, "a live weight above the default"},
      {0, -std::numeric_limits<double>::quiet_NaN(), "a NaN retired weight"},
      {0, -min_share / 2.0, "a retired weight below the floor"},
  };
  for (const auto& c : cases) {
    SnapshotImage bad = image;
    bad.system.sched_entries[c.row].factor = c.factor;
    const SnapshotImage parsed = parse(encode(bad));
    try {
      restore(parsed, target.engine, RestoreContext{});
      ADD_FAILURE() << "restore accepted " << c.what;
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kMalformed) << c.what;
    }
    EXPECT_EQ(before, encode(capture(target.engine))) << c.what;
  }
  // The untouched image still restores.
  EXPECT_NO_THROW(restore(image, target.engine, RestoreContext{}));
  EXPECT_EQ(encode(image), encode(capture(target.engine)));
}

// A pending retry reads its pid's liveness at the first step, so restore
// refuses one naming a pid the image's system does not track — typed, and
// before the system commit, so the target stays as it was.
TEST(SnapshotCorruption, RetryForAnUntrackedPidIsRefused) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  SnapshotImage image = capture(source.engine);
  const sim::ProcessId untracked = image.system.procs.back().pid + 1;
  image.engine.retries.push_back({untracked, 1, 0.5, 1, 99});

  Fixture target(detector);
  const std::vector<std::uint8_t> before = encode(capture(target.engine));
  try {
    restore(image, target.engine, RestoreContext{});
    FAIL() << "restore accepted a retry for an untracked pid";
  } catch (const SerialError& e) {
    EXPECT_EQ(e.code(), SerialError::Code::kMalformed);
  }
  EXPECT_EQ(before, encode(capture(target.engine)));

  // The same entry for a tracked pid restores.
  image.engine.retries.back().pid = image.system.procs.back().pid;
  EXPECT_NO_THROW(restore(image, target.engine, RestoreContext{}));
}

TEST(SnapshotCorruption, CaptureAndRestoreRefuseAnOpenEpoch) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  const SnapshotImage image = capture(fx.engine);

  // Same guard family as spawn-while-open: an epoch-open engine is not at
  // a consistent boundary, so both capture and restore must throw
  // logic_error rather than produce a torn state.
  fx.sys.begin_epoch();
  EXPECT_THROW((void)capture(fx.engine), std::logic_error);
  EXPECT_THROW(restore(image, fx.engine, RestoreContext{}), std::logic_error);
  for (std::size_t s = 0; s < fx.sys.live_processes().size(); ++s) {
    fx.sys.step_slot(s);
  }
  fx.sys.end_epoch();
  EXPECT_NO_THROW((void)capture(fx.engine));
}

TEST(SnapshotCorruption, UnsupportedLiveWorkloadRefusesCapture) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  sys.spawn(std::make_unique<OpaqueWorkload>());
  engine.step();
  try {
    (void)capture(engine);
    FAIL() << "capture accepted a workload without snapshot support";
  } catch (const SerialError& e) {
    EXPECT_EQ(e.code(), SerialError::Code::kUnsupportedWorkload);
  }
}

TEST(SnapshotCorruption, SectionFramingViolationsAreTyped) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  const SnapshotImage image = capture(fx.engine);
  const std::vector<std::uint8_t> bytes = encode(image);

  // Duplicate section: append a copy of everything after the header.
  std::vector<std::uint8_t> doubled = bytes;
  doubled.insert(doubled.end(), bytes.begin() + 12, bytes.end());
  EXPECT_EQ(parse_failure_code(doubled), SerialError::Code::kBadSection);

  // Missing section: header only.
  const std::vector<std::uint8_t> header(bytes.begin(), bytes.begin() + 12);
  EXPECT_EQ(parse_failure_code(header), SerialError::Code::kBadSection);
}

// Each counted table's minimum (snapshot.hpp) is what one
// default-constructed element adds to an encoding.
TEST(SnapshotCorruption, MinimumElementSizesMatchTheEncoding) {
  const std::size_t empty = encode(SnapshotImage{}).size();
  const auto added = [empty](auto grow) {
    SnapshotImage image;
    grow(image);
    return encode(image).size() - empty;
  };
  EXPECT_EQ(added([](SnapshotImage& i) { i.system.slots.emplace_back(); }),
            kMinSlotBytes);
  EXPECT_EQ(added([](SnapshotImage& i) { i.system.procs.emplace_back(); }),
            kMinRowBytes);
  EXPECT_EQ(added([](SnapshotImage& i) {
              i.system.procs.emplace_back().history.resize(3);
            }),
            kMinRowBytes + 3 * kSampleBytes);
  EXPECT_EQ(added([](SnapshotImage& i) {
              i.engine.attachments.emplace_back();
            }),
            kMinAttachmentBytes);
  EXPECT_EQ(added([](SnapshotImage& i) { i.engine.retries.emplace_back(); }),
            kMinRetryBytes);
}

std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes,
                       std::size_t at) {
  return util::ByteReader({bytes.data() + at, 8}).u64();
}

void write_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t v) {
  std::vector<std::uint8_t> word;
  util::ByteWriter(word).u64(v);
  std::copy(word.begin(), word.end(), bytes.begin() + static_cast<long>(at));
}

void write_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint32_t v) {
  std::vector<std::uint8_t> word;
  util::ByteWriter(word).u32(v);
  std::copy(word.begin(), word.end(), bytes.begin() + static_cast<long>(at));
}

// A count inflated past what its section can hold — behind a VALID CRC, so
// only the count check stands in the way — is refused as kTruncated before
// parse allocates for it: no single allocation exceeds twice the payload
// of the section carrying the count.
TEST(SnapshotCorruption, InflatedCountsAreRefusedBeforeAllocating) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture fx(detector);
  SnapshotImage image = capture(fx.engine);
  // parse does not judge retry contents; a long table keeps the retry
  // count far from the end of its section, so inflating it is a real test.
  image.engine.retries.assign(1024, RetryImage{7, 1, 0.5, 2, 99});
  const std::vector<std::uint8_t> bytes = encode(image);

  // Layout: 12-byte header, then per section a fourcc, a u64 payload
  // length, the payload and its u32 CRC.
  const std::size_t sys_at = 12 + 4 + 8;
  const std::size_t sys_len = read_u64(bytes, sys_at - 8);
  const std::size_t eng_at = sys_at + sys_len + 4 + 4 + 8;
  const std::size_t eng_len = read_u64(bytes, eng_at - 8);
  // The system payload opens with 132 bytes of fixed fields (eight
  // platform numbers, four RNG words, epoch, three flags, history
  // capacity, total spawned, a flag, retention epochs) and the retire
  // queue; slots are fixed-size. The engine payload opens with the
  // detector hash and step tag.
  const std::size_t slots_at =
      sys_at + 132 + 8 + 12 * image.system.retire_queue.size();
  const std::size_t rows_at =
      slots_at + 8 + kMinSlotBytes * image.system.slots.size();
  const std::size_t atts_at = eng_at + 16;
  std::size_t retries_at = atts_at + 8;
  for (const AttachmentImage& att : image.engine.attachments) {
    retries_at += kMinAttachmentBytes + att.monitor.actuator.type.size() +
                  att.monitor.actuator.payload.size();
  }

  struct Count {
    const char* table;
    std::size_t at;
    std::size_t actual;
    std::size_t section_at;
    std::size_t section_len;
  };
  for (const Count& c : std::initializer_list<Count>{
           {"slots", slots_at, image.system.slots.size(), sys_at, sys_len},
           {"rows", rows_at, image.system.procs.size(), sys_at, sys_len},
           {"attachments", atts_at, image.engine.attachments.size(), eng_at,
            eng_len},
           {"retries", retries_at, image.engine.retries.size(), eng_at,
            eng_len}}) {
    ASSERT_EQ(read_u64(bytes, c.at), c.actual) << c.table << " count offset";
    // The largest count a 4-bytes-per-element check would still accept.
    const std::size_t remaining = c.section_at + c.section_len - (c.at + 8);
    std::vector<std::uint8_t> bad = bytes;
    write_u64(bad, c.at, remaining / 4);
    write_u32(bad, c.section_at + c.section_len,
              util::crc32({bad.data() + c.section_at, c.section_len}));

    g_largest_allocation.store(0);
    g_tracking.store(true);
    const SerialError::Code code = parse_failure_code(bad);
    g_tracking.store(false);
    EXPECT_EQ(code, SerialError::Code::kTruncated) << c.table;
    EXPECT_LE(g_largest_allocation.load(), 2 * c.section_len) << c.table;
  }
}

// --- Attack payloads ----------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

SerialError::Code load_failure_code(const PolyImage& image) {
  try {
    (void)WorkloadRegistry::bundled().load(image);
  } catch (const SerialError& e) {
    return e.code();
  }
  throw std::runtime_error("malformed payload loaded successfully");
}

// Rowhammer payload layout: banks u32 @0, rows u32 @4, t_rc_ns f64 @8,
// refresh_interval_ms f64 @16, threshold u64 @24, flip probability f64 @32,
// victim_row u32 @40, bank u32 @44, slice_ms f64 @48, seed u64 @56,
// iterations u64 @64; then the DRAM state: RNG 4 x u64 @72, clock f64 @104,
// window u64 @112, activations u64 @120, disturbance count u64 @128 and its
// (index, count) pairs, then the flip count and (bank u32, row u32, window
// u64) records.
constexpr std::size_t kRhRows = 4;
constexpr std::size_t kRhVictim = 40;
constexpr std::size_t kRhClock = 104;
constexpr std::size_t kRhWindow = 112;
constexpr std::size_t kRhEntries = 128;

/// A default rowhammer after two full-share epochs: a nonzero disturbance
/// table in its current window and a non-empty flip log.
PolyImage hammered_rowhammer() {
  attacks::RowhammerAttack attack;
  util::Rng rng(3);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  for (int e = 0; e < 2; ++e) attack.run_epoch(sim::ResourceShares{}, ctx);
  EXPECT_GT(attack.dram().total_bit_flips(), 0u);
  return poly_image(attack);
}

TEST(SnapshotCorruption, RowhammerPayloadOutsideItsGeometryIsRefused) {
  const PolyImage good = hammered_rowhammer();
  ASSERT_NO_THROW((void)WorkloadRegistry::bundled().load(good));
  const std::vector<std::uint8_t>& bytes = good.payload;
  const std::uint32_t rows =
      util::ByteReader({bytes.data() + kRhRows, 4}).u32();
  const std::size_t entries = read_u64(bytes, kRhEntries);
  ASSERT_GE(entries, 2u);
  const std::size_t first_entry = kRhEntries + 8;
  const std::size_t flips_at = first_entry + 16 * entries;
  ASSERT_GT(read_u64(bytes, flips_at), 0u);

  const std::uint64_t window = read_u64(bytes, kRhWindow);
  const std::uint64_t first_index = read_u64(bytes, first_entry);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  struct Patch {
    const char* what;
    std::size_t at;
    bool wide;  // u64/f64, else u32
    std::uint64_t value;
  };
  const Patch patches[] = {
      {"victim row 0 (upper aggressor row 0xffffffff)", kRhVictim, false, 0},
      {"victim row on the last row", kRhVictim, false, rows - 1},
      {"victim row 0xffffffff (+ 2 wraps to 1)", kRhVictim, false,
       0xffffffffu},
      {"victim row 0xfffffffe (+ 2 wraps to 0)", kRhVictim, false,
       0xfffffffeu},
      {"bank past the bank count", kRhVictim + 4, false, 8},
      {"zero banks", 0, false, 0},
      {"nine banks, one past kMaxRows", 0, false, 9},
      {"two rows per bank", kRhRows, false, 2},
      {"NaN row cycle", 8, true, bits(std::nan(""))},
      {"row cycle just below kMinRowCycleNs", 8, true,
       bits(std::nextafter(attacks::kMinRowCycleNs, 0.0))},
      {"zero refresh interval", 16, true, bits(0.0)},
      {"flip probability above 1", 32, true, bits(1.5)},
      {"infinite slice", 48, true, bits(kInf)},
      {"slice just below kMinSliceMs", 48, true,
       bits(std::nextafter(attacks::kMinSliceMs, 0.0))},
      {"slice just above kMaxSliceMs", 48, true,
       bits(std::nextafter(attacks::kMaxSliceMs, kInf))},
      {"NaN clock", kRhClock, true, bits(std::nan(""))},
      {"negative clock", kRhClock, true, bits(-1.0)},
      {"clock outside the stored window", kRhWindow, true, window + 1},
      {"repeated disturbance index", first_entry + 16, true, first_index},
      {"zero disturbance count", first_entry + 8, true, 0},
      {"flip outside the geometry", flips_at + 8 + 4, false, rows},
  };
  for (const Patch& patch : patches) {
    PolyImage bad = good;
    if (patch.wide) {
      write_u64(bad.payload, patch.at, patch.value);
    } else {
      write_u32(bad.payload, patch.at, static_cast<std::uint32_t>(patch.value));
    }
    EXPECT_EQ(load_failure_code(bad), SerialError::Code::kMalformed)
        << patch.what;
  }
}

// A geometry of 2^32 - 1 banks x 2^32 - 1 rows is refused as kMalformed
// before the DRAM table is allocated, not as a std::length_error from it.
TEST(SnapshotCorruption, HugeDramGeometryIsRefusedBeforeAllocating) {
  PolyImage bad = poly_image(attacks::RowhammerAttack{});
  write_u32(bad.payload, 0, 0xffffffffu);
  write_u32(bad.payload, kRhRows, 0xffffffffu);
  g_largest_allocation.store(0);
  g_tracking.store(true);
  const SerialError::Code code = load_failure_code(bad);
  g_tracking.store(false);
  EXPECT_EQ(code, SerialError::Code::kMalformed);
  // Far below even the default geometry's 2 MiB table.
  EXPECT_LE(g_largest_allocation.load(), std::size_t{1} << 16);
}

// At the cap a payload costs what a default rowhammer does: restore's
// largest allocation is the kMaxRows-counter table. One row more is refused.
TEST(SnapshotCorruption, DramGeometryAtTheCapAllocatesOnlyItsTable) {
  attacks::RowhammerConfig config;
  config.dram.banks = 1;
  config.dram.rows_per_bank = dram::kMaxRows;
  const PolyImage at_cap = poly_image(attacks::RowhammerAttack(config));
  g_largest_allocation.store(0);
  g_tracking.store(true);
  const std::unique_ptr<sim::Workload> loaded =
      WorkloadRegistry::bundled().load(at_cap);
  g_tracking.store(false);
  EXPECT_EQ(g_largest_allocation.load(),
            dram::kMaxRows * sizeof(std::uint64_t));

  PolyImage past_cap = at_cap;
  write_u32(past_cap.payload, kRhRows, config.dram.rows_per_bank + 1);
  EXPECT_EQ(load_failure_code(past_cap), SerialError::Code::kMalformed);
}

TEST(SnapshotCorruption, AttackPayloadsThatSizeEpochWorkOutOfRangeAreRefused) {
  // Ransomware: name (u64 length + bytes), then cpu_bytes_per_second,
  // files_per_epoch, mean_file_bytes (f64) and max_real_crypt_bytes (u64).
  const PolyImage ransomware = poly_image(attacks::RansomwareAttack{});
  const std::size_t rw = 8 + read_u64(ransomware.payload, 0);
  // Cryptominer: name, hashes_per_second (f64), real_hashes_per_epoch and
  // difficulty_bits (i64).
  const PolyImage miner = poly_image(attacks::CryptominerAttack{});
  const std::size_t cm = 8 + read_u64(miner.payload, 0);

  struct Patch {
    const char* what;
    const PolyImage* base;
    std::size_t at;
    std::uint64_t bits;
  };
  const Patch patches[] = {
      {"NaN cipher rate", &ransomware, rw,
       std::bit_cast<std::uint64_t>(std::nan(""))},
      {"negative file rate", &ransomware, rw + 8,
       std::bit_cast<std::uint64_t>(-1.0)},
      {"zero mean file size", &ransomware, rw + 16,
       std::bit_cast<std::uint64_t>(0.0)},
      {"2^40-byte slice", &ransomware, rw + 24, std::uint64_t{1} << 40},
      {"slice one byte past kMaxRealCryptBytes", &ransomware, rw + 24,
       attacks::kMaxRealCryptBytes + 1},
      {"infinite hash rate", &miner, cm,
       std::bit_cast<std::uint64_t>(kInf)},
      {"negative real hashes", &miner, cm + 8, ~std::uint64_t{0}},
      {"2^32 + 512 real hashes", &miner, cm + 8, (std::uint64_t{1} << 32) + 512},
      {"2^20 real hashes", &miner, cm + 8, std::uint64_t{1} << 20},
      {"one real hash past kMaxRealHashesPerEpoch", &miner, cm + 8,
       attacks::kMaxRealHashesPerEpoch + 1},
      {"300 difficulty bits", &miner, cm + 16, 300},
  };
  // Each cap itself loads.
  PolyImage at_cap = ransomware;
  write_u64(at_cap.payload, rw + 24, attacks::kMaxRealCryptBytes);
  EXPECT_NO_THROW((void)WorkloadRegistry::bundled().load(at_cap));
  at_cap = miner;
  write_u64(at_cap.payload, cm + 8, attacks::kMaxRealHashesPerEpoch);
  EXPECT_NO_THROW((void)WorkloadRegistry::bundled().load(at_cap));

  for (const Patch& patch : patches) {
    ASSERT_NO_THROW((void)WorkloadRegistry::bundled().load(*patch.base));
    PolyImage bad = *patch.base;
    write_u64(bad.payload, patch.at, patch.bits);
    EXPECT_EQ(load_failure_code(bad), SerialError::Code::kMalformed)
        << patch.what;
  }
}

// The whole path: a rowhammer payload patched inside a full image whose
// CRCs are valid parses (parse is registry-free), and restore refuses it
// with kMalformed and leaves the target untouched.
TEST(SnapshotCorruption, PatchedRowhammerInAValidImageIsRefusedByRestore) {
  const ml::SvmDetector detector = ml::SvmDetector::make(tiny_corpus(), 3);
  Fixture source(detector);
  source.sys.spawn(std::make_unique<attacks::RowhammerAttack>());
  source.engine.step();
  SnapshotImage image = capture(source.engine);
  bool patched = false;
  for (ProcImage& proc : image.system.procs) {
    if (proc.workload.type == "attack.rowhammer") {
      write_u32(proc.workload.payload, kRhVictim, 0);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  const SnapshotImage parsed = parse(encode(image));

  Fixture target(detector);
  const std::vector<std::uint8_t> before = encode(capture(target.engine));
  try {
    restore(parsed, target.engine, RestoreContext{});
    FAIL() << "restore accepted a rowhammer with victim row 0";
  } catch (const SerialError& e) {
    EXPECT_EQ(e.code(), SerialError::Code::kMalformed);
  }
  EXPECT_EQ(before, encode(capture(target.engine)));
}

}  // namespace
}  // namespace valkyrie::snapshot
