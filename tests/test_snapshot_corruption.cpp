// Corruption robustness of the snapshot format: truncated, bit-flipped,
// foreign and future-versioned byte streams must fail parse/restore with a
// TYPED SnapshotError — never undefined behaviour — and a failed restore
// must leave the target engine untouched (all-or-nothing).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
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

ml::TraceSet tiny_corpus() {
  util::Rng rng(0xfeed);
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
  explicit Fixture(const ml::SvmDetector& detector)
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

}  // namespace
}  // namespace valkyrie::snapshot
