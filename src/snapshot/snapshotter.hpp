// Snapshotter: takes the expensive half of snapshotting off the engine
// thread.
//
// capture() is a structured copy — O(state) but allocation-light and cheap
// enough for an epoch boundary. encode() (byte packing + CRC32 over every
// section) is the part worth hiding, so the Snapshotter runs it on its own
// worker thread: the engine thread calls request(), which captures the
// image synchronously (the engine must not advance mid-copy — that is what
// epoch consistency means) and hands it to the worker, which encodes and
// delivers the bytes to the sink. A bounded two-image queue keeps memory
// flat; request() blocks only when BOTH buffers are still in flight, i.e.
// snapshots are being requested faster than they encode.
//
// Encoded images are kept, up to kMaxInFlight of them, and the next
// request() captures into one, so a steady checkpoint cadence reuses the
// same tables and payloads instead of allocating and first-touching a
// fresh image each time. lend_image()/return_image() share the kept
// images with other users of a structured image, such as a supervisor
// parsing a checkpoint for recovery. Only images are kept, never byte
// buffers: the sink owns those.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace valkyrie::snapshot {

class Snapshotter {
 public:
  /// Receives the encoded snapshot bytes on the worker thread. Must be
  /// thread-safe with respect to the caller's world; the Snapshotter
  /// serializes its own invocations (one at a time, request order).
  using Sink = std::function<void(std::vector<std::uint8_t>)>;

  /// As Sink, plus the tag the producer passed to request(). The tag rides
  /// WITH the image through the queue, so a request that dies before
  /// reaching the sink (encode failure, parked and dropped) can never
  /// shift a later delivery onto the wrong tag — which a producer-side
  /// "pop the front on delivery" queue cannot guarantee.
  using TaggedSink =
      std::function<void(std::vector<std::uint8_t>, std::uint64_t)>;

  explicit Snapshotter(Sink sink);
  explicit Snapshotter(TaggedSink sink);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Captures the engine (epoch-consistent, synchronous) and queues the
  /// image for background encoding. Blocks while two images are already
  /// in flight. Throws what capture() throws (open epoch, unsupported
  /// workload) — nothing is queued on failure. `tag` is delivered to a
  /// TaggedSink alongside this image's bytes (ignored by a plain Sink).
  void request(const core::ValkyrieEngine& engine, std::uint64_t tag = 0);

  /// As above, with the scenario driver's section included.
  void request(const sim::ScenarioDriver& driver, std::uint64_t tag = 0);

  /// Blocks until every queued image has been encoded and delivered.
  /// Rethrows here (or at the next request()) anything the sink threw on
  /// the worker thread — e.g. file_sink's typed SerialError(kIo) — so disk
  /// failures surface on the engine thread instead of terminating the
  /// process.
  void flush();

  /// Snapshots delivered to the sink so far.
  [[nodiscard]] std::uint64_t completed() const;

  /// Hands out a kept image to fill (capture, parse), or a fresh one when
  /// none is free; pass it back with return_image() so the next request()
  /// reuses it.
  [[nodiscard]] SnapshotImage lend_image();

  /// Takes an image back into the kept set (dropped once kMaxInFlight are
  /// kept). Its contents do not matter: every fill overwrites all of it.
  void return_image(SnapshotImage image);

  /// Non-blocking poll: returns (and clears) any parked encode/sink
  /// failure without waiting for the queue to drain. Lets a supervisor
  /// surface checkpoint failures at its next step instead of only at the
  /// next flush()/request() — nullptr when nothing is parked.
  [[nodiscard]] std::exception_ptr take_error();

 private:
  struct Pending {
    SnapshotImage image;
    std::uint64_t tag = 0;
  };

  template <class World>
  void capture_and_enqueue(const World& world, std::uint64_t tag);
  void enqueue(SnapshotImage image, std::uint64_t tag);
  void worker_loop();

  TaggedSink sink_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // signals the worker: queue non-empty
  std::condition_variable space_cv_;  // signals producers: slot free / idle
  std::deque<Pending> queue_;         // bounded at kMaxInFlight
  std::vector<SnapshotImage> spare_;  // encoded images kept for reuse
  std::exception_ptr error_;          // sink/encode failure awaiting rethrow
  std::uint64_t completed_ = 0;
  bool encoding_ = false;  // worker is between pop and sink delivery
  bool stop_ = false;
  std::thread worker_;

  static constexpr std::size_t kMaxInFlight = 2;
};

/// Convenience sink that atomically replaces `path` with each snapshot
/// (write to `path`.tmp, then rename) — a crash mid-write leaves the
/// previous snapshot intact, which is the whole point of taking one.
[[nodiscard]] Snapshotter::Sink file_sink(std::string path);

}  // namespace valkyrie::snapshot
