#include "snapshot/snapshotter.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "sim/scenario.hpp"
#include "util/serial.hpp"

namespace valkyrie::snapshot {

Snapshotter::Snapshotter(Sink sink)
    : Snapshotter(sink == nullptr ? TaggedSink{}
                                  : TaggedSink([sink = std::move(sink)](
                                                   std::vector<std::uint8_t> b,
                                                   std::uint64_t) {
                                      sink(std::move(b));
                                    })) {}

Snapshotter::Snapshotter(TaggedSink sink) : sink_(std::move(sink)) {
  if (sink_ == nullptr) {
    throw std::invalid_argument("Snapshotter: null sink");
  }
  spare_.reserve(kMaxInFlight);
  worker_ = std::thread([this] { worker_loop(); });
}

Snapshotter::~Snapshotter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void Snapshotter::request(const core::ValkyrieEngine& engine,
                          std::uint64_t tag) {
  capture_and_enqueue(engine, tag);
}

void Snapshotter::request(const sim::ScenarioDriver& driver,
                          std::uint64_t tag) {
  capture_and_enqueue(driver, tag);
}

template <class World>
void Snapshotter::capture_and_enqueue(const World& world, std::uint64_t tag) {
  SnapshotImage image = lend_image();
  try {
    capture(world, image);
  } catch (...) {
    return_image(std::move(image));
    throw;
  }
  enqueue(std::move(image), tag);
}

SnapshotImage Snapshotter::lend_image() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spare_.empty()) return {};
  SnapshotImage image = std::move(spare_.back());
  spare_.pop_back();
  return image;
}

void Snapshotter::return_image(SnapshotImage image) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spare_.size() < kMaxInFlight) spare_.push_back(std::move(image));
}

void Snapshotter::enqueue(SnapshotImage image, std::uint64_t tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [this] {
    return queue_.size() + (encoding_ ? 1 : 0) < kMaxInFlight;
  });
  if (error_ != nullptr) {
    // A previous snapshot failed to encode or persist: surface it to the
    // producer rather than silently dropping snapshots on the floor.
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }
  queue_.push_back(Pending{std::move(image), tag});
  work_cv_.notify_one();
}

void Snapshotter::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [this] { return queue_.empty() && !encoding_; });
  if (error_ != nullptr) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }
}

std::uint64_t Snapshotter::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

std::exception_ptr Snapshotter::take_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(error_, nullptr);
}

void Snapshotter::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
      encoding_ = true;
      // The popped slot is not free yet (the image is being encoded), but
      // a producer blocked on the queue bound may now hold the other slot.
      space_cv_.notify_all();
    }
    std::exception_ptr failure;
    try {
      std::vector<std::uint8_t> bytes = encode(pending.image);
      sink_(std::move(bytes), pending.tag);
    } catch (...) {
      // Uncaught, this would std::terminate the process from the worker
      // thread. Park it for the next producer call instead (latest failure
      // wins; a stale earlier one has already been superseded).
      failure = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      encoding_ = false;
      if (failure != nullptr) {
        error_ = std::move(failure);
      } else {
        ++completed_;
      }
      // Kept for the next capture; an image beyond the bound is freed at
      // the end of this iteration, outside the lock.
      if (spare_.size() < kMaxInFlight) {
        spare_.push_back(std::move(pending.image));
      }
    }
    space_cv_.notify_all();
  }
}

namespace {

[[noreturn]] void throw_io(const std::string& op, const std::string& target,
                           int err) {
  throw util::SerialError(util::SerialError::Code::kIo,
                          "file_sink: " + op + " failed for " + target +
                              ": " + std::strerror(err));
}

}  // namespace

Snapshotter::Sink file_sink(std::string path) {
  // Durability order matters: the data must be ON DISK before the rename
  // makes it the current snapshot, or a crash between rename and writeback
  // leaves `path` pointing at a hole — worse than the previous snapshot it
  // replaced. So: write tmp, fsync tmp, close, rename. (Directory-entry
  // durability of the rename itself is the filesystem's journal problem;
  // the guarantee this sink needs is "path never names a torn file".)
  return [path = std::move(path)](std::vector<std::uint8_t> bytes) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_io("open", tmp, errno);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        std::remove(tmp.c_str());
        throw_io("write", tmp, err);
      }
      off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      throw_io("fsync", tmp, err);
    }
    if (::close(fd) != 0) {
      const int err = errno;
      std::remove(tmp.c_str());
      throw_io("close", tmp, err);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      const int err = errno;
      std::remove(tmp.c_str());
      throw_io("rename", path, err);
    }
  };
}

}  // namespace valkyrie::snapshot
