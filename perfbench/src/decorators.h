#pragma once
/// \file decorators.h
/// \brief Timing and counting decorators for the two interfaces the I/O
/// services accept: vfs::FileSystem and comm::Comm.
///
/// The traced run slips one of each between the services and the real
/// substrate (PosixFileSystem, ThreadComm), so the layer budget is measured
/// from outside the program.  The untraced run uses the substrate directly
/// and pays nothing.  Counters are shared by every decorator instance of one
/// deployment role and are read only at quiescent phase boundaries.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "vfs/vfs.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] uint64_t now_ns();

/// A fixed set of relaxed atomic counters indexed by an enum.
template <typename Index, size_t N = static_cast<size_t>(Index::kCount)>
class Counters {
 public:
  /// A plain copy, taken at a phase boundary.
  struct Values {
    std::array<uint64_t, N> v{};
    [[nodiscard]] uint64_t operator[](Index i) const {
      return v[static_cast<size_t>(i)];
    }
    Values& operator+=(const Values& o) {
      for (size_t i = 0; i < N; ++i) v[i] += o.v[i];
      return *this;
    }
  };

  [[nodiscard]] Values values() const {
    Values out;
    for (size_t i = 0; i < N; ++i)
      out.v[i] = v_[i].load(std::memory_order_relaxed);
    return out;
  }
  void add(Index i, uint64_t n) {
    v_[static_cast<size_t>(i)].fetch_add(n, std::memory_order_relaxed);
  }
  void reset() {
    for (auto& a : v_) a.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, N> v_{};
};

enum class VfsStat {
  kWriteOps, kWriteBytes, kWriteNs,
  kReadOps, kReadBytes, kReadNs,
  kOpenNs,
  kFlushNs,  ///< flush() plus closing the file (stdio's final flush)
  kCount
};
using VfsCounters = Counters<VfsStat>;

/// Only the services' protocol traffic is counted (tags below
/// comm::kReservedTagBase); the collectives the benchmark itself uses to pace
/// the ranks are forwarded but not counted.
enum class CommStat {
  kMessages, kBytes,
  kSendNs,     ///< send() of contiguous or shared buffers
  kSendvNs,    ///< sendv(): the gather copy plus the enqueue
  kRecvNs,     ///< time blocked in recv()
  kAckWaitNs,  ///< the part of kRecvNs spent waiting for a write ack
  kCount
};
using CommCounters = Counters<CommStat>;

/// vfs::FileSystem decorator: times open, and wraps every file it opens.
class TimedFileSystem final : public roc::vfs::FileSystem {
 public:
  TimedFileSystem(roc::vfs::FileSystem& inner, VfsCounters& counters)
      : inner_(inner), counters_(counters) {}

  std::unique_ptr<roc::vfs::File> open(const std::string& path,
                                       roc::vfs::OpenMode mode) override;
  bool exists(const std::string& path) override { return inner_.exists(path); }
  void remove(const std::string& path) override { inner_.remove(path); }
  std::vector<std::string> list(const std::string& prefix) override {
    return inner_.list(prefix);
  }

 private:
  roc::vfs::FileSystem& inner_;
  VfsCounters& counters_;
};

/// comm::Comm decorator.  split() results are wrapped too, so traffic on
/// derived communicators lands in the same counters.
class TimedComm final : public roc::comm::Comm {
 public:
  TimedComm(roc::comm::Comm& inner, CommCounters& counters)
      : inner_(&inner), counters_(counters) {}
  TimedComm(std::unique_ptr<roc::comm::Comm> owned, CommCounters& counters)
      : owned_(std::move(owned)), inner_(owned_.get()), counters_(counters) {}

  [[nodiscard]] int rank() const override { return inner_->rank(); }
  [[nodiscard]] int size() const override { return inner_->size(); }

  using Comm::send;
  void send(int dest, int tag, const void* data, size_t n) override;
  void send(int dest, int tag, roc::SharedBuffer buf) override;
  void sendv(int dest, int tag, const roc::BufferChain& chain) override;
  [[nodiscard]] roc::comm::Message recv(int source, int tag) override;
  bool iprobe(int source, int tag, roc::comm::Status* st) override {
    return inner_->iprobe(source, tag, st);
  }
  roc::comm::Status probe(int source, int tag) override {
    return inner_->probe(source, tag);
  }
  [[nodiscard]] std::unique_ptr<roc::comm::Comm> split(int color,
                                                       int key) override;

 private:
  void count(int tag, uint64_t bytes, CommStat timer, uint64_t ns);

  std::unique_ptr<roc::comm::Comm> owned_;
  roc::comm::Comm* inner_;
  CommCounters& counters_;
};

}  // namespace perfbench
