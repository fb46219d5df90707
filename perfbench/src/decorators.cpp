#include "decorators.h"

#include <chrono>

#include "rocpanda/wire.h"

namespace perfbench {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

using roc::vfs::File;

class TimedFile final : public File {
 public:
  TimedFile(std::unique_ptr<File> inner, VfsCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  ~TimedFile() override {
    // Closing flushes stdio's last buffer: part of the flush cost.
    const uint64_t t0 = now_ns();
    inner_.reset();
    counters_.add(VfsStat::kFlushNs, now_ns() - t0);
  }
  TimedFile(const TimedFile&) = delete;
  TimedFile& operator=(const TimedFile&) = delete;

  void write(const void* data, size_t n) override {
    const uint64_t t0 = now_ns();
    inner_->write(data, n);
    wrote(n, now_ns() - t0);
  }

  void writev(std::span<const roc::ConstBuffer> segments) override {
    uint64_t n = 0;
    for (const roc::ConstBuffer& s : segments) n += s.size;
    const uint64_t t0 = now_ns();
    inner_->writev(segments);
    wrote(n, now_ns() - t0);
  }

  void read(void* out, size_t n) override {
    const uint64_t t0 = now_ns();
    inner_->read(out, n);
    counters_.add(VfsStat::kReadNs, now_ns() - t0);
    counters_.add(VfsStat::kReadOps, 1);
    counters_.add(VfsStat::kReadBytes, n);
  }

  void seek(uint64_t pos) override { inner_->seek(pos); }
  [[nodiscard]] uint64_t tell() const override { return inner_->tell(); }
  [[nodiscard]] uint64_t size() const override { return inner_->size(); }

  void flush() override {
    const uint64_t t0 = now_ns();
    inner_->flush();
    counters_.add(VfsStat::kFlushNs, now_ns() - t0);
  }

 private:
  void wrote(uint64_t bytes, uint64_t ns) {
    counters_.add(VfsStat::kWriteNs, ns);
    counters_.add(VfsStat::kWriteOps, 1);
    counters_.add(VfsStat::kWriteBytes, bytes);
  }

  std::unique_ptr<File> inner_;
  VfsCounters& counters_;
};

}  // namespace

std::unique_ptr<File> TimedFileSystem::open(const std::string& path,
                                            roc::vfs::OpenMode mode) {
  const uint64_t t0 = now_ns();
  auto file = inner_.open(path, mode);
  counters_.add(VfsStat::kOpenNs, now_ns() - t0);
  return std::make_unique<TimedFile>(std::move(file), counters_);
}

void TimedComm::count(int tag, uint64_t bytes, CommStat timer, uint64_t ns) {
  if (tag >= roc::comm::kReservedTagBase) return;
  counters_.add(timer, ns);
  counters_.add(CommStat::kMessages, 1);
  counters_.add(CommStat::kBytes, bytes);
}

void TimedComm::send(int dest, int tag, const void* data, size_t n) {
  const uint64_t t0 = now_ns();
  inner_->send(dest, tag, data, n);
  count(tag, n, CommStat::kSendNs, now_ns() - t0);
}

void TimedComm::send(int dest, int tag, roc::SharedBuffer buf) {
  const uint64_t n = buf.size();
  const uint64_t t0 = now_ns();
  inner_->send(dest, tag, std::move(buf));
  count(tag, n, CommStat::kSendNs, now_ns() - t0);
}

void TimedComm::sendv(int dest, int tag, const roc::BufferChain& chain) {
  const uint64_t t0 = now_ns();
  inner_->sendv(dest, tag, chain);
  count(tag, chain.total_bytes(), CommStat::kSendvNs, now_ns() - t0);
}

roc::comm::Message TimedComm::recv(int source, int tag) {
  const uint64_t t0 = now_ns();
  roc::comm::Message m = inner_->recv(source, tag);
  const uint64_t ns = now_ns() - t0;
  if (m.tag < roc::comm::kReservedTagBase) {
    counters_.add(CommStat::kRecvNs, ns);
    if (m.tag == roc::rocpanda::kTagWriteAck)
      counters_.add(CommStat::kAckWaitNs, ns);
  }
  return m;
}

std::unique_ptr<roc::comm::Comm> TimedComm::split(int color, int key) {
  auto inner = inner_->split(color, key);
  if (!inner) return nullptr;
  return std::make_unique<TimedComm>(std::move(inner), counters_);
}

}  // namespace perfbench
