#include "sim/sim_fs.h"

#include <algorithm>
#include <cmath>

#include "telemetry/trace.h"
#include "util/check_hooks.h"

namespace roc::sim {

namespace {

class SimFile final : public vfs::File {
 public:
  SimFile(SimFileSystem* fs, std::unique_ptr<vfs::File> backing, bool writer)
      : fs_(fs), backing_(std::move(backing)), writer_(writer) {}

  ~SimFile() override {
    if (writer_) --fs_->active_writers_;
    // Close cost: charge the channel without blocking the (possibly
    // already destructing) caller beyond the occupancy.
    const double cost = fs_->sim_.platform().fs.close_cost;
    if (cost > 0) (void)fs_->reserve_channel(writer_, cost);
  }

  void writev(std::span<const ConstBuffer> segments) override {
    // Spans cover entry to experience(end): the op's modelled duration in
    // virtual time, including channel queueing (same category/names as the
    // PosixFile spans so timeline.h treats both substrates identically).
    ROC_TRACE_SPAN("vfs", "write");
    ROC_CHECK_PREEMPT("vfs.write");
    // A gather is one logical operation: one op overhead for the whole
    // chain (this is the point of File::writev), bandwidth for every byte.
    uint64_t n = 0;
    for (const ConstBuffer& s : segments) n += s.size;
    const FsParams& p = fs_->sim_.platform().fs;
    const double scaled =
        static_cast<double>(n) * fs_->sim_.platform().byte_scale;
    const double cost =
        p.write_op_overhead * fs_->write_contention_multiplier() +
        scaled / p.write_bandwidth;
    const double end = fs_->reserve_channel(/*write=*/true, cost);
    fs_->stats_.write_ops++;
    fs_->stats_.bytes_written += n;
    fs_->stats_.busy_write_seconds += cost;
    backing_->writev(segments);
    fs_->experience(end);
  }

  void read(void* out, size_t n) override {
    ROC_TRACE_SPAN("vfs", "read");
    const FsParams& p = fs_->sim_.platform().fs;
    const double scaled =
        static_cast<double>(n) * fs_->sim_.platform().byte_scale;
    const double cost = p.read_op_overhead + scaled / p.read_bandwidth;
    const double end = fs_->reserve_channel(/*write=*/false, cost);
    fs_->stats_.read_ops++;
    fs_->stats_.bytes_read += n;
    backing_->read(out, n);
    fs_->experience(end);
  }

  void seek(uint64_t pos) override { backing_->seek(pos); }
  uint64_t tell() const override { return backing_->tell(); }
  uint64_t size() const override { return backing_->size(); }
  void flush() override { backing_->flush(); }

 private:
  SimFileSystem* fs_;
  std::unique_ptr<vfs::File> backing_;
  bool writer_;
};

}  // namespace

SimFileSystem::SimFileSystem(Simulation& sim) : sim_(sim) {
  require(sim_.platform().fs.write_channels >= 1 &&
              sim_.platform().fs.read_channels >= 1,
          "file system needs at least one channel");
}

SimFileSystem::SimFileSystem(Simulation& sim, vfs::MemFileSystem backing)
    : sim_(sim), backing_(std::move(backing)) {
  require(sim_.platform().fs.write_channels >= 1 &&
              sim_.platform().fs.read_channels >= 1,
          "file system needs at least one channel");
}

double SimFileSystem::write_contention_multiplier() const {
  const FsParams& p = sim_.platform().fs;
  if (p.contention_a <= 0 || active_writers_ <= 0) return 1.0;
  const double x = active_writers_ / p.contention_c0;
  return 1.0 + p.contention_a * std::pow(x, p.contention_p) *
                   std::exp(p.contention_p * (1.0 - x));
}

double SimFileSystem::reserve_channel(bool write, double cost) {
  const FsParams& p = sim_.platform().fs;
  const int n = write ? p.write_channels : p.read_channels;
  const char* kind = write ? "fsw:" : "fsr:";
  // Least-busy channel.
  double* best = nullptr;
  for (int i = 0; i < n; ++i) {
    double& ch = sim_.resource(kind + std::to_string(i));
    if (best == nullptr || ch < *best) best = &ch;
  }
  const double start = std::max(sim_.now(), *best);
  *best = start + cost;
  return start + cost;
}

void SimFileSystem::experience(double end) {
  const double frac = sim_.platform().fs.cpu_fraction;
  const double now = sim_.now();
  const double span = std::max(0.0, end - now);
  ProcContext ctx = sim_.current_context();
  if (span <= 0) return;
  if (frac > 0) ctx.wait_until(now + span * frac, /*cpu_busy=*/true);
  ctx.wait_until(end, /*cpu_busy=*/false);
}

std::unique_ptr<vfs::File> SimFileSystem::open(const std::string& path,
                                               vfs::OpenMode mode) {
  ROC_TRACE_SPAN("vfs", "open");
  const bool writer = mode != vfs::OpenMode::kRead;
  const double cost = sim_.platform().fs.open_cost;
  const double end = reserve_channel(writer, cost);
  ++stats_.opens;
  auto backing = backing_.open(path, mode);  // may throw before charging CPU
  experience(end);
  if (writer) ++active_writers_;
  return std::make_unique<SimFile>(this, std::move(backing), writer);
}

bool SimFileSystem::exists(const std::string& path) {
  return backing_.exists(path);
}

void SimFileSystem::remove(const std::string& path) {
  backing_.remove(path);
}

std::vector<std::string> SimFileSystem::list(const std::string& prefix) {
  return backing_.list(prefix);
}

}  // namespace roc::sim
