#include "vfs/vfs.h"

#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "telemetry/trace.h"
#include "util/mutex.h"

namespace roc::vfs {

// ---------------------------------------------------------------------------
// PosixFileSystem
// ---------------------------------------------------------------------------

namespace {

class PosixFile final : public File {
 public:
  PosixFile(std::FILE* f, std::string path) : f_(f), path_(std::move(path)) {}
  ~PosixFile() override {
    if (f_) std::fclose(f_);
  }
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  void write(const void* data, size_t n) override {
    if (n == 0) return;
    ROC_TRACE_SPAN("vfs", "write");
    // ROCANALYZE-ALLOW(r10-cold-escape,r8-hotpath-alloc): why: stdio IS the posix backend's buffered write; the string is its failure path.
    if (std::fwrite(data, 1, n, f_) != n)
      throw IoError("short write to " + path_);
  }

  void writev(std::span<const ConstBuffer> segments) override {
    ROC_TRACE_SPAN("vfs", "writev");
    // One vectored syscall instead of a copy into a staging buffer plus one
    // fwrite.  The stream position is reconciled around the raw-fd write:
    // fflush drains stdio's buffer (leaving the fd offset at the logical
    // cursor), ::writev advances the fd, and the final fseek re-syncs stdio.
    uint64_t total = 0;
    std::vector<struct iovec> iov;
    iov.reserve(segments.size());
    for (const ConstBuffer& s : segments) {
      if (s.size == 0) continue;
      iov.push_back({const_cast<unsigned char*>(s.data), s.size});
      total += s.size;
    }
    if (total == 0) return;
    const uint64_t pos = tell();
    if (std::fflush(f_) != 0) throw IoError("flush failed on " + path_);
    const int fd = fileno(f_);
    size_t i = 0;
    while (i < iov.size()) {
      const size_t batch = std::min<size_t>(iov.size() - i, IOV_MAX);
      ssize_t w = ::writev(fd, iov.data() + i, static_cast<int>(batch));
      if (w < 0) throw IoError("vectored write failed on " + path_);
      // Consume fully-written segments; trim a partially-written one.
      auto left = static_cast<size_t>(w);
      while (left > 0 && left >= iov[i].iov_len) {
        left -= iov[i].iov_len;
        ++i;
      }
      if (left > 0) {
        iov[i].iov_base = static_cast<unsigned char*>(iov[i].iov_base) + left;
        iov[i].iov_len -= left;
      }
    }
    if (std::fseek(f_, static_cast<long>(pos + total), SEEK_SET) != 0)
      throw IoError("seek failed on " + path_);
  }

  void read(void* out, size_t n) override {
    if (n == 0) return;
    ROC_TRACE_SPAN("vfs", "read");
    if (std::fread(out, 1, n, f_) != n)
      throw IoError("short read from " + path_);
  }

  void seek(uint64_t pos) override {
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: seek-failure error path only.
    if (std::fseek(f_, static_cast<long>(pos), SEEK_SET) != 0)
      throw IoError("seek failed on " + path_);
  }

  uint64_t tell() const override {
    long p = std::ftell(f_);
    if (p < 0) throw IoError("tell failed on " + path_);
    return static_cast<uint64_t>(p);
  }

  uint64_t size() const override {
    long cur = std::ftell(f_);
    std::fseek(f_, 0, SEEK_END);
    long end = std::ftell(f_);
    std::fseek(f_, cur, SEEK_SET);
    if (end < 0) throw IoError("size query failed on " + path_);
    return static_cast<uint64_t>(end);
  }

  void flush() override {
    ROC_TRACE_SPAN("vfs", "flush");
    // ROCANALYZE-ALLOW(r10-cold-escape,r8-hotpath-alloc): why: fflush IS the posix flush; the string is its failure path.
    if (std::fflush(f_) != 0) throw IoError("flush failed on " + path_);
  }

 private:
  std::FILE* f_;
  std::string path_;
};

}  // namespace

PosixFileSystem::PosixFileSystem(std::string root) : root_(std::move(root)) {
  if (!root_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(root_, ec);
    if (ec) throw IoError("cannot create root directory " + root_);
    if (root_.back() != '/') root_ += '/';
  }
}

std::string PosixFileSystem::full(const std::string& path) const {
  return root_ + path;
}

std::unique_ptr<File> PosixFileSystem::open(const std::string& path,
                                            OpenMode mode) {
  const std::string f = full(path);
  ROC_TRACE_SPAN("vfs", "open");
  const char* flags = nullptr;
  switch (mode) {
    case OpenMode::kRead: flags = "rb"; break;
    case OpenMode::kTruncate: flags = "w+b"; break;
    case OpenMode::kReadWrite: flags = "r+b"; break;
  }
  std::FILE* fp = std::fopen(f.c_str(), flags);
  if (!fp) throw IoError("cannot open " + f);
  return std::make_unique<PosixFile>(fp, f);
}

bool PosixFileSystem::exists(const std::string& path) {
  return std::filesystem::exists(full(path));
}

void PosixFileSystem::remove(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(full(path), ec);
}

std::vector<std::string> PosixFileSystem::list(const std::string& prefix) {
  // Paths are flat relative names under root_; walk root_ and filter.
  std::vector<std::string> out;
  const std::string base = root_.empty() ? "." : root_;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(base, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    std::string rel = it->path().string();
    if (!root_.empty() && rel.rfind(root_, 0) == 0) rel = rel.substr(root_.size());
    if (rel.rfind(prefix, 0) == 0) out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// MemFileSystem
// ---------------------------------------------------------------------------

struct MemFileSystem::Store {
  struct FileData {
    roc::Mutex mutex{"memfile"};
    std::vector<unsigned char> bytes ROC_GUARDED_BY(mutex);
  };
  roc::Mutex mutex{"memfs-dir"};  // guards the directory map
  std::map<std::string, std::shared_ptr<FileData>> files
      ROC_GUARDED_BY(mutex);
};

namespace {

using FileData = MemFileSystem::Store::FileData;

class MemFile final : public File {
 public:
  MemFile(std::shared_ptr<FileData> d, std::string path)
      : owner_(std::move(d)), data_(owner_.get()), path_(std::move(path)) {}

  void write(const void* src, size_t n) override {
    if (n == 0) return;
    roc::MutexLock lock(data_->mutex);
    // The backing store models the storage device itself: bytes landing on
    // the "disk" are not hot-path allocator traffic.
    ROC_ALLOC_EXEMPT("why: simulated-device backing store growth, not "
                     "hot-path scratch");
    if (pos_ + n > data_->bytes.size()) data_->bytes.resize(pos_ + n);
    std::memcpy(data_->bytes.data() + pos_, src, n);
    pos_ += n;
  }

  void writev(std::span<const ConstBuffer> segments) override {
    uint64_t total = 0;
    for (const ConstBuffer& s : segments) total += s.size;
    if (total == 0) return;
    // One lock + one resize for the whole gather.
    roc::MutexLock lock(data_->mutex);
    ROC_ALLOC_EXEMPT("why: simulated-device backing store growth, not "
                     "hot-path scratch");
    if (pos_ + total > data_->bytes.size()) data_->bytes.resize(pos_ + total);
    for (const ConstBuffer& s : segments) {
      if (s.size == 0) continue;
      std::memcpy(data_->bytes.data() + pos_, s.data, s.size);
      pos_ += s.size;
    }
  }

  void read(void* out, size_t n) override {
    if (n == 0) return;
    roc::MutexLock lock(data_->mutex);
    if (pos_ + n > data_->bytes.size())
      throw IoError("short read from mem:" + path_);
    std::memcpy(out, data_->bytes.data() + pos_, n);
    pos_ += n;
  }

  void seek(uint64_t pos) override { pos_ = pos; }
  uint64_t tell() const override { return pos_; }

  uint64_t size() const override {
    roc::MutexLock lock(data_->mutex);
    return data_->bytes.size();
  }

  void flush() override {}

 private:
  // The shared_ptr keeps the file alive across remove(); the raw alias is
  // what the thread-safety annotations resolve against.
  std::shared_ptr<FileData> owner_;
  FileData* const data_;
  std::string path_;
  uint64_t pos_ = 0;
};

}  // namespace

MemFileSystem::MemFileSystem() : store_(std::make_shared<Store>()) {}

std::unique_ptr<File> MemFileSystem::open(const std::string& path,
                                          OpenMode mode) {
  Store* s = store_.get();
  std::shared_ptr<FileData> data;
  {
    roc::MutexLock lock(s->mutex);
    auto it = s->files.find(path);
    switch (mode) {
      case OpenMode::kRead:
      case OpenMode::kReadWrite:
        if (it == s->files.end())
          throw IoError("no such file: mem:" + path);
        data = it->second;
        break;
      case OpenMode::kTruncate:
        if (it == s->files.end()) {
          data = std::make_shared<FileData>();
          s->files.emplace(path, data);
        } else {
          data = it->second;
          FileData* d = data.get();
          roc::MutexLock flock(d->mutex);
          d->bytes.clear();
        }
        break;
    }
  }
  return std::make_unique<MemFile>(std::move(data), path);
}

bool MemFileSystem::exists(const std::string& path) {
  Store* s = store_.get();
  roc::MutexLock lock(s->mutex);
  return s->files.count(path) > 0;
}

void MemFileSystem::remove(const std::string& path) {
  Store* s = store_.get();
  roc::MutexLock lock(s->mutex);
  s->files.erase(path);
}

std::vector<std::string> MemFileSystem::list(const std::string& prefix) {
  Store* s = store_.get();
  roc::MutexLock lock(s->mutex);
  std::vector<std::string> out;
  for (auto& [name, _] : s->files)
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  return out;
}

uint64_t MemFileSystem::total_bytes() const {
  Store* s = store_.get();
  roc::MutexLock lock(s->mutex);
  uint64_t n = 0;
  for (auto& kv : s->files) {
    FileData* d = kv.second.get();
    roc::MutexLock flock(d->mutex);
    n += d->bytes.size();
  }
  return n;
}

size_t MemFileSystem::file_count() const {
  Store* s = store_.get();
  roc::MutexLock lock(s->mutex);
  return s->files.size();
}

}  // namespace roc::vfs
