#include "vfs/vfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
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
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override { ::close(fd_); }
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  void writev(std::span<const ConstBuffer> segments) override {
    ROC_TRACE_SPAN("vfs", "write");
    // Non-empty segments go out kBatch at a time through an on-stack iovec
    // array, one ::pwritev at the cursor per batch; a partial write trims
    // the batch and continues.
    constexpr size_t kBatch = 64;
    std::array<struct iovec, kBatch> iov;
    size_t next = 0;
    while (next < segments.size()) {
      size_t count = 0;
      for (; next < segments.size() && count < kBatch; ++next) {
        const ConstBuffer& s = segments[next];
        if (s.size > 0)
          iov[count++] = {const_cast<unsigned char*>(s.data), s.size};
      }
      size_t first = 0;
      while (first < count) {
        const ssize_t w =
            ::pwritev(fd_, iov.data() + first, static_cast<int>(count - first),
                      static_cast<off_t>(pos_));
        if (w < 0 && errno == EINTR) continue;
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: write-failure error path only.
        if (w <= 0) throw IoError("write failed on " + path_);
        pos_ += static_cast<uint64_t>(w);
        // Consume fully-written segments; trim a partially-written one.
        auto left = static_cast<size_t>(w);
        while (left > 0 && left >= iov[first].iov_len) {
          left -= iov[first].iov_len;
          ++first;
        }
        if (left > 0) {
          iov[first].iov_base =
              static_cast<unsigned char*>(iov[first].iov_base) + left;
          iov[first].iov_len -= left;
        }
      }
    }
  }

  void read(void* out, size_t n) override {
    if (n == 0) return;
    ROC_TRACE_SPAN("vfs", "read");
    auto* dst = static_cast<unsigned char*>(out);
    while (n > 0) {
      const ssize_t r = ::pread(fd_, dst, n, static_cast<off_t>(pos_));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw IoError("short read from " + path_);
      pos_ += static_cast<uint64_t>(r);
      dst += r;
      n -= static_cast<size_t>(r);
    }
  }

  void seek(uint64_t pos) override { pos_ = pos; }
  uint64_t tell() const override { return pos_; }

  uint64_t size() const override {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) throw IoError("size query failed on " + path_);
    return static_cast<uint64_t>(st.st_size);
  }

  // Writes go straight to the fd: no user-space buffer is left to push.
  void flush() override {}

 private:
  const int fd_;
  const std::string path_;
  uint64_t pos_ = 0;
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
  int flags = O_CLOEXEC;
  switch (mode) {
    case OpenMode::kRead: flags |= O_RDONLY; break;
    case OpenMode::kTruncate: flags |= O_RDWR | O_CREAT | O_TRUNC; break;
    case OpenMode::kReadWrite: flags |= O_RDWR; break;
  }
  const int fd = ::open(f.c_str(), flags, 0666);
  if (fd < 0) throw IoError("cannot open " + f);
  return std::make_unique<PosixFile>(fd, f);
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
