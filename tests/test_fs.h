#pragma once
/// \file test_fs.h
/// \brief File-system decorators shared by the test suites: one that
/// crashes at a chosen op or fails that op once (fault injection) and one
/// that records every write handle's open and close and can hold writes
/// until the test lets them through.

#include <memory>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/mutex.h"
#include "vfs/vfs.h"

namespace roc::testfs {

/// FileSystem decorator for a process that crashes at op `crash_at`: from
/// that file-system or file call onward (counting from 0) every call throws
/// IoError and changes nothing, so a Writer's implicit close cannot write
/// either.  What reached the base file system before the crash stays.
/// Op `fail_once_at` alone throws IoError and changes nothing; the calls
/// after it succeed, so a caller that ignores the error can go on writing.
class CrashingFileSystem final : public vfs::FileSystem {
 public:
  explicit CrashingFileSystem(vfs::FileSystem& base) : base_(base) {}

  std::unique_ptr<vfs::File> open(const std::string& path,
                                  vfs::OpenMode mode) override {
    step();
    return std::make_unique<CrashingFile>(base_.open(path, mode), *this);
  }
  bool exists(const std::string& path) override {
    step();
    return base_.exists(path);
  }
  void remove(const std::string& path) override {
    step();
    base_.remove(path);
  }
  std::vector<std::string> list(const std::string& prefix) override {
    step();
    return base_.list(prefix);
  }

  uint64_t ops = 0;     ///< Calls so far, including the failed ones.
  uint64_t writes = 0;  ///< writev calls so far, including the failed ones.
  uint64_t crash_at = UINT64_MAX;
  uint64_t fail_once_at = UINT64_MAX;

 private:
  class CrashingFile final : public vfs::File {
   public:
    CrashingFile(std::unique_ptr<vfs::File> f, CrashingFileSystem& fs)
        : f_(std::move(f)), fs_(fs) {}

    void writev(std::span<const ConstBuffer> segments) override {
      ++fs_.writes;
      fs_.step();
      f_->writev(segments);
    }
    void read(void* out, size_t n) override {
      fs_.step();
      f_->read(out, n);
    }
    void seek(uint64_t pos) override {
      fs_.step();
      f_->seek(pos);
    }
    [[nodiscard]] uint64_t tell() const override {
      fs_.step();
      return f_->tell();
    }
    [[nodiscard]] uint64_t size() const override {
      fs_.step();
      return f_->size();
    }
    void flush() override {
      fs_.step();
      f_->flush();
    }

   private:
    std::unique_ptr<vfs::File> f_;
    CrashingFileSystem& fs_;
  };

  void step() {
    const uint64_t op = ops++;
    if (op >= crash_at)
      throw IoError("crashed at op " + std::to_string(crash_at));
    if (op == fail_once_at)
      throw IoError("failed op " + std::to_string(fail_once_at));
  }

  vfs::FileSystem& base_;
};

/// FileSystem decorator that logs "open <path>" when a file is opened for
/// writing and "close <path>" when that handle is dropped (shdf::Writer
/// drops its handle in close()), in the order they happen on any thread.
/// Constructed holding, every writev blocks until release(): a test can
/// keep a background writer inside a file for as long as it needs.
/// Read-only opens are forwarded unrecorded.
class RecordingFileSystem final : public vfs::FileSystem {
 public:
  RecordingFileSystem(vfs::FileSystem& base, bool hold_writes)
      : base_(base), held_(hold_writes) {}

  std::unique_ptr<vfs::File> open(const std::string& path,
                                  vfs::OpenMode mode) override {
    auto f = base_.open(path, mode);
    if (mode == vfs::OpenMode::kRead) return f;
    record("open " + path);
    return std::make_unique<RecordingFile>(std::move(f), path, *this);
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  void remove(const std::string& path) override { base_.remove(path); }
  std::vector<std::string> list(const std::string& prefix) override {
    return base_.list(prefix);
  }

  /// Lets every held and every later write through.
  void release() {
    MutexLock lock(mu_);
    held_ = false;
    cv_.notify_all();
  }

  /// The opens and closes so far, in order.
  [[nodiscard]] std::vector<std::string> events() {
    MutexLock lock(mu_);
    return events_;
  }

 private:
  class RecordingFile final : public vfs::File {
   public:
    RecordingFile(std::unique_ptr<vfs::File> f, std::string path,
                  RecordingFileSystem& fs)
        : f_(std::move(f)), path_(std::move(path)), fs_(fs) {}
    ~RecordingFile() override { fs_.record("close " + path_); }

    void writev(std::span<const ConstBuffer> segments) override {
      fs_.wait_released();
      f_->writev(segments);
    }
    void read(void* out, size_t n) override { f_->read(out, n); }
    void seek(uint64_t pos) override { f_->seek(pos); }
    [[nodiscard]] uint64_t tell() const override { return f_->tell(); }
    [[nodiscard]] uint64_t size() const override { return f_->size(); }
    void flush() override { f_->flush(); }

   private:
    std::unique_ptr<vfs::File> f_;
    std::string path_;
    RecordingFileSystem& fs_;
  };

  void record(std::string event) {
    MutexLock lock(mu_);
    events_.push_back(std::move(event));
  }

  void wait_released() {
    MutexLock lock(mu_);
    while (held_) cv_.wait(mu_);
  }

  vfs::FileSystem& base_;
  Mutex mu_{"recording-fs"};
  CondVar cv_;
  bool held_ ROC_GUARDED_BY(mu_);
  std::vector<std::string> events_ ROC_GUARDED_BY(mu_);
};

}  // namespace roc::testfs
