/// \file vfs_test.cpp
/// \brief Unit tests for the virtual file system (Posix and in-memory).

#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include "util/mutex.h"
#include "util/thread.h"
#include "vfs/vfs.h"

namespace roc::vfs {
namespace {

/// Runs calls on another thread while the caller blocks, the way the
/// asynchronous writers (Rocpanda's background writer, T-Rochdf's per-rank
/// I/O thread) drive a backend.  Either one long-lived I/O thread serves
/// every call, or each call gets a fresh thread.  Exceptions are rethrown
/// on the caller.
class IoThread {
 public:
  explicit IoThread(bool thread_per_call) : per_call_(thread_per_call) {
    if (!per_call_) worker_ = roc::Thread([this] { serve(); });
  }
  ~IoThread() {
    if (per_call_) return;
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  IoThread(const IoThread&) = delete;
  IoThread& operator=(const IoThread&) = delete;

  void run(const std::function<void()>& fn) {
    std::exception_ptr err;
    std::function<void()> job = [&] {
      try {
        fn();
      } catch (...) {
        err = std::current_exception();
      }
    };
    if (per_call_) {
      roc::Thread(job).join();
    } else {
      MutexLock lock(mu_);
      while (job_) cv_.wait(mu_);
      job_ = std::move(job);
      cv_.notify_all();
      while (job_) cv_.wait(mu_);
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  void serve() {
    MutexLock lock(mu_);
    for (;;) {
      while (!stop_ && !job_) cv_.wait(mu_);
      if (stop_) return;
      job_();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  const bool per_call_;
  Mutex mu_{"vfs_test.io_thread"};
  CondVar cv_;
  std::function<void()> job_ ROC_GUARDED_BY(mu_);
  bool stop_ ROC_GUARDED_BY(mu_) = false;
  roc::Thread worker_;
};

/// File handle whose every call runs on the IoThread (including close).
class IoThreadFile final : public File {
 public:
  IoThreadFile(std::unique_ptr<File> f, IoThread& io, bool flush_each_write)
      : f_(std::move(f)), io_(io), flush_each_write_(flush_each_write) {}
  ~IoThreadFile() override { io_.run([&] { f_.reset(); }); }

  void writev(std::span<const ConstBuffer> segments) override {
    io_.run([&] {
      f_->writev(segments);
      if (flush_each_write_) f_->flush();
    });
  }
  void read(void* out, size_t n) override {
    io_.run([&] { f_->read(out, n); });
  }
  void seek(uint64_t pos) override {
    io_.run([&] { f_->seek(pos); });
  }
  [[nodiscard]] uint64_t tell() const override {
    uint64_t r = 0;
    io_.run([&] { r = f_->tell(); });
    return r;
  }
  [[nodiscard]] uint64_t size() const override {
    uint64_t r = 0;
    io_.run([&] { r = f_->size(); });
    return r;
  }
  void flush() override {
    io_.run([&] { f_->flush(); });
  }

 private:
  std::unique_ptr<File> f_;
  IoThread& io_;
  const bool flush_each_write_;
};

/// FileSystem decorator that moves every call onto an IoThread.
class IoThreadFileSystem final : public FileSystem {
 public:
  IoThreadFileSystem(std::unique_ptr<FileSystem> base, bool thread_per_call,
                     bool flush_each_write)
      : base_(std::move(base)),
        io_(thread_per_call),
        flush_each_write_(flush_each_write) {}

  std::unique_ptr<File> open(const std::string& path,
                             OpenMode mode) override {
    std::unique_ptr<File> f;
    io_.run([&] { f = base_->open(path, mode); });
    return std::make_unique<IoThreadFile>(std::move(f), io_,
                                          flush_each_write_);
  }
  bool exists(const std::string& path) override {
    bool r = false;
    io_.run([&] { r = base_->exists(path); });
    return r;
  }
  void remove(const std::string& path) override {
    io_.run([&] { base_->remove(path); });
  }
  std::vector<std::string> list(const std::string& prefix) override {
    std::vector<std::string> r;
    io_.run([&] { r = base_->list(prefix); });
    return r;
  }

 private:
  std::unique_ptr<FileSystem> base_;
  IoThread io_;
  const bool flush_each_write_;
};

/// Parameterized over every implementation: they must all behave
/// identically through the File/FileSystem contract.  The "async-*" cases
/// drive a backend from other threads (see IoThread):
///   async-auto    — Posix, one background I/O thread;
///   async-sync    — as async-auto, with flush() after every write;
///   async-threads — Posix, a fresh thread per call, so one File handle is
///                   used from a succession of threads;
///   async-mem     — Mem, one background I/O thread.
class FileSystemTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string param = GetParam();
    std::unique_ptr<FileSystem> base;
    if (param == "mem" || param == "async-mem") {
      base = std::make_unique<MemFileSystem>();
    } else {
      root_ = std::filesystem::temp_directory_path() /
              ("rocpio_vfs_test_" + std::to_string(::getpid()));
      base = std::make_unique<PosixFileSystem>(root_.string());
    }
    if (param == "posix" || param == "mem") {
      fs_ = std::move(base);
      return;
    }
    fs_ = std::make_unique<IoThreadFileSystem>(
        std::move(base), /*thread_per_call=*/param == "async-threads",
        /*flush_each_write=*/param == "async-sync");
  }
  void TearDown() override {
    fs_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<FileSystem> fs_;
  std::filesystem::path root_;
};

TEST_P(FileSystemTest, WriteThenReadBack) {
  auto f = fs_->open("a.bin", OpenMode::kTruncate);
  const std::string data = "hello, file system";
  f->write(data.data(), data.size());
  EXPECT_EQ(f->size(), data.size());
  f.reset();

  auto g = fs_->open("a.bin", OpenMode::kRead);
  std::string back(data.size(), '\0');
  g->read(back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_P(FileSystemTest, SeekAndOverwrite) {
  auto f = fs_->open("b.bin", OpenMode::kTruncate);
  f->write("AAAAAAAA", 8);
  f->seek(2);
  f->write("xx", 2);
  EXPECT_EQ(f->tell(), 4u);
  f->seek(0);
  std::string s(8, '\0');
  f->read(s.data(), 8);
  EXPECT_EQ(s, "AAxxAAAA");
}

TEST_P(FileSystemTest, OpenMissingFileThrows) {
  EXPECT_THROW((void)fs_->open("missing.bin", OpenMode::kRead), IoError);
  EXPECT_THROW((void)fs_->open("missing.bin", OpenMode::kReadWrite), IoError);
}

TEST_P(FileSystemTest, ShortReadThrows) {
  auto f = fs_->open("c.bin", OpenMode::kTruncate);
  f->write("123", 3);
  char buf[10];
  EXPECT_THROW(f->read(buf, 1), IoError);  // cursor at EOF
  f->seek(10);
  EXPECT_THROW(f->read(buf, 1), IoError);  // cursor past EOF
  f->seek(0);
  EXPECT_THROW(f->read(buf, 10), IoError);
}

TEST_P(FileSystemTest, TruncateClearsOldContent) {
  {
    auto f = fs_->open("d.bin", OpenMode::kTruncate);
    f->write("old content", 11);
  }
  {
    auto f = fs_->open("d.bin", OpenMode::kTruncate);
    EXPECT_EQ(f->size(), 0u);
  }
}

TEST_P(FileSystemTest, ExistsAndRemove) {
  EXPECT_FALSE(fs_->exists("e.bin"));
  { (void)fs_->open("e.bin", OpenMode::kTruncate); }
  EXPECT_TRUE(fs_->exists("e.bin"));
  fs_->remove("e.bin");
  EXPECT_FALSE(fs_->exists("e.bin"));
  EXPECT_NO_THROW(fs_->remove("e.bin"));  // idempotent
}

TEST_P(FileSystemTest, ListByPrefixSorted) {
  for (const char* name : {"snap_01_p2", "snap_01_p0", "snap_01_p1", "other"})
    (void)fs_->open(name, OpenMode::kTruncate);
  const auto files = fs_->list("snap_01_p");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "snap_01_p0");
  EXPECT_EQ(files[1], "snap_01_p1");
  EXPECT_EQ(files[2], "snap_01_p2");
}

TEST_P(FileSystemTest, ReadWriteModePreservesContent) {
  {
    auto f = fs_->open("f.bin", OpenMode::kTruncate);
    f->write("0123456789", 10);
  }
  {
    auto f = fs_->open("f.bin", OpenMode::kReadWrite);
    EXPECT_EQ(f->size(), 10u);
    f->seek(10);
    f->write("abc", 3);
  }
  auto f = fs_->open("f.bin", OpenMode::kRead);
  EXPECT_EQ(f->size(), 13u);
}

TEST_P(FileSystemTest, ZeroByteOperationsAreNoOps) {
  auto f = fs_->open("g.bin", OpenMode::kTruncate);
  f->write(nullptr, 0);
  EXPECT_EQ(f->size(), 0u);
  f->read(nullptr, 0);
}

TEST_P(FileSystemTest, GatherWriteOverwritesMidFileAndAppendsAtEof) {
  auto f = fs_->open("h.bin", OpenMode::kTruncate);
  f->write("0123456789", 10);
  // Mid-file: the gather lands at the cursor and overwrites in place.
  f->seek(3);
  const ConstBuffer mid[] = {{"ab", 2}, {"", 0}, {"cd", 2}};
  f->writev(mid);
  EXPECT_EQ(f->tell(), 7u);
  EXPECT_EQ(f->size(), 10u);
  // At EOF: the gather appends.
  f->seek(10);
  const ConstBuffer tail[] = {{"XY", 2}, {"Z", 1}};
  f->writev(tail);
  EXPECT_EQ(f->tell(), 13u);
  EXPECT_EQ(f->size(), 13u);
  f->seek(0);
  std::string s(13, '\0');
  f->read(s.data(), s.size());
  EXPECT_EQ(s, "012abcd789XYZ");
  EXPECT_EQ(f->tell(), 13u);
}

TEST_P(FileSystemTest, GatherWriteOfMoreThanIovMaxSegments) {
  // More non-empty segments than one vectored syscall takes, with empty
  // ones mixed in: every byte lands, in order.
  const size_t n = static_cast<size_t>(IOV_MAX) + 37;
  std::vector<unsigned char> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<unsigned char>(i * 7);
  std::vector<ConstBuffer> segments;
  for (size_t i = 0; i < n; ++i) {
    segments.emplace_back(&bytes[i], 1);
    if (i % 3 == 0) segments.emplace_back(nullptr, 0);
  }
  auto f = fs_->open("i.bin", OpenMode::kTruncate);
  f->write("H", 1);
  f->writev(segments);
  EXPECT_EQ(f->tell(), n + 1);
  EXPECT_EQ(f->size(), n + 1);
  std::vector<unsigned char> back(n);
  f->seek(1);
  f->read(back.data(), back.size());
  EXPECT_EQ(back, bytes);
}

TEST_P(FileSystemTest, SizeLeavesTheCursorWhereItWas) {
  auto f = fs_->open("j.bin", OpenMode::kTruncate);
  f->write("0123456789", 10);
  f->seek(4);
  EXPECT_EQ(f->size(), 10u);
  EXPECT_EQ(f->tell(), 4u);
  char c = 0;
  f->read(&c, 1);
  EXPECT_EQ(c, '4');
}

INSTANTIATE_TEST_SUITE_P(Backends, FileSystemTest,
                         ::testing::Values("posix", "mem", "async-auto",
                                           "async-sync", "async-threads",
                                           "async-mem"));

TEST(MemFileSystem, SharedStoreAcrossCopies) {
  MemFileSystem a;
  MemFileSystem b = a;  // same store
  { (void)a.open("x", OpenMode::kTruncate); }
  EXPECT_TRUE(b.exists("x"));
}

TEST(MemFileSystem, CountersTrackContent) {
  MemFileSystem fs;
  EXPECT_EQ(fs.file_count(), 0u);
  {
    auto f = fs.open("x", OpenMode::kTruncate);
    f->write("12345", 5);
  }
  EXPECT_EQ(fs.file_count(), 1u);
  EXPECT_EQ(fs.total_bytes(), 5u);
}

TEST(MemFileSystem, ConcurrentDistinctFiles) {
  // Many threads write distinct files concurrently; the directory map must
  // stay consistent.
  MemFileSystem fs;
  std::vector<roc::Thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&fs, t] {
      for (int i = 0; i < 50; ++i) {
        // Name assembled piecewise: `"lit" + std::to_string(...)` trips
        // GCC 12's bogus -Wrestrict at -O3 (PR105651).
        std::string name = "t";
        name += std::to_string(t);
        name += '_';
        name += std::to_string(i);
        auto f = fs.open(name, OpenMode::kTruncate);
        const int v = t * 1000 + i;
        f->write(&v, sizeof(v));
      }
    });
  }
  threads.clear();  // joins
  EXPECT_EQ(fs.file_count(), 400u);
}

}  // namespace
}  // namespace roc::vfs
