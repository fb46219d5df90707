#pragma once
/// \file vfs.h
/// \brief File-system abstraction used by every I/O library in rocpio.
///
/// The SHDF format, Rochdf and Rocpanda never touch POSIX directly; they
/// write through this interface.  Three implementations exist:
///   * PosixFileSystem — real files on disk (examples, integration tests),
///   * MemFileSystem   — in-memory files (unit tests, simulator backing),
///   * roc::sim::SimFileSystem — a decorator that charges virtual time
///     against a platform file-system model (benchmarks).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/error.h"

namespace roc::vfs {

/// How a file is opened.
enum class OpenMode {
  kRead,       ///< Existing file, read-only.
  kTruncate,   ///< Create or truncate, write (and read-back) allowed.
  kReadWrite,  ///< Existing file, read and write at arbitrary offsets.
};

/// A single open file with an explicit cursor.  Instances are NOT
/// thread-safe; each thread opens its own handle.
class File {
 public:
  virtual ~File() = default;

  /// Gather write: writes every segment, in order, at the cursor as one
  /// logical operation, advancing the cursor past them.  This is the one
  /// write primitive: PosixFile issues vectored syscalls straight from the
  /// segments, MemFile does one pre-sized append.  Throws IoError on
  /// failure; partial writes are surfaced as errors, not short counts.
  virtual void writev(std::span<const ConstBuffer> segments) = 0;

  /// Writes `n` bytes at the cursor: a one-segment writev.
  virtual void write(const void* data, size_t n) {
    const ConstBuffer segment(data, n);
    writev({&segment, 1});
  }

  /// Reads exactly `n` bytes at the cursor, advancing it.
  /// Throws IoError if fewer than `n` bytes remain.
  virtual void read(void* out, size_t n) = 0;

  virtual void seek(uint64_t pos) = 0;
  [[nodiscard]] virtual uint64_t tell() const = 0;
  [[nodiscard]] virtual uint64_t size() const = 0;

  /// Pushes buffered data towards stable storage.
  virtual void flush() = 0;
};

/// A namespace of files.  Thread-safe: distinct threads may open distinct
/// (or the same) paths concurrently.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path`; throws IoError if kRead/kReadWrite and the file does not
  /// exist, or the path is unusable.
  virtual std::unique_ptr<File> open(const std::string& path,
                                     OpenMode mode) = 0;

  [[nodiscard]] virtual bool exists(const std::string& path) = 0;

  /// Removes a file; missing files are ignored.
  virtual void remove(const std::string& path) = 0;

  /// All existing paths that start with `prefix`, sorted.
  [[nodiscard]] virtual std::vector<std::string> list(
      const std::string& prefix) = 0;

  /// True for a substrate that stands in for the paper's 2003 platform (the
  /// simulator).  Snapshot files written there keep HDF4's per-dataset
  /// directory writes, which the paper's measurements include; on every
  /// other substrate the directory is written once per commit.
  [[nodiscard]] virtual bool models_paper_platform() const { return false; }
};

/// Real files on the host file system.  `root` is prepended to every path.
class PosixFileSystem final : public FileSystem {
 public:
  explicit PosixFileSystem(std::string root = "");

  std::unique_ptr<File> open(const std::string& path, OpenMode mode) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) override;

 private:
  [[nodiscard]] std::string full(const std::string& path) const;
  std::string root_;
};

/// Fully in-memory file system.  Copyable handles share one store, so a
/// MemFileSystem can be handed to many simulated processors.
class MemFileSystem final : public FileSystem {
 public:
  MemFileSystem();

  std::unique_ptr<File> open(const std::string& path, OpenMode mode) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) override;

  /// Total bytes stored across all files (test/diagnostic aid).
  [[nodiscard]] uint64_t total_bytes() const;
  /// Number of files currently stored.
  [[nodiscard]] size_t file_count() const;

  struct Store;  ///< Implementation detail, public for the nested File type.

 private:
  std::shared_ptr<Store> store_;
};

}  // namespace roc::vfs
