#pragma once
/// \file io_service.h
/// \brief The uniform high-level parallel I/O interface (paper §5).
///
/// Rocpanda and Rochdf both implement IoService; Roccom exposes the service
/// through three file-format-independent collective verbs registered as
/// window member functions.  Applications invoke them via
/// `com.call_function("<service window>.write_attribute", ...)`, so
/// switching between collective and individual I/O is just loading a
/// different module — no application code changes.
///
/// Semantics (paper §6, tested in tests/roccom_test.cpp and the library
/// suites):
///  * write_attribute is collective over the compute processes and is
///    buffer-reuse safe: callers may modify their data blocks as soon as the
///    call returns, regardless of how the service overlaps the actual file
///    writes with computation.
///  * read_attribute is collective and blocking (restart path).
///  * sync blocks until every previously issued output operation has
///    reached the file system.

#include <memory>
#include <string>

#include "roccom/roccom.h"

namespace roc::roccom {

/// Selects which data members of the window an I/O call touches.
///  * "all"  — mesh + every schema field,
///  * "mesh" — coordinates (and connectivity for unstructured panes),
///  * otherwise the name of one schema field.
struct IoRequest {
  std::string window;     ///< Window whose panes are written/read.
  std::string attribute;  ///< See above.
  std::string file;       ///< File basename, e.g. "snap_000150".
  double time = 0.0;      ///< Simulated time stamp stored as metadata.
};

/// Abstract parallel I/O service.
class IoService {
 public:
  virtual ~IoService() = default;

  /// Collective output of the selected attribute on all local panes.
  virtual void write_attribute(Roccom& com, const IoRequest& req) = 0;

  /// Collective input (restart): fills the selected attribute of all local
  /// panes from the file set identified by `req.file`.
  virtual void read_attribute(Roccom& com, const IoRequest& req) = 0;

  /// Blocks until all previously issued writes are on stable storage.
  virtual void sync() = 0;

  /// Collective: fetches complete data blocks by pane id from the file set
  /// `file` (restart with re-created panes, e.g. after adaptive refinement
  /// changed the block list).  Returned blocks are ordered by pane id.
  /// Throws IoError naming every requested pane id that the file set does
  /// not hold; no blocks are returned then.
  [[nodiscard]] virtual std::vector<mesh::MeshBlock> fetch_blocks(
      const std::string& file, const std::vector<int>& pane_ids) = 0;

  /// Collective: every pane id present in the file set `file` (ascending).
  /// Lets a driver discover the block list before re-registering panes.
  [[nodiscard]] virtual std::vector<int> list_panes(
      const std::string& file) = 0;

  /// Human-readable module name ("Rocpanda", "Rochdf", "T-Rochdf").
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The last step of every IoService::fetch_blocks: sorts `blocks` by pane
/// id, then throws IoError naming every id of `pane_ids` that no block in
/// `blocks` has.
void finish_fetch(const std::string& file, const std::vector<int>& pane_ids,
                  std::vector<mesh::MeshBlock>& blocks);

/// Loads an I/O service module: creates window `window_name` in `com` and
/// registers the three verbs as member functions (the paper's load_module).
/// The expected Arg layouts are:
///   write_attribute / read_attribute:
///     {const void* (const IoRequest*)}
///   sync: {}
/// Returns a handle that owns the service; destroying the handle (or
/// calling unload) removes the window.
class IoModuleHandle {
 public:
  IoModuleHandle(Roccom& com, std::string window_name,
                 std::unique_ptr<IoService> service);
  ~IoModuleHandle();

  IoModuleHandle(const IoModuleHandle&) = delete;
  IoModuleHandle& operator=(const IoModuleHandle&) = delete;

  [[nodiscard]] IoService& service() { return *service_; }

  /// Explicit unload (idempotent).
  void unload();

 private:
  Roccom& com_;
  std::string window_name_;
  std::unique_ptr<IoService> service_;
  bool loaded_ = false;
};

/// Convenience: issues a write through the registered verbs.
void com_write_attribute(Roccom& com, const std::string& service_window,
                         const IoRequest& req);
void com_read_attribute(Roccom& com, const std::string& service_window,
                        const IoRequest& req);
void com_sync(Roccom& com, const std::string& service_window);

}  // namespace roc::roccom
