#pragma once
/// \file roccom.h
/// \brief Roccom: the component-integration framework (paper §5).
///
/// Roccom organizes data and functions into distributed objects called
/// *windows*.  A window is partitioned into *panes*; a pane corresponds to
/// one data block (mesh block + fields) and is owned by a single process,
/// while a process may own any number of panes.  All panes of a window have
/// the same collection of data members (the window *schema*), although each
/// pane's sizes may differ.
///
/// Modules register their data blocks as panes and their entry points as
/// named functions; other modules retrieve either through the registry
/// without knowing how they are defined.  I/O service modules (Rocpanda,
/// Rochdf) are loaded into a window whose member functions are the three
/// collective I/O verbs; switching I/O strategies is done by loading a
/// different module (see io_service.h).

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "mesh/mesh_block.h"
#include "util/error.h"

namespace roc::roccom {

/// One argument of a registered function.  Mirrors the paper's
/// heterogeneous C/C++/Fortran bindings with a small closed set of types.
using Arg = std::variant<int64_t, double, std::string, void*, const void*>;

/// A function registered in a window.
using Function = std::function<void(std::span<const Arg>)>;

/// Declares one data member of a window's schema.
struct FieldSpec {
  std::string name;
  mesh::Centering centering = mesh::Centering::kNode;
  int ncomp = 1;

  friend bool operator==(const FieldSpec&, const FieldSpec&) = default;
};

/// A pane: one data block registered in a window.  The mesh block is owned
/// by the registering module; Roccom only references it.
struct Pane {
  int id = -1;
  mesh::MeshBlock* block = nullptr;
};

/// A window: named schema + panes + member functions.
class Window {
 public:
  explicit Window(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Declares a field every pane must carry.  Must be called before the
  /// first pane is registered.
  void declare_field(const FieldSpec& spec);

  [[nodiscard]] const std::vector<FieldSpec>& schema() const {
    return schema_;
  }

  /// Registers `block` as pane `pane_id` (unique per window).  Validates
  /// the block against the window schema.  The caller keeps ownership and
  /// must keep the block alive until the pane is removed.
  void register_pane(int pane_id, mesh::MeshBlock* block);

  /// Removes a pane (e.g. the block was migrated away or coarsened).
  void remove_pane(int pane_id);

  /// Removes every pane (schema and functions survive).
  void clear_panes();

  [[nodiscard]] bool has_pane(int pane_id) const {
    return panes_.count(pane_id) > 0;
  }
  [[nodiscard]] const Pane& pane(int pane_id) const;

  /// Local panes in pane-id order.  The list is cached and invalidated by
  /// pane registration changes, so steady-state callers (the per-step
  /// marshalling loop) see no per-call materialisation; the reference is
  /// valid until the next register/remove/clear.
  [[nodiscard]] const std::vector<const Pane*>& panes() const;
  [[nodiscard]] size_t pane_count() const { return panes_.size(); }

  void register_function(const std::string& fname, Function fn);
  [[nodiscard]] bool has_function(const std::string& fname) const {
    return functions_.count(fname) > 0;
  }
  [[nodiscard]] const Function& function(const std::string& fname) const;

 private:
  std::string name_;
  std::vector<FieldSpec> schema_;
  std::map<int, Pane> panes_;
  std::map<std::string, Function> functions_;
  // panes() cache: map nodes are pointer-stable, so the pointers survive
  // until a pane is actually added or removed.
  mutable std::vector<const Pane*> pane_list_;
  mutable bool pane_list_valid_ = false;
};

/// The per-process registry.  One Roccom instance exists per (simulated or
/// thread-backed) process; it is not shared across processes — distribution
/// happens through message passing in the services.
class Roccom {
 public:
  /// Creates a window; throws RegistryError on duplicates.
  Window& create_window(const std::string& name);

  /// Destroys a window and everything registered in it.
  void delete_window(const std::string& name);

  [[nodiscard]] bool has_window(const std::string& name) const {
    return windows_.count(name) > 0;
  }
  [[nodiscard]] Window& window(const std::string& name);
  [[nodiscard]] const Window& window(const std::string& name) const;

  /// Invokes "<window>.<function>" with `args` (the paper's
  /// COM_call_function).  Throws RegistryError if either part is unknown.
  void call_function(const std::string& qualified_name,
                     std::span<const Arg> args = {});

  void call_function(const std::string& qualified_name,
                     std::initializer_list<Arg> args) {
    call_function(qualified_name, std::span<const Arg>(args.begin(),
                                                       args.size()));
  }

 private:
  std::map<std::string, std::unique_ptr<Window>> windows_;
};

}  // namespace roc::roccom
