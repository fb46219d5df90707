#include "roccom/roccom.h"

#include <algorithm>

namespace roc::roccom {

void Window::declare_field(const FieldSpec& spec) {
  if (!panes_.empty())
    throw RegistryError("window '" + name_ +
                        "': schema is frozen once panes are registered");
  const bool dup = std::any_of(
      schema_.begin(), schema_.end(),
      [&](const FieldSpec& s) { return s.name == spec.name; });
  if (dup)
    throw RegistryError("window '" + name_ + "': duplicate field '" +
                        spec.name + "'");
  schema_.push_back(spec);
}

void Window::register_pane(int pane_id, mesh::MeshBlock* block) {
  if (block == nullptr)
    throw RegistryError("window '" + name_ + "': null block for pane " +
                        std::to_string(pane_id));
  if (panes_.count(pane_id))
    throw RegistryError("window '" + name_ + "': duplicate pane id " +
                        std::to_string(pane_id));
  // Schema validation: every declared field must exist on the block with
  // matching centering and component count (sizes may differ per pane).
  for (const auto& spec : schema_) {
    const mesh::Field* f = block->find_field(spec.name);
    if (f == nullptr)
      throw RegistryError("window '" + name_ + "': pane " +
                          std::to_string(pane_id) + " lacks field '" +
                          spec.name + "'");
    if (f->centering != spec.centering || f->ncomp != spec.ncomp)
      throw RegistryError("window '" + name_ + "': pane " +
                          std::to_string(pane_id) + " field '" + spec.name +
                          "' does not match the window schema");
  }
  panes_.emplace(pane_id, Pane{pane_id, block});
  pane_list_valid_ = false;
}

void Window::remove_pane(int pane_id) {
  pane_list_valid_ = false;
  if (panes_.erase(pane_id) == 0)
    throw RegistryError("window '" + name_ + "': no pane " +
                        std::to_string(pane_id));
}

void Window::clear_panes() {
  panes_.clear();
  pane_list_valid_ = false;
}

const Pane& Window::pane(int pane_id) const {
  auto it = panes_.find(pane_id);
  if (it == panes_.end())
    throw RegistryError("window '" + name_ + "': no pane " +
                        std::to_string(pane_id));
  return it->second;
}

const std::vector<const Pane*>& Window::panes() const {
  if (!pane_list_valid_) {
    pane_list_.clear();
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: cache rebuild happens only
    // after pane registration changes, never in the steady-state loop.
    pane_list_.reserve(panes_.size());
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above.
    for (const auto& [_, p] : panes_) pane_list_.push_back(&p);
    pane_list_valid_ = true;
  }
  return pane_list_;
}

void Window::register_function(const std::string& fname, Function fn) {
  if (!fn)
    throw RegistryError("window '" + name_ + "': empty function '" + fname +
                        "'");
  if (!functions_.emplace(fname, std::move(fn)).second)
    throw RegistryError("window '" + name_ + "': duplicate function '" +
                        fname + "'");
}

const Function& Window::function(const std::string& fname) const {
  auto it = functions_.find(fname);
  if (it == functions_.end())
    throw RegistryError("window '" + name_ + "': no function '" + fname +
                        "'");
  return it->second;
}

Window& Roccom::create_window(const std::string& name) {
  if (name.empty() || name.find('.') != std::string::npos)
    throw RegistryError("bad window name '" + name + "'");
  auto [it, inserted] =
      windows_.emplace(name, std::make_unique<Window>(name));
  if (!inserted) throw RegistryError("duplicate window '" + name + "'");
  return *it->second;
}

void Roccom::delete_window(const std::string& name) {
  if (windows_.erase(name) == 0)
    throw RegistryError("no window '" + name + "'");
}

Window& Roccom::window(const std::string& name) {
  auto it = windows_.find(name);
  if (it == windows_.end())
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: lookup-failure error path only.
    throw RegistryError("no window '" + name + "'");
  return *it->second;
}

const Window& Roccom::window(const std::string& name) const {
  auto it = windows_.find(name);
  if (it == windows_.end())
    throw RegistryError("no window '" + name + "'");
  return *it->second;
}

void Roccom::call_function(const std::string& qualified_name,
                           std::span<const Arg> args) {
  const auto dot = qualified_name.find('.');
  if (dot == std::string::npos || dot == 0 ||
      dot + 1 == qualified_name.size())
    throw RegistryError("call_function expects '<window>.<function>', got '" +
                        qualified_name + "'");
  const Window& w = window(qualified_name.substr(0, dot));
  w.function(qualified_name.substr(dot + 1))(args);
}

}  // namespace roc::roccom
