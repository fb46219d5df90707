#include "roccom/io_service.h"

#include <algorithm>
#include <set>

namespace roc::roccom {

IoModuleHandle::IoModuleHandle(Roccom& com, std::string window_name,
                               std::unique_ptr<IoService> service)
    : com_(com),
      window_name_(std::move(window_name)),
      service_(std::move(service)) {
  require(service_ != nullptr, "load_module needs a service");
  Window& w = com_.create_window(window_name_);
  IoService* svc = service_.get();
  Roccom* comp = &com_;

  w.register_function("write_attribute", [svc, comp](std::span<const Arg> a) {
    require(a.size() == 1, "write_attribute expects one IoRequest*");
    const auto* req =
        static_cast<const IoRequest*>(std::get<const void*>(a[0]));
    svc->write_attribute(*comp, *req);
  });
  w.register_function("read_attribute", [svc, comp](std::span<const Arg> a) {
    require(a.size() == 1, "read_attribute expects one IoRequest*");
    const auto* req =
        static_cast<const IoRequest*>(std::get<const void*>(a[0]));
    svc->read_attribute(*comp, *req);
  });
  w.register_function("sync",
                      [svc](std::span<const Arg>) { svc->sync(); });
  loaded_ = true;
}

IoModuleHandle::~IoModuleHandle() {
  try {
    unload();
  } catch (...) {  // LINT-ALLOW(catch-all): destructors must not throw
    // Window may already be gone if the registry outlived differently;
    // unloading during teardown must not throw.
  }
}

void IoModuleHandle::unload() {
  if (!loaded_) return;
  com_.delete_window(window_name_);
  loaded_ = false;
}

void finish_fetch(const std::string& file, const std::vector<int>& pane_ids,
                  std::vector<mesh::MeshBlock>& blocks) {
  std::ranges::sort(blocks, {}, &mesh::MeshBlock::id);
  std::string missing;
  // Appended piecewise: `"lit" + std::to_string(...)` trips GCC 12's
  // bogus -Wrestrict at -O3 (GCC bug 105651).
  for (int id : std::set<int>(pane_ids.begin(), pane_ids.end())) {
    if (std::ranges::binary_search(blocks, id, {}, &mesh::MeshBlock::id))
      continue;
    missing += ' ';
    missing += std::to_string(id);
  }
  if (!missing.empty())
    throw IoError("restart from '" + file + "': blocks not found:" + missing);
}

void com_write_attribute(Roccom& com, const std::string& service_window,
                         const IoRequest& req) {
  com.call_function(service_window + ".write_attribute",
                    {Arg(static_cast<const void*>(&req))});
}

void com_read_attribute(Roccom& com, const std::string& service_window,
                        const IoRequest& req) {
  com.call_function(service_window + ".read_attribute",
                    {Arg(static_cast<const void*>(&req))});
}

void com_sync(Roccom& com, const std::string& service_window) {
  com.call_function(service_window + ".sync");
}

}  // namespace roc::roccom
