#include "rocpanda/wire.h"

#include "util/serialize.h"

namespace roc::rocpanda {

std::vector<unsigned char> WriteHeader::serialize() const {
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one header per request, not per block.
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_string(attribute);
  w.put<double>(time);
  w.put<uint32_t>(nblocks);
  w.put<uint64_t>(trace_id);
  w.put<uint64_t>(span_id);
  return w.take();
}

WriteHeader WriteHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  WriteHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.attribute = r.get_string();
  h.time = r.get<double>();
  h.nblocks = r.get<uint32_t>();
  h.trace_id = r.get<uint64_t>();
  h.span_id = r.get<uint64_t>();
  return h;
}

std::vector<unsigned char> ReadHeader::serialize() const {
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_vector(pane_ids);
  return w.take();
}

ReadHeader ReadHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  ReadHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.pane_ids = r.get_vector<int32_t>();
  return h;
}

}  // namespace roc::rocpanda
