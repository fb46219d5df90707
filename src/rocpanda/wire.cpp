#include "rocpanda/wire.h"

#include <algorithm>
#include <iterator>

#include "util/error.h"
#include "util/hot.h"

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

std::vector<unsigned char> CollectiveRequest::serialize() const {
  ByteWriter w;
  w.put<uint8_t>(static_cast<uint8_t>(kind));
  w.put_string(file);
  w.put_string(window);
  w.put_vector(pane_ids);
  return w.take();
}

CollectiveRequest CollectiveRequest::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  CollectiveRequest req;
  req.kind = static_cast<Collective>(r.get<uint8_t>());
  req.file = r.get_string();
  req.window = r.get_string();
  req.pane_ids = r.get_vector<int32_t>();
  return req;
}

namespace {

/// Throws `E` with `what`, less the prefix E's constructor adds again.
template <typename E>
[[noreturn]] void throw_as(const std::string& what) {
  const std::string prefix = E("").what();
  throw E(what.starts_with(prefix) ? what.substr(prefix.size()) : what);
}

/// The error classes a failed status can name; its class byte indexes
/// this table, most derived first.  Anything else travels as roc::Error.
struct ErrorClass {
  bool (*is)(const std::exception&);
  void (*raise)(const std::string&);
};
template <typename E>
constexpr ErrorClass error_class() {
  return {[](const std::exception& e) { return !!dynamic_cast<const E*>(&e); },
          &throw_as<E>};
}
constexpr ErrorClass kErrorClasses[] = {
    error_class<TruncatedError>(), error_class<FormatError>(),
    error_class<InvalidArgument>(), error_class<IoError>(),
    error_class<CommError>(),       error_class<RegistryError>(),
    error_class<Error>()};
constexpr uint8_t kNumErrorClasses = std::size(kErrorClasses);

/// The failure branch of check_status, off the hot reply path.
ROC_COLD void throw_failure(ByteReader& r) {
  const uint8_t cls = std::min<uint8_t>(r.get<uint8_t>(), kNumErrorClasses - 1);
  kErrorClasses[cls].raise(r.get_string());
}

}  // namespace

std::vector<unsigned char> failure_status(const std::exception& e) {
  uint8_t cls = 0;
  while (cls + 1 < kNumErrorClasses && !kErrorClasses[cls].is(e)) ++cls;
  ByteWriter w;
  w.put<uint8_t>(kStatusFailed);
  w.put<uint8_t>(cls);
  w.put_string(e.what());
  return w.take();
}

void check_status(ByteReader& r) {
  if (r.get<uint8_t>() != kStatusOk) throw_failure(r);
}

}  // namespace roc::rocpanda
