#pragma once
/// \file wire.h
/// \brief Rocpanda's client/server message protocol.
///
/// All traffic flows over the world communicator with the tags below (all
/// far below comm::kReservedTagBase).  Messages between one client and its
/// server are non-overtaking, which the protocol relies on: a WriteBegin
/// header is followed by exactly `nblocks` WriteBlock messages from the
/// same client.
///
/// Block messages (WriteBlock, ReadBlock) carry one block each in the
/// block wire format (roccom/block_wire.h), so the server can buffer,
/// spill, and probe for new requests *between* blocks — the granularity
/// active buffering needs (paper §6.1).

#include <cstdint>
#include <string>
#include <vector>

namespace roc::rocpanda {

// --- protocol tags (world communicator) -----------------------------------
inline constexpr int kTagWriteBegin = 101;  ///< client -> server, WriteHeader
inline constexpr int kTagWriteBlock = 102;  ///< client -> server, wire block
inline constexpr int kTagWriteAck = 103;    ///< server -> client, empty
inline constexpr int kTagSyncReq = 104;     ///< client -> server, empty
inline constexpr int kTagSyncAck = 105;     ///< server -> client, empty
inline constexpr int kTagReadBegin = 106;   ///< client -> server, ReadHeader
inline constexpr int kTagReadPlan = 107;    ///< server -> client, u32 count
inline constexpr int kTagReadBlock = 108;   ///< server -> client, wire block
inline constexpr int kTagListReq = 109;     ///< client -> server, file name
inline constexpr int kTagListAck = 110;     ///< server -> client, i32 ids
inline constexpr int kTagShutdown = 111;    ///< client -> server, empty

/// Header announcing one collective write request from one client.
///
/// Carries the client's causal trace context (trace.h): the server adopts
/// it for every span triggered by this request — including background
/// writes performed long after the ack — so traced runs stitch the
/// server-side work to the client span that caused it.  Zero ids mean
/// "untraced"; the fields always travel (fixed cost: 16 bytes).
struct WriteHeader {
  std::string file;       ///< Snapshot basename.
  std::string window;
  std::string attribute;  ///< "all" | "mesh" | field name.
  double time = 0;
  uint32_t nblocks = 0;   ///< WriteBlock messages that follow.
  uint64_t trace_id = 0;  ///< Client trace id (0 = untraced).
  uint64_t span_id = 0;   ///< Client span the request belongs to.

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  static WriteHeader deserialize(const void* data, size_t n);
  static WriteHeader deserialize(const std::vector<unsigned char>& bytes) {
    return deserialize(bytes.data(), bytes.size());
  }
};

/// Header announcing one client's restart request.
struct ReadHeader {
  std::string file;
  std::string window;  ///< Restrict to one window; empty = any window.
  std::vector<int32_t> pane_ids;

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  static ReadHeader deserialize(const void* data, size_t n);
  static ReadHeader deserialize(const std::vector<unsigned char>& bytes) {
    return deserialize(bytes.data(), bytes.size());
  }
};

}  // namespace roc::rocpanda
