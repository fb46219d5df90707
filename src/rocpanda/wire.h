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
/// active buffering needs (paper §6.1).  A ReadBlock puts its server's
/// status byte in front of the block.
///
/// Sync, restart read and list are collective: each client sends one
/// Collective request naming its kind, and its server answers all its
/// clients once all have joined.  Every reply (WriteAck, CollectiveReply)
/// starts with a status byte: kStatusOk, then the result; or
/// kStatusFailed, the error's class byte and its message, which
/// check_status() rethrows on the client as that class.  A restart read or
/// list also puts the status in front of each inter-server allgather
/// payload, so that every server answers with the first failure.  A read's
/// reply announces how many ReadBlock messages follow; each carries a
/// status too, and a server that fails while reading its blocks sends its
/// failure in place of each block it has not sent, so every client
/// receives the number of messages it was told.

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "util/serialize.h"

namespace roc::rocpanda {

// --- protocol tags (world communicator) -----------------------------------
inline constexpr int kTagWriteBegin = 101;  ///< client -> server, WriteHeader
inline constexpr int kTagWriteBlock = 102;  ///< client -> server, wire block
inline constexpr int kTagWriteAck = 103;    ///< server -> client, status
inline constexpr int kTagCollective = 104;  ///< client -> server, request
/// server -> client, status + result: nothing (sync), the u32 count of
/// ReadBlock messages that follow (read), i32 pane ids (list).
inline constexpr int kTagCollectiveReply = 105;
/// server -> client, status + wire block (the status alone on failure).
inline constexpr int kTagReadBlock = 106;
inline constexpr int kTagShutdown = 107;    ///< client -> server, empty

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
};

/// The collectives a server defers until every one of its clients joined.
enum class Collective : uint8_t { kSync = 0, kRead = 1, kList = 2 };

/// One client's collective request.  All clients of a server must agree
/// on everything but `pane_ids`.
struct CollectiveRequest {
  Collective kind = Collective::kSync;
  std::string file;    ///< Snapshot basename (read, list).
  std::string window;  ///< Read: restrict to one window; empty = any window.
  std::vector<int32_t> pane_ids;  ///< Read: the panes this client restarts.

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  static CollectiveRequest deserialize(const void* data, size_t n);
};

// --- reply status ----------------------------------------------------------
inline constexpr uint8_t kStatusOk = 0;
inline constexpr uint8_t kStatusFailed = 1;

/// The status bytes that report `e`: kStatusFailed, e's class, e.what().
[[nodiscard]] std::vector<unsigned char> failure_status(
    const std::exception& e);

/// Consumes the status at `r`; if it reports a failure, throws it as its
/// class (IoError, InvalidArgument, ...) with its message.
void check_status(ByteReader& r);

}  // namespace roc::rocpanda
