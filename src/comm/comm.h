#pragma once
/// \file comm.h
/// \brief Message-passing interface used by every parallel component.
///
/// This is the project's MPI substitute (see DESIGN.md §2).  The interface
/// follows the MPI model: a communicator names an ordered group of
/// processes; point-to-point messages carry a tag; receives match on
/// (source, tag) with wildcards; collectives are called by every member.
/// The collectives are barrier, bcast, gather and allgather (plus split),
/// with the allreduce and allreduce_max helpers layered on allgather.
/// Two implementations exist, both over one shared core,
/// roc::comm::MailboxComm (mailbox_comm.h: envelope, matching, probes,
/// split):
///   * roc::comm::ThreadComm — each process is a std::thread (real mode),
///   * roc::sim::SimComm     — cooperative processes on a virtual clock
///     (simulated mode, used by the benchmarks).
///
/// Tags >= kReservedTagBase are reserved for the collectives implemented in
/// the base class; user code must use smaller tags.

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "telemetry/trace_context.h"
#include "util/buffer.h"
#include "util/error.h"

namespace roc::comm {

/// Wildcard for recv/probe source matching.
inline constexpr int kAnySource = -1;
/// Wildcard for recv/probe tag matching.
inline constexpr int kAnyTag = -1;
/// First tag value reserved for internal collective protocols.
inline constexpr int kReservedTagBase = 1 << 28;

/// Result of a probe: who sent what.
struct Status {
  int source = kAnySource;  ///< Rank of the sender within this communicator.
  int tag = kAnyTag;
  size_t bytes = 0;  ///< Payload size of the pending message.
};

/// A received message.  The payload is an immutable SharedBuffer: when the
/// sender shipped a SharedBuffer the receiver shares the sender's storage
/// (zero-copy); `payload.to_vector()` is the compatibility accessor for
/// call sites that need a mutable vector.
struct Message {
  int source = kAnySource;
  int tag = kAnyTag;
  SharedBuffer payload;
  /// The sender's causal context at send time (null when the sender was
  /// not inside a traced span).  Receivers that act on behalf of the
  /// message adopt it with telemetry::ScopedTraceContext so their spans
  /// stitch into the sender's trace.  POD and unconditionally present —
  /// layout does not depend on the telemetry configuration.
  telemetry::TraceContext ctx;
};

/// An ordered group of processes with point-to-point and collective
/// operations.  Each process owns its own Comm object; the object is not
/// shared across threads.
class Comm {
 public:
  virtual ~Comm() = default;

  /// This process's rank in [0, size()).
  [[nodiscard]] virtual int rank() const = 0;
  /// Number of processes in the communicator.
  [[nodiscard]] virtual int size() const = 0;

  /// Blocking standard-mode send (buffered: returns once the payload is
  /// copied out of `data`; the caller may reuse the buffer immediately).
  virtual void send(int dest, int tag, const void* data, size_t n) = 0;

  void send(int dest, int tag, const std::vector<unsigned char>& data) {
    send(dest, tag, data.data(), data.size());
  }

  /// Sends an immutable buffer.  Substrates that can (ThreadComm, SimComm)
  /// enqueue a *reference* — no byte copy; safe because SharedBuffers are
  /// immutable.  By value because overrides take ownership of the
  /// reference; the default pins it locally while copying the bytes out.
  virtual void send(int dest, int tag, SharedBuffer buf) {
    const SharedBuffer pinned = std::move(buf);
    send(dest, tag, pinned.data(), pinned.size());
  }

  /// Scatter-gather send: ships the chain's segments as one message.  The
  /// chain is gathered into a single SharedBuffer (the one permitted copy)
  /// before transport, so borrowed segments only need to stay valid until
  /// sendv returns — the same buffer-reuse guarantee as the raw send.
  /// Hot-path root (rocanalyze R8-R10): every marshalled block ships
  /// through here.  Substrates with a pool override this to gather through
  /// recycled storage; this default is the pool-less fallback.
  // ROCANALYZE-ALLOW(r9-copy-discipline): why: pool-less fallback gather; substrates override with pool-recycled storage.
  ROC_HOT virtual void sendv(int dest, int tag, const BufferChain& chain) {
    send(dest, tag, chain.gather());
  }

  /// Sends an empty message (pure signal).
  void signal(int dest, int tag) { send(dest, tag, nullptr, 0); }

  /// Blocking receive; `source`/`tag` may be wildcards.  Messages between a
  /// fixed (source, tag) pair are non-overtaking.
  [[nodiscard]] virtual Message recv(int source, int tag) = 0;

  /// Non-blocking probe: true (and fills `st`) if a matching message is
  /// pending.
  virtual bool iprobe(int source, int tag, Status* st) = 0;

  /// Blocking probe: waits for a matching message and describes it.
  virtual Status probe(int source, int tag) = 0;

  /// Splits this communicator; all members must call collectively.  Members
  /// passing the same `color` form a new communicator, ordered by
  /// (key, old rank).  A negative color yields a null result (the process
  /// joins no new communicator).
  [[nodiscard]] virtual std::unique_ptr<Comm> split(int color, int key) = 0;

  // -- Collectives (implemented generically over p2p; every member calls) --

  virtual void barrier();

  /// Broadcast root's payload to all; on non-roots `data` is replaced.
  virtual void bcast(std::vector<unsigned char>& data, int root);

  /// Gather each member's payload at `root`; result indexed by rank, empty
  /// elsewhere.
  virtual std::vector<std::vector<unsigned char>> gather(
      const std::vector<unsigned char>& mine, int root);

  /// Gather at everyone.
  virtual std::vector<std::vector<unsigned char>> allgather(
      const std::vector<unsigned char>& mine);
};

// -- Typed reduction helpers layered on the collectives --------------------

/// Reduces one scalar per rank with `op`; every rank gets the result.
template <typename T, typename BinaryOp>
T allreduce(Comm& comm, T value, BinaryOp op) {
  std::vector<unsigned char> mine(sizeof(T));
  std::memcpy(mine.data(), &value, sizeof(T));
  auto all = comm.allgather(mine);
  T acc{};
  bool first = true;
  for (const auto& bytes : all) {
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    acc = first ? v : op(acc, v);
    first = false;
  }
  return acc;
}

template <typename T>
T allreduce_max(Comm& comm, T value) {
  return allreduce(comm, value, [](T a, T b) { return a > b ? a : b; });
}

}  // namespace roc::comm
