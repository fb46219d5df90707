#pragma once
/// \file mailbox_comm.h
/// \brief The message-passing core both Comm substrates share.
///
/// ThreadComm (real threads) and sim::SimComm (virtual time) differ only in
/// how an envelope reaches a mailbox and how a receiver waits for one.  The
/// rest of the MPI semantics lives here, once: the envelope, the
/// (comm_id, source, tag) matcher, the members/rank bookkeeping, the
/// raw-send copy, the find/take/describe steps of recv/probe/iprobe and
/// split().
///
/// A world keeps one mailbox per process.  Every communicator of the world
/// (the world communicator and the products of split()) shares those
/// mailboxes; an envelope carries its communicator's id, so traffic on
/// different communicators never cross-matches.

#include <deque>
#include <memory>
#include <vector>

#include "comm/comm.h"

namespace roc::comm {

/// One pending message in a mailbox.  The payload is a SharedBuffer, so a
/// send of an already-shared buffer enqueues a reference, not a copy.
struct Envelope {
  uint64_t comm_id = 0;
  int source = kAnySource;  ///< Sender's rank within communicator `comm_id`.
  int tag = kAnyTag;
  SharedBuffer payload;
  /// Sender's causal context, delivered in Message::ctx (trace stitching).
  telemetry::TraceContext ctx;
#if defined(ROCPIO_CHECK)
  uint64_t check_token = 0;  ///< Carries the sender's clock to the receiver.
#endif
};

/// A process's mailbox contents, in arrival order.
using EnvelopeQueue = std::deque<Envelope>;

/// Comm over per-process mailboxes.  A substrate supplies the transport
/// (post), the mailbox discipline a receiver waits under (match) and the
/// world's communicator-id counter (claim_comm_ids, make_child).
class MailboxComm : public Comm {
 public:
  [[nodiscard]] int rank() const final { return rank_; }
  [[nodiscard]] int size() const final {
    return static_cast<int>(members_.size());
  }

  using Comm::send;
  void send(int dest, int tag, const void* data, size_t n) final;
  /// Zero-copy: ships a reference to `buf`.
  void send(int dest, int tag, SharedBuffer buf) final;
  [[nodiscard]] Message recv(int source, int tag) final;
  bool iprobe(int source, int tag, Status* st) final;
  Status probe(int source, int tag) final;
  [[nodiscard]] std::unique_ptr<Comm> split(int color, int key) final;

 protected:
  MailboxComm(uint64_t comm_id, std::vector<int> members, int rank);

  /// One recv, probe or iprobe against this process's mailbox.
  struct Query {
    int source;
    int tag;
    bool wait;         ///< Block until a match arrives (recv, probe).
    Message* take;     ///< recv: the match leaves the mailbox into here.
    Status* describe;  ///< probe/iprobe: describes the match (may be null).
  };

  /// World (mailbox) index of member `rank`.
  [[nodiscard]] int world_rank(int rank) const {
    return members_[static_cast<size_t>(rank)];
  }

  /// An envelope from this process on this communicator, carrying the
  /// caller's trace context and, under the checker, a fresh packet token.
  [[nodiscard]] Envelope make_envelope(int tag, SharedBuffer payload) const;

  /// Applies `q` to the oldest matching envelope in `queue` (this process's
  /// mailbox); false when none matches.  Called under the substrate's
  /// mailbox discipline.
  bool settle(EnvelopeQueue& queue, const Query& q) const;

  // -- Substrate hooks ------------------------------------------------------

  /// Delivers `payload` to the mailbox of world rank `dest_world` (already
  /// range-checked): builds the envelope with make_envelope() and
  /// transports it.
  virtual void post(int dest_world, int tag, SharedBuffer payload) = 0;
  /// Runs settle() on this process's mailbox; while it finds nothing and
  /// `q.wait` is set, waits for the next arrival and retries.
  virtual bool match(const Query& q) = 0;
  /// Claims `count` consecutive fresh communicator ids; returns the first.
  virtual uint64_t claim_comm_ids(uint64_t count) = 0;
  /// The communicator split() returns: same world, new id and members.
  [[nodiscard]] virtual std::unique_ptr<Comm> make_child(
      uint64_t comm_id, std::vector<int> members, int rank) = 0;

 private:
  uint64_t comm_id_;
  std::vector<int> members_;  ///< World rank of each member.
  int rank_;                  ///< My rank within this communicator.
};

}  // namespace roc::comm
