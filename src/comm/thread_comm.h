#pragma once
/// \file thread_comm.h
/// \brief Thread-backed implementation of the Comm interface ("real mode").
///
/// A World hosts N processes, each a thread with a mailbox guarded by a
/// mutex and a condition variable.  The MPI semantics (matching, probes,
/// split) come from MailboxComm; ThreadComm adds the locked mailbox push
/// and wait, an atomic communicator-id counter and a pooled sendv.
///
/// Usage:
///   roc::comm::World::run(8, [](roc::comm::Comm& comm) { ... });

#include <functional>
#include <memory>
#include <vector>

#include "comm/mailbox_comm.h"

namespace roc::comm {

namespace detail {
struct WorldState;
}  // namespace detail

/// MailboxComm over shared-memory mailboxes.  See file comment.
class ThreadComm final : public MailboxComm {
 public:
  /// Gathers through the world's buffer pool so steady-state sends recycle
  /// message storage instead of allocating per send.
  void sendv(int dest, int tag, const BufferChain& chain) override;

 private:
  friend class World;
  ThreadComm(std::shared_ptr<detail::WorldState> world, uint64_t comm_id,
             std::vector<int> members, int rank);

  void post(int dest_world, int tag, SharedBuffer payload) override;
  bool match(const Query& q) override;
  uint64_t claim_comm_ids(uint64_t count) override;
  [[nodiscard]] std::unique_ptr<Comm> make_child(
      uint64_t comm_id, std::vector<int> members, int rank) override;

  std::shared_ptr<detail::WorldState> world_;
};

/// Launches `n` processes (threads); each runs `body` with its own world
/// communicator.  Blocks until all processes return.  If any process throws,
/// the first exception is re-thrown here after all threads have been joined.
class World {
 public:
  using Body = std::function<void(Comm&)>;

  static void run(int n, const Body& body);
};

}  // namespace roc::comm
