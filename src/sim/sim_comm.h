#pragma once
/// \file sim_comm.h
/// \brief Comm implementation over the discrete-event simulator.
///
/// SimComm is a comm::MailboxComm, so its semantics are ThreadComm's (the
/// comm contract tests run against both).  It adds the transport, whose
/// cost comes from the platform network model: a transfer occupies the shared
/// per-node memory channel (intra-node) or both endpoints' NICs
/// (inter-node) for latency + bytes/bandwidth, with latency inflated by
/// the job-size interference factor.  The sender is CPU-busy for the
/// duration (standard-mode blocking send); the receiver gets the message
/// when the transfer completes.

#include <memory>

#include "comm/mailbox_comm.h"
#include "sim/simulation.h"

namespace roc::sim {

/// Shared mailbox/network state for all communicators of one simulation.
/// Create one SimWorld per Simulation before adding processes; inside each
/// process body call attach() to get that rank's world communicator.
class SimWorld {
 public:
  SimWorld(Simulation& sim, int nprocs);

  /// World communicator for the currently running process (its rank is the
  /// process rank).  Call once per process.
  [[nodiscard]] std::unique_ptr<comm::Comm> attach();

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] Simulation& sim() { return sim_; }

  /// Total bytes pushed through the network (diagnostics).
  [[nodiscard]] uint64_t bytes_transferred() const {
    return bytes_transferred_;
  }

  // The remaining members are implementation detail shared with the
  // SimComm handles (kept public: the handles live in sim_comm.cpp's
  // anonymous namespace and cannot be befriended by name).

  struct Mailbox {
    comm::EnvelopeQueue queue;
    std::vector<detail::Process*> waiters;
  };

  /// Computes the transfer completion time for `bytes` from the current
  /// process to world rank `dst`, reserving the involved resources.
  double transfer_end(int src_world, int dst_world, size_t bytes);

  /// Schedules delivery of `e` into `dst`'s mailbox at time `t`.
  void deliver_at(double t, int dst_world, comm::Envelope e);

  Simulation& sim_;
  int nprocs_;
  std::vector<Mailbox> mailboxes_;
  uint64_t next_comm_id_ = 1;
  uint64_t bytes_transferred_ = 0;
};

}  // namespace roc::sim
