#include "sim/sim_comm.h"

#include <algorithm>

#include "util/check_hooks.h"

namespace roc::sim {

namespace {

/// One process's communicator handle.  The transport charges the platform
/// network model; a receiver with nothing to match blocks in virtual time
/// until the next delivery to its mailbox.
class SimComm final : public comm::MailboxComm {
 public:
  SimComm(SimWorld* world, uint64_t comm_id, std::vector<int> members,
          int rank)
      : MailboxComm(comm_id, std::move(members), rank), world_(world) {}

 private:
  void post(int dest_world, int tag, SharedBuffer payload) override;
  bool match(const Query& q) override;
  uint64_t claim_comm_ids(uint64_t count) override;
  [[nodiscard]] std::unique_ptr<comm::Comm> make_child(
      uint64_t comm_id, std::vector<int> members, int rank) override;

  SimWorld* world_;
};

// ROC_COLD: the simulator's transport costs virtual time, not wall time.
// The hot closure of ThreadComm::sendv reaches post() by name and stops
// here; ThreadComm::post is the real-substrate transport it checks.
ROC_COLD void SimComm::post(int dest_world, int tag, SharedBuffer payload) {
  ROC_CHECK_PREEMPT("comm.send");
  const size_t n = payload.size();
  comm::Envelope e = make_envelope(tag, std::move(payload));
  const double end = world_->transfer_end(world_rank(rank()), dest_world, n);
  // Only a reference ships, but the modeled transfer charges every byte.
  world_->deliver_at(end, dest_world, std::move(e));
  // Standard-mode blocking send: the sender's CPU is occupied for the
  // transfer (copy + protocol processing).
  world_->sim_.current_context().wait_until(end, /*cpu_busy=*/true);
}

bool SimComm::match(const Query& q) {
  if (q.take) ROC_CHECK_PREEMPT("comm.recv");
  SimWorld::Mailbox& box =
      world_->mailboxes_[static_cast<size_t>(world_rank(rank()))];
  while (!settle(box.queue, q)) {
    if (!q.wait) return false;
    box.waiters.push_back(world_->sim_.current());
    world_->sim_.current_context().block();
  }
  return true;
}

uint64_t SimComm::claim_comm_ids(uint64_t count) {
  const uint64_t base = world_->next_comm_id_;
  world_->next_comm_id_ += count;
  return base;
}

std::unique_ptr<comm::Comm> SimComm::make_child(uint64_t comm_id,
                                                std::vector<int> members,
                                                int rank) {
  return std::make_unique<SimComm>(world_, comm_id, std::move(members), rank);
}

}  // namespace

SimWorld::SimWorld(Simulation& sim, int nprocs)
    : sim_(sim), nprocs_(nprocs), mailboxes_(static_cast<size_t>(nprocs)) {
  require(nprocs > 0, "SimWorld needs at least one process");
}

std::unique_ptr<comm::Comm> SimWorld::attach() {
  const int rank = sim_.current()->rank;
  require(rank >= 0 && rank < nprocs_,
          "attach: process rank outside this world");
  std::vector<int> members(static_cast<size_t>(nprocs_));
  for (int i = 0; i < nprocs_; ++i) members[static_cast<size_t>(i)] = i;
  return std::make_unique<SimComm>(this, /*comm_id=*/0, std::move(members),
                                   rank);
}

double SimWorld::transfer_end(int src_world, int dst_world, size_t bytes) {
  const NetworkParams& np = sim_.platform().net;
  const int src_node = sim_.node_of_rank(src_world);
  const int dst_node = sim_.node_of_rank(dst_world);
  const double scaled =
      static_cast<double>(bytes) * sim_.platform().byte_scale;
  // Shared-switch / co-scheduled-job interference degrades the whole
  // transfer (latency and effective bandwidth) with job size.
  const double interference =
      1.0 + np.interference_per_proc * static_cast<double>(nprocs_);

  double cost;
  double start;
  if (src_node == dst_node) {
    cost = (np.intra_latency + scaled / np.intra_bandwidth) * interference;
    double& ch = sim_.resource("mem:" + std::to_string(src_node));
    start = std::max(sim_.now(), ch);
    ch = start + cost;
  } else {
    cost = (np.inter_latency + scaled / np.inter_bandwidth) * interference;
    double& s = sim_.resource("nic:" + std::to_string(src_node));
    double& d = sim_.resource("nic:" + std::to_string(dst_node));
    start = std::max({sim_.now(), s, d});
    s = d = start + cost;
  }
  bytes_transferred_ += bytes;
  return start + cost;
}

void SimWorld::deliver_at(double t, int dst_world, comm::Envelope e) {
  sim_.schedule(t, [this, dst_world, e = std::move(e)]() mutable {
    Mailbox& box = mailboxes_[static_cast<size_t>(dst_world)];
    box.queue.push_back(std::move(e));
    for (detail::Process* p : box.waiters) sim_.wake(p, sim_.now());
    box.waiters.clear();
  });
}

}  // namespace roc::sim
