#include "comm/thread_comm.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <exception>

#include "util/mutex.h"
#include "util/thread.h"

namespace roc::comm {

namespace detail {

/// Per-process mailbox: FIFO of envelopes + wakeup signalling.
struct Mailbox {
  roc::Mutex mutex{"mailbox"};
  roc::CondVar cv;
  EnvelopeQueue queue ROC_GUARDED_BY(mutex);
};

/// Shared state of one World: mailboxes indexed by global rank.
struct WorldState {
  explicit WorldState(int n) : mailboxes(static_cast<size_t>(n)) {}
  std::vector<Mailbox> mailboxes;
  std::atomic<uint64_t> next_comm_id{1};
  /// Recycles gathered message storage across sendv calls (all ranks share
  /// it; BufferPool is internally synchronised).
  BufferPool pool;
};

}  // namespace detail

namespace {

/// Moves the calling thread onto the `slot`-th CPU (modulo their count) of
/// its affinity mask, then restores the mask, so the scheduler stays free
/// to migrate it later.  Threads started together otherwise begin on the
/// creator's CPU, and where idle vCPUs are invisible to wake-up placement
/// (halted vCPUs in a VM) nothing moves them apart.  No-op where thread
/// affinity is unavailable.
void start_on_cpu_slot(int slot) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int skip = slot % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Pinning migrates the thread now; restoring the mask leaves it there.
    if (sched_setaffinity(0, sizeof one, &one) == 0)
      sched_setaffinity(0, sizeof allowed, &allowed);
    return;
  }
#else
  (void)slot;
#endif
}

}  // namespace

using detail::Mailbox;
using detail::WorldState;

ThreadComm::ThreadComm(std::shared_ptr<WorldState> world, uint64_t comm_id,
                       std::vector<int> members, int rank)
    : MailboxComm(comm_id, std::move(members), rank),
      world_(std::move(world)) {}

void ThreadComm::post(int dest_world, int tag, SharedBuffer payload) {
  Mailbox& box = world_->mailboxes[static_cast<size_t>(dest_world)];
  Envelope e = make_envelope(tag, std::move(payload));
  {
    roc::MutexLock lock(box.mutex);
    // Mailbox ring growth is the transport's amortised cost: deque chunks
    // are recycled by the allocator in steady state.
    ROC_ALLOC_EXEMPT("why: amortised mailbox ring growth; the payload "
                     "itself is a reference, not a copy");
    box.queue.push_back(std::move(e));
  }
  box.cv.notify_all();
}

ROC_HOT void ThreadComm::sendv(int dest, int tag, const BufferChain& chain) {
  // Hot-path override of the pool-less base default: gather through the
  // world pool so steady-state sends reuse recycled message storage.
  send(dest, tag, chain.gather(&world_->pool));
}

bool ThreadComm::match(const Query& q) {
  Mailbox& box = world_->mailboxes[static_cast<size_t>(world_rank(rank()))];
  roc::MutexLock lock(box.mutex);
  while (!settle(box.queue, q)) {
    if (!q.wait) return false;
    box.cv.wait(box.mutex);
  }
  return true;
}

uint64_t ThreadComm::claim_comm_ids(uint64_t count) {
  return world_->next_comm_id.fetch_add(count);
}

std::unique_ptr<Comm> ThreadComm::make_child(uint64_t comm_id,
                                             std::vector<int> members,
                                             int rank) {
  return std::unique_ptr<Comm>(
      new ThreadComm(world_, comm_id, std::move(members), rank));
}

void World::run(int n, const Body& body) {
  require(n > 0, "World::run needs at least one process");
  auto state = std::make_shared<WorldState>(n);

  std::vector<int> members(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) members[static_cast<size_t>(i)] = i;

  std::vector<roc::Thread> threads;
  threads.reserve(static_cast<size_t>(n));
  roc::Mutex error_mutex{"world-error"};
  std::exception_ptr first_error;

  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      start_on_cpu_slot(r);  // like an MPI launcher's core binding, unkept
      try {
        ThreadComm comm(state, /*comm_id=*/0, members, r);
        body(comm);
      } catch (...) {
        roc::MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace roc::comm
