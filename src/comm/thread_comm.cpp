#include "comm/thread_comm.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>

#include "util/check_hooks.h"
#include "util/mutex.h"
#include "util/serialize.h"
#include "util/thread.h"

namespace roc::comm {

namespace detail {

/// One pending message in a mailbox.  The payload is a SharedBuffer so a
/// send of an already-shared buffer enqueues a reference, not a copy.
struct Envelope {
  uint64_t comm_id;
  int source;  ///< Sender's rank within the communicator `comm_id`.
  int tag;
  SharedBuffer payload;
  /// Sender's causal context, delivered in Message::ctx (trace stitching).
  telemetry::TraceContext ctx;
#if defined(ROCPIO_CHECK)
  uint64_t check_token = 0;  ///< Carries the sender's clock to the receiver.
#endif
};

/// Per-process mailbox: FIFO of envelopes + wakeup signalling.
struct Mailbox {
  roc::Mutex mutex{"mailbox"};
  roc::CondVar cv;
  std::deque<Envelope> queue ROC_GUARDED_BY(mutex);
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

namespace {

bool matches(const Envelope& e, uint64_t comm_id, int source, int tag) {
  return e.comm_id == comm_id &&
         (source == kAnySource || e.source == source) &&
         (tag == kAnyTag || e.tag == tag);
}

}  // namespace
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

using detail::Envelope;
using detail::Mailbox;
using detail::WorldState;

ThreadComm::ThreadComm(std::shared_ptr<WorldState> world, uint64_t comm_id,
                       std::vector<int> members, int rank)
    : world_(std::move(world)),
      comm_id_(comm_id),
      members_(std::move(members)),
      rank_(rank) {}

void ThreadComm::send(int dest, int tag, const void* data, size_t n) {
  // The raw send contract lets the caller reuse `data` immediately, so this
  // path must copy; send(SharedBuffer) below is the zero-copy path.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc,r9-copy-discipline): why: the raw-send contract requires a copy; hot callers ship SharedBuffers or chains instead.
  send(dest, tag, SharedBuffer::copy_of(data, n));
}

void ThreadComm::send(int dest, int tag, SharedBuffer buf) {
  require(dest >= 0 && dest < size(), "send: dest rank out of range");
  Mailbox& box = world_->mailboxes[static_cast<size_t>(
      members_[static_cast<size_t>(dest)])];
  Envelope e;
  e.comm_id = comm_id_;
  e.source = rank_;
  e.tag = tag;
  e.payload = std::move(buf);  // reference enqueue: no byte copy
  e.ctx = telemetry::current_trace_context();
#if defined(ROCPIO_CHECK)
  e.check_token = check::next_token();
  ROC_CHECKHOOK_(packet_send(e.check_token));
#endif
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

Message ThreadComm::recv(int source, int tag) {
  require(source == kAnySource || (source >= 0 && source < size()),
          "recv: source rank out of range");
  Mailbox& box =
      world_->mailboxes[static_cast<size_t>(members_[static_cast<size_t>(rank_)])];
  roc::MutexLock lock(box.mutex);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [&](const Envelope& e) {
                             return detail::matches(e, comm_id_, source, tag);
                           });
    if (it != box.queue.end()) {
      Message m;
      m.source = it->source;
      m.tag = it->tag;
      m.payload = std::move(it->payload);
      m.ctx = it->ctx;
#if defined(ROCPIO_CHECK)
      const uint64_t token = it->check_token;
      ROC_CHECKHOOK_(packet_recv(token));
#endif
      box.queue.erase(it);
      return m;
    }
    box.cv.wait(box.mutex);
  }
}

bool ThreadComm::iprobe(int source, int tag, Status* st) {
  Mailbox& box =
      world_->mailboxes[static_cast<size_t>(members_[static_cast<size_t>(rank_)])];
  roc::MutexLock lock(box.mutex);
  auto it = std::find_if(box.queue.begin(), box.queue.end(),
                         [&](const Envelope& e) {
                           return detail::matches(e, comm_id_, source, tag);
                         });
  if (it == box.queue.end()) return false;
  if (st) {
    st->source = it->source;
    st->tag = it->tag;
    st->bytes = it->payload.size();
  }
  return true;
}

Status ThreadComm::probe(int source, int tag) {
  Mailbox& box =
      world_->mailboxes[static_cast<size_t>(members_[static_cast<size_t>(rank_)])];
  roc::MutexLock lock(box.mutex);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [&](const Envelope& e) {
                             return detail::matches(e, comm_id_, source, tag);
                           });
    if (it != box.queue.end()) {
      Status st;
      st.source = it->source;
      st.tag = it->tag;
      st.bytes = it->payload.size();
      return st;
    }
    box.cv.wait(box.mutex);
  }
}

std::unique_ptr<Comm> ThreadComm::split(int color, int key) {
  // Collective: everyone contributes (color, key, rank); every member then
  // derives the same group memberships locally.
  ByteWriter w;
  w.put<int32_t>(color);
  w.put<int32_t>(key);
  w.put<int32_t>(rank_);
  auto all = allgather(w.take());

  struct Entry {
    int color, key, rank;
  };
  std::vector<Entry> entries;
  entries.reserve(all.size());
  for (const auto& bytes : all) {
    ByteReader r(bytes.data(), bytes.size());
    Entry e;
    e.color = r.get<int32_t>();
    e.key = r.get<int32_t>();
    e.rank = r.get<int32_t>();
    entries.push_back(e);
  }

  // Deterministic new comm ids: distinct colors get consecutive ids claimed
  // from the world counter by the overall lowest-ranked member, broadcast
  // implicitly by recomputing the same ordering everywhere.  To avoid an
  // extra round-trip we derive ids from a collectively-agreed base: rank 0
  // of the parent claims a contiguous block and broadcasts the base.
  std::vector<int> colors;
  for (const auto& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  std::vector<unsigned char> base_bytes;
  if (rank_ == 0) {
    uint64_t base = world_->next_comm_id.fetch_add(colors.size() + 1);
    ByteWriter bw;
    bw.put<uint64_t>(base);
    base_bytes = bw.take();
  }
  bcast(base_bytes, 0);
  ByteReader br(base_bytes.data(), base_bytes.size());
  const uint64_t base = br.get<uint64_t>();

  if (color < 0) return nullptr;

  // Build my group, ordered by (key, old rank).
  std::vector<Entry> group;
  for (const auto& e : entries)
    if (e.color == color) group.push_back(e);
  std::stable_sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::vector<int> members;
  int my_new_rank = -1;
  for (const auto& e : group) {
    if (e.rank == rank_) my_new_rank = static_cast<int>(members.size());
    // Translate parent rank -> global rank.
    members.push_back(members_[static_cast<size_t>(e.rank)]);
  }

  const auto color_index = static_cast<uint64_t>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  const uint64_t new_id = base + color_index;

  return std::unique_ptr<Comm>(
      new ThreadComm(world_, new_id, std::move(members), my_new_rank));
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
