#include "comm/mailbox_comm.h"

#include <algorithm>

#include "util/check_hooks.h"
#include "util/serialize.h"

namespace roc::comm {

namespace {

bool matches(const Envelope& e, uint64_t comm_id, int source, int tag) {
  return e.comm_id == comm_id &&
         (source == kAnySource || e.source == source) &&
         (tag == kAnyTag || e.tag == tag);
}

}  // namespace

MailboxComm::MailboxComm(uint64_t comm_id, std::vector<int> members, int rank)
    : comm_id_(comm_id), members_(std::move(members)), rank_(rank) {}

void MailboxComm::send(int dest, int tag, const void* data, size_t n) {
  // The raw send contract lets the caller reuse `data` immediately, so this
  // path must copy; send(SharedBuffer) below is the zero-copy path.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc,r9-copy-discipline): why: the raw-send contract requires a copy; hot callers ship SharedBuffers or chains instead.
  send(dest, tag, SharedBuffer::copy_of(data, n));
}

void MailboxComm::send(int dest, int tag, SharedBuffer buf) {
  require(dest >= 0 && dest < size(), "send: dest rank out of range");
  post(world_rank(dest), tag, std::move(buf));
}

Envelope MailboxComm::make_envelope(int tag, SharedBuffer payload) const {
  Envelope e;
  e.comm_id = comm_id_;
  e.source = rank_;
  e.tag = tag;
  e.payload = std::move(payload);  // reference enqueue: no byte copy
  e.ctx = telemetry::current_trace_context();
#if defined(ROCPIO_CHECK)
  e.check_token = check::next_token();
  ROC_CHECKHOOK_(packet_send(e.check_token));
#endif
  return e;
}

bool MailboxComm::settle(EnvelopeQueue& queue, const Query& q) const {
  auto it = std::find_if(queue.begin(), queue.end(), [&](const Envelope& e) {
    return matches(e, comm_id_, q.source, q.tag);
  });
  if (it == queue.end()) return false;
  if (q.take) {
    q.take->source = it->source;
    q.take->tag = it->tag;
    q.take->payload = std::move(it->payload);
    q.take->ctx = it->ctx;
    ROC_CHECKHOOK_(packet_recv(it->check_token));
    queue.erase(it);
  } else if (q.describe) {
    q.describe->source = it->source;
    q.describe->tag = it->tag;
    q.describe->bytes = it->payload.size();
  }
  return true;
}

Message MailboxComm::recv(int source, int tag) {
  require(source == kAnySource || (source >= 0 && source < size()),
          "recv: source rank out of range");
  Message m;
  match({source, tag, /*wait=*/true, &m, nullptr});
  return m;
}

bool MailboxComm::iprobe(int source, int tag, Status* st) {
  require(source == kAnySource || (source >= 0 && source < size()),
          "iprobe: source rank out of range");
  return match({source, tag, /*wait=*/false, nullptr, st});
}

Status MailboxComm::probe(int source, int tag) {
  require(source == kAnySource || (source >= 0 && source < size()),
          "probe: source rank out of range");
  Status st;
  match({source, tag, /*wait=*/true, nullptr, &st});
  return st;
}

std::unique_ptr<Comm> MailboxComm::split(int color, int key) {
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

  std::vector<int> colors;
  for (const auto& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  // Only the new comm ids need agreement beyond the allgather: rank 0
  // claims a block from the world's counter and broadcasts its base; the
  // i-th smallest color gets base + i.  The block holds one id more than
  // there are colors; the last one is never used.
  std::vector<unsigned char> base_bytes;
  if (rank_ == 0) {
    ByteWriter bw;
    bw.put<uint64_t>(claim_comm_ids(colors.size() + 1));
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
  std::stable_sort(group.begin(), group.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> members;
  int my_new_rank = -1;
  for (const auto& e : group) {
    if (e.rank == rank_) my_new_rank = static_cast<int>(members.size());
    members.push_back(world_rank(e.rank));
  }

  const auto color_index = static_cast<uint64_t>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  return make_child(base + color_index, std::move(members), my_new_rank);
}

}  // namespace roc::comm
