#include "comm/comm.h"

#include <cstring>

#include "util/serialize.h"

namespace roc::comm {
namespace {

// Reserved tags for the generic collectives.  Collectives are called in the
// same order by every member (MPI semantics), and p2p messages between a
// fixed (source, dest, tag) pair are non-overtaking, so one tag per
// collective kind suffices.
constexpr int kTagBarrierIn = kReservedTagBase + 0;
constexpr int kTagBarrierOut = kReservedTagBase + 1;
constexpr int kTagBcast = kReservedTagBase + 2;
constexpr int kTagGather = kReservedTagBase + 3;

}  // namespace

void Comm::barrier() {
  // Fan-in to rank 0, then fan-out.  O(size) messages; fine for the process
  // counts used here, and trivially correct.
  if (size() == 1) return;
  if (rank() == 0) {
    for (int r = 1; r < size(); ++r) (void)recv(r, kTagBarrierIn);
    for (int r = 1; r < size(); ++r) signal(r, kTagBarrierOut);
  } else {
    signal(0, kTagBarrierIn);
    (void)recv(0, kTagBarrierOut);
  }
}

void Comm::bcast(std::vector<unsigned char>& data, int root) {
  require(root >= 0 && root < size(), "bcast root out of range");
  const int n = size();
  if (n == 1) return;
  // Binomial tree on virtual ranks (root -> 0): O(log n) rounds instead of
  // the root serializing n-1 transfers on its link.
  const int vr = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int parent = ((vr ^ mask) + root) % n;
      data = recv(parent, kTagBcast).payload.to_vector();
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) send((vr + mask + root) % n, kTagBcast, data);
    mask >>= 1;
  }
}

std::vector<std::vector<unsigned char>> Comm::gather(
    const std::vector<unsigned char>& mine, int root) {
  require(root >= 0 && root < size(), "gather root out of range");
  const int n = size();
  const int vr = (rank() - root + n) % n;

  // Binomial tree: each node accumulates its subtree's (vrank, payload)
  // entries, then forwards one framed message to its parent.
  std::vector<std::pair<int, std::vector<unsigned char>>> coll;
  coll.emplace_back(vr, mine);

  auto frame = [](const decltype(coll)& entries) {
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(entries.size()));
    for (const auto& [v, payload] : entries) {
      w.put<int32_t>(v);
      w.put<uint64_t>(payload.size());
      w.put_bytes(payload.data(), payload.size());
    }
    return w.take();
  };

  int mask = 1;
  while (mask < n) {
    if ((vr & mask) == 0) {
      if (vr + mask < n) {
        auto msg = recv((vr + mask + root) % n, kTagGather);
        ByteReader r(msg.payload.data(), msg.payload.size());
        const auto count = r.get<uint32_t>();
        for (uint32_t i = 0; i < count; ++i) {
          const int v = r.get<int32_t>();
          const auto len = r.get<uint64_t>();
          std::vector<unsigned char> p(static_cast<size_t>(len));
          r.get_bytes(p.data(), p.size());
          coll.emplace_back(v, std::move(p));
        }
      }
    } else {
      send(((vr ^ mask) + root) % n, kTagGather, frame(coll));
      break;
    }
    mask <<= 1;
  }

  std::vector<std::vector<unsigned char>> out;
  if (vr == 0) {
    out.resize(static_cast<size_t>(n));
    for (auto& [v, payload] : coll)
      out[static_cast<size_t>((v + root) % n)] = std::move(payload);
  }
  return out;
}

std::vector<std::vector<unsigned char>> Comm::allgather(
    const std::vector<unsigned char>& mine) {
  auto parts = gather(mine, 0);
  // Root frames all payloads into one buffer and broadcasts it.
  std::vector<unsigned char> frame;
  if (rank() == 0) {
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(parts.size()));
    for (const auto& p : parts) {
      w.put<uint64_t>(p.size());
      w.put_bytes(p.data(), p.size());
    }
    frame = w.take();
  }
  bcast(frame, 0);
  if (rank() == 0) return parts;
  ByteReader r(frame.data(), frame.size());
  const auto n = r.get<uint32_t>();
  std::vector<std::vector<unsigned char>> out(n);
  for (auto& p : out) {
    const auto len = r.get<uint64_t>();
    p.resize(static_cast<size_t>(len));
    r.get_bytes(p.data(), p.size());
  }
  return out;
}

}  // namespace roc::comm
