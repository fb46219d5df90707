#include "genx/orchestrator.h"

#include <algorithm>
#include <cstdio>

#include "genx/rocface.h"
#include "mesh/partition.h"
#include "mesh/refine.h"
#include "roccom/block_wire.h"
#include "telemetry/trace.h"
#include "util/serialize.h"

namespace roc::genx {

using mesh::Centering;
using mesh::MeshBlock;
using roccom::IoRequest;

namespace {

/// Burn blocks get ids above this offset (one burn block per solid block).
constexpr int kBurnIdOffset = 100000;

MeshBlock make_burn_block(const MeshBlock& solid_block) {
  // A thin logically-1D strip representing the burning surface of this
  // propellant block (Rocburn's per-interface 1-D models).
  MeshBlock b = MeshBlock::structured(solid_block.id() + kBurnIdOffset,
                                      {2, 2, 8});
  // Place it along the solid block's first few nodes (geometry is
  // illustrative; the burn model only uses the fields).
  for (size_t n = 0; n < b.node_count() && n < solid_block.node_count(); ++n)
    for (int c = 0; c < 3; ++c)
      b.coords()[3 * n + c] = solid_block.coords()[3 * n + c];
  add_burn_schema(b);
  return b;
}

}  // namespace

GenxRun::GenxRun(comm::Comm& clients, comm::Env& env, roccom::IoService& io,
                 GenxConfig config)
    : clients_(clients), env_(env), io_(io), cfg_(std::move(config)) {
  auto& fluid = com_.create_window("fluid");
  fluid.declare_field({"velocity", Centering::kNode, 3});
  fluid.declare_field({"pressure", Centering::kElement, 1});
  fluid.declare_field({"temperature", Centering::kElement, 1});

  auto& solid = com_.create_window("solid");
  solid.declare_field({"displacement", Centering::kNode, 3});
  solid.declare_field({"stress", Centering::kElement, 6});
  solid.declare_field({"surface_load", Centering::kNode, 1});

  auto& burn = com_.create_window("burn");
  burn.declare_field({"burn_rate", Centering::kElement, 1});
  burn.declare_field({"temperature", Centering::kNode, 1});
}

GenxRun::~GenxRun() = default;

const char* GenxRun::window_of(const MeshBlock& block) {
  if (block.find_field("burn_rate") != nullptr) return "burn";
  if (block.find_field("stress") != nullptr) return "solid";
  return "fluid";
}

void GenxRun::register_block(MeshBlock&& block) {
  blocks_.push_back(std::move(block));
  MeshBlock& b = blocks_.back();
  com_.window(window_of(b)).register_pane(b.id(), &b);
}

std::string GenxRun::snapshot_base(int step) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_snap_%06d", step);
  return cfg_.run_name + buf;
}

size_t GenxRun::local_block_count() const { return blocks_.size(); }

size_t GenxRun::local_payload_bytes() const {
  size_t n = 0;
  for (const auto& b : blocks_) n += b.payload_bytes();
  return n;
}

void GenxRun::init_fresh() {
  // Every client generates the identical global mesh deterministically and
  // keeps its partition (the paper's pre-partitioned input data).
  mesh::RocketMesh rocket = mesh::make_lab_scale_rocket(cfg_.mesh_spec);
  std::vector<MeshBlock> all;
  all.reserve(rocket.total_blocks() * 2);
  for (auto& b : rocket.fluid) all.push_back(std::move(b));
  for (auto& b : rocket.solid) {
    all.push_back(make_burn_block(b));
    all.push_back(std::move(b));
  }
  std::sort(all.begin(), all.end(),
            [](const MeshBlock& a, const MeshBlock& b) {
              return a.id() < b.id();
            });

  const auto partition =
      mesh::partition_blocks(all, clients_.size());
  for (size_t idx : partition[static_cast<size_t>(clients_.rank())])
    register_block(std::move(all[idx]));

  coupling_ = exchange_coupling();
  step_ = 0;
}

void GenxRun::init_restart(const std::string& snapshot_base_name) {
  const double t0 = env_.now();

  // The step is encoded in the snapshot name ("..._snap_000150").
  const auto pos = snapshot_base_name.rfind("_snap_");
  require(pos != std::string::npos,
          "cannot parse step from snapshot name " + snapshot_base_name);
  step_ = std::stoi(snapshot_base_name.substr(pos + 6));

  // Discover the block list and redistribute round-robin: restart works
  // with any client/server shape (paper §4.1).
  const auto ids = io_.list_panes(snapshot_base_name);
  require(!ids.empty(),
          "restart: no data blocks found for snapshot '" +
              snapshot_base_name + "'");
  std::vector<int> mine;
  for (size_t i = 0; i < ids.size(); ++i)
    if (static_cast<int>(i % static_cast<size_t>(clients_.size())) ==
        clients_.rank())
      mine.push_back(ids[i]);

  auto restored = io_.fetch_blocks(snapshot_base_name, mine);
  for (auto& b : restored) register_block(std::move(b));

  stats_.restart_read_seconds += env_.now() - t0;
  coupling_ = exchange_coupling();
}

InterfaceState GenxRun::exchange_coupling() {
  // Allgather per-block contributions and reduce them in block-id order so
  // the floating-point result is identical under any partitioning.
  ByteWriter w;
  w.put<uint32_t>(static_cast<uint32_t>(blocks_.size()));
  for (const auto& b : blocks_) {
    const CouplingContribution c = coupling_contribution(b);
    w.put<int32_t>(c.block_id);
    w.put<double>(c.pressure_sum);
    w.put<double>(c.pressure_count);
    w.put<double>(c.burn_sum);
    w.put<double>(c.burn_count);
  }
  auto all = clients_.allgather(w.take());

  std::vector<CouplingContribution> contributions;
  for (const auto& bytes : all) {
    ByteReader r(bytes.data(), bytes.size());
    const auto n = r.get<uint32_t>();
    for (uint32_t i = 0; i < n; ++i) {
      CouplingContribution c;
      c.block_id = r.get<int32_t>();
      c.pressure_sum = r.get<double>();
      c.pressure_count = r.get<double>();
      c.burn_sum = r.get<double>();
      c.burn_count = r.get<double>();
      contributions.push_back(c);
    }
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const CouplingContribution& a, const CouplingContribution& b) {
              return a.block_id < b.block_id;
            });
  return reduce_coupling(contributions);
}

void GenxRun::step_local_physics() {
  for (auto& b : blocks_) {
    const char* win = window_of(b);
    if (win[0] == 'f') fluid_step(b, cfg_.dt, coupling_);
    else if (win[0] == 's') solid_step(b, cfg_.dt, coupling_);
    else burn_step(b, cfg_.dt, coupling_);
  }
  if (cfg_.compute_seconds_per_step > 0)
    env_.compute(cfg_.compute_seconds_per_step);
}

void GenxRun::write_snapshot(int step) {
  const std::string base = snapshot_base(step);
  const double time = step * cfg_.dt;
  // Application-level perceived cost of the whole output phase (all three
  // modules); the I/O services nest their own per-request spans inside.
  ROC_TRACE_SPAN_D("genx", "snapshot.perceived", base);
  const double t0 = env_.now();
  // Back-to-back output requests from the three modules (the paper's
  // multi-component output phase).
  io_.write_attribute(com_, IoRequest{"fluid", "all", base, time});
  io_.write_attribute(com_, IoRequest{"solid", "all", base, time});
  io_.write_attribute(com_, IoRequest{"burn", "all", base, time});
  stats_.visible_output_seconds += env_.now() - t0;
  ++stats_.snapshots_written;
}

void GenxRun::maybe_refine(int step) {
  if (cfg_.refine_every <= 0 || step % cfg_.refine_every != 0) return;

  // Collective id allocation: everyone learns the global max id, then each
  // client claims a disjoint pair deterministic in its rank.
  int local_max = -1;
  for (const auto& b : blocks_) local_max = std::max(local_max, b.id());
  const int global_max = comm::allreduce_max(clients_, local_max);
  int next_id = global_max + 1 + 2 * clients_.rank();

  // Split the largest splittable non-burn local block.
  auto best = blocks_.end();
  size_t best_bytes = 0;
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->find_field("burn_rate") != nullptr) continue;
    const bool splittable =
        it->kind() == mesh::MeshKind::kStructured
            ? *std::max_element(it->node_dims().begin(),
                                it->node_dims().end()) >= 3
            : it->element_count() >= 2;
    if (splittable && it->payload_bytes() > best_bytes) {
      best = it;
      best_bytes = it->payload_bytes();
    }
  }
  if (best == blocks_.end()) return;

  auto [a, b] = mesh::split_block(*best, next_id);
  com_.window(window_of(*best)).remove_pane(best->id());
  blocks_.erase(best);
  register_block(std::move(a));
  register_block(std::move(b));
}

std::vector<GenxRun::GlobalBlock> GenxRun::gather_block_table() {
  ByteWriter w;
  w.put<uint32_t>(static_cast<uint32_t>(blocks_.size()));
  for (const auto& b : blocks_) {
    w.put<int32_t>(b.id());
    w.put<uint64_t>(b.payload_bytes());
  }
  auto all = clients_.allgather(w.take());
  std::vector<GlobalBlock> table;
  for (size_t owner = 0; owner < all.size(); ++owner) {
    ByteReader r(all[owner].data(), all[owner].size());
    const auto n = r.get<uint32_t>();
    for (uint32_t i = 0; i < n; ++i) {
      GlobalBlock g;
      g.id = r.get<int32_t>();
      g.bytes = r.get<uint64_t>();
      g.owner = static_cast<int>(owner);
      table.push_back(g);
    }
  }
  std::sort(table.begin(), table.end(),
            [](const GlobalBlock& a, const GlobalBlock& b) {
              return a.id < b.id;
            });
  return table;
}

double GenxRun::load_imbalance() {
  const auto table = gather_block_table();
  std::vector<uint64_t> loads(static_cast<size_t>(clients_.size()), 0);
  uint64_t total = 0;
  for (const auto& g : table) {
    loads[static_cast<size_t>(g.owner)] += g.bytes;
    total += g.bytes;
  }
  const uint64_t max_load = *std::max_element(loads.begin(), loads.end());
  const double mean =
      static_cast<double>(total) / static_cast<double>(loads.size());
  return mean > 0 ? static_cast<double>(max_load) / mean : 1.0;
}

size_t GenxRun::rebalance() {
  constexpr int kTagMigrate = 51;  // on the client communicator

  // Everyone derives the identical migration plan from the gathered table.
  const auto table = gather_block_table();
  mesh::Partition part(static_cast<size_t>(clients_.size()));
  std::vector<size_t> sizes(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    sizes[i] = static_cast<size_t>(table[i].bytes);
    part[static_cast<size_t>(table[i].owner)].push_back(i);
  }
  const auto moves = mesh::plan_rebalance(sizes, part);

  size_t my_moves = 0;
  for (const auto& m : moves) {
    const int id = table[m.block_index].id;
    if (m.from == clients_.rank()) {
      auto it = std::find_if(blocks_.begin(), blocks_.end(),
                             [&](const mesh::MeshBlock& b) {
                               return b.id() == id;
                             });
      require(it != blocks_.end(), "rebalance: block to migrate not local");
      clients_.sendv(m.to, kTagMigrate,
                     roccom::WireBlock::serialize_chain(*it, "all"));
      com_.window(window_of(*it)).remove_pane(id);
      blocks_.erase(it);
      ++my_moves;
    } else if (m.to == clients_.rank()) {
      auto msg = clients_.recv(m.from, kTagMigrate);
      register_block(
          roccom::decode_block(msg.payload.data(), msg.payload.size()));
      ++my_moves;
    }
  }
  return my_moves;
}

void GenxRun::run() {
  const double run_start = env_.now();

  if (cfg_.write_initial_snapshot && cfg_.snapshot_interval > 0 &&
      step_ % cfg_.snapshot_interval == 0)
    write_snapshot(step_);

  const int last = step_ + cfg_.steps;
  while (step_ < last) {
    // Local solver work ("computation time" in the paper's Table 1 sense)
    // is timed separately from the inter-module coupling exchange, which
    // also absorbs the wait for peers staggered by an earlier output phase.
    const double t0 = env_.now();
    step_local_physics();
    const double t1 = env_.now();
    stats_.compute_seconds += t1 - t0;

    coupling_ = exchange_coupling();
    if (cfg_.use_rocface)
      (void)transfer_fluid_to_solid(clients_, com_, "fluid", "solid");
    ++step_;
    maybe_refine(step_);
    if (cfg_.rebalance_every > 0 && step_ % cfg_.rebalance_every == 0)
      (void)rebalance();
    stats_.coupling_seconds += env_.now() - t1;

    if (cfg_.snapshot_interval > 0 && step_ % cfg_.snapshot_interval == 0)
      write_snapshot(step_);
  }

  const double t1 = env_.now();
  io_.sync();
  stats_.sync_seconds += env_.now() - t1;
  (void)run_start;
}

uint64_t GenxRun::global_state_checksum() {
  // XOR of per-block fingerprints is order- and partition-independent.
  uint64_t local = 0;
  for (const auto& b : blocks_) local ^= b.state_checksum();
  uint64_t all = comm::allreduce(clients_, local,
                                 [](uint64_t a, uint64_t b) { return a ^ b; });
  return all ^ (static_cast<uint64_t>(step_) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace roc::genx
