#include "core/hierarchical.h"

#include <algorithm>
#include <array>

#include "comm/tagspace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::core {
namespace {

// Workspace slots (byte and float slots are independent namespaces; the
// numbers match compressed_allreduce.cpp — safe because the two TUs never
// hold spans across a call into each other for the same slot).
constexpr std::size_t kSlotPayload = 0;    // outbound payload (bytes)
constexpr std::size_t kSlotInPayload = 1;  // inbound payload (bytes)
constexpr std::size_t kSlotIncoming = 0;   // float accumulation buffer

// Topology queries over the raw node_of map. All O(world) / O(world²)
// integer scans with no allocation: worlds here are a few hundred at most
// and every call moves megabytes, so scans are noise — and avoiding
// materialized rail lists is what keeps the steady state alloc-free.
bool first_of_node(const std::vector<int>& node_of, int q) {
  const int node = node_of[static_cast<std::size_t>(q)];
  for (int s = 0; s < q; ++s) {
    if (node_of[static_cast<std::size_t>(s)] == node) return false;
  }
  return true;
}

int node_size(const std::vector<int>& node_of, int node) {
  return static_cast<int>(std::count(node_of.begin(), node_of.end(), node));
}

// The `local`-th rank (ascending) of node `node`.
int rank_on_node(const std::vector<int>& node_of, int node, int local) {
  int seen = 0;
  for (int q = 0; q < static_cast<int>(node_of.size()); ++q) {
    if (node_of[static_cast<std::size_t>(q)] == node && seen++ == local) {
      return q;
    }
  }
  CGX_CHECK(false) << "node " << node << " has no local rank " << local;
  return -1;
}

// Calls fn(position, node id, node size) for every node, nodes placed in
// order of their lowest rank.
template <typename Fn>
void for_each_node(const std::vector<int>& node_of, Fn&& fn) {
  int pos = 0;
  for (int q = 0; q < static_cast<int>(node_of.size()); ++q) {
    if (!first_of_node(node_of, q)) continue;
    const int node = node_of[static_cast<std::size_t>(q)];
    fn(pos++, node, node_size(node_of, node));
  }
}

// This rank's place in the rails partition (see hierarchical.h).
struct Rails {
  int node;    // raw node id
  int m;       // ranks on this node
  int local;   // this rank's index on its node
  int shards;  // S: the largest node's size
  int nodes;   // N: rail width, one member per node
  int pos;     // this node's position among nodes = its rail chunk index

  bool owns(int s) const { return s % m == local; }
  // Index of an owned shard among this rank's owned shards.
  int owned_index(int s) const { return s / m; }
  int owned_count() const { return (shards - local + m - 1) / m; }
};

Rails resolve_rails(const comm::Comm& comm, const HierarchicalOptions& o) {
  const std::vector<int>& node_of = o.node_of;
  CGX_CHECK_EQ(node_of.size(), static_cast<std::size_t>(comm.size()));
  const int rank = comm.rank();
  Rails r{};
  r.node = node_of[static_cast<std::size_t>(rank)];
  r.m = node_size(node_of, r.node);
  for (int q = 0; q < rank; ++q) {
    if (node_of[static_cast<std::size_t>(q)] == r.node) ++r.local;
  }
  for_each_node(node_of, [&](int j, int node, int size) {
    r.shards = std::max(r.shards, size);
    ++r.nodes;
    if (node == r.node) r.pos = j;
  });
  return r;
}

std::span<float> shard_of(std::span<float> data, const Rails& r, int s) {
  const auto [first, last] = comm::chunk_range(data.size(), r.shards, s);
  return data.subspan(first, last - first);
}

// Node peer holding local index `local` (the owner of a shard, or a
// receiver of the allgather).
int node_peer(const HierarchicalOptions& o, const Rails& r, int local) {
  return rank_on_node(o.node_of, r.node, local);
}

Compressor& rail_compressor(std::span<Compressor* const> compressors,
                            const Rails& r, int s, int j) {
  return *compressors[static_cast<std::size_t>(r.owned_index(s) * r.nodes +
                                               j)];
}

// Calls fn(q, j) once for every other member q of rail s, j being q's
// node position, servicing them in arrival order on `tag` when the rail
// fits the any-source bookkeeping and in node order otherwise.
template <typename Fn>
void for_each_rail_peer_by_arrival(comm::Comm& comm,
                                   const HierarchicalOptions& o,
                                   const Rails& r, int s, int tag, Fn&& fn) {
  constexpr auto kCap = static_cast<std::size_t>(comm::kMaxAnySourceWorld);
  std::array<int, kCap> peers;
  std::array<int, kCap> positions;
  std::size_t count = 0;
  const bool any_source = r.nodes - 1 <= comm::kMaxAnySourceWorld;
  for_each_node(o.node_of, [&](int j, int node, int size) {
    if (j == r.pos) return;
    const int q = rank_on_node(o.node_of, node, s % size);
    if (any_source) {
      peers[count] = q;
      positions[count++] = j;
    } else {
      fn(q, j);
    }
  });
  if (any_source) {
    comm::for_each_by_arrival(comm, {peers.data(), count}, tag, [&](int q) {
      const auto i = static_cast<std::size_t>(
          std::find(peers.begin(), peers.begin() + count, q) - peers.begin());
      fn(q, positions[i]);
    });
  }
}

// ------------------------------------------------------ intra-node hops

// Hands `span` to node peer q: a peer-direct post where the link allows —
// q reads straight out of our memory, so the span stays untouched until
// the matching direct_wait — else a buffered channel send.
void hand_over(comm::Comm& comm, int q, std::span<const float> span,
               int tag) {
  if (comm.supports_direct_exchange(q)) {
    comm.direct_post(q, span, tag);
  } else {
    comm.send_floats(q, span, tag);
  }
}

// Returns once q has consumed what hand_over gave it.
void await_handed_over(comm::Comm& comm, int q, int tag) {
  if (comm.supports_direct_exchange(q)) comm.direct_wait(q, tag);
}

// Folds the node peers' copies of owned shard `shard` in fixed ascending
// local-rank order (bit-identical run to run). Adjacent peer-direct peers
// pair into one direct_pull2 pass — bit-identical to two sequential pulls
// by the copy_add2 contract — and a channel peer in between flushes the
// pending pair first, preserving the ascending add order.
void fold_shard(comm::Comm& comm, std::span<float> shard,
                const HierarchicalOptions& o, const Rails& r,
                CollectiveWorkspace& ws, int tag) {
  int pending = -1;
  const auto flush = [&]() {
    if (pending >= 0) {
      comm.direct_pull(pending, shard, /*add=*/true, tag);
      pending = -1;
    }
  };
  for (int p = 0; p < r.m; ++p) {
    if (p == r.local) continue;
    const int q = node_peer(o, r, p);
    if (comm.supports_direct_exchange(q)) {
      if (pending < 0) {
        pending = q;
      } else {
        comm.direct_pull2(pending, q, shard, tag);
        pending = -1;
      }
      continue;
    }
    flush();
    if (comm.transport().supports_recv_add()) {
      comm.recv_add_floats(q, shard, tag);
    } else {
      const std::span<float> incoming = ws.floats(kSlotIncoming, shard.size());
      comm.recv_floats(q, incoming, tag);
      tensor::add_inplace(shard, incoming);
    }
  }
  flush();
}

// ------------------------------------------------------------- rail SRA

// Rail round 1: compress rail chunk j of the node-reduced shard with its
// own (shard, chunk) compressor — the node-boundary re-compression whose
// error feedback lives in that instance — and ship it to node j's member.
void rail_scatter(comm::Comm& comm, std::span<float> shard, int s,
                  std::span<Compressor* const> compressors, util::Rng& rng,
                  const HierarchicalOptions& o, const Rails& r,
                  CollectiveWorkspace& ws, int tag) {
  for_each_node(o.node_of, [&](int j, int node, int size) {
    if (j == r.pos) return;
    const auto [first, last] = comm::chunk_range(shard.size(), r.nodes, j);
    const std::span<const float> chunk = shard.subspan(first, last - first);
    Compressor& comp = rail_compressor(compressors, r, s, j);
    const std::span<std::byte> payload =
        ws.bytes(kSlotPayload, comp.compressed_size(chunk.size()));
    const std::size_t written = comp.compress(chunk, payload, rng);
    comm.send(rank_on_node(o.node_of, node, s % size),
              payload.first(written), tag);
  });
}

// Rail drain: stage the other nodes' contributions to this node's rail
// chunk in arrival order, fold them in fixed node order, re-compress the
// reduced chunk once, and allgather the rail's chunks.
void rail_drain(comm::Comm& comm, std::span<float> shard, int s,
                std::span<Compressor* const> compressors, util::Rng& rng,
                const HierarchicalOptions& o, const Rails& r,
                CollectiveWorkspace& ws, int scatter_tag, int gather_tag) {
  const int me = r.pos;
  Compressor& mine_comp = rail_compressor(compressors, r, s, me);
  const auto [mf, ml] = comm::chunk_range(shard.size(), r.nodes, me);
  const std::span<float> mine = shard.subspan(mf, ml - mf);
  const std::span<float> staged = ws.floats(
      kSlotIncoming, static_cast<std::size_t>(r.nodes - 1) * mine.size());
  const std::span<std::byte> in_payload =
      ws.bytes(kSlotInPayload, mine_comp.compressed_size(mine.size()));
  const auto staged_chunk = [&](int j) {
    const auto slot = static_cast<std::size_t>(j < me ? j : j - 1);
    return staged.subspan(slot * mine.size(), mine.size());
  };
  for_each_rail_peer_by_arrival(comm, o, r, s, scatter_tag,
                                [&](int q, int j) {
                                  comm.recv(q, in_payload, scatter_tag);
                                  mine_comp.decompress(in_payload,
                                                       staged_chunk(j));
                                });
  for (int j = 0; j < r.nodes; ++j) {
    if (j != me) tensor::add_inplace(mine, staged_chunk(j));
  }

  // Round 2: one re-compression of the fully reduced chunk; everyone —
  // including this rank, via its own payload — adopts the decompressed
  // bytes, so all nodes stay bit-identical.
  const std::span<std::byte> payload =
      ws.bytes(kSlotPayload, mine_comp.compressed_size(mine.size()));
  const std::span<const std::byte> reduced =
      payload.first(mine_comp.compress(mine, payload, rng));
  for_each_node(o.node_of, [&](int j, int node, int size) {
    if (j != me) {
      comm.send(rank_on_node(o.node_of, node, s % size), reduced, gather_tag);
    }
  });
  mine_comp.decompress(reduced, mine);

  // Gathered chunks land in disjoint regions: arrival order can't change
  // the final bytes.
  for_each_rail_peer_by_arrival(comm, o, r, s, gather_tag, [&](int q, int j) {
    const auto [first, last] = comm::chunk_range(shard.size(), r.nodes, j);
    const std::span<float> chunk = shard.subspan(first, last - first);
    Compressor& comp = rail_compressor(compressors, r, s, j);
    const std::span<std::byte> gathered =
        ws.bytes(kSlotInPayload, comp.compressed_size(chunk.size()));
    comm.recv(q, gathered, gather_tag);
    comp.decompress(gathered, chunk);
  });
}

}  // namespace

std::size_t hierarchical_compressor_count(const std::vector<int>& node_of) {
  int nodes = 0, largest = 0, smallest = 0;
  for_each_node(node_of, [&](int, int, int size) {
    largest = std::max(largest, size);
    smallest = nodes++ == 0 ? size : std::min(smallest, size);
  });
  if (nodes == 0) return 0;
  return static_cast<std::size_t>(nodes) *
         static_cast<std::size_t>((largest + smallest - 1) / smallest);
}

void hierarchical_begin(comm::Comm& comm, std::span<float> data,
                        std::span<Compressor* const> chunk_compressors,
                        util::Rng& rng, const HierarchicalOptions& options,
                        CollectiveWorkspace& ws, int bucket) {
  if (comm.size() == 1 || data.empty()) return;
  CGX_CHECK(bucket >= 0 && bucket < comm::kMaxTagBuckets);
  const Rails r = resolve_rails(comm, options);
  CGX_CHECK_GE(chunk_compressors.size(),
               static_cast<std::size_t>(r.owned_count() * r.nodes));
  const int intra_tag = comm::hier_intra_tag(bucket);
  // Reduce-scatter: every shard this rank does not own goes to its owner.
  for (int s = 0; s < r.shards; ++s) {
    const std::span<float> shard = shard_of(data, r, s);
    if (!r.owns(s) && !shard.empty()) {
      hand_over(comm, node_peer(options, r, s % r.m), shard, intra_tag);
    }
  }
  for (int s = r.local; s < r.shards; s += r.m) {
    const std::span<float> shard = shard_of(data, r, s);
    if (shard.empty()) continue;
    fold_shard(comm, shard, options, r, ws, intra_tag);
    if (r.nodes > 1) {
      rail_scatter(comm, shard, s, chunk_compressors, rng, options, r, ws,
                   comm::hier_inter_scatter_tag(bucket));
    }
  }
  // Every owner has folded our posts before begin() returns. The intra
  // lane carries this reduce-scatter and finish()'s allgather in the same
  // direction, and their acks are indistinguishable, so a later layer's
  // posts on this lane must never be outstanding with this one's.
  for (int s = 0; s < r.shards; ++s) {
    if (!r.owns(s) && !shard_of(data, r, s).empty()) {
      await_handed_over(comm, node_peer(options, r, s % r.m), intra_tag);
    }
  }
}

void hierarchical_finish(comm::Comm& comm, std::span<float> data,
                         std::span<Compressor* const> chunk_compressors,
                         util::Rng& rng, const HierarchicalOptions& options,
                         CollectiveWorkspace& ws, int bucket) {
  if (comm.size() == 1 || data.empty()) return;
  CGX_CHECK(bucket >= 0 && bucket < comm::kMaxTagBuckets);
  const Rails r = resolve_rails(comm, options);
  const int intra_tag = comm::hier_intra_tag(bucket);
  // Owned shards: drain the rail, then hand the reduced shard to the node
  // (posted right away, so peers can copy it while the next rail drains).
  for (int s = r.local; s < r.shards; s += r.m) {
    const std::span<float> shard = shard_of(data, r, s);
    if (shard.empty()) continue;
    if (r.nodes > 1) {
      rail_drain(comm, shard, s, chunk_compressors, rng, options, r, ws,
                 comm::hier_inter_scatter_tag(bucket),
                 comm::hier_inter_gather_tag(bucket));
    }
    for (int p = 0; p < r.m; ++p) {
      if (p != r.local) {
        hand_over(comm, node_peer(options, r, p), shard, intra_tag);
      }
    }
  }
  // Intra-node allgather of the shards the node peers own.
  for (int s = 0; s < r.shards; ++s) {
    const std::span<float> shard = shard_of(data, r, s);
    if (r.owns(s) || shard.empty()) continue;
    const int owner = node_peer(options, r, s % r.m);
    if (comm.supports_direct_exchange(owner)) {
      comm.direct_pull(owner, shard, /*add=*/false, intra_tag);
    } else {
      comm.recv_floats(owner, shard, intra_tag);
    }
  }
  // Our owned shards must be consumed before the caller may touch `data`.
  for (int s = r.local; s < r.shards; s += r.m) {
    if (shard_of(data, r, s).empty()) continue;
    for (int p = 0; p < r.m; ++p) {
      if (p != r.local) {
        await_handed_over(comm, node_peer(options, r, p), intra_tag);
      }
    }
  }
}

void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng,
                            const HierarchicalOptions& options,
                            CollectiveWorkspace& ws, int bucket) {
  hierarchical_begin(comm, data, chunk_compressors, rng, options, ws,
                     bucket);
  hierarchical_finish(comm, data, chunk_compressors, rng, options, ws,
                      bucket);
}

void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng,
                            const HierarchicalOptions& options) {
  CollectiveWorkspace ws;
  hierarchical_allreduce(comm, data, chunk_compressors, rng, options, ws, 0);
}

}  // namespace cgx::core
