// Two-level (hierarchical) compressed allreduce for multi-node clusters.
//
// Paper §4, "Backend Details": CGX supports heterogeneous communication
// where intra-node traffic uses the fast local backend (SHM) uncompressed,
// since the local fabric is cheap relative to the NICs, while the
// inter-node exchange runs compressed over MPI/NCCL.
//
// The schedule is "rails": with S = the largest node's size, every layer is
// split into S contiguous shards (comm::chunk_range(d, S, s)). On a node
// of m ranks, local rank s mod m owns shard s (local ranks count up in
// rank order), so every rank owns at least one shard and uneven nodes wrap.
// The ranks owning shard s on each node form rail s. Then:
//   1. intra-node FP32 reduce-scatter: every rank hands each shard it does
//      not own to that shard's owner, and the owner folds its node's
//      contributions in ascending local-rank order. On peer-direct links
//      (SHM inside a node — asked per link, see
//      Transport::supports_direct_exchange(a, b)) a rank just POSTS the
//      shard's subspan and the owner folds pairwise with direct_pull2;
//      otherwise the shard rides a buffered channel. Only shard subspans
//      are ever posted, so a fabric that charges the posted span (SimNet)
//      bills exactly the bytes that move.
//   2. inter-node: each rail runs the compression-aware SRA among its
//      members (one per node) on its node-reduced shard — the shard is
//      RE-COMPRESSED at the node boundary, so only compressed payloads
//      cross the NICs. Contributions are staged by arrival and folded in
//      fixed node order; the reduced rail chunk is re-compressed once and
//      every rail member, the aggregator included, adopts the decompressed
//      bytes.
//   3. intra-node FP32 allgather: every owner hands its reduced shards to
//      the rest of its node.
// Every rank finishes bit-identical. One rank per node degenerates to a
// flat compressed SRA over the world; a single node to an FP32
// reduce-scatter plus allgather with no compression at all.
//
// The schedule is split into begin/finish halves like
// compressed_sra_begin/finish so the streaming bucketed engine can overlap
// the two levels across buckets: begin() is the intra-node reduce-scatter
// plus the rail scatter; finish() drains the rails and runs the allgather.
// begin(); finish() back to back is the plain allreduce. Unlike the flat
// SRA's, begin() waits for its node peers' begins, so one thread must not
// run bucket k+1's begin ahead of bucket k's finish (a peer already inside
// that finish would never reach the begin); buckets on different threads
// overlap freely.
//
// Error-feedback contract (who owns which residual): a rank owning shards
// s_0 < s_1 < ... passes compressors[o * N + j] for its o-th owned shard
// and rail chunk j, N being the number of nodes (chunk j of a rail is the
// one aggregated by node j, nodes counted in order of their lowest rank).
// A rank that owns two shards therefore never shares a residual between
// them; hierarchical_compressor_count() is the span size every rank needs.
#pragma once

#include <span>
#include <vector>

#include "comm/collectives.h"
#include "core/compressor.h"
#include "core/workspace.h"

namespace cgx::core {

struct HierarchicalOptions {
  // node_of[rank] -> node id; ranks of a node must be assigned the same id.
  // Ids may be arbitrary (non-contiguous) integers.
  std::vector<int> node_of;
};

// Sum-allreduce across the world, two-level. `bucket` selects the disjoint
// tag lane (comm/tagspace.h) so the streaming engine can keep several
// buckets in flight; plain callers leave it 0. `ws` is the rank's scratch
// arena (grow-only; zero allocations at steady state). The overload
// without it allocates a transient one per call.
void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng,
                            const HierarchicalOptions& options,
                            CollectiveWorkspace& ws, int bucket = 0);
void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng,
                            const HierarchicalOptions& options);

// Split halves for the overlap engine (see file comment). `data` and the
// workspace arena must stay untouched between the two calls. Neither half
// returns while a node peer may still read from `data`.
void hierarchical_begin(comm::Comm& comm, std::span<float> data,
                        std::span<Compressor* const> chunk_compressors,
                        util::Rng& rng, const HierarchicalOptions& options,
                        CollectiveWorkspace& ws, int bucket = 0);
void hierarchical_finish(comm::Comm& comm, std::span<float> data,
                         std::span<Compressor* const> chunk_compressors,
                         util::Rng& rng, const HierarchicalOptions& options,
                         CollectiveWorkspace& ws, int bucket = 0);

// Compressors each rank must pass per layer under this assignment: the
// number of nodes times the most shards any one rank owns.
std::size_t hierarchical_compressor_count(const std::vector<int>& node_of);

}  // namespace cgx::core
