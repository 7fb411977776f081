#include "comm/collectives.h"

#include <array>
#include <vector>

#include "tensor/tensor_ops.h"

namespace cgx::comm {
namespace {

// Tag bases per collective phase; per-(pair, tag) FIFOs plus per-rank
// sequential execution make these sufficient to avoid cross-talk.
constexpr int kSraScatterTag = 110;
constexpr int kSraGatherTag = 111;
constexpr int kRingReduceTag = 120;
constexpr int kRingGatherTag = 121;
constexpr int kTreeReduceTag = 130;
constexpr int kTreeBcastTag = 131;
constexpr int kBcastTag = 140;
constexpr int kAllgatherTag = 150;
constexpr int kReduceScatterTag = 160;

// Pipeline sub-chunk: 64Ki floats = 256 KiB — big enough to amortise
// per-message overhead, small enough that the copy-out of sub-chunk k and
// its add_inplace stay cache-resident while sub-chunk k+1 is in flight.
// Both sides derive identical sub-chunk boundaries from the chunk length,
// so framing always matches.
constexpr std::size_t kPipelineFloats = 64 * 1024;

// Sends `data` as ceil(size / kPipelineFloats) back-to-back messages.
void send_pipelined(Comm& comm, int to, std::span<const float> data,
                    int tag) {
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kPipelineFloats, data.size() - off);
    comm.send_floats(to, data.subspan(off, n), tag);
    off += n;
  } while (off < data.size());
}

// Receives the pipelined counterpart of send_pipelined straight into place.
void recv_pipelined(Comm& comm, int from, std::span<float> data, int tag) {
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kPipelineFloats, data.size() - off);
    comm.recv_floats(from, data.subspan(off, n), tag);
    off += n;
  } while (off < data.size());
}

// Receives sub-chunk k and folds it into dst while sub-chunk k+1 is still
// crossing the ring — the recv/reduce overlap of the chunk pipeline. On
// transports with fused receive+reduce the payload is added straight out of
// the channel slab (no scratch bounce — one less pass over memory per wire
// byte); otherwise it bounces through one pipeline sub-chunk of `scratch`.
// Both paths add element-wise in payload order, so the result is
// bit-identical either way.
void recv_add_pipelined(Comm& comm, int from, std::span<float> dst,
                        std::span<float> scratch, int tag) {
  const bool fused = comm.transport().supports_recv_add();
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kPipelineFloats, dst.size() - off);
    if (fused) {
      comm.recv_add_floats(from, dst.subspan(off, n), tag);
    } else {
      const std::span<float> incoming = scratch.first(n);
      comm.recv_floats(from, incoming, tag);
      tensor::add_inplace(dst.subspan(off, n), incoming);
    }
    off += n;
  } while (off < dst.size());
}

// Shared scatter-reduce phase: afterwards `data`'s own chunk holds the full
// sum. Used by allreduce_sra (round 1) and reduce_scatter.
//
// Adds always run in fixed rank order, keeping the float sum bit-identical
// run to run (a running sum in arrival order would not be). How the
// contributions arrive depends on the transport:
//
//   - With fused receive+reduce, peers are drained in fixed order and each
//     payload is added straight out of the channel — two passes over memory
//     per wire byte. Any-source staging would cost two more (stage write +
//     stage re-read), which is the wrong trade once there is no scratch
//     bounce left to overlap; contributions still sit buffered in their
//     per-pair rings while earlier peers are folded, so senders never stall.
//   - Otherwise, when scratch can stage every peer's contribution, receives
//     are any-source — whichever peer has bytes pending is drained into its
//     own slot, so the copy-out of early arrivals overlaps the transit of
//     slow peers — and the adds fold the slots afterwards.
void scatter_reduce_phase(Comm& comm, std::span<float> data,
                          std::span<float> scratch, int tag) {
  const int n = comm.size();
  const int r = comm.rank();
  if (comm.supports_direct_exchange()) {
    // Peer-direct: post every outgoing chunk (non-blocking), reduce each
    // peer's contribution straight out of its buffer in fixed rank order,
    // then wait for all peers to have consumed ours. Chunks other than
    // `mine` are read-only for the whole phase, so posting them all up
    // front is safe; `mine` is never posted here.
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      const auto [first, last] = chunk_range(data.size(), n, p);
      comm.direct_post(p, data.subspan(first, last - first), tag);
    }
    const auto [mf, ml] = chunk_range(data.size(), n, r);
    std::span<float> mine_chunk = data.subspan(mf, ml - mf);
    // Fold peers two at a time: direct_pull2 preserves the fixed-order
    // per-element add sequence while reading and writing `mine` once per
    // pair instead of once per peer (the dst stream dominates this phase).
    if (n - 1 > kMaxAnySourceWorld) {
      for (int p = 0; p < n; ++p) {
        if (p == r) continue;
        comm.direct_pull(p, mine_chunk, /*add=*/true, tag);
      }
      for (int p = 0; p < n; ++p) {
        if (p == r) continue;
        comm.direct_wait(p, tag);
      }
      return;
    }
    std::array<int, static_cast<std::size_t>(kMaxAnySourceWorld)> order;
    int count = 0;
    for (int p = 0; p < n; ++p) {
      if (p != r) order[static_cast<std::size_t>(count++)] = p;
    }
    int k = 0;
    for (; k + 2 <= count; k += 2) {
      comm.direct_pull2(order[static_cast<std::size_t>(k)],
                        order[static_cast<std::size_t>(k + 1)], mine_chunk,
                        tag);
    }
    for (; k < count; ++k) {
      comm.direct_pull(order[static_cast<std::size_t>(k)], mine_chunk,
                       /*add=*/true, tag);
    }
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_wait(p, tag);
    }
    return;
  }
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    const auto [first, last] = chunk_range(data.size(), n, p);
    send_pipelined(comm, p, data.subspan(first, last - first), tag);
  }
  const auto [mine_first, mine_last] = chunk_range(data.size(), n, r);
  std::span<float> mine = data.subspan(mine_first, mine_last - mine_first);
  // Every peer's contribution to my chunk has exactly mine.size() floats.
  const std::size_t peers = static_cast<std::size_t>(n - 1);
  const auto slot_of = [r](int p) {
    return static_cast<std::size_t>(p < r ? p : p - 1);
  };
  if (comm.transport().supports_recv_add()) {
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      recv_add_pipelined(comm, p, mine, scratch, tag);
    }
  } else if (peers * mine.size() <= scratch.size()) {
    for_each_peer_by_arrival(comm, tag, [&](int p) {
      recv_pipelined(comm, p,
                     scratch.subspan(slot_of(p) * mine.size(), mine.size()),
                     tag);
    });
    // Fold staged slots pairwise: same fixed-p add sequence, half the
    // passes over `mine`.
    const auto slot_span = [&](int peer) {
      return scratch.subspan(slot_of(peer) * mine.size(), mine.size());
    };
    int prev = -1;
    for (int q = 0; q < n; ++q) {
      if (q == r) continue;
      if (prev < 0) {
        prev = q;
        continue;
      }
      tensor::add_inplace2(mine, slot_span(prev), slot_span(q));
      prev = -1;
    }
    if (prev >= 0) tensor::add_inplace(mine, slot_span(prev));
  } else {
    // Scratch too small to stage all contributions (only possible for tiny
    // vectors where any-source buys nothing): fixed-order fold through one
    // pipeline sub-chunk — equally deterministic.
    CGX_CHECK_GE(scratch.size(), std::min(mine.size(), kPipelineFloats));
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      recv_add_pipelined(comm, p, mine, scratch, tag);
    }
  }
}

}  // namespace

const char* reduction_scheme_name(ReductionScheme s) {
  switch (s) {
    case ReductionScheme::ScatterReduceAllgather:
      return "SRA";
    case ReductionScheme::Ring:
      return "Ring";
    case ReductionScheme::Tree:
      return "Tree";
  }
  return "?";
}

std::pair<std::size_t, std::size_t> chunk_range(std::size_t d, int n, int i) {
  CGX_CHECK_GT(n, 0);
  CGX_CHECK(i >= 0 && i < n);
  const std::size_t nn = static_cast<std::size_t>(n);
  const std::size_t ii = static_cast<std::size_t>(i);
  const std::size_t base = d / nn;
  const std::size_t rem = d % nn;
  const std::size_t first = ii * base + std::min(ii, rem);
  const std::size_t len = base + (ii < rem ? 1 : 0);
  return {first, first + len};
}

void allreduce(Comm& comm, std::span<float> data, ReductionScheme scheme) {
  std::vector<float> scratch(data.size());
  allreduce(comm, data, scheme, scratch);
}

void allreduce(Comm& comm, std::span<float> data, ReductionScheme scheme,
               std::span<float> scratch) {
  switch (scheme) {
    case ReductionScheme::ScatterReduceAllgather:
      allreduce_sra(comm, data, scratch);
      return;
    case ReductionScheme::Ring:
      allreduce_ring(comm, data, scratch);
      return;
    case ReductionScheme::Tree:
      allreduce_tree(comm, data, scratch);
      return;
  }
}

void allreduce_sra(Comm& comm, std::span<float> data) {
  std::vector<float> scratch(data.size());
  allreduce_sra(comm, data, scratch);
}

void allreduce_sra(Comm& comm, std::span<float> data,
                   std::span<float> scratch) {
  const int n = comm.size();
  const int r = comm.rank();
  if (n == 1 || data.empty()) return;

  // Round 1 (Scatter-Reduce): rank j collects everyone's chunk j,
  // pipelined and in arrival order.
  scatter_reduce_phase(comm, data, scratch, kSraScatterTag);

  // Round 2 (Allgather): broadcast the reduced chunk to all peers; receive
  // the other reduced chunks into their (disjoint) slots as they arrive —
  // placement is by sender identity, so arrival order is irrelevant to the
  // final bytes.
  const auto [mine_first, mine_last] = chunk_range(data.size(), n, r);
  const std::span<const float> mine =
      data.subspan(mine_first, mine_last - mine_first);
  if (comm.supports_direct_exchange()) {
    // The reduced chunk is final: post it once per peer and let each peer
    // copy it straight out; the round-1 waits above mean no peer can still
    // be reading the regions we now overwrite.
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_post(p, mine, kSraGatherTag);
    }
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      const auto [first, last] = chunk_range(data.size(), n, p);
      comm.direct_pull(p, data.subspan(first, last - first), /*add=*/false,
                       kSraGatherTag);
    }
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_wait(p, kSraGatherTag);
    }
    return;
  }
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    send_pipelined(comm, p, mine, kSraGatherTag);
  }
  for_each_peer_by_arrival(comm, kSraGatherTag, [&](int p) {
    const auto [first, last] = chunk_range(data.size(), n, p);
    recv_pipelined(comm, p, data.subspan(first, last - first),
                   kSraGatherTag);
  });
}

void allreduce_ring(Comm& comm, std::span<float> data) {
  std::vector<float> scratch(data.size());
  allreduce_ring(comm, data, scratch);
}

void allreduce_ring(Comm& comm, std::span<float> data,
                    std::span<float> scratch) {
  const int n = comm.size();
  const int r = comm.rank();
  if (n == 1 || data.empty()) return;
  const int right = (r + 1) % n;
  const int left = (r - 1 + n) % n;

  // Phase 1: reduce-scatter around the ring. After step s, the chunk a rank
  // just received carries partial sums from s+1 ranks; after n-1 steps rank
  // r owns the fully reduced chunk (r+1) mod n. Each step streams its chunk
  // in pipeline sub-chunks so the add of sub-chunk k overlaps the transit
  // of sub-chunk k+1.
  const bool direct = comm.supports_direct_exchange();
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r - s + n) % n;
    const int recv_idx = (r - s - 1 + n) % n;
    const auto [sf, sl] = chunk_range(data.size(), n, send_idx);
    const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
    if (direct) {
      // Post (non-blocking), reduce straight out of the left neighbour's
      // chunk, then wait for the right neighbour to finish reading ours —
      // the sent and received chunks are disjoint, and the ack keeps the
      // next step from mutating a chunk a neighbour is still reading.
      comm.direct_post(right, data.subspan(sf, sl - sf), kRingReduceTag);
      comm.direct_pull(left, data.subspan(rf, rl - rf), /*add=*/true,
                       kRingReduceTag);
      comm.direct_wait(right, kRingReduceTag);
      continue;
    }
    send_pipelined(comm, right, data.subspan(sf, sl - sf), kRingReduceTag);
    CGX_CHECK_GE(scratch.size(), std::min(rl - rf, kPipelineFloats));
    recv_add_pipelined(comm, left, data.subspan(rf, rl - rf), scratch,
                       kRingReduceTag);
  }
  // Phase 2: allgather the reduced chunks around the ring.
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r + 1 - s + n) % n;
    const int recv_idx = (r - s + n) % n;
    const auto [sf, sl] = chunk_range(data.size(), n, send_idx);
    const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
    if (direct) {
      comm.direct_post(right, data.subspan(sf, sl - sf), kRingGatherTag);
      comm.direct_pull(left, data.subspan(rf, rl - rf), /*add=*/false,
                       kRingGatherTag);
      comm.direct_wait(right, kRingGatherTag);
      continue;
    }
    send_pipelined(comm, right, data.subspan(sf, sl - sf), kRingGatherTag);
    recv_pipelined(comm, left, data.subspan(rf, rl - rf), kRingGatherTag);
  }
}

void allreduce_tree(Comm& comm, std::span<float> data) {
  std::vector<float> scratch(data.size());
  allreduce_tree(comm, data, scratch);
}

void allreduce_tree(Comm& comm, std::span<float> data,
                    std::span<float> scratch) {
  const int n = comm.size();
  const int r = comm.rank();
  if (n == 1 || data.empty()) return;

  // Binomial-tree reduce to rank 0.
  int top_mask = 1;
  while (top_mask < n) top_mask <<= 1;
  top_mask >>= 1;

  const bool direct = comm.supports_direct_exchange();
  CGX_CHECK_GE(scratch.size(), std::min(data.size(), kPipelineFloats));
  for (int mask = top_mask; mask >= 1; mask >>= 1) {
    if (r >= mask && r < 2 * mask) {
      if (direct) {
        // A sender's gradient is final for the rest of the reduce: post it
        // and wait for the parent's fused pull before moving on.
        comm.direct_post(r - mask, data, kTreeReduceTag);
        comm.direct_wait(r - mask, kTreeReduceTag);
      } else {
        send_pipelined(comm, r - mask, data, kTreeReduceTag);
      }
    } else if (r < mask && r + mask < n) {
      if (direct) {
        comm.direct_pull(r + mask, data, /*add=*/true, kTreeReduceTag);
      } else {
        recv_add_pipelined(comm, r + mask, data, scratch, kTreeReduceTag);
      }
    }
  }
  // Binomial broadcast of the result back down.
  for (int mask = 1; mask < n; mask <<= 1) {
    if (r < mask && r + mask < n) {
      if (direct) {
        comm.direct_post(r + mask, data, kTreeBcastTag);
        comm.direct_wait(r + mask, kTreeBcastTag);
      } else {
        send_pipelined(comm, r + mask, data, kTreeBcastTag);
      }
    } else if (r >= mask && r < 2 * mask) {
      if (direct) {
        comm.direct_pull(r - mask, data, /*add=*/false, kTreeBcastTag);
      } else {
        recv_pipelined(comm, r - mask, data, kTreeBcastTag);
      }
    }
  }
}

void broadcast(Comm& comm, std::span<float> data, int root) {
  const int n = comm.size();
  if (n == 1 || data.empty()) return;
  CGX_CHECK(root >= 0 && root < n);
  // Rotate ranks so the tree is rooted at `root`.
  const bool direct = comm.supports_direct_exchange();
  const int vr = (comm.rank() - root + n) % n;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (vr < mask && vr + mask < n) {
      if (direct) {
        comm.direct_post((vr + mask + root) % n, data, kBcastTag);
        comm.direct_wait((vr + mask + root) % n, kBcastTag);
      } else {
        send_pipelined(comm, (vr + mask + root) % n, data, kBcastTag);
      }
    } else if (vr >= mask && vr < 2 * mask) {
      if (direct) {
        comm.direct_pull((vr - mask + root) % n, data, /*add=*/false,
                         kBcastTag);
      } else {
        recv_pipelined(comm, (vr - mask + root) % n, data, kBcastTag);
      }
    }
  }
}

void allgather(Comm& comm, std::span<const float> in, std::span<float> out) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_EQ(out.size(), in.size() * static_cast<std::size_t>(n));
  std::span<float> my_slot = out.subspan(in.size() * r, in.size());
  tensor::copy(in, my_slot);
  if (n == 1) return;
  if (comm.supports_direct_exchange()) {
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_post(p, in, kAllgatherTag);
    }
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_pull(p, out.subspan(in.size() * p, in.size()),
                       /*add=*/false, kAllgatherTag);
    }
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.direct_wait(p, kAllgatherTag);
    }
    return;
  }
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    send_pipelined(comm, p, in, kAllgatherTag);
  }
  for_each_peer_by_arrival(comm, kAllgatherTag, [&](int p) {
    recv_pipelined(comm, p, out.subspan(in.size() * p, in.size()),
                   kAllgatherTag);
  });
}

void reduce_scatter(Comm& comm, std::span<float> data) {
  std::vector<float> scratch(data.size());
  reduce_scatter(comm, data, scratch);
}

void reduce_scatter(Comm& comm, std::span<float> data,
                    std::span<float> scratch) {
  const int n = comm.size();
  if (n == 1 || data.empty()) return;
  scatter_reduce_phase(comm, data, scratch, kReduceScatterTag);
}

}  // namespace cgx::comm
