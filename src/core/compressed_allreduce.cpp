#include "core/compressed_allreduce.h"

#include "comm/tagspace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::core {
namespace {

// Canonical tag bases live in comm/tagspace.h; a bucketed caller shifts
// them by bucket_tag_offset(b) via the tag_base parameter.
using comm::kRingGatherTag;
using comm::kRingReduceTag;
using comm::kSraGatherTag;
using comm::kSraScatterTag;
using comm::kTreeBcastTag;
using comm::kTreeReduceTag;

using comm::chunk_range;

// Workspace slot assignment for this translation unit. Hierarchical.cpp
// reuses the same numbers; that is safe because the two never hold spans
// across a call into each other's helpers for the same slot.
constexpr std::size_t kSlotPayload = 0;    // outbound payload
constexpr std::size_t kSlotInPayload = 1;  // inbound payload
constexpr std::size_t kSlotIncoming = 0;   // float accumulation buffer
constexpr std::size_t kSlotRingBase = 2;   // ring: byte slot per chunk
constexpr std::size_t kSlotRingSizes = 0;  // ring: written size per chunk

// Arrival-order service (comm::for_each_peer_by_arrival) is used only where
// it cannot change the final floats: receives into disjoint regions, or
// staged folds whose adds run in fixed rank order afterwards.
using comm::for_each_peer_by_arrival;

}  // namespace

void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme,
                          CollectiveWorkspace& ws, int tag_base) {
  switch (scheme) {
    case comm::ReductionScheme::ScatterReduceAllgather:
      compressed_allreduce_sra(comm, data, chunk_compressors, rng, ws,
                               tag_base);
      return;
    case comm::ReductionScheme::Ring:
      compressed_allreduce_ring(comm, data, chunk_compressors, rng, ws,
                                tag_base);
      return;
    case comm::ReductionScheme::Tree:
      compressed_allreduce_tree(comm, data, chunk_compressors, rng, ws,
                                tag_base);
      return;
  }
}

void compressed_sra_begin(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, CollectiveWorkspace& ws,
                          int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;

  // Round 1: compress chunk p once and ship it to its aggregator p.
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    const auto [first, last] = chunk_range(data.size(), n, p);
    const std::span<const float> chunk = data.subspan(first, last - first);
    const std::span<std::byte> payload = ws.bytes(
        kSlotPayload, chunk_compressors[p]->compressed_size(chunk.size()));
    const std::size_t written =
        chunk_compressors[p]->compress(chunk, payload, rng);
    comm.send(p, payload.first(written), kSraScatterTag + tag_base);
  }
}

void compressed_sra_finish(comm::Comm& comm, std::span<float> data,
                           std::span<Compressor* const> chunk_compressors,
                           util::Rng& rng, CollectiveWorkspace& ws,
                           int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;
  const int scatter_tag = kSraScatterTag + tag_base;
  const int gather_tag = kSraGatherTag + tag_base;

  // Aggregate my chunk: my raw contribution plus N-1 decompressed ones.
  // Payloads are received AND decompressed in arrival order — each into its
  // sender's own slot, so the decompression of early arrivals overlaps the
  // transit of slow peers — but the adds run in fixed rank order, keeping
  // the sum bit-identical run to run.
  const auto [mf, ml] = chunk_range(data.size(), n, r);
  std::span<float> mine = data.subspan(mf, ml - mf);
  const std::size_t peers = static_cast<std::size_t>(n - 1);
  const std::span<float> staged =
      ws.floats(kSlotIncoming, peers * mine.size());
  const std::span<std::byte> in_payload = ws.bytes(
      kSlotInPayload, chunk_compressors[r]->compressed_size(mine.size()));
  const auto slot_of = [r](int p) {
    return static_cast<std::size_t>(p < r ? p : p - 1);
  };
  for_each_peer_by_arrival(comm, scatter_tag, [&](int p) {
    comm.recv(p, in_payload, scatter_tag);
    chunk_compressors[r]->decompress(
        in_payload, staged.subspan(slot_of(p) * mine.size(), mine.size()));
  });
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    tensor::add_inplace(
        mine, staged.subspan(slot_of(p) * mine.size(), mine.size()));
  }

  // Round 2: compress the reduced chunk once and broadcast it. Decompress
  // our own payload too, so every rank ends bit-identical.
  const std::span<std::byte> payload = ws.bytes(
      kSlotPayload, chunk_compressors[r]->compressed_size(mine.size()));
  const std::size_t written =
      chunk_compressors[r]->compress(mine, payload, rng);
  const std::span<const std::byte> reduced = payload.first(written);
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    comm.send(p, reduced, gather_tag);
  }
  chunk_compressors[r]->decompress(reduced, mine);
  // Reduced chunks land in disjoint regions, so arrival order cannot
  // change the final bytes here.
  for_each_peer_by_arrival(comm, gather_tag, [&](int p) {
    const auto [first, last] = chunk_range(data.size(), n, p);
    std::span<float> chunk = data.subspan(first, last - first);
    const std::span<std::byte> gathered = ws.bytes(
        kSlotInPayload, chunk_compressors[p]->compressed_size(chunk.size()));
    comm.recv(p, gathered, gather_tag);
    chunk_compressors[p]->decompress(gathered, chunk);
  });
}

void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng, CollectiveWorkspace& ws,
                              int tag_base) {
  compressed_sra_begin(comm, data, chunk_compressors, rng, ws, tag_base);
  compressed_sra_finish(comm, data, chunk_compressors, rng, ws, tag_base);
}

void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;
  const int right = (r + 1) % n;
  const int left = (r - 1 + n) % n;
  const int reduce_tag = kRingReduceTag + tag_base;
  const int gather_tag = kRingGatherTag + tag_base;

  // Reduce-scatter phase: the partial sum is re-compressed at EVERY hop —
  // this is precisely the iterated compression error §3 charges against
  // Ring for non-associative operators.
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r - s + n) % n;
    const int recv_idx = (r - s - 1 + n) % n;
    {
      const auto [sf, sl] = chunk_range(data.size(), n, send_idx);
      const std::span<const float> chunk = data.subspan(sf, sl - sf);
      const std::span<std::byte> payload = ws.bytes(
          kSlotPayload,
          chunk_compressors[send_idx]->compressed_size(chunk.size()));
      const std::size_t written =
          chunk_compressors[send_idx]->compress(chunk, payload, rng);
      comm.send(right, payload.first(written), reduce_tag);
    }
    {
      const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
      std::span<float> chunk = data.subspan(rf, rl - rf);
      const std::span<std::byte> payload = ws.bytes(
          kSlotInPayload,
          chunk_compressors[recv_idx]->compressed_size(chunk.size()));
      comm.recv(left, payload, reduce_tag);
      const std::span<float> incoming =
          ws.floats(kSlotIncoming, chunk.size());
      chunk_compressors[recv_idx]->decompress(payload, incoming);
      tensor::add_inplace(chunk, incoming);
    }
  }

  // Allgather phase: the owner compresses its reduced chunk once; the bytes
  // are relayed verbatim around the ring (no re-compression). Each chunk
  // index keeps its own byte slot because payloads live across ring steps.
  const int owned = (r + 1) % n;
  const std::span<std::size_t> sizes =
      ws.sizes(kSlotRingSizes, static_cast<std::size_t>(n));
  {
    const auto [of, ol] = chunk_range(data.size(), n, owned);
    std::span<float> chunk = data.subspan(of, ol - of);
    const std::span<std::byte> buf =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(owned),
                 chunk_compressors[owned]->compressed_size(chunk.size()));
    sizes[static_cast<std::size_t>(owned)] =
        chunk_compressors[owned]->compress(chunk, buf, rng);
    // Canonicalize our own copy to the decompressed payload.
    chunk_compressors[owned]->decompress(
        buf.first(sizes[static_cast<std::size_t>(owned)]), chunk);
  }
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r + 1 - s + n) % n;
    const int recv_idx = (r - s + n) % n;
    const std::span<const std::byte> outbound =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(send_idx),
                 sizes[static_cast<std::size_t>(send_idx)]);
    comm.send(right, outbound, gather_tag);
    const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
    std::span<float> chunk = data.subspan(rf, rl - rf);
    sizes[static_cast<std::size_t>(recv_idx)] =
        chunk_compressors[recv_idx]->compressed_size(chunk.size());
    const std::span<std::byte> buf =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(recv_idx),
                 sizes[static_cast<std::size_t>(recv_idx)]);
    comm.recv(left, buf, gather_tag);
    chunk_compressors[recv_idx]->decompress(buf, chunk);
  }
}

void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_GE(chunk_compressors.size(), 1u);
  if (n == 1 || data.empty()) return;
  Compressor& compressor = *chunk_compressors[0];
  const int reduce_tag = kTreeReduceTag + tag_base;
  const int bcast_tag = kTreeBcastTag + tag_base;

  int top = 1;
  while (top < n) top <<= 1;
  top >>= 1;

  const std::size_t full_payload = compressor.compressed_size(data.size());
  std::span<std::byte> payload = ws.bytes(kSlotPayload, full_payload);
  const std::span<float> incoming = ws.floats(kSlotIncoming, data.size());

  // Binomial reduce towards rank 0; every sender compresses its current
  // partial sum (log N re-compressions on the deepest path).
  for (int mask = top; mask >= 1; mask >>= 1) {
    if (r >= mask && r < 2 * mask) {
      const std::size_t written = compressor.compress(data, payload, rng);
      comm.send(r - mask, payload.first(written), reduce_tag);
    } else if (r < mask && r + mask < n) {
      comm.recv(r + mask, payload, reduce_tag);
      compressor.decompress(payload, incoming);
      tensor::add_inplace(data, incoming);
    }
  }

  // Root compresses the final sum once; bytes are relayed down unchanged.
  if (r == 0) {
    const std::size_t written = compressor.compress(data, payload, rng);
    payload = payload.first(written);
    compressor.decompress(payload, data);  // root matches everyone else
  }
  for (int mask = 1; mask < n; mask <<= 1) {
    if (r < mask && r + mask < n) {
      comm.send(r + mask, payload, bcast_tag);
    } else if (r >= mask && r < 2 * mask) {
      payload = ws.bytes(kSlotPayload, full_payload);
      comm.recv(r - mask, payload, bcast_tag);
      compressor.decompress(payload, data);
    }
  }
}

void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme) {
  CollectiveWorkspace ws;
  compressed_allreduce(comm, data, chunk_compressors, rng, scheme, ws);
}

void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_sra(comm, data, chunk_compressors, rng, ws);
}

void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_ring(comm, data, chunk_compressors, rng, ws);
}

void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_tree(comm, data, chunk_compressors, rng, ws);
}

}  // namespace cgx::core
