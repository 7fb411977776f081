// Tag-space layout for the whole fabric.
//
// Every concurrent conversation over a transport needs its own tag so the
// dense (src, dst, tag) channel table keeps streams apart. This header is
// the single registry of who owns which tags — collectives hard-code their
// bases from here, and the streaming bucketed engine (core/async_engine.h)
// carves a disjoint per-bucket range out of the compressed region so
// bucket k+1's frames can be in flight while bucket k is still draining.
//
// Layout (see also DESIGN.md §5d):
//
//   110..160   uncompressed collectives (SRA 110/111, Ring 120/121,
//              Tree 130/131, bcast 140, allgather 150, reduce-scatter 160)
//   210..293   compressed collectives, strided per bucket: bucket b uses
//              base+2b for b < kMaxTagBuckets (SRA 210/211, Ring 220/221,
//              Tree 230/231; bucket 0 == the legacy monolithic tags)
//   162..193   hierarchical intra-node lane, strided per bucket: bucket b
//              uses kHierIntraTag + b (one tag per bucket — the
//              reduce-scatter and the allgather share each channel in
//              order, see core/hierarchical.cpp)
//   310        GRACE allgather
//   310..360   SHADOW: peer-direct acks of the uncompressed collectives
//              (tag + kDirectAckTagOffset = +200) — nothing else may sit
//              here, which is what caps the bucket stride region at <300
//   362..393   SHADOW: peer-direct acks of the hierarchical intra lane
//   420..483   hierarchical inter-node (rail SRA) lane, strided per
//              bucket: scatter 420+2b / gather 421+2b. Rails talk over
//              plain channels (never peer-direct — they model the NIC), so
//              this region needs no ack shadow and may run to the table cap.
#pragma once

namespace cgx::comm {

// Compressed-collective base tags (the per-TU constants that used to live in
// core/compressed_allreduce.cpp). A bucketed caller adds
// bucket_tag_offset(b) to each.
inline constexpr int kSraScatterTag = 210;
inline constexpr int kSraGatherTag = 211;
inline constexpr int kRingReduceTag = 220;
inline constexpr int kRingGatherTag = 221;
inline constexpr int kTreeReduceTag = 230;
inline constexpr int kTreeBcastTag = 231;

// Per-bucket tag stride: each scheme uses two tags (reduce + gather phase),
// so consecutive buckets are 2 apart and a bucket's pair never collides
// with another bucket's pair OF THE SAME SCHEME. One engine instance runs
// one scheme, so cross-scheme aliasing (bucket 5's SRA pair landing on
// bucket 0's Ring pair) cannot happen within a step.
inline constexpr int kBucketTagStride = 2;

// Buckets beyond this many fold into the last one (async_engine's plan
// builder enforces it). Bounds the compressed region below the peer-direct
// ack shadow of the uncompressed collectives (310..360) and GRACE's 310.
inline constexpr int kMaxTagBuckets = 32;

constexpr int bucket_tag_offset(int bucket) {
  return bucket * kBucketTagStride;
}

// Comm LANES (async_engine's comm_lanes): several comm threads per rank,
// each draining a disjoint subset of buckets (every submission — bucket or
// packet — rides the single lane its engine's byte-balanced lane map
// assigns it, fixed until the next rebuild). Lanes consume no
// extra tags — a bucket keeps its own per-bucket tag pair whichever lane
// runs it, and no bucket is ever in flight on two lanes at once, so the
// per-bucket disjointness above IS the per-lane isolation. The cap below
// only bounds thread fan-out; any value up to it keeps the tag story
// unchanged. Cross-rank safety needs every rank to submit to a given lane
// in the same bucket order — the engine's only launch mode, canonical
// plan-order release, guarantees that even when completion order differs
// per rank.
inline constexpr int kMaxCommLanes = 8;

static_assert(kTreeBcastTag + bucket_tag_offset(kMaxTagBuckets - 1) < 310,
              "bucketed compressed tags must stay below the GRACE tag and "
              "the uncompressed collectives' direct-ack shadow (310..360)");

// Peer-direct exchanges acknowledge on tag + kDirectAckTagOffset; any tag
// that may ride the direct path must keep its shadow inside the table.
inline constexpr int kDirectAckTagOffset = 200;

// Hierarchical (two-level) schedule. The intra-node lane carries both the
// reduce-scatter and the allgather, each pair's channel in a fixed order
// (core/hierarchical.cpp). It may go peer-direct, so its ack shadow
// (362..393) must stay clear of both the uncompressed shadow (310..360)
// and the inter-node lane.
inline constexpr int kHierIntraTag = 162;
inline constexpr int kHierInterScatterTag = 420;
inline constexpr int kHierInterGatherTag = 421;

constexpr int hier_intra_tag(int bucket) { return kHierIntraTag + bucket; }
constexpr int hier_inter_scatter_tag(int bucket) {
  return kHierInterScatterTag + bucket_tag_offset(bucket);
}
constexpr int hier_inter_gather_tag(int bucket) {
  return kHierInterGatherTag + bucket_tag_offset(bucket);
}

static_assert(hier_intra_tag(kMaxTagBuckets - 1) < kSraScatterTag,
              "hierarchical intra lane must stay below the compressed region");
static_assert(hier_intra_tag(0) + kDirectAckTagOffset > 360,
              "hierarchical intra ack shadow must start past the "
              "uncompressed collectives' shadow (310..360)");
static_assert(hier_intra_tag(kMaxTagBuckets - 1) + kDirectAckTagOffset <
                  kHierInterScatterTag,
              "hierarchical intra ack shadow must end before the inter lane");
static_assert(hier_inter_gather_tag(kMaxTagBuckets - 1) < 512,
              "hierarchical inter lane must fit the channel-table tag slots");

// Elastic membership ballots (comm/membership.h): survivor-agreement votes
// after a rank failure travel on their own lane above everything else.
// Ballots never ride the peer-direct path, so no ack shadow is needed.
inline constexpr int kMembershipTag = 505;

static_assert(kMembershipTag > hier_inter_gather_tag(kMaxTagBuckets - 1),
              "membership lane must sit above the hierarchical inter lane");
static_assert(kMembershipTag < 512,
              "membership lane must fit the channel-table tag slots");

}  // namespace cgx::comm
