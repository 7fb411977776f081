// Rank→node placement for the hierarchical (two-level) collectives.
//
// A Topology is an immutable map from global rank to node id, plus the
// derived structure the two-level schedule needs: dense node indices and
// same-node queries.
// Node ids in the input may be arbitrary, non-contiguous integers; they
// are re-indexed densely in first-appearance order so downstream code
// can size per-node arrays by num_nodes().
//
// Construction sources, in the order production code tries them:
//   Topology::from_env(world)  — parse CGX_TOPO:
//       "NxM"          N nodes of M ranks each, block placement
//                      (rank r → node r / M); N*M must equal world.
//       "0,0,1,1,..."  explicit per-rank node ids, one per rank.
//       unset/empty    single node (flat world, hierarchy degenerates).
//   Topology::grouped(world, ranks_per_node)  — block placement.
//   Topology::single_node(world)              — everyone on node 0.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace cgx::comm {

class Topology {
 public:
  // Everyone on one node: the hierarchy degenerates to the flat path.
  static Topology single_node(int world);
  // Block placement: rank r lives on node r / ranks_per_node. The last
  // node may be short when world is not divisible.
  static Topology grouped(int world, int ranks_per_node);
  // Parse CGX_TOPO (see file comment). Throws std::invalid_argument on
  // malformed specs or world-size mismatch.
  static Topology from_env(int world);
  static Topology parse(const std::string& spec, int world);

  explicit Topology(std::vector<int> node_of);

  // Elastic membership: the topology of the surviving world. `ranks` are
  // the surviving global ranks in ascending order; survivor i of the new
  // (dense) world keeps its old node id, so ranks sharing a node keep
  // sharing one (nodes may come out uneven).
  Topology restrict(std::span<const int> ranks) const;

  int world_size() const { return static_cast<int>(node_of_.size()); }
  int num_nodes() const { return num_nodes_; }
  bool is_single_node() const { return num_nodes_ <= 1; }

  // Raw node id as supplied by the caller (may be non-contiguous).
  int node_of(int rank) const {
    return node_of_[static_cast<std::size_t>(rank)];
  }
  // Dense node index in [0, num_nodes()), first-appearance order.
  int node_index(int rank) const {
    return node_index_[static_cast<std::size_t>(rank)];
  }
  bool same_node(int a, int b) const {
    return node_of_[static_cast<std::size_t>(a)] ==
           node_of_[static_cast<std::size_t>(b)];
  }

  const std::vector<int>& node_map() const { return node_of_; }

 private:
  std::vector<int> node_of_;      // rank -> raw node id
  std::vector<int> node_index_;   // rank -> dense node index
  int num_nodes_ = 0;
};

}  // namespace cgx::comm
