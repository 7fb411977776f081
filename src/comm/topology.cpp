#include "comm/topology.h"

#include <cstdlib>
#include <stdexcept>

namespace cgx::comm {
namespace {

int parse_int(const std::string& s, std::size_t begin, std::size_t end) {
  if (begin >= end) throw std::invalid_argument("CGX_TOPO: empty number");
  long v = 0;
  for (std::size_t i = begin; i < end; ++i) {
    char c = s[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("CGX_TOPO: expected digit, got '" +
                                  std::string(1, c) + "' in \"" + s + "\"");
    }
    v = v * 10 + (c - '0');
    if (v > 1 << 24) throw std::invalid_argument("CGX_TOPO: number too large");
  }
  return static_cast<int>(v);
}

}  // namespace

Topology Topology::single_node(int world) {
  return Topology(std::vector<int>(static_cast<std::size_t>(world), 0));
}

Topology Topology::grouped(int world, int ranks_per_node) {
  if (ranks_per_node <= 0) {
    throw std::invalid_argument("Topology::grouped: ranks_per_node must be > 0");
  }
  std::vector<int> node_of(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    node_of[static_cast<std::size_t>(r)] = r / ranks_per_node;
  }
  return Topology(std::move(node_of));
}

Topology Topology::parse(const std::string& spec, int world) {
  if (spec.empty()) return single_node(world);
  std::size_t x = spec.find('x');
  if (x == std::string::npos) x = spec.find('X');
  if (x != std::string::npos && spec.find(',') == std::string::npos) {
    int nodes = parse_int(spec, 0, x);
    int rpn = parse_int(spec, x + 1, spec.size());
    if (nodes <= 0 || rpn <= 0 || nodes * rpn != world) {
      throw std::invalid_argument("CGX_TOPO: \"" + spec + "\" does not cover world " +
                                  std::to_string(world));
    }
    return grouped(world, rpn);
  }
  std::vector<int> node_of;
  node_of.reserve(static_cast<std::size_t>(world));
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      node_of.push_back(parse_int(spec, begin, i));
      begin = i + 1;
    }
  }
  if (static_cast<int>(node_of.size()) != world) {
    throw std::invalid_argument(
        "CGX_TOPO lists " + std::to_string(node_of.size()) +
        " ranks but world is " + std::to_string(world));
  }
  return Topology(std::move(node_of));
}

Topology Topology::from_env(int world) {
  const char* env = std::getenv("CGX_TOPO");
  return parse(env ? std::string(env) : std::string(), world);
}

Topology Topology::restrict(std::span<const int> ranks) const {
  std::vector<int> node_of;
  node_of.reserve(ranks.size());
  for (int r : ranks) {
    if (r < 0 || r >= world_size()) {
      throw std::invalid_argument("Topology::restrict: rank " +
                                  std::to_string(r) + " outside world " +
                                  std::to_string(world_size()));
    }
    node_of.push_back(node_of_[static_cast<std::size_t>(r)]);
  }
  return Topology(std::move(node_of));
}

Topology::Topology(std::vector<int> node_of) : node_of_(std::move(node_of)) {
  const int world = static_cast<int>(node_of_.size());
  node_index_.assign(node_of_.size(), -1);
  // Dense indices in first-appearance order. O(world * nodes) scan —
  // worlds here are a few hundred at most, and this runs once per
  // topology construction.
  for (int r = 0; r < world; ++r) {
    if (node_index_[static_cast<std::size_t>(r)] >= 0) continue;
    const int id = node_of_[static_cast<std::size_t>(r)];
    const int dense = num_nodes_++;
    for (int s = r; s < world; ++s) {
      if (node_of_[static_cast<std::size_t>(s)] == id) {
        node_index_[static_cast<std::size_t>(s)] = dense;
      }
    }
  }
}

}  // namespace cgx::comm
