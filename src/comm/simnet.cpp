#include "comm/simnet.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace cgx::comm {
namespace {

// Picoseconds one byte occupies a link running at `gbps`: 8000/G ps/byte.
// Integer rates keep every cost computation exact and machine-independent.
std::uint64_t ps_per_byte(double gbps) {
  CGX_CHECK_GT(gbps, 0.0);
  return static_cast<std::uint64_t>(8000.0 / gbps + 0.5);
}

std::uint64_t ser_ns(std::size_t bytes, std::uint64_t ps_byte) {
  return (static_cast<std::uint64_t>(bytes) * ps_byte + 500) / 1000;
}

}  // namespace

SimNetParams SimNetParams::parse(const std::string& spec) {
  SimNetParams p;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i != spec.size() && spec[i] != ',') continue;
    if (i > begin) {
      const std::string kv = spec.substr(begin, i - begin);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("CGX_SIMNET: expected key=value, got \"" +
                                    kv + "\"");
      }
      const std::string key = kv.substr(0, eq);
      const double v = std::stod(kv.substr(eq + 1));
      if (key == "inter_alpha_us") {
        p.inter_alpha_ns = static_cast<std::uint64_t>(v * 1000.0 + 0.5);
      } else if (key == "inter_alpha_ns") {
        p.inter_alpha_ns = static_cast<std::uint64_t>(v + 0.5);
      } else if (key == "inter_gbps") {
        p.inter_gbps = v;
      } else if (key == "intra_alpha_us") {
        p.intra_alpha_ns = static_cast<std::uint64_t>(v * 1000.0 + 0.5);
      } else if (key == "intra_alpha_ns") {
        p.intra_alpha_ns = static_cast<std::uint64_t>(v + 0.5);
      } else if (key == "intra_gbps") {
        p.intra_gbps = v;
      } else if (key == "fabric_gbps") {
        p.fabric_gbps = v;
      } else {
        throw std::invalid_argument("CGX_SIMNET: unknown key \"" + key + "\"");
      }
    }
    begin = i + 1;
  }
  return p;
}

SimNetParams SimNetParams::from_env() {
  const char* env = std::getenv("CGX_SIMNET");
  return env ? parse(env) : SimNetParams{};
}

// ---------------------------------------------------------- SimNetTransport

SimNetTransport::SimNetTransport(Transport& inner, Topology topology,
                                 SimNetParams params,
                                 util::VirtualClock* clock)
    : Transport(topology.world_size()),
      inner_(inner),
      topo_(std::move(topology)),
      params_(params),
      inter_ps_per_byte_(ps_per_byte(params.inter_gbps)),
      intra_ps_per_byte_(ps_per_byte(params.intra_gbps)),
      fabric_ps_per_byte_(ps_per_byte(params.fabric_gbps)),
      pairs_(static_cast<std::size_t>(topo_.world_size()) *
             static_cast<std::size_t>(topo_.world_size())) {
  CGX_CHECK_EQ(inner_.world_size(), topo_.world_size());
  if (clock != nullptr) {
    CGX_CHECK_GE(clock->ranks(), topo_.world_size());
    CGX_CHECK_GE(clock->nodes(), topo_.num_nodes());
    clock_ = clock;
  } else {
    owned_clock_ = std::make_unique<util::VirtualClock>(topo_.world_size(),
                                                        topo_.num_nodes());
    clock_ = owned_clock_.get();
  }
  profile_ = inner_.profile();
  profile_.name = "simnet+" + profile_.name;
  profile_.single_node_only = false;
}

std::uint64_t SimNetTransport::serialization_ns(int src, int dst,
                                                std::size_t bytes) const {
  const std::uint64_t rate =
      topo_.same_node(src, dst) ? intra_ps_per_byte_ : inter_ps_per_byte_;
  return ser_ns(bytes, rate);
}

std::uint64_t SimNetTransport::cost_ns(int src, int dst,
                                       std::size_t bytes) const {
  const std::uint64_t alpha = topo_.same_node(src, dst)
                                  ? params_.intra_alpha_ns
                                  : params_.inter_alpha_ns;
  return alpha + serialization_ns(src, dst, bytes);
}

void SimNetTransport::charge_send(int src, int dst, std::size_t bytes,
                                  int tag) {
  const bool cross = !topo_.same_node(src, dst);
  const std::uint64_t ser = serialization_ns(src, dst, bytes);
  // The sender's injection pipe is busy for the serialization time; α is
  // in-flight latency, so it delays the arrival stamp but not the sender.
  clock_->advance_rank(src, ser);
  const std::uint64_t alpha =
      cross ? params_.inter_alpha_ns : params_.intra_alpha_ns;
  const std::uint64_t stamp = clock_->rank_now_ns(src) + alpha;
  if (cross) {
    clock_->charge_nic_tx(topo_.node_index(src), ser);
    clock_->charge_nic_rx(topo_.node_index(dst), ser);
  } else {
    clock_->charge_fabric(topo_.node_index(src),
                          ser_ns(bytes, fabric_ps_per_byte_));
  }
  // Enqueue BEFORE the inner op so the consume that matches the message
  // always finds its stamp, whatever the receiver thread's timing.
  PairState& ps = pair(src, dst);
  std::lock_guard<std::mutex> lock(ps.mu);
  TagFifo* fifo = nullptr;
  for (auto& f : ps.fifos) {
    if (f.tag == tag) {
      fifo = &f;
      break;
    }
  }
  if (fifo == nullptr) {
    ps.fifos.push_back(TagFifo{});
    fifo = &ps.fifos.back();
    fifo->tag = tag;
  }
  if (fifo->count == fifo->ring.size()) {
    // Grow the ring in place: re-linearize so head lands on 0. Capacity
    // only ever doubles, so steady-state traffic stops allocating once the
    // deepest in-flight window has been seen.
    std::vector<std::uint64_t> grown;
    grown.reserve(fifo->ring.empty() ? 8 : fifo->ring.size() * 2);
    for (std::size_t i = 0; i < fifo->count; ++i) {
      grown.push_back(fifo->ring[(fifo->head + i) % fifo->ring.size()]);
    }
    grown.resize(grown.capacity());
    fifo->ring = std::move(grown);
    fifo->head = 0;
  }
  fifo->ring[(fifo->head + fifo->count) % fifo->ring.size()] = stamp;
  ++fifo->count;
}

void SimNetTransport::charge_consume(int dst, int src, int tag) {
  std::uint64_t stamp = 0;
  bool have = false;
  {
    PairState& ps = pair(src, dst);
    std::lock_guard<std::mutex> lock(ps.mu);
    for (auto& f : ps.fifos) {
      if (f.tag != tag) continue;
      if (f.count > 0) {
        stamp = f.ring[f.head];
        f.head = (f.head + 1) % f.ring.size();
        --f.count;
        have = true;
      }
      break;
    }
  }
  // A missing stamp can only mean reset_inbound raced a recovery drain;
  // skipping the merge is safe (it only ever raises the receiver's clock).
  if (have) clock_->merge_rank(dst, stamp);
}

void SimNetTransport::send(int src, int dst, std::span<const std::byte> data,
                           int tag) {
  charge_send(src, dst, data.size(), tag);
  inner_.send(src, dst, data, tag);
}

void SimNetTransport::recv(int dst, int src, std::span<std::byte> data,
                           int tag) {
  inner_.recv(dst, src, data, tag);
  charge_consume(dst, src, tag);
}

bool SimNetTransport::supports_recv_add() const {
  return inner_.supports_recv_add();
}

void SimNetTransport::recv_add(int dst, int src, std::span<float> data,
                               int tag) {
  inner_.recv_add(dst, src, data, tag);
  charge_consume(dst, src, tag);
}

bool SimNetTransport::supports_direct_exchange() const {
  return topo_.is_single_node() && inner_.supports_direct_exchange();
}

bool SimNetTransport::supports_direct_exchange(int a, int b) const {
  return topo_.same_node(a, b) && inner_.supports_direct_exchange(a, b);
}

void SimNetTransport::direct_post(int src, int dst,
                                  std::span<const float> data, int tag) {
  charge_send(src, dst, data.size() * sizeof(float), tag);
  inner_.direct_post(src, dst, data, tag);
}

void SimNetTransport::direct_pull(int dst, int src, std::span<float> data,
                                  bool add, int tag) {
  inner_.direct_pull(dst, src, data, add, tag);
  charge_consume(dst, src, tag);
}

void SimNetTransport::direct_pull2(int dst, int src1, int src2,
                                   std::span<float> data, int tag) {
  inner_.direct_pull2(dst, src1, src2, data, tag);
  charge_consume(dst, src1, tag);
  charge_consume(dst, src2, tag);
}

void SimNetTransport::direct_wait(int src, int dst, int tag) {
  inner_.direct_wait(src, dst, tag);
}

int SimNetTransport::select_source(int dst, std::span<const int> candidates,
                                   int tag) {
  return inner_.select_source(dst, candidates, tag);
}

void SimNetTransport::set_policy(const CommPolicy& policy) {
  Transport::set_policy(policy);
  inner_.set_policy(policy);
}

void SimNetTransport::set_fault_injector(FaultInjector* injector) {
  inner_.set_fault_injector(injector);
}

void SimNetTransport::reset_inbound(int rank) {
  inner_.reset_inbound(rank);
  // Drop the stamps of every dropped message so recovery restarts with
  // matched queues (dst = rank, any src, any tag).
  for (int src = 0; src < topo_.world_size(); ++src) {
    PairState& ps = pair(src, rank);
    std::lock_guard<std::mutex> lock(ps.mu);
    for (auto& f : ps.fifos) {
      f.head = 0;
      f.count = 0;
    }
  }
}

}  // namespace cgx::comm
