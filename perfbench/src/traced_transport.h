// Transport decorator the traced runs put between the engine and the real
// transport (SHM, or SimNet over SHM). It forwards every operation
// unchanged and counts, per calling rank: send calls and bytes (peer-direct
// posts included), peer-direct pulls, and the time spent blocked in
// receives, pulls, waits and source selection. Only the sync workloads use
// it: nn::train_distributed builds its own transport.
#pragma once

#include <array>
#include <atomic>

#include "comm/transport.h"
#include "harness.h"

namespace perfbench {

class TracedTransport final : public cgx::comm::Transport {
 public:
  explicit TracedTransport(cgx::comm::Transport& inner)
      : Transport(inner.world_size()), inner_(inner) {
    Transport::set_policy(inner.policy());
  }

  struct Counters {
    std::uint64_t send_calls = 0;
    std::uint64_t send_bytes = 0;
    std::uint64_t direct_pulls = 0;
    std::uint64_t wait_ns = 0;
  };
  Counters totals() const {
    Counters c;
    for (const Rank& r : ranks_) {
      c.send_calls += r.send_calls.load();
      c.send_bytes += r.send_bytes.load();
      c.direct_pulls += r.direct_pulls.load();
      c.wait_ns += r.wait_ns.load();
    }
    return c;
  }
  void reset() {
    for (Rank& r : ranks_) {
      r.send_calls = 0;
      r.send_bytes = 0;
      r.direct_pulls = 0;
      r.wait_ns = 0;
    }
  }

  void send(int src, int dst, std::span<const std::byte> data,
            int tag) override {
    count_send(src, data.size());
    inner_.send(src, dst, data, tag);
  }
  void recv(int dst, int src, std::span<std::byte> data, int tag) override {
    Wait w(*this, dst);
    inner_.recv(dst, src, data, tag);
  }
  bool supports_recv_add() const override { return inner_.supports_recv_add(); }
  void recv_add(int dst, int src, std::span<float> data, int tag) override {
    Wait w(*this, dst);
    inner_.recv_add(dst, src, data, tag);
  }
  bool supports_direct_exchange() const override {
    return inner_.supports_direct_exchange();
  }
  bool supports_direct_exchange(int a, int b) const override {
    return inner_.supports_direct_exchange(a, b);
  }
  void direct_post(int src, int dst, std::span<const float> data,
                   int tag) override {
    count_send(src, data.size_bytes());
    inner_.direct_post(src, dst, data, tag);
  }
  void direct_pull(int dst, int src, std::span<float> data, bool add,
                   int tag) override {
    slot(dst).direct_pulls.fetch_add(1, std::memory_order_relaxed);
    Wait w(*this, dst);
    inner_.direct_pull(dst, src, data, add, tag);
  }
  void direct_pull2(int dst, int src1, int src2, std::span<float> data,
                    int tag) override {
    slot(dst).direct_pulls.fetch_add(2, std::memory_order_relaxed);
    Wait w(*this, dst);
    inner_.direct_pull2(dst, src1, src2, data, tag);
  }
  void direct_wait(int src, int dst, int tag) override {
    Wait w(*this, src);
    inner_.direct_wait(src, dst, tag);
  }
  int select_source(int dst, std::span<const int> candidates,
                    int tag) override {
    Wait w(*this, dst);
    return inner_.select_source(dst, candidates, tag);
  }
  const cgx::comm::TransportProfile& profile() const override {
    return inner_.profile();
  }
  cgx::comm::TrafficRecorder& recorder() override { return inner_.recorder(); }
  const cgx::comm::TrafficRecorder& recorder() const override {
    return inner_.recorder();
  }
  void set_policy(const cgx::comm::CommPolicy& policy) override {
    Transport::set_policy(policy);
    inner_.set_policy(policy);
  }
  void set_fault_injector(cgx::comm::FaultInjector* injector) override {
    inner_.set_fault_injector(injector);
  }
  void reset_inbound(int rank) override { inner_.reset_inbound(rank); }
  void set_epoch(std::uint64_t epoch) override { inner_.set_epoch(epoch); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  std::uint64_t stale_frames_discarded() const override {
    return inner_.stale_frames_discarded();
  }
  cgx::comm::HealthMonitor& health() override { return inner_.health(); }
  const cgx::comm::HealthMonitor& health() const override {
    return inner_.health();
  }

 private:
  struct alignas(64) Rank {
    std::atomic<std::uint64_t> send_calls{0};
    std::atomic<std::uint64_t> send_bytes{0};
    std::atomic<std::uint64_t> direct_pulls{0};
    std::atomic<std::uint64_t> wait_ns{0};
  };
  // Adds the blocked time of one call to the caller's slot.
  class Wait {
   public:
    Wait(TracedTransport& t, int rank) : slot_(t.slot(rank)), t0_(now_ns()) {}
    ~Wait() {
      slot_.wait_ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0_),
                              std::memory_order_relaxed);
    }
    Wait(const Wait&) = delete;
    Wait& operator=(const Wait&) = delete;

   private:
    Rank& slot_;
    std::int64_t t0_;
  };

  Rank& slot(int rank) { return ranks_[static_cast<std::size_t>(rank)]; }
  void count_send(int src, std::size_t bytes) {
    Rank& r = slot(src);
    r.send_calls.fetch_add(1, std::memory_order_relaxed);
    r.send_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  cgx::comm::Transport& inner_;
  std::array<Rank, kMaxRanks> ranks_{};
};

}  // namespace perfbench
