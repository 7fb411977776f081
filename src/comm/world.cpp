#include "comm/world.h"

#include <mutex>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "util/numa.h"

namespace cgx::comm {

// -------------------------------------------------------------------- Comm

int Comm::select_source(std::span<const int> candidates, int tag) {
  // Translate dense candidates to transport (global) ranks through the
  // launch-world-sized buffer — this sits on the any-source hot path.
  CGX_CHECK_LE(candidates.size(), candidates_.size());
  const WorldView& v = view();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates_[i] = v.global_rank(candidates[i]);
  }
  const int picked = transport_.select_source(
      rank_, std::span<const int>(candidates_.data(), candidates.size()),
      tag);
  return v.dense_rank(picked);
}

void Comm::barrier() {
  const CommPolicy& pol = transport_.policy();
  // An unbounded policy waits forever (timeout 0).
  const std::chrono::milliseconds timeout =
      pol.bounded() ? pol.timeout : std::chrono::milliseconds{0};
  if (!try_barrier(timeout)) {
    throw TimeoutError(-1, rank_, -1, pol.timeout, "world barrier");
  }
}

bool Comm::try_barrier(std::chrono::milliseconds timeout) {
  return membership_.step_barrier(timeout);
}

// --------------------------------------------------------------- run_world

void run_world(Transport& transport, const std::function<void(Comm&)>& fn) {
  run_world(transport, fn, WorldOptions{});
}

void run_world(Transport& transport, const std::function<void(Comm&)>& fn,
               const WorldOptions& options) {
  const int n = transport.world_size();
  CGX_CHECK_GT(n, 0);
  // A fixed world admits no departures: every rank is a peer for life.
  Membership fixed(n, Membership::Kind::kFixed);
  Membership& membership =
      options.membership != nullptr ? *options.membership : fixed;
  CGX_CHECK_EQ(membership.world_size(), n);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  // Guarded by threads_mu: a dying elastic worker may append a successor
  // thread for its own rank while the main thread is already joining.
  std::mutex threads_mu;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n) * 2);

  // Self-referential so a crashed rank with a scheduled rejoin can launch a
  // successor incarnation of itself running the same body.
  std::function<void(int)> worker = [&](int r) {
    try {
      // Home the device thread on its rank's NUMA node (no-op on
      // single-node machines or CGX_NUMA=off) so the buffers it
      // first-touches — and the collectives it runs — stay node-local.
      // The rank arena is NOT blanket-bound here: fn() may churn transient
      // tensors (nn layers rebuild activations every step), which must
      // stay on the heap; only the grow-only engine state binds arenas.
      util::numa::pin_current_thread_for_rank(r);
      Comm comm(r, transport, membership);
      fn(comm);
    } catch (const FaultInjectedError&) {
      if (membership.admits_departures()) {
        // A survivable crash: publish to the oracle BEFORE any successor
        // exists, so survivors classify the stall correctly, then (when a
        // rejoin is scheduled) hand the rank a fresh incarnation that will
        // wait for admission. No error is recorded — the world lives on.
        membership.mark_rank_failed(r, std::current_exception());
        if (membership.rejoin_scheduled(r)) {
          std::lock_guard<std::mutex> lock(threads_mu);
          threads.emplace_back([&worker, r] { worker(r); });
        }
        return;
      }
      errors[static_cast<std::size_t>(r)] = std::current_exception();
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
    }
  };

  {
    std::lock_guard<std::mutex> lock(threads_mu);
    for (int r = 0; r < n; ++r) {
      threads.emplace_back([&worker, r] { worker(r); });
    }
  }
  // Join everyone before rethrowing: a bounded CommPolicy guarantees the
  // surviving ranks' waits expire, so no join can hang on a dead peer.
  // Joins go one-at-a-time under the lock's protection because the vector
  // may still grow (successor threads) while we drain it.
  std::size_t joined = 0;
  for (;;) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(threads_mu);
      if (joined == threads.size()) break;
      t = std::move(threads[joined++]);
    }
    t.join();
  }
  for (int r = 0; r < n; ++r) {
    std::exception_ptr err = errors[static_cast<std::size_t>(r)];
    if (!err) continue;
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    throw WorkerError(r, std::move(what), std::move(err));
  }
}

}  // namespace cgx::comm
