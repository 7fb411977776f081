// SPMD execution harness: one thread per simulated device.
//
// `run_world(transport, n, fn)` launches n device threads; each receives a
// Comm handle (rank, world size, p2p primitives, barrier) and runs the same
// function — the standard data-parallel SPMD shape. This is the in-process
// analogue of one training process per GPU.
//
// Every world runs over a Membership (comm/membership.h): the caller's
// elastic one (WorldOptions), or a fixed one run_world makes itself. A Comm
// is a *view* onto the current WorldView's ranks. The thread keeps its
// launch-time identity (`global_rank()`, stable forever) while
// `rank()`/`size()` report the DENSE coordinates of the current WorldView —
// the contiguous renumbering of the survivors that collectives operate in.
// All peer arguments of the p2p/direct primitives are dense and translated
// to global transport ranks at the boundary, so collective code is oblivious
// to membership changes. A fixed world never re-shards, so its translation
// is the identity.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/membership.h"
#include "comm/transport.h"

namespace cgx::comm {

// A device thread died with an exception. run_world catches it on the worker
// thread, annotates it with the rank, and rethrows this on the joining
// thread — so a failed worker surfaces as an ordinary exception at the call
// site instead of tearing down the process (or vanishing into a terminate).
// `original` holds the worker's exception for callers that need the precise
// type (e.g. to distinguish a TimeoutError from a FaultInjectedError).
class WorkerError : public std::runtime_error {
 public:
  WorkerError(int rank, std::string what, std::exception_ptr original)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " failed: " + std::move(what)),
        rank(rank),
        original(std::move(original)) {}
  int rank;
  std::exception_ptr original;
};

class Comm {
 public:
  Comm(int rank, Transport& transport, Membership& membership)
      : rank_(rank),
        transport_(transport),
        membership_(membership),
        candidates_(static_cast<std::size_t>(membership.world_size())) {}

  // Dense rank within the current WorldView. Re-reads the view on every
  // call: after a re-shard the same thread may own a different dense slot.
  int rank() const { return view().dense_rank(rank_); }
  int size() const { return view().active_count(); }
  // Launch-time transport rank: this thread's stable identity across
  // membership changes (data sharding, RNG streams, arenas key off it).
  int global_rank() const { return rank_; }
  Membership& membership() const { return membership_; }
  // Translates a dense rank of the current view to its global transport
  // rank.
  int to_global(int dense) const { return view().global_rank(dense); }
  Transport& transport() { return transport_; }

  void send(int to, std::span<const std::byte> data, int tag = 0) {
    transport_.send(rank_, to_global(to), data, tag);
  }
  void recv(int from, std::span<std::byte> data, int tag = 0) {
    transport_.recv(rank_, to_global(from), data, tag);
  }

  void send_floats(int to, std::span<const float> data, int tag = 0) {
    send(to, std::as_bytes(data), tag);
  }
  void recv_floats(int from, std::span<float> data, int tag = 0) {
    recv(from, std::as_writable_bytes(data), tag);
  }

  // Fused receive+reduce (see Transport::recv_add): adds the matching
  // message's floats into `data` with no scratch bounce. Only valid when
  // transport().supports_recv_add().
  void recv_add_floats(int from, std::span<float> data, int tag = 0) {
    transport_.recv_add(rank_, to_global(from), data, tag);
  }

  // Peer-direct rendezvous (see Transport::direct_post/pull/wait): the
  // posted span must stay unmodified until the matching direct_wait.
  bool supports_direct_exchange() const {
    return transport_.supports_direct_exchange();
  }
  // Per-link capability (see Transport): topology-aware transports offer
  // peer-direct only inside a node. Both endpoints answer identically, so
  // SPMD code picks the path with this query for a specific peer.
  bool supports_direct_exchange(int peer) const {
    return transport_.supports_direct_exchange(rank_, to_global(peer));
  }
  void direct_post(int to, std::span<const float> data, int tag = 0) {
    transport_.direct_post(rank_, to_global(to), data, tag);
  }
  void direct_pull(int from, std::span<float> data, bool add, int tag = 0) {
    transport_.direct_pull(rank_, to_global(from), data, add, tag);
  }
  void direct_pull2(int from1, int from2, std::span<float> data,
                    int tag = 0) {
    transport_.direct_pull2(rank_, to_global(from1), to_global(from2), data,
                            tag);
  }
  void direct_wait(int to, int tag = 0) {
    transport_.direct_wait(rank_, to_global(to), tag);
  }

  // Blocking arrival-order selection: returns an element of `candidates`
  // with bytes pending for this rank under `tag`. Lets collectives take
  // scatter-reduce contributions in whatever order peers produce them.
  // Candidates (and the result) are dense ranks.
  int select_source(std::span<const int> candidates, int tag = 0);

  // Synchronises all ranks in the world (used between training steps and by
  // collectives that need phase separation in tests): the current view's
  // ranks collect on the Membership step gate. Under a bounded CommPolicy
  // the wait is deadline-limited and expiry throws a TimeoutError (src =
  // -1: no single culprit; dst = this rank) — a hung peer turns a world
  // barrier into a diagnosable failure instead of a deadlock.
  void barrier();

  // Deadline-bounded barrier that reports instead of throwing: true once
  // every rank arrived, false on expiry (the arrival is withdrawn; see
  // util::Barrier::arrive_and_wait_for). The engine's per-round commit
  // fence uses this.
  bool try_barrier(std::chrono::milliseconds timeout);

 private:
  const WorldView& view() const { return *membership_.view(); }

  const int rank_;
  Transport& transport_;
  Membership& membership_;
  // select_source's dense -> global translation buffer, sized once to the
  // launch world (a Comm belongs to one thread).
  std::vector<int> candidates_;
};

// Options for run_world. `membership` (an elastic Membership of the
// transport's world size) turns on elastic mode: worker threads that die
// with a FaultInjectedError are treated as survivable departures (the
// oracle is informed, no WorkerError is rethrown) and, when a rejoin is
// scheduled for that rank, a successor thread is launched to re-run fn as
// the readmission candidate. Without one, run_world runs the ranks over a
// fixed Membership of its own.
struct WorldOptions {
  Membership* membership = nullptr;
};

// Runs fn(comm) on `transport.world_size()` threads and joins them.
// Any CHECK failure in a worker aborts the process (worker errors are
// programmer errors by contract; see util/check.h). An exception escaping a
// worker is caught on its thread, every other worker is still joined, and
// the first failure (lowest rank) is rethrown here as a WorkerError — so
// structured comm failures (TimeoutError, FaultInjectedError, ...) propagate
// to the caller instead of std::terminate-ing the process.
void run_world(Transport& transport, const std::function<void(Comm&)>& fn);
void run_world(Transport& transport, const std::function<void(Comm&)>& fn,
               const WorldOptions& options);

}  // namespace cgx::comm
