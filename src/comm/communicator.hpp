#pragma once
// Functional in-process communicator: MPI-shaped collectives over threads
// sharing one address space. One thread per rank; collectives synchronize
// through a generation barrier and exchange data by reading each other's
// published buffers. This is the substrate on which the distributed
// transpose and the DNS solvers run *for real* at laptop scale, so their
// numerics can be validated; the at-scale performance of the same call
// pattern is modeled by psdns::net.
//
// Semantics follow MPI: alltoall exchanges equal blocks ordered by rank;
// ialltoall returns a Request whose wait() completes the exchange (every
// rank of the communicator must reach wait(), like MPI_WAIT on a
// nonblocking collective); split() creates row/column sub-communicators.
//
// alltoall_strided is the one-copy exchange the transposes use, the host
// analogue of MPI_ALLTOALLW with derived datatypes (and of the paper's
// zero-copy unpack, Fig. 8): every rank publishes the base pointers of its
// source variables, and after the publish barrier each rank copies every
// peer's block straight out of the peer's layout into its own destination
// layout. A trailing barrier releases the sources. Nothing is staged.
//
// Peer failure: a collective reads memory its peers own, so a rank that
// dies between collectives must not leave stale published pointers behind.
// When a rank's body throws, run_ranks marks every group the rank belongs
// to (the world and each split() subgroup) aborted, then drops the rank out
// of that group's barrier. Every barrier checks the mark after it completes
// and throws PeerFailure, so no survivor reads a dead rank's buffers or
// waits for it forever; run_ranks rethrows the root failure. Collectives
// validate and poll their fault hooks before publishing and never throw
// between the publish and the trailing barrier, which is what makes the
// check sufficient.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resilience/fault.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::comm {

class Communicator;

/// Thrown by a collective on every surviving rank when a peer of its group
/// failed. failed_rank() is the run_ranks (world) rank whose own error
/// started the abort; run_ranks rethrows that root error, not this one.
class PeerFailure : public util::Error {
 public:
  explicit PeerFailure(int failed_rank, std::source_location loc =
                                            std::source_location::current())
      : util::Error("peer rank " + std::to_string(failed_rank) +
                        " failed; collective abandoned",
                    loc),
        failed_rank_(failed_rank) {}

  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

/// One peer's block of an alltoall_strided exchange, in elements: `reps`
/// repeats of `rows` rows of `width` elements - the gpu::memcpy2d shape
/// with an outer repeat. The src_* fields are relative to the base pointer
/// the sending peer published for the variable, the dst_* fields to the
/// receiver's own base. Elements of a row are src_step / dst_step apart: 1
/// for contiguous rows, more where a pencil transpose moves the fastest
/// axis.
struct StridedBlock {
  std::size_t width = 0, rows = 1, reps = 1;
  std::size_t src = 0, src_step = 1, src_pitch = 0, src_rep_pitch = 0;
  std::size_t dst = 0, dst_step = 1, dst_pitch = 0, dst_rep_pitch = 0;

  std::size_t elems() const { return width * rows * reps; }
  /// One past the last element read / written (meaningful when elems() > 0).
  std::size_t src_end() const {
    return src + (width - 1) * src_step + (rows - 1) * src_pitch +
           (reps - 1) * src_rep_pitch + 1;
  }
  std::size_t dst_end() const {
    return dst + (width - 1) * dst_step + (rows - 1) * dst_pitch +
           (reps - 1) * dst_rep_pitch + 1;
  }
};

/// Handle for a pending nonblocking collective. The exchange is performed
/// inside wait(); all ranks must call wait() in matching collective order.
/// Deliberately a plain function pointer plus arguments rather than a
/// std::function: the capture (communicator + two buffers + count) would
/// exceed the small-object buffer and heap-allocate on every ialltoall in
/// the async pipeline's steady state.
class Request {
 public:
  using RunFn = void (*)(Communicator&, const void*, void*, std::size_t);

  Request() = default;

  bool valid() const { return run_ != nullptr; }

  void wait() {
    PSDNS_REQUIRE(valid(), "wait() on an empty or consumed Request");
    RunFn fn = run_;
    run_ = nullptr;
    fn(*comm_, send_, recv_, count_);
  }

 private:
  friend class Communicator;
  Request(Communicator* comm, RunFn run, const void* send, void* recv,
          std::size_t count)
      : comm_(comm), run_(run), send_(send), recv_(recv), count_(count) {}

  Communicator* comm_ = nullptr;
  RunFn run_ = nullptr;
  const void* send_ = nullptr;
  void* recv_ = nullptr;
  std::size_t count_ = 0;
};

namespace detail {

/// Process-unique id tagging one communicator group's trace flows.
std::uint64_t next_group_trace_uid();

/// State shared by all ranks of one communicator.
struct Group {
  explicit Group(int n)
      : size(n), barrier(n), slots(static_cast<std::size_t>(n)),
        trace_uid(next_group_trace_uid()) {}

  /// Marks the group aborted by world rank `root` (the first mark wins),
  /// then drops the calling rank out of the barrier. Called once per failed
  /// rank and group, by run_ranks.
  void abort(int root) {
    int none = -1;
    failed.compare_exchange_strong(none, root);
    barrier.arrive_and_drop();
  }

  int size;
  std::barrier<> barrier;
  std::vector<const void*> slots;  // per-rank published pointer
  std::uint64_t trace_uid;
  std::atomic<int> failed{-1};  // root failed world rank once aborted

  // split() bookkeeping: first arriving rank of each color creates the
  // subgroup.
  std::mutex split_mutex;
  std::map<int, std::shared_ptr<Group>> pending_splits;
  std::vector<std::pair<int, int>> split_keys;  // (color, key) per rank
};

/// Records that the calling rank thread belongs to `group`, so that
/// run_ranks can drop it out of every group it joined if it fails.
void join_group(const std::shared_ptr<Group>& group);

/// bit_flip drills flip the high exponent bit of a received element's top
/// byte: a floating-point value below 2 jumps by ~2^1024, so products go
/// non-finite within one step and the health monitor's NaN guard catches
/// the corruption at once (an LSB mantissa flip would hide below the
/// diagnostics noise). A zero or a value of 2 or more would only become
/// another finite number, so the drill corrupts the first received element
/// whose flip raises it: the top scalar (last 8 bytes at most) is nonzero
/// and the bit is clear. Failing that, the first element.
template <class T>
bool flip_raises(const T& x) {
  const auto* b = reinterpret_cast<const unsigned char*>(&x);
  if ((b[sizeof(T) - 1] & 0x40u) != 0) return false;
  const std::size_t top = sizeof(T) - std::min(sizeof(T), sizeof(double));
  return std::any_of(b + top, b + sizeof(T),
                     [](unsigned char c) { return c != 0; });
}

template <class T>
void flip_high_bit(T& x) {
  reinterpret_cast<unsigned char*>(&x)[sizeof(T) - 1] ^= 0x40u;
}

template <class T>
bool overlaps(const T* a, std::size_t na, const T* b, std::size_t nb) {
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  return na > 0 && nb > 0 && a0 < b0 + nb * sizeof(T) &&
         b0 < a0 + na * sizeof(T);
}

}  // namespace detail

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::Group> group, int rank)
      : group_(std::move(group)), rank_(rank) {
    PSDNS_REQUIRE(rank_ >= 0 && rank_ < group_->size, "rank out of range");
  }

  int rank() const { return rank_; }
  int size() const { return group_->size; }

  /// Synchronizes the group; throws PeerFailure if a peer failed.
  void barrier() {
    group_->barrier.arrive_and_wait();
    const int failed = group_->failed.load();
    if (failed >= 0) throw PeerFailure(failed);
  }

  /// MPI_ALLTOALL: send holds size() blocks of `count` elements, block r
  /// destined for rank r; recv receives one block from every rank.
  template <class T>
  void alltoall(const T* send, T* recv, std::size_t count) {
    // Fault drill hook. Counted per thread, so every SPMD rank fires at the
    // same call index and a thrown fault unwinds all ranks *before* anyone
    // publishes or enters the barrier - no deadlock. A bit_flip plan entry
    // corrupts one bit of the received payload instead (silent fault; see
    // detail::flip_raises).
    const auto fault = resilience::poll(resilience::site::comm_alltoall);
    if (fault == resilience::FaultKind::Throw ||
        fault == resilience::FaultKind::ShortWrite) {
      throw resilience::InjectedFault(resilience::site::comm_alltoall,
                                      *fault);
    }
    obs::registry().counter_add("comm.alltoall.calls");
    obs::registry().counter_add(
        "comm.alltoall.bytes",
        static_cast<std::int64_t>(sizeof(T) * count *
                                  static_cast<std::size_t>(size())));
    // Causal tracing: every rank's span emits its outgoing flow before the
    // publish barrier and consumes every peer's after the exchange, so the
    // trace records the full cross-rank happened-before fan of the
    // collective. The sequence number advances on every rank (SPMD call
    // order is identical), keeping flow ids aligned across the group.
    obs::TraceSpan span("comm.alltoall", obs::SpanKind::Comm);
    const std::uint64_t cseq = collective_seq_++;
    if (span.id() != 0) obs::flow_emit(collective_flow(cseq, rank_));
    publish(send);
    for (int r = 0; r < size(); ++r) {
      const T* theirs = peek<T>(r);
      std::copy(theirs + static_cast<std::size_t>(rank_) * count,
                theirs + static_cast<std::size_t>(rank_ + 1) * count,
                recv + static_cast<std::size_t>(r) * count);
    }
    barrier();  // all reads done before anyone reuses their send buffer
    if (span.id() != 0) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) obs::flow_consume(collective_flow(cseq, r));
      }
    }
    if (fault == resilience::FaultKind::BitFlip && count > 0) {
      const std::size_t n = count * static_cast<std::size_t>(size());
      T* hit = std::find_if(recv, recv + n, [](const T& x) {
        return detail::flip_raises(x);
      });
      detail::flip_high_bit(hit != recv + n ? *hit : *recv);
    }
  }

  /// MPI_IALLTOALL. The returned Request's wait() performs the exchange.
  template <class T>
  Request ialltoall(const T* send, T* recv, std::size_t count) {
    return Request(
        this,
        [](Communicator& c, const void* s, void* r, std::size_t n) {
          c.alltoall(static_cast<const T*>(s), static_cast<T*>(r), n);
        },
        send, recv, count);
  }

  /// MPI_ALLTOALLV with per-destination counts and displacements (in
  /// elements). counts/displs arrays live on each rank and describe both
  /// its send layout (send_counts) and receive layout (recv_counts).
  template <class T>
  void alltoallv(const T* send, const std::size_t* send_counts,
                 const std::size_t* send_displs, T* recv,
                 const std::size_t* recv_counts,
                 const std::size_t* recv_displs) {
    struct Spec {
      const T* data;
      const std::size_t* counts;
      const std::size_t* displs;
    };
    // Same drill hook as alltoall: the v-variant is the same collective to
    // the fault plan (both count against the comm.alltoall site).
    resilience::maybe_throw(resilience::site::comm_alltoall);
    std::size_t send_elems = 0;
    for (int r = 0; r < size(); ++r) send_elems += send_counts[r];
    obs::registry().counter_add("comm.alltoall.calls");
    obs::registry().counter_add(
        "comm.alltoall.bytes",
        static_cast<std::int64_t>(sizeof(T) * send_elems));
    obs::TraceSpan span("comm.alltoallv", obs::SpanKind::Comm);
    const std::uint64_t cseq = collective_seq_++;
    if (span.id() != 0) obs::flow_emit(collective_flow(cseq, rank_));
    const Spec mine{send, send_counts, send_displs};
    publish(&mine);
    // A count mismatch is reported after the trailing barrier: peers may
    // still be reading this rank's send buffer until then.
    bool mismatch = false;
    for (int r = 0; r < size(); ++r) {
      const Spec* theirs = peek<Spec>(r);
      const std::size_t n = theirs->counts[rank_];
      if (n != recv_counts[r]) {
        mismatch = true;
        continue;
      }
      std::copy(theirs->data + theirs->displs[rank_],
                theirs->data + theirs->displs[rank_] + n,
                recv + recv_displs[r]);
    }
    barrier();
    if (span.id() != 0) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) obs::flow_consume(collective_flow(cseq, r));
      }
    }
    PSDNS_CHECK(!mismatch,
                "alltoallv count mismatch between sender and receiver");
  }

  /// One-copy strided all-to-all (see the header comment). `src` holds this
  /// rank's source variables, `src_elems` elements each; `dst` its
  /// destination variables, `dst_elems` each. describe(peer, v) returns the
  /// StridedBlock that `peer` sends this rank from its variable v; it is
  /// called on pool threads too, so it must be a pure function. The copy
  /// stripes over (peer, variable, repeat) on the worker pool.
  ///
  /// To the fault plan and the registry this is one all-to-all: one
  /// comm.alltoall poll, comm.alltoall.calls/bytes (bytes received), one
  /// comm.alltoall span. The copy is the gpu.memcpy2d site, polled once
  /// per call. Every throwing poll fires before publishing; short_write
  /// (memcpy2d: half the rows of the first repeat of the first block) and
  /// bit_flip touch only this rank's destination.
  template <class T, class Describe>
  void alltoall_strided(std::span<const T* const> src, std::size_t src_elems,
                        std::span<T* const> dst, std::size_t dst_elems,
                        const Describe& describe) {
    struct Source {
      const T* const* bases;
      std::size_t nvars;
      std::size_t elems;
    };
    const std::size_t nv = dst.size();
    PSDNS_REQUIRE(nv > 0 && src.size() == nv,
                  "strided all-to-all needs matching, non-empty variables");
    std::size_t recv_elems = 0, reps = 0;
    int first = -1;  // first peer with a non-empty block of variable 0
    for (int p = 0; p < size(); ++p) {
      for (std::size_t v = 0; v < nv; ++v) {
        const StridedBlock b = describe(p, v);
        if (b.elems() == 0) continue;
        PSDNS_REQUIRE(b.dst_end() <= dst_elems,
                      "strided block overruns the destination");
        recv_elems += b.elems();
        reps = std::max(reps, b.reps);
        if (v == 0 && first < 0) first = p;
      }
    }
    for (std::size_t v = 0; v < nv; ++v) {
      for (std::size_t u = 0; u < nv; ++u) {
        PSDNS_REQUIRE(!detail::overlaps<T>(dst[v], dst_elems, src[u],
                                           src_elems),
                      "destination overlaps this rank's own source");
      }
    }
    const auto fault = resilience::poll(resilience::site::comm_alltoall);
    if (fault == resilience::FaultKind::Throw ||
        fault == resilience::FaultKind::ShortWrite) {
      throw resilience::InjectedFault(resilience::site::comm_alltoall,
                                      *fault);
    }
    const auto copy_fault = resilience::poll(resilience::site::gpu_memcpy2d);
    if (copy_fault == resilience::FaultKind::Throw) {
      throw resilience::InjectedFault(resilience::site::gpu_memcpy2d,
                                      *copy_fault);
    }
    obs::registry().counter_add("comm.alltoall.calls");
    obs::registry().counter_add(
        "comm.alltoall.bytes",
        static_cast<std::int64_t>(sizeof(T) * recv_elems));
    obs::TraceSpan span("comm.alltoall", obs::SpanKind::Comm);
    const std::uint64_t cseq = collective_seq_++;
    if (span.id() != 0) obs::flow_emit(collective_flow(cseq, rank_));
    const Source mine{src.data(), nv, src_elems};
    publish(&mine);

    // Nothing from here to the trailing barrier throws: peers are reading
    // this rank's sources. A peer whose extents do not cover the described
    // blocks is reported after the barrier, with nothing copied.
    bool mismatch = false;
    for (int p = 0; p < size(); ++p) {
      const Source* theirs = peek<Source>(p);
      if (theirs->nvars != nv) {
        mismatch = true;
        continue;
      }
      for (std::size_t v = 0; v < nv; ++v) {
        const StridedBlock b = describe(p, v);
        if (b.elems() > 0 && b.src_end() > theirs->elems) mismatch = true;
      }
    }
    const bool short_write =
        copy_fault == resilience::FaultKind::ShortWrite;
    if (!mismatch) {
      const std::size_t per_peer = nv * reps;
      util::ThreadPool::global().parallel_for(
          "comm.alltoall_strided", 0,
          static_cast<std::size_t>(size()) * per_peer, [&](std::size_t idx) {
            const int p = static_cast<int>(idx / per_peer);
            const std::size_t v = (idx / reps) % nv;
            const std::size_t rep = idx % reps;
            const StridedBlock b = describe(p, v);
            if (rep >= b.reps || b.elems() == 0) return;
            const std::size_t rows =
                short_write && p == first && v == 0 && rep == 0 ? b.rows / 2
                                                                : b.rows;
            const T* s = peek<Source>(p)->bases[v] + b.src +
                         rep * b.src_rep_pitch;
            T* d = dst[v] + b.dst + rep * b.dst_rep_pitch;
            for (std::size_t r = 0; r < rows; ++r) {
              const T* sr = s + r * b.src_pitch;
              T* dr = d + r * b.dst_pitch;
              if (b.src_step == 1 && b.dst_step == 1) {
                std::copy(sr, sr + b.width, dr);
              } else {
                for (std::size_t c = 0; c < b.width; ++c) {
                  dr[c * b.dst_step] = sr[c * b.src_step];
                }
              }
            }
          });
    }
    barrier();  // all reads done before anyone reuses their sources
    if (span.id() != 0) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) obs::flow_consume(collective_flow(cseq, r));
      }
    }
    PSDNS_CHECK(!mismatch,
                "strided all-to-all blocks exceed a peer's published source");
    if (first < 0) return;
    const StridedBlock b = describe(first, 0);
    T* const head = dst[0] + b.dst;
    if (copy_fault == resilience::FaultKind::BitFlip) {
      reinterpret_cast<unsigned char*>(head)[0] ^= 0x01u;  // as memcpy2d
    }
    if (fault == resilience::FaultKind::BitFlip) {
      // The block's elements in receive order, as alltoall scans recv.
      T* target = nullptr;
      for (std::size_t i = 0; i < b.elems() && target == nullptr; ++i) {
        T* e = head + (i / (b.width * b.rows)) * b.dst_rep_pitch +
               (i / b.width % b.rows) * b.dst_pitch +
               (i % b.width) * b.dst_step;
        if (detail::flip_raises(*e)) target = e;
      }
      detail::flip_high_bit(target != nullptr ? *target : *head);
    }
  }

  /// MPI_ALLREDUCE(sum). In-place allowed (send == recv). The accumulator
  /// is per-thread scratch that grows to the largest count ever reduced,
  /// so steady-state calls (solver diagnostics every step) do not allocate.
  template <class T>
  void allreduce_sum(const T* send, T* recv, std::size_t count) {
    publish(send);
    thread_local std::vector<T> acc;
    if (acc.size() < count) acc.resize(count);
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(count),
              T{});
    for (int r = 0; r < size(); ++r) {
      const T* theirs = peek<T>(r);
      for (std::size_t i = 0; i < count; ++i) acc[i] += theirs[i];
    }
    barrier();  // reads complete before anyone overwrites recv==send
    std::copy(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(count),
              recv);
    barrier();
  }

  template <class T>
  T allreduce_sum(T value) {
    T out{};
    allreduce_sum(&value, &out, 1);
    return out;
  }

  template <class T>
  T allreduce_max(T value) {
    publish(&value);
    T best = value;
    for (int r = 0; r < size(); ++r) best = std::max(best, *peek<T>(r));
    barrier();
    return best;
  }

  /// MPI_BCAST from `root`.
  template <class T>
  void broadcast(T* data, std::size_t count, int root) {
    publish(data);
    if (rank_ != root) {
      const T* src = peek<T>(root);
      std::copy(src, src + count, data);
    }
    barrier();
  }

  /// MPI_GATHER: every rank contributes `count` elements; root receives
  /// size()*count elements ordered by rank. recv may be null on non-roots.
  template <class T>
  void gather(const T* send, T* recv, std::size_t count, int root) {
    publish(send);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        const T* theirs = peek<T>(r);
        std::copy(theirs, theirs + count,
                  recv + static_cast<std::size_t>(r) * count);
      }
    }
    barrier();
  }

  /// MPI_SCATTER: root's send buffer holds size() blocks of `count`
  /// elements; every rank receives its block. send may be null on
  /// non-roots.
  template <class T>
  void scatter(const T* send, T* recv, std::size_t count, int root) {
    publish(send);
    const T* src = peek<T>(root);
    std::copy(src + static_cast<std::size_t>(rank_) * count,
              src + static_cast<std::size_t>(rank_ + 1) * count, recv);
    barrier();
  }

  /// MPI_COMM_SPLIT: ranks with equal `color` form a new communicator,
  /// ordered by (key, parent rank).
  Communicator split(int color, int key);

 private:
  /// Publishes a pointer and synchronizes so every rank's slot is visible.
  template <class P>
  void publish(const P* ptr) {
    group_->slots[rank_] = ptr;
    barrier();
  }

  template <class P>
  const P* peek(int r) const {
    return static_cast<const P*>(group_->slots[r]);
  }

  /// Trace-flow id of src rank's contribution to this group's `seq`-th
  /// collective. Top bit set so ids never collide with obs::new_flow().
  std::uint64_t collective_flow(std::uint64_t seq, int src) const {
    return (std::uint64_t{1} << 63) |
           ((group_->trace_uid & 0x7FFFF) << 44) | ((seq & 0xFFFFFFFF) << 12) |
           (static_cast<std::uint64_t>(src) & 0xFFF);
  }

  std::shared_ptr<detail::Group> group_;
  int rank_;
  std::uint64_t collective_seq_ = 0;  // per-rank count of traced collectives
};

/// SPMD launcher: runs `body(comm)` on `nranks` threads, each with its own
/// rank of a fresh world communicator. Exceptions thrown by any rank are
/// collected and the first (by rank) is rethrown after all threads join.
void run_ranks(int nranks, const std::function<void(Communicator&)>& body);

}  // namespace psdns::comm
