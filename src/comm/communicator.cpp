#include "comm/communicator.hpp"

#include <atomic>
#include <thread>
#include <tuple>

#include "obs/log.hpp"

namespace psdns::comm {

namespace detail {

std::uint64_t next_group_trace_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {
// The groups the calling rank thread has joined (its world group first),
// held weakly: a group dies with the last communicator that uses it.
thread_local std::vector<std::weak_ptr<Group>> t_groups;
}  // namespace

void join_group(const std::shared_ptr<Group>& group) {
  std::erase_if(t_groups, [](const auto& g) { return g.expired(); });
  t_groups.push_back(group);
}

}  // namespace detail

Communicator Communicator::split(int color, int key) {
  // Publish (color, key) for every rank.
  const std::pair<int, int> mine{color, key};
  publish(&mine);

  // Deterministically compute this rank's subgroup membership: members of my
  // color ordered by (key, parent rank).
  std::vector<std::tuple<int, int, int>> members;  // (key, parent_rank, color)
  for (int r = 0; r < size(); ++r) {
    const auto* ck = peek<std::pair<int, int>>(r);
    if (ck->first == color) members.emplace_back(ck->second, r, ck->first);
  }
  std::sort(members.begin(), members.end());
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (std::get<1>(members[i]) == rank_) new_rank = static_cast<int>(i);
  }
  PSDNS_CHECK(new_rank >= 0, "rank missing from its own split group");

  // First member of each color to arrive allocates the shared subgroup.
  std::shared_ptr<detail::Group> sub;
  {
    std::lock_guard lock(group_->split_mutex);
    auto& slot = group_->pending_splits[color];
    if (!slot) {
      slot = std::make_shared<detail::Group>(static_cast<int>(members.size()));
    }
    sub = slot;
  }
  detail::join_group(sub);
  barrier();  // every rank has taken its subgroup pointer

  if (new_rank == 0) {
    std::lock_guard lock(group_->split_mutex);
    group_->pending_splits.erase(color);
  }
  barrier();  // map cleaned before any later split reuses colors

  return Communicator(std::move(sub), new_rank);
}

void run_ranks(int nranks, const std::function<void(Communicator&)>& body) {
  PSDNS_REQUIRE(nranks >= 1, "need at least one rank");
  auto group = std::make_shared<detail::Group>(nranks);

  const auto n = static_cast<std::size_t>(nranks);
  std::vector<std::exception_ptr> errors(n);
  std::vector<char> secondary(n, 0);  // the rank failed with PeerFailure
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      obs::set_rank_tag(r);  // stamp this rank's log lines and trace spans
      detail::join_group(group);
      // Mark every group this rank joined aborted, then drop it out of
      // their barriers: peers waiting there wake up, see the mark and
      // throw PeerFailure instead of reading this rank's dead buffers.
      const auto abort_groups = [](int root) {
        for (const auto& weak : detail::t_groups) {
          if (const auto g = weak.lock()) g->abort(root);
        }
      };
      const auto i = static_cast<std::size_t>(r);
      try {
        Communicator comm(group, r);
        body(comm);
      } catch (const PeerFailure& peer) {
        errors[i] = std::current_exception();
        secondary[i] = 1;
        abort_groups(peer.failed_rank());  // pass the root on
      } catch (...) {
        errors[i] = std::current_exception();
        abort_groups(r);
      }
      detail::t_groups.clear();
    });
  }
  for (auto& t : threads) t.join();
  // The root failure, not the PeerFailures it caused on the other ranks.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i] && !secondary[i]) std::rethrow_exception(errors[i]);
  }
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace psdns::comm
