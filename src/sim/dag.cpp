#include "sim/dag.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psdns::sim {

LaneId DagRunner::add_lane(std::string name, int rank) {
  lane_names_.push_back(std::move(name));
  lane_ranks_.push_back(rank);
  lane_tail_.push_back(OpId{});
  return lane_names_.size() - 1;
}

OpId DagRunner::add_op(std::string label, LaneId lane, obs::SpanKind kind,
                       double duration, const std::vector<OpId>& deps,
                       double overhead) {
  PSDNS_REQUIRE(!ran_, "cannot add ops after run()");
  PSDNS_REQUIRE(lane < lane_names_.size(), "unknown lane");
  PSDNS_REQUIRE(duration >= 0.0, "negative duration");

  Op op;
  op.label = std::move(label);
  op.kind = kind;
  op.lane = lane;
  op.duration = duration;
  op.overhead = overhead;

  // Implicit in-lane ordering (stream semantics) plus explicit deps.
  if (lane_tail_[lane].valid()) op.deps.push_back(lane_tail_[lane].index);
  for (const OpId d : deps) {
    PSDNS_REQUIRE(d.valid() && d.index < ops_.size(), "unknown dependency");
    op.deps.push_back(d.index);
  }
  op.explicit_deps = deps.size();

  const std::size_t index = ops_.size();
  ops_.push_back(std::move(op));
  lane_tail_[lane] = OpId{index};
  return OpId{index};
}

OpId DagRunner::add_flow_op(std::string label, LaneId lane,
                            obs::SpanKind kind, double bytes,
                            const std::vector<LinkId>& path, double rate_cap,
                            const std::vector<OpId>& deps, double overhead,
                            int flow_class, double interference_factor) {
  const OpId id = add_op(std::move(label), lane, kind, 0.0, deps, overhead);
  Op& op = ops_[id.index];
  PSDNS_REQUIRE(bytes >= 0.0, "negative flow size");
  op.bytes = bytes;
  op.path = path;
  op.rate_cap = rate_cap;
  op.flow_class = flow_class;
  op.interference_factor = interference_factor;
  return id;
}

SimTime DagRunner::run() {
  PSDNS_REQUIRE(!ran_, "run() may only be called once");
  ran_ = true;

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    op.unmet = op.deps.size();
    for (const std::size_t d : op.deps) ops_[d].dependents.push_back(i);
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].unmet == 0) try_start(i);
  }
  engine_.run();

  SimTime makespan = 0.0;
  for (const Op& op : ops_) {
    PSDNS_CHECK(op.finished, "DAG deadlock: op never ran: " + op.label);
    makespan = std::max(makespan, op.finish);
  }
  return makespan;
}

void DagRunner::try_start(std::size_t index) {
  Op& op = ops_[index];
  PSDNS_CHECK(!op.started, "op started twice");
  op.started = true;
  const SimTime issue = engine_.now();
  op.start = issue;

  if (op.bytes >= 0.0) {
    // Flow op: overhead elapses serially, then the flow drains.
    engine_.schedule_after(op.overhead, [this, index] {
      Op& o = ops_[index];
      network_.start_flow(
          o.path, o.bytes, o.rate_cap,
          [this, index] { on_finished(index); }, o.flow_class,
          o.interference_factor);
    });
  } else {
    engine_.schedule_after(op.overhead + op.duration,
                           [this, index] { on_finished(index); });
  }
}

void DagRunner::on_finished(std::size_t index) {
  Op& op = ops_[index];
  PSDNS_CHECK(!op.finished, "op finished twice");
  op.finished = true;
  op.finish = engine_.now();
  for (const std::size_t dep : op.dependents) {
    Op& d = ops_[dep];
    PSDNS_CHECK(d.unmet > 0, "dependency count underflow");
    if (--d.unmet == 0) try_start(dep);
  }
}

obs::SpanTrace DagRunner::trace() const {
  obs::SpanTrace out;
  out.spans.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    obs::SpanRecord s;
    s.id = i + 1;
    s.name = op.label;
    s.kind = op.kind;
    s.thread = static_cast<int>(op.lane);
    s.rank = lane_ranks_[op.lane];
    s.start_s = op.start;
    s.end_s = op.finish;
    out.spans.push_back(std::move(s));
    for (std::size_t k = op.deps.size() - op.explicit_deps;
         k < op.deps.size(); ++k) {
      out.edges.push_back({out.edges.size() + 1, op.deps[k] + 1, i + 1});
    }
  }
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                     return a.start_s < b.start_s;
                   });
  out.thread_names = lane_names_;
  return out;
}

}  // namespace psdns::sim
