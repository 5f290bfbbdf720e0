// Property tests for recorded timelines: on random dumbbell scenarios (with
// preemption enabled and a short trim cadence) every recorded stream must
// satisfy the schedule semantics it claims to capture —
//   * timestamps are monotone non-decreasing and the stream ends with `end`;
//   * per-link slice exclusivity: at every instant of the replayed stream,
//     live grants never overlap on a shared link;
//   * every preemption names a victim that was admitted and granted before;
//   * completions are consistent with the granted slices: the executed
//     portions of a completed flow's grants sum to its size (unit capacity)
//     and the completion instant is the end of its last executed slice;
//   * event counts agree with TapsCounters (grants == slice_grants, ...).
//
// The replay logic mirrors what scripts/render_gantt.py does when turning a
// stream into Gantt rows, so these properties also pin the renderer's input
// contract.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "core/taps_scheduler.hpp"
#include "sim/timeline.hpp"

namespace taps::sim {
namespace {

constexpr double kFar = 1e18;  // clip horizon standing in for +infinity

struct FlowGen {
  std::size_t left = 0;
  std::size_t right = 0;
  double size = 1.0;
};

struct TaskGen {
  double arrival = 0.0;
  double slack = 1.0;
  std::vector<FlowGen> flows;
};

std::ostream& operator<<(std::ostream& os, const TaskGen& t) {
  os << "{t=" << t.arrival << " slack=" << t.slack << " flows=[";
  for (const FlowGen& f : t.flows) {
    os << "(" << f.left << "->" << f.right << " sz=" << f.size << ")";
  }
  return os << "]}";
}

constexpr int kSide = 6;

std::vector<TaskGen> gen_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 12));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (i > 0 && !rng.bernoulli(0.4)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // A tight tail forces rejections and (under kSchedulable) preemptions.
    task.slack =
        rng.bernoulli(0.3) ? rng.uniform_real(0.3, 1.0) : rng.uniform_real(1.0, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      task.flows.push_back(FlowGen{static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                                   static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                                   rng.uniform_real(0.2, 2.0)});
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

struct RecordedRun {
  std::unique_ptr<test::Dumbbell> d;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<core::TapsScheduler> sched;
  TimelineRecorder rec;
  std::vector<double> flow_sizes;  // by FlowId (insertion order)
};

std::unique_ptr<RecordedRun> run_scenario(const std::vector<TaskGen>& tasks) {
  auto r = std::make_unique<RecordedRun>();
  r->d = std::make_unique<test::Dumbbell>(test::make_dumbbell(kSide));
  r->net = std::make_unique<net::Network>(*r->d->topology);
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(r->d->left[f.left], r->d->right[f.right], f.size));
      r->flow_sizes.push_back(f.size);
    }
    test::add_task(*r->net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  core::TapsConfig cfg;
  cfg.preempt_policy = core::PreemptPolicy::kSchedulable;
  cfg.trim_interval = 4;
  r->sched = std::make_unique<core::TapsScheduler>(cfg);
  r->sched->set_schedule_observer(&r->rec);
  FluidSimulator simulator(*r->net, *r->sched);
  simulator.set_observer(&r->rec);
  (void)simulator.run();
  return r;
}

struct FlowTrack {
  std::vector<topo::LinkId> links;
  util::IntervalSet current;   // slices of the live grant
  util::IntervalSet executed;  // grant portions that were carried out
  net::TaskId task = net::kInvalidTask;
  bool live = false;
  bool ever_granted = false;
};

/// Fold `track.current` up to time `t` into `track.executed` and retire the
/// grant (regrant replacement, preemption, miss, or completion).
void finalize_grant(FlowTrack& track, double t) {
  util::IntervalSet done = track.current;
  done.erase(t, kFar);
  track.executed = track.executed.unite(done);
  track.current.clear();
  track.live = false;
}

/// The exclusivity sweep run at every timestamp boundary: no two live
/// grants may overlap on a shared link. (Within one instant, regrant
/// cascades replace entries in commit order, so the check only applies to
/// the settled state at the end of the instant.)
std::optional<std::string> check_exclusive(const std::map<net::FlowId, FlowTrack>& flows,
                                           double t) {
  for (auto a = flows.begin(); a != flows.end(); ++a) {
    if (!a->second.live) continue;
    for (auto b = std::next(a); b != flows.end(); ++b) {
      if (!b->second.live) continue;
      bool share = false;
      for (const topo::LinkId l : a->second.links) {
        for (const topo::LinkId m : b->second.links) share = share || l == m;
      }
      if (!share) continue;
      const util::IntervalSet clash = a->second.current.intersect(b->second.current);
      if (clash.measure() > 0.0) {
        std::ostringstream os;
        os << "at t=" << t << " flows " << a->first << " and " << b->first
           << " hold overlapping slices " << clash << " on a shared link";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> replay_and_check(const RecordedRun& run) {
  const Timeline& tl = run.rec.timeline();
  std::map<net::FlowId, FlowTrack> flows;
  std::set<net::TaskId> arrived;
  std::set<net::TaskId> admitted;
  std::ostringstream os;
  const auto fail = [&os]() -> std::optional<std::string> { return os.str(); };

  double prev = 0.0;
  for (std::size_t i = 0; i < tl.events.size(); ++i) {
    const TimelineEvent& e = tl.events[i];
    if (e.time < prev) {
      os << "event " << i << " (" << to_string(e.kind) << ") at t=" << e.time
         << " goes back in time from t=" << prev;
      return fail();
    }
    if (e.time > prev) {
      if (auto err = check_exclusive(flows, prev)) return err;
      prev = e.time;
    }
    switch (e.kind) {
      case TimelineEventKind::kArrive:
        arrived.insert(e.a);
        break;
      case TimelineEventKind::kAdmit:
      case TimelineEventKind::kReject:
        if (arrived.count(e.a) == 0) {
          os << to_string(e.kind) << " of task " << e.a << " without a prior arrival";
          return fail();
        }
        if (e.kind == TimelineEventKind::kAdmit) admitted.insert(e.a);
        break;
      case TimelineEventKind::kPreempt: {
        if (admitted.count(e.a) == 0) {
          os << "preempt of task " << e.a << " that was never admitted";
          return fail();
        }
        bool victim_granted = false;
        for (auto& [id, track] : flows) {
          if (track.task != e.a) continue;
          victim_granted = victim_granted || track.ever_granted;
          if (track.live) finalize_grant(track, e.time);
        }
        if (!victim_granted) {
          os << "preempt of task " << e.a << " with no prior grant for any of its flows";
          return fail();
        }
        break;
      }
      case TimelineEventKind::kGrant: {
        FlowTrack& track = flows[e.a];
        if (track.live) finalize_grant(track, e.time);
        track.task = e.b;
        track.links.assign(tl.links.begin() + e.links_offset,
                           tl.links.begin() + e.links_offset + e.links_count);
        track.current.clear();
        for (std::uint32_t s = 0; s < e.slices_count; ++s) {
          track.current.insert(tl.slices[e.slices_offset + s]);
        }
        if (track.links.empty() || track.current.empty() ||
            !track.current.check_invariants()) {
          os << "grant for flow " << e.a << " with empty or non-canonical payload";
          return fail();
        }
        if (track.current.front_start() < e.time - kTimeEpsilon) {
          os << "grant for flow " << e.a << " at t=" << e.time
             << " allocates into the past: " << track.current;
          return fail();
        }
        track.live = true;
        track.ever_granted = true;
        break;
      }
      case TimelineEventKind::kComplete:
      case TimelineEventKind::kMiss: {
        auto it = flows.find(e.a);
        if (e.kind == TimelineEventKind::kComplete) {
          if (it == flows.end() || !it->second.ever_granted) {
            os << "completion of flow " << e.a << " that was never granted";
            return fail();
          }
          FlowTrack& track = it->second;
          finalize_grant(track, e.time + kTimeEpsilon);
          const double size = run.flow_sizes[static_cast<std::size_t>(e.a)];
          if (std::abs(track.executed.measure() - size) > kByteEpsilon) {
            os << "flow " << e.a << " completed having executed "
               << track.executed.measure() << " of size " << size << " (slices "
               << track.executed << ")";
            return fail();
          }
          if (std::abs(track.executed.back_end() - e.time) > kByteEpsilon) {
            os << "flow " << e.a << " completed at t=" << e.time
               << " but its last executed slice ends at " << track.executed.back_end();
            return fail();
          }
        } else if (it != flows.end() && it->second.live) {
          finalize_grant(it->second, e.time);
        }
        break;
      }
      case TimelineEventKind::kTransmit:
        break;
      case TimelineEventKind::kRunEnd:
        if (i + 1 != tl.events.size()) {
          os << "end event at position " << i << " of " << tl.events.size();
          return fail();
        }
        break;
    }
  }
  if (tl.events.empty() || tl.events.back().kind != TimelineEventKind::kRunEnd) {
    os << "stream does not end with an end event";
    return fail();
  }
  if (auto err = check_exclusive(flows, prev)) return err;

  // Event counts must agree with the scheduler's own (observer-independent)
  // decision counters.
  const core::TapsCounters& c = run.sched->counters();
  if (run.rec.count(TimelineEventKind::kGrant) != c.slice_grants ||
      run.rec.count(TimelineEventKind::kAdmit) != c.tasks_accepted ||
      run.rec.count(TimelineEventKind::kReject) != c.tasks_rejected ||
      run.rec.count(TimelineEventKind::kPreempt) != c.tasks_preempted) {
    os << "event counts disagree with TapsCounters: grants "
       << run.rec.count(TimelineEventKind::kGrant) << "/" << c.slice_grants << " admits "
       << run.rec.count(TimelineEventKind::kAdmit) << "/" << c.tasks_accepted
       << " rejects " << run.rec.count(TimelineEventKind::kReject) << "/"
       << c.tasks_rejected << " preempts " << run.rec.count(TimelineEventKind::kPreempt)
       << "/" << c.tasks_preempted;
    return fail();
  }
  return std::nullopt;
}

TAPS_PROP(TimelineProp, RecordedStreamsSatisfyScheduleSemantics, 120) {
  prop.for_all(gen_scenario, [](const std::vector<TaskGen>& tasks) {
    const auto run = run_scenario(tasks);
    return replay_and_check(*run);
  });
}

}  // namespace
}  // namespace taps::sim
