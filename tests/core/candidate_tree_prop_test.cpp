// Property: Algorithm 2's candidate tree (plan_one_flow) picks exactly what
// the flat candidate race (taps_oracle's flat_path_race) picks — the same
// feasibility, path, completion and slices, compared bitwise.
//
// Occupancy windows, flow sizes, deadlines and `now` are dyadic, so every
// allocation is exact and candidates tie on completion all the time: that
// exercises the tie rule (earliest completion, then lowest index) across
// groups visited out of index order. Exact-fit plans break the grid on
// purpose: a non-dyadic demand starts just so far before a busy interval on
// one candidate that it fills the gap up to a rounding residue, the case
// where a pruning bound that does not forgive the residue jumps the busy
// interval and cuts the race's winner. Topologies cover k=4 and k=8 fat-trees
// (same-edge, intra-pod and inter-pod pairs), a dual-homed GenericTopology
// whose candidates share no root link, a fat-tree with non-uniform link
// capacities, and a topology whose candidates differ in length (one group:
// the flat race). Plans draw max_paths from {1, 3, 16}, ECMP routing,
// guard bands > 0 and horizons at or before `now`. A second family builds
// fragmented occupancy, the burst_admit shape: one long busy interval on a
// hot host's uplink over runs of short intervals on its paths' other links,
// where the tree's merges and leaf scans pass over whole runs; its winners
// are also checked against the textbook Algorithm 3 (allocate_time_reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/path_allocation.hpp"
#include "topo/fattree.hpp"
#include "topo/paths.hpp"

namespace taps::core {
namespace {

/// A fat-tree's graph with per-link capacities 1/2, 1 or 2 (exact in binary,
/// so durations stay dyadic) and the fat-tree's own candidate paths.
class Reweighted final : public topo::Topology {
 public:
  explicit Reweighted(int k) : base_(topo::FatTreeConfig{k, 1.0}) {
    for (const topo::Node& n : base_.graph().nodes()) (void)graph_.add_node(n.kind, n.name);
    constexpr double kCaps[] = {0.5, 1.0, 2.0};
    for (const topo::Link& l : base_.graph().links()) {
      (void)graph_.add_link(l.src, l.dst, kCaps[static_cast<std::size_t>(l.id) % 3]);
    }
    hosts_ = base_.hosts();
  }

  [[nodiscard]] std::vector<topo::Path> paths(topo::NodeId src, topo::NodeId dst,
                                              std::size_t max_paths) const override {
    return base_.paths(src, dst, max_paths);
  }
  [[nodiscard]] std::string name() const override { return "reweighted"; }

 private:
  topo::FatTree base_;
};

/// Hosts a, b, c behind switches; the a->c candidates are a two-hop and two
/// three-hop routes, so they differ in length.
class MixedLength final : public topo::Topology {
 public:
  MixedLength() {
    a_ = graph_.add_node(topo::NodeKind::kHost, "a");
    b_ = graph_.add_node(topo::NodeKind::kHost, "b");
    c_ = graph_.add_node(topo::NodeKind::kHost, "c");
    const topo::NodeId x = graph_.add_node(topo::NodeKind::kTor, "x");
    const topo::NodeId y = graph_.add_node(topo::NodeKind::kTor, "y");
    const topo::NodeId z = graph_.add_node(topo::NodeKind::kTor, "z");
    for (const auto& [u, v] : {std::pair{a_, x}, {x, c_}, {a_, y}, {y, z}, {z, c_}, {x, z},
                               {b_, x}, {b_, y}}) {
      (void)graph_.add_duplex_link(u, v, 1.0);
    }
    hosts_ = {a_, b_, c_};
  }

  [[nodiscard]] std::vector<topo::Path> paths(topo::NodeId src, topo::NodeId dst,
                                              std::size_t max_paths) const override {
    std::vector<topo::Path> out = topo::all_shortest_paths(graph_, src, dst, max_paths);
    if ((src == a_ && dst == c_) && out.size() < max_paths) {
      // Two longer detours after the shortest route.
      const auto link = [this](const char* u, const char* v) {
        return graph_.link_between(node(u), node(v));
      };
      out.push_back(topo::Path{{link("a", "y"), link("y", "z"), link("z", "c")}});
      if (out.size() < max_paths) {
        out.push_back(topo::Path{{link("a", "x"), link("x", "z"), link("z", "c")}});
      }
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "mixed-length"; }

 private:
  [[nodiscard]] topo::NodeId node(const char* name) const {
    for (const topo::Node& n : graph_.nodes()) {
      if (n.name == name) return n.id;
    }
    return topo::kInvalidNode;
  }

  topo::NodeId a_ = 0, b_ = 0, c_ = 0;
};

/// Four hosts, each dual-homed onto a ToR pair, ToRs under two spines: a
/// GenericTopology whose candidates share no link at all (empty root).
std::unique_ptr<topo::GenericTopology> make_dual_homed() {
  topo::Graph g;
  std::vector<topo::NodeId> hosts;
  std::vector<topo::NodeId> tors;
  for (int i = 0; i < 4; ++i) {
    tors.push_back(g.add_node(topo::NodeKind::kTor, "t" + std::to_string(i)));
  }
  for (int s = 0; s < 2; ++s) {
    const topo::NodeId spine = g.add_node(topo::NodeKind::kCore, "s" + std::to_string(s));
    for (const topo::NodeId t : tors) (void)g.add_duplex_link(t, spine, 1.0);
  }
  for (int h = 0; h < 4; ++h) {
    const topo::NodeId host = g.add_node(topo::NodeKind::kHost, "h" + std::to_string(h));
    const int pair = 2 * (h / 2);
    (void)g.add_duplex_link(host, tors[static_cast<std::size_t>(pair)], 1.0);
    (void)g.add_duplex_link(host, tors[static_cast<std::size_t>(pair + 1)], 1.0);
    hosts.push_back(host);
  }
  return std::make_unique<topo::GenericTopology>(std::move(g), std::move(hosts), "dual-homed");
}

constexpr int kTopologies = 5;  // fat-tree k=4, k=8, dual-homed, reweighted k=4, mixed-length

struct Op {
  enum Kind : int { kBusy, kPlan };
  Kind kind = kBusy;
  int topology = 0;
  int a = 0;  // kBusy: link; kPlan: source host
  int b = 0;  // kPlan: destination selector (pair class on fat-trees)
  double lo = 0.0;    // kBusy: window start; kPlan: now
  double len = 0.0;   // kBusy: window length; kPlan: flow size
  double slack = 0.0; // kPlan: deadline - now (may be <= guard band: horizon <= now)
  int max_paths = 16;
  bool ecmp = false;
  double guard_band = 0.0;
  bool commit = false;  // kPlan: occupy the winner's slices afterwards
  // kPlan exact fit: `now` is moved to `len` before the first busy interval
  // after `lo` on candidate `fit_target` (then by `nudge` ulps), and the
  // deadline to `slack` after that interval's start.
  bool exact_fit = false;
  int fit_target = 0;
  int nudge = 0;

  friend std::ostream& operator<<(std::ostream& os, const Op& op) {
    if (op.kind == kBusy) {
      return os << "busy(topo=" << op.topology << ", link=" << op.a << ", [" << op.lo << ", "
                << op.lo + op.len << "))";
    }
    os.precision(17);
    os << "plan(topo=" << op.topology << ", src=" << op.a << ", dst=" << op.b
       << ", now=" << op.lo << ", size=" << op.len << ", slack=" << op.slack
       << ", max_paths=" << op.max_paths << ", ecmp=" << op.ecmp << ", guard=" << op.guard_band
       << ", commit=" << op.commit;
    if (op.exact_fit) os << ", exact_fit(target=" << op.fit_target << ", nudge=" << op.nudge << ")";
    return os << ")";
  }
};

double dyadic(util::Rng& rng, int lo, int hi) {
  return static_cast<double>(rng.uniform_int(lo, hi)) / 4.0;
}

std::vector<Op> generate(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 120));
  // Bias each case towards one topology so occupancy builds up there.
  const int home = static_cast<int>(rng.uniform_int(0, kTopologies - 1));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.topology = rng.bernoulli(0.8) ? home : static_cast<int>(rng.uniform_int(0, kTopologies - 1));
    if (rng.bernoulli(0.55)) {
      op.kind = Op::kBusy;
      op.a = static_cast<int>(rng.uniform_int(0, 1 << 20));
      op.lo = dyadic(rng, 0, 96);
      op.len = dyadic(rng, 1, 16);
    } else {
      op.kind = Op::kPlan;
      op.a = static_cast<int>(rng.uniform_int(0, 1 << 20));
      op.b = static_cast<int>(rng.uniform_int(0, 1 << 20));
      op.lo = dyadic(rng, 0, 24);
      op.len = dyadic(rng, 1, 24);
      op.slack = dyadic(rng, -4, 64);
      constexpr int kMaxPaths[] = {1, 3, 16, 16, 16};
      op.max_paths = kMaxPaths[rng.uniform_int(0, 4)];
      op.ecmp = rng.bernoulli(0.1);
      op.guard_band = rng.bernoulli(0.2) ? dyadic(rng, 1, 4) : 0.0;
      op.commit = rng.bernoulli(0.7);
      if (rng.bernoulli(0.3)) {
        op.exact_fit = true;
        op.ecmp = false;
        op.len = rng.uniform_real(0.1, 6.0);
        op.fit_target = static_cast<int>(rng.uniform_int(0, 15));
        op.nudge = static_cast<int>(rng.uniform_int(-2, 2));
      }
    }
    ops.push_back(op);
  }
  return ops;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_slices(const util::IntervalSet& a, const util::IntervalSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!same_bits(a.intervals()[k].lo, b.intervals()[k].lo) ||
        !same_bits(a.intervals()[k].hi, b.intervals()[k].hi)) {
      return false;
    }
  }
  return true;
}

std::optional<std::string> differ(const FlowPlan& tree, const FlowPlan& flat) {
  std::ostringstream os;
  os.precision(17);
  if (tree.feasible != flat.feasible) {
    os << "feasible: tree " << tree.feasible << ", flat " << flat.feasible;
  } else if (!tree.feasible) {
    return std::nullopt;
  } else if (tree.path != flat.path) {
    os << "path differs (completions tree " << tree.completion << ", flat " << flat.completion
       << ")";
  } else if (!same_bits(tree.completion, flat.completion)) {
    os << "completion: tree " << tree.completion << ", flat " << flat.completion;
  } else if (!same_slices(tree.slices, flat.slices)) {
    os << "slices: tree " << tree.slices << ", flat " << flat.slices;
  } else {
    return std::nullopt;
  }
  return os.str();
}

/// A destination host for `src`: on fat-trees `sel` picks the pair class
/// (same edge, same pod, other pod) so all three path shapes occur.
topo::NodeId pick_dst(const topo::Topology& t, const topo::FatTree* ft, topo::NodeId src,
                      int sel) {
  const auto& hosts = t.hosts();
  if (ft != nullptr) {
    const int half = ft->k() / 2;
    const int pod = ft->pod_of_host(src);
    int src_edge = 0;
    while (ft->edge_switch(pod, src_edge) != ft->edge_of_host(src)) ++src_edge;
    const int idx = (sel / 3) % half;
    int dst_pod = pod;
    int dst_edge = (sel / 7) % half;
    if (sel % 3 == 0) {
      dst_edge = src_edge;
    } else if (sel % 3 == 2) {
      dst_pod = (pod + 1 + (sel / 11) % (ft->k() - 1)) % ft->k();
    }
    const topo::NodeId dst = ft->host(dst_pod, dst_edge, idx);
    return dst != src ? dst : ft->host(dst_pod, dst_edge, (idx + 1) % half);
  }
  topo::NodeId dst = hosts[static_cast<std::size_t>(sel) % hosts.size()];
  if (dst == src) dst = hosts[(static_cast<std::size_t>(sel) + 1) % hosts.size()];
  return dst;
}

/// Move an exact-fit plan's arrival so that its demand on candidate
/// `fit_target` ends at the start of that path's first busy interval after
/// `lo` (up to the nudge), with the deadline `slack` after that start. The
/// subtraction rounds, so the gap left over differs from the demand by a
/// residue. Leaves `spec` alone when no such interval exists.
void place_exact_fit(const topo::Topology& topo, const OccupancyMap& occ, const Op& op,
                     net::FlowSpec& spec) {
  const std::vector<topo::Path> candidates =
      topo.paths(spec.src, spec.dst, static_cast<std::size_t>(op.max_paths));
  if (candidates.empty()) return;
  const auto pick = static_cast<std::size_t>(op.fit_target) % candidates.size();
  const topo::Path& target = candidates[pick];
  const util::IntervalSet busy = path_union(occ, target);
  const std::size_t k = busy.first_index_after(op.lo);
  if (k == busy.size() || busy.intervals()[k].lo <= op.lo) return;
  const double gap_end = busy.intervals()[k].lo;
  double capacity = std::numeric_limits<double>::infinity();
  for (const topo::LinkId lid : target.links) {
    capacity = std::min(capacity, topo.graph().link(lid).capacity);
  }
  double now = gap_end - spec.size / capacity;
  for (int u = 0; u < std::abs(op.nudge); ++u) {
    now = std::nextafter(now, op.nudge > 0 ? gap_end : 0.0);
  }
  if (!(now >= 0.0)) return;
  spec.arrival = now;
  spec.deadline = gap_end + op.slack;
}

std::optional<std::string> check(const std::vector<Op>& ops) {
  const topo::FatTree k4(topo::FatTreeConfig{4, 1.0});
  const topo::FatTree k8(topo::FatTreeConfig{8, 1.0});
  const auto dual = make_dual_homed();
  const Reweighted reweighted(4);
  const MixedLength mixed;
  const topo::Topology* topologies[kTopologies] = {&k4, &k8, dual.get(), &reweighted, &mixed};
  const topo::FatTree* fat[kTopologies] = {&k4, &k8, nullptr, nullptr, nullptr};

  std::vector<std::unique_ptr<net::Network>> nets;
  std::vector<OccupancyMap> occ;
  std::vector<PlanScratch> scratch(kTopologies);
  for (const topo::Topology* t : topologies) {
    nets.push_back(std::make_unique<net::Network>(*t));
    occ.emplace_back(t->graph().link_count());
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const auto t = static_cast<std::size_t>(op.topology);
    const topo::Topology& topo = *topologies[t];
    if (op.kind == Op::kBusy) {
      topo::Path one;
      one.links.push_back(
          static_cast<topo::LinkId>(static_cast<std::size_t>(op.a) % topo.graph().link_count()));
      util::IntervalSet window;
      window.insert(op.lo, op.lo + op.len);
      if (!occ[t].collides(one, window)) occ[t].occupy(one, window);
      continue;
    }
    const topo::NodeId src = topo.hosts()[static_cast<std::size_t>(op.a) % topo.host_count()];
    const topo::NodeId dst = pick_dst(topo, fat[t], src, op.b);
    net::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = op.len;
    spec.arrival = op.lo;
    spec.deadline = op.lo + op.slack;
    if (op.exact_fit) place_exact_fit(topo, occ[t], op, spec);
    const double now = spec.arrival;
    const std::vector<net::FlowSpec> flows{spec};
    net::Network& net = *nets[t];
    const net::TaskId task = net.add_task(now, spec.deadline, flows);
    const net::FlowId fid = net.task(task).spec.flows.front();
    const PlanConfig config{.max_paths = static_cast<std::size_t>(op.max_paths),
                            .ecmp_routing = op.ecmp,
                            .guard_band = op.guard_band};

    const FlowPlan flat = flat_path_race(net, occ[t], fid, now, config);
    const FlowPlan tree = plan_one_flow(net, occ[t], fid, now, config, &scratch[t]);
    if (auto d = differ(tree, flat)) return "op " + std::to_string(i) + ": " + *d;
    // Cached and uncached candidate lists plan alike.
    if (auto d = differ(plan_one_flow(net, occ[t], fid, now, config), flat)) {
      return "op " + std::to_string(i) + " (no scratch): " + *d;
    }
    if (op.commit && tree.feasible) occ[t].occupy(tree.path, tree.slices);
  }
  return std::nullopt;
}

TAPS_PROP(CandidateTreeProp, MatchesFlatRaceBitwise, 300) {
  prop.for_all([](util::Rng& rng) { return generate(rng); },
               [](const std::vector<Op>& ops) { return check(ops); });
}

/// k=4 fat-tree, host 8 -> host 13, with only link 81 (on candidates 0 and
/// 1) busy on [2.6959270866493137, 3.6959270866493137). The demand from
/// `now` fills the gap before that interval up to a sub-ulp residue, so
/// candidate 0 completes at the busy start, exactly when the idle
/// candidates 2 and 3 do: the tie goes to candidate 0. The tree used to
/// bound candidate 0's group past the busy interval and prune it, returning
/// candidate 2.
TEST(CandidateTreeProp, ExactFitKeepsTheRaceWinner) {
  const double busy_lo = 2.6959270866493137;
  const double now = 2.2565730296740014;
  const double size = 0.43935405697531249;  // seconds at capacity 1
  const topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
  net::Network net(ft);
  net::FlowSpec spec;
  spec.src = ft.hosts()[8];
  spec.dst = ft.hosts()[13];
  spec.size = size;
  spec.arrival = now;
  spec.deadline = 4.9281373210168429;
  const std::vector<net::FlowSpec> flows{spec};
  const net::FlowId fid = net.task(net.add_task(now, spec.deadline, flows)).spec.flows.front();
  OccupancyMap occ(ft.graph().link_count());
  topo::Path link81;
  link81.links.push_back(81);
  util::IntervalSet busy;
  busy.insert(busy_lo, 3.6959270866493137);
  occ.occupy(link81, busy);

  const PlanConfig config;
  const std::vector<topo::Path> candidates = candidate_paths(net, net.flow(fid), config);
  ASSERT_EQ(candidates.size(), 4u);
  ASSERT_NE(std::find(candidates[0].links.begin(), candidates[0].links.end(), 81),
            candidates[0].links.end());
  const FlowPlan flat = flat_path_race(net, occ, fid, now, config);
  ASSERT_TRUE(flat.feasible);
  EXPECT_EQ(flat.path, candidates[0]);
  EXPECT_EQ(flat.completion, busy_lo);
  const FlowPlan tree = plan_one_flow(net, occ, fid, now, config);
  EXPECT_EQ(differ(tree, flat), std::nullopt);
}


// ---- Fragmented occupancy: the burst_admit shape ----

/// On the k=4 fat-tree, a hot host's uplink holds one long busy interval (a
/// burst of its flows back to back) and links on its flows' candidate paths
/// hold runs of short intervals (other hosts' flows) beneath and around it.
/// Plans from the hot host, committed as a burst's admissions are, merge and
/// scan past whole runs of intervals ending behind the long one.
struct FragOp {
  enum Kind : int { kRun, kPlan };
  Kind kind = kRun;
  int src = 0;         // source host index
  int dst = 0;         // destination selector (pick_dst)
  int candidate = 0;   // kRun: candidate path index (mod the count)
  int pos = 0;         // kRun: link position on it (mod the length); 0 = the uplink
  double lo = 0.0;     // kRun: the first interval's start; kPlan: now
  double len = 0.0;    // kRun: each interval's length; kPlan: flow size (s at capacity 1)
  double gap = 0.0;    // kRun: idle time between intervals; kPlan: deadline - now
  int count = 1;       // kRun: intervals in the run
  bool commit = true;  // kPlan: occupy the winner's slices afterwards

  friend std::ostream& operator<<(std::ostream& os, const FragOp& op) {
    os.precision(17);
    if (op.kind == kRun) {
      return os << "run(src=" << op.src << ", dst=" << op.dst << ", candidate=" << op.candidate
                << ", pos=" << op.pos << ", lo=" << op.lo << ", len=" << op.len
                << ", gap=" << op.gap << ", count=" << op.count << ")";
    }
    return os << "plan(src=" << op.src << ", dst=" << op.dst << ", now=" << op.lo
              << ", size=" << op.len << ", slack=" << op.gap << ", commit=" << op.commit << ")";
  }
};

std::vector<FragOp> generate_fragmented(util::Rng& rng) {
  constexpr int kHosts = 16;
  const int hot = static_cast<int>(rng.uniform_int(0, kHosts - 1));
  const auto host = [&rng, hot](double p_hot) {
    return rng.bernoulli(p_hot) ? hot : static_cast<int>(rng.uniform_int(0, kHosts - 1));
  };
  std::vector<FragOp> ops;
  FragOp uplink;
  uplink.src = hot;
  uplink.lo = rng.uniform_real(0.0, 4.0);
  uplink.len = rng.uniform_real(8.0, 30.0);
  ops.push_back(uplink);
  const double hot_end = uplink.lo + uplink.len;
  const auto n = rng.uniform_int(10, 60);
  for (std::int64_t i = 0; i < n; ++i) {
    FragOp op;
    op.dst = static_cast<int>(rng.uniform_int(0, 1 << 20));
    if (rng.bernoulli(0.45)) {
      op.kind = FragOp::kRun;
      op.src = host(0.8);
      op.candidate = static_cast<int>(rng.uniform_int(0, 15));
      op.pos = static_cast<int>(rng.uniform_int(1, 5));
      op.lo = std::max(0.0, rng.uniform_real(uplink.lo - 2.0, hot_end));
      op.len = rng.uniform_real(0.02, 0.5);
      op.gap = rng.uniform_real(0.005, 0.4);
      op.count = static_cast<int>(rng.uniform_int(1, 80));
    } else {
      op.kind = FragOp::kPlan;
      op.src = host(0.7);
      op.lo = rng.uniform_real(0.0, hot_end + 2.0);
      op.len = rng.bernoulli(0.7) ? rng.uniform_real(0.01, 4.0) : rng.uniform_real(4.0, 15.0);
      op.gap = op.len * rng.uniform_real(1.0, 12.0);
      op.commit = rng.bernoulli(0.7);
    }
    ops.push_back(op);
  }
  return ops;
}

std::optional<std::string> check_fragmented(const std::vector<FragOp>& ops) {
  const topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
  net::Network net(ft);
  OccupancyMap occ(ft.graph().link_count());
  PlanScratch scratch;
  const PlanConfig config;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FragOp& op = ops[i];
    const topo::NodeId src = ft.hosts()[static_cast<std::size_t>(op.src) % ft.host_count()];
    const topo::NodeId dst = pick_dst(ft, &ft, src, op.dst);
    if (op.kind == FragOp::kRun) {
      const std::vector<topo::Path> paths = ft.paths(src, dst, config.max_paths);
      const topo::Path& p = paths[static_cast<std::size_t>(op.candidate) % paths.size()];
      topo::Path one;
      one.links.push_back(p.links[static_cast<std::size_t>(op.pos) % p.links.size()]);
      for (int k = 0; k < op.count; ++k) {
        const double lo = op.lo + k * (op.len + op.gap);
        util::IntervalSet slice;
        slice.insert(lo, lo + op.len);
        if (!occ.collides(one, slice)) occ.occupy(one, slice);
      }
      continue;
    }
    net::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = op.len;
    spec.arrival = op.lo;
    spec.deadline = op.lo + op.gap;
    const std::vector<net::FlowSpec> flows{spec};
    const net::FlowId fid =
        net.task(net.add_task(spec.arrival, spec.deadline, flows)).spec.flows.front();
    const double now = spec.arrival;
    const FlowPlan flat = flat_path_race(net, occ, fid, now, config);
    const FlowPlan tree = plan_one_flow(net, occ, fid, now, config, &scratch);
    if (auto d = differ(tree, flat)) return "op " + std::to_string(i) + ": " + *d;
    if (!tree.feasible) continue;
    const TimeAllocation ref =
        allocate_time_reference(occ, tree.path, now, spec.size, spec.deadline);
    if (!same_slices(ref.slices, tree.slices) || !same_bits(ref.completion, tree.completion)) {
      std::ostringstream os;
      os.precision(17);
      os << "op " << i << ": tree {" << tree.slices << ", completion=" << tree.completion
         << "} != reference on its path {" << ref.slices << ", completion=" << ref.completion
         << "}";
      return os.str();
    }
    if (op.commit) occ.occupy(tree.path, tree.slices);
  }
  return std::nullopt;
}

TAPS_PROP(CandidateTreeProp, FragmentedOccupancyMatchesFlatRace, 200) {
  prop.for_all(generate_fragmented, check_fragmented);
}

}  // namespace
}  // namespace taps::core
