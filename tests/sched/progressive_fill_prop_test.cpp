// Property: BaseScheduler::progressive_fill (one routine over flat arrays,
// freezing from saturated links) leaves exactly what taps_oracle's
// progressive_fill_reference (the per-flow loops over Flow views) leaves on
// the same arena state: every rate and every residual bitwise, the same
// drained dirty set, and its per-link weight scratch all zero.
//
// Cases cover k=4 and k=8 fat-tree paths, a dumbbell (one link with long
// member lists) and a fat-tree with non-uniform, non-dyadic capacities, at
// unit capacity and at 1.25e8 B/s, where the absolute kEps saturation test
// misses rounding residues and the numerical guard ends fills early. Start
// states mirror the callers: zero rates (Fair Sharing), granted rates with
// debited and sometimes negative residuals (D3), and residuals clamped at 0
// (Varys), which give zero-share rounds. Weighted cases draw D2TCP urgencies
// from [0.5, 2], some <= 0. Finished flows, flows at or below kByteEpsilon,
// empty lists and single flows occur. Each case runs a second fill on the
// first's result with fresh residuals, so scratch reuse is covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "sched/progressive_fill_reference.hpp"
#include "sched/scheduler.hpp"
#include "topo/fattree.hpp"

namespace taps::sched {
namespace {

/// Exposes BaseScheduler's fill and its scratch; schedules nothing itself.
class FillProbe final : public BaseScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FillProbe"; }
  void on_task_arrival(net::TaskId /*id*/, double /*now*/) override {}
  double assign_rates(double /*now*/) override { return sim::kInfinity; }

  using BaseScheduler::progressive_fill;
  [[nodiscard]] const std::vector<double>& link_weight() const { return fill_.link_weight; }
};

enum class Shape : std::uint8_t { kFatTree4, kFatTree8, kDumbbell, kNonUniform };
/// Rates and residuals as each caller leaves them before its fill.
enum class Start : std::uint8_t { kZero, kGranted, kClamped };

const char* to_string(Shape s) {
  switch (s) {
    case Shape::kFatTree4: return "fattree4";
    case Shape::kFatTree8: return "fattree8";
    case Shape::kDumbbell: return "dumbbell";
    case Shape::kNonUniform: return "nonuniform";
  }
  return "?";
}

const char* to_string(Start s) {
  switch (s) {
    case Start::kZero: return "zero";
    case Start::kGranted: return "granted";
    case Start::kClamped: return "clamped";
  }
  return "?";
}

/// How a flow's state filters it out of the fill, or not.
enum class Life : std::uint8_t { kActive, kCompleted, kRejected, kNoBytes, kEpsilonBytes };

struct FlowCase {
  std::size_t src = 0;  // host indices, taken modulo the host count
  std::size_t dst = 0;
  std::size_t path = 0;  // candidate index, modulo the candidates
  double remaining = 0.0;
  Life life = Life::kActive;
  double weight = 1.0;
  double grant = 0.0;  // start rate, as a fraction of capacity (kGranted, kClamped)
};

struct FillCase {
  Shape shape = Shape::kFatTree4;
  double capacity = 1.0;
  Start start = Start::kZero;
  bool weighted = false;
  bool reversed = false;  // call order opposite to registration order
  std::vector<FlowCase> flows;
};

std::ostream& operator<<(std::ostream& os, const FillCase& c) {
  os << to_string(c.shape) << " capacity=" << c.capacity << " start=" << to_string(c.start)
     << " weighted=" << c.weighted << " reversed=" << c.reversed << " flows=" << c.flows.size();
  for (const FlowCase& f : c.flows) {
    os << "\n    " << f.src << "->" << f.dst << " path=" << f.path << " life="
       << static_cast<int>(f.life) << std::hexfloat << " remaining=" << f.remaining
       << " weight=" << f.weight << " grant=" << f.grant << std::defaultfloat;
  }
  return os;
}

/// A k=4 fat-tree graph with capacities cycling over non-dyadic multiples
/// of `capacity`; shortest paths as candidates.
std::unique_ptr<topo::Topology> make_nonuniform(double capacity) {
  const topo::FatTree base(topo::FatTreeConfig{4, capacity});
  topo::Graph g;
  for (const topo::Node& n : base.graph().nodes()) (void)g.add_node(n.kind, n.name);
  constexpr double kScale[] = {0.3, 1.0, 1.7};
  for (const topo::Link& l : base.graph().links()) {
    (void)g.add_link(l.src, l.dst, capacity * kScale[static_cast<std::size_t>(l.id) % 3]);
  }
  return std::make_unique<topo::GenericTopology>(std::move(g), base.hosts(), "nonuniform");
}

std::unique_ptr<topo::Topology> make_topology(const FillCase& c) {
  switch (c.shape) {
    case Shape::kFatTree4:
      return std::make_unique<topo::FatTree>(topo::FatTreeConfig{4, c.capacity});
    case Shape::kFatTree8:
      return std::make_unique<topo::FatTree>(topo::FatTreeConfig{8, c.capacity});
    case Shape::kDumbbell: return std::move(test::make_dumbbell(8, c.capacity).topology);
    case Shape::kNonUniform: return make_nonuniform(c.capacity);
  }
  return nullptr;
}

/// Any shape, capacity, start state and weighting.
FillCase generate_case(util::Rng& rng) {
  FillCase c;
  c.shape = static_cast<Shape>(rng.uniform_int(0, 3));
  c.capacity = rng.bernoulli(0.5) ? 1.0 : 1.25e8;
  c.start = static_cast<Start>(rng.uniform_int(0, 2));
  c.weighted = rng.bernoulli(0.5);
  c.reversed = rng.bernoulli(0.3);
  // Mostly crowded fills (many rounds, long member lists), some tiny ones:
  // an empty list and a single flow included.
  const auto count = static_cast<std::size_t>(
      rng.bernoulli(0.15) ? rng.uniform_int(0, 1) : rng.uniform_int(2, 60));
  for (std::size_t i = 0; i < count; ++i) {
    FlowCase f;
    f.src = static_cast<std::size_t>(rng.uniform_int(0, 1023));
    f.dst = static_cast<std::size_t>(rng.uniform_int(0, 1023));
    f.path = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.remaining = rng.uniform_real(0.01, 4.0) * c.capacity;
    const double life = rng.uniform_real(0.0, 1.0);
    f.life = life < 0.85   ? Life::kActive
             : life < 0.9  ? Life::kCompleted
             : life < 0.93 ? Life::kRejected
             : life < 0.96 ? Life::kNoBytes
                           : Life::kEpsilonBytes;
    const double w = rng.uniform_real(0.0, 1.0);
    f.weight = w < 0.06   ? 0.0
               : w < 0.1  ? -rng.uniform_real(0.1, 1.0)
               : w < 0.15 ? (rng.bernoulli(0.5) ? 0.5 : 2.0)  // the urgency clamp's ends
                          : rng.uniform_real(0.5, 2.0);
    f.grant = rng.bernoulli(0.4) ? 0.0 : rng.uniform_real(0.0, 0.6);
    c.flows.push_back(f);
  }
  return c;
}

/// Weighted fills whose first round has share 0: a few large grants leave
/// some links at or below 0, and they all saturate at once. The flows they
/// freeze are then found link by link, not in call order, while their
/// weights must come off each link in call order: after the last member
/// leaves, the sign of a link's leftover weight decides whether its
/// negative residual stalls the fill (share 0, numerical guard) or the link
/// leaves the scan.
FillCase generate_oversubscribed(util::Rng& rng) {
  FillCase c;
  c.shape = rng.bernoulli(0.5) ? Shape::kFatTree4 : Shape::kDumbbell;
  c.capacity = rng.bernoulli(0.5) ? 1.0 : 1.25e8;
  c.start = rng.bernoulli(0.5) ? Start::kGranted : Start::kClamped;
  c.weighted = true;
  c.reversed = rng.bernoulli(0.3);
  c.flows.resize(static_cast<std::size_t>(rng.uniform_int(6, 30)));
  for (FlowCase& f : c.flows) {
    f.src = static_cast<std::size_t>(rng.uniform_int(0, 1023));
    f.dst = static_cast<std::size_t>(rng.uniform_int(0, 1023));
    f.path = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.remaining = rng.uniform_real(0.01, 4.0) * c.capacity;
    f.weight = rng.uniform_real(0.5, 2.0);
    f.grant = rng.bernoulli(0.6) ? 0.0 : rng.uniform_real(0.2, 0.8);
  }
  return c;
}

/// One network in the case's start state, with the call list, the weights
/// and the residuals its fill consumes.
struct Built {
  net::Network net;
  std::vector<net::FlowId> order;
  std::vector<double> weights;
  std::vector<double> residual;

  explicit Built(const topo::Topology& topology) : net(topology) {}
};

std::vector<double> capacities(const net::Network& net) {
  std::vector<double> out;
  for (const topo::Link& l : net.graph().links()) out.push_back(l.capacity);
  return out;
}

std::unique_ptr<Built> build(const topo::Topology& topology, const FillCase& c) {
  auto b = std::make_unique<Built>(topology);
  const std::vector<topo::NodeId>& hosts = topology.hosts();
  std::vector<net::FlowSpec> specs;
  for (const FlowCase& fc : c.flows) {
    net::FlowSpec s;
    s.src = hosts[fc.src % hosts.size()];
    s.dst = hosts[fc.dst % hosts.size()];
    if (s.dst == s.src) s.dst = hosts[(fc.src + 1) % hosts.size()];
    s.size = fc.remaining;
    s.deadline = 1.0;
    specs.push_back(s);
  }
  if (!specs.empty()) (void)b->net.add_task(0.0, 1.0, specs);
  b->residual = capacities(b->net);
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    const FlowCase& fc = c.flows[i];
    net::Flow& f = b->net.flow(static_cast<net::FlowId>(i));
    const auto candidates = topology.paths(f.spec.src, f.spec.dst, 16);
    f.path = candidates[fc.path % candidates.size()];
    f.state = net::FlowState::kActive;
    switch (fc.life) {
      case Life::kActive: break;
      case Life::kCompleted:
        f.state = net::FlowState::kCompleted;
        f.remaining = 0.0;
        break;
      case Life::kRejected: f.state = net::FlowState::kRejected; break;
      case Life::kNoBytes: f.remaining = 0.0; break;
      case Life::kEpsilonBytes: f.remaining = sim::kByteEpsilon; break;
    }
    b->weights.push_back(fc.weight);
    b->order.push_back(f.id());
  }
  if (c.reversed) std::reverse(b->order.begin(), b->order.end());
  // The start state, built in call order the way D3 and Varys build theirs.
  for (const net::FlowId fid : b->order) {
    const net::Flow& f = b->net.flow(fid);
    const double grant =
        c.start == Start::kZero ? 0.0 : c.flows[static_cast<std::size_t>(fid)].grant * c.capacity;
    f.set_rate(grant);
    for (const topo::LinkId lid : f.path.links) {
      double& r = b->residual[static_cast<std::size_t>(lid)];
      r = c.start == Start::kClamped ? std::max(0.0, r - grant) : r - grant;
    }
  }
  return b;
}

std::optional<std::string> compare(const char* what, const Built& got, const Built& want) {
  std::ostringstream os;
  os << std::hexfloat;
  for (std::size_t i = 0; i < got.net.flows().size(); ++i) {
    const double a = got.net.flows()[i].rate;
    const double b = want.net.flows()[i].rate;
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      os << what << ": flow " << i << " rate " << a << " != reference " << b;
      return os.str();
    }
  }
  for (std::size_t i = 0; i < got.residual.size(); ++i) {
    const double a = got.residual[i];
    const double b = want.residual[i];
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      os << what << ": link " << i << " residual " << a << " != reference " << b;
      return os.str();
    }
  }
  return std::nullopt;
}

/// The dirty set drained from `b`'s arena, sorted.
std::vector<net::FlowId> drain(Built& b) {
  std::vector<net::FlowId> out;
  b.net.flow_state().drain_dirty(out);
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> run_case(const FillCase& c) {
  const std::unique_ptr<topo::Topology> topology = make_topology(c);
  const std::unique_ptr<Built> got = build(*topology, c);
  const std::unique_ptr<Built> want = build(*topology, c);
  FillProbe probe;
  probe.bind(got->net);
  (void)drain(*got);
  (void)drain(*want);

  // The second fill runs on every other flow of the first's result, with
  // fresh residuals: rates accumulate on top, and the probe's scratch is
  // reused.
  for (const char* pass : {"first fill", "second fill"}) {
    if (pass[0] == 's') {
      for (Built* b : {got.get(), want.get()}) {
        std::vector<net::FlowId> half;
        for (std::size_t i = 0; i < b->order.size(); i += 2) half.push_back(b->order[i]);
        b->order = std::move(half);
        b->residual = capacities(b->net);
      }
    }
    probe.progressive_fill(got->order, got->residual, c.weighted ? &got->weights : nullptr);
    progressive_fill_reference(want->net, want->order, want->residual,
                               c.weighted ? &want->weights : nullptr);
    if (auto failure = compare(pass, *got, *want)) return failure;
    if (drain(*got) != drain(*want)) return std::string(pass) + ": dirty sets differ";
    const std::vector<double>& lw = probe.link_weight();
    if (std::any_of(lw.begin(), lw.end(), [](double w) { return w != 0.0; })) {
      return std::string(pass) + ": link weight scratch not reset";
    }
  }
  return std::nullopt;
}

}  // namespace
}  // namespace taps::sched

namespace taps::test::prop {

/// A failing case shrinks by dropping flows, keeping everything else.
template <>
struct Shrinker<sched::FillCase> {
  static std::vector<sched::FillCase> candidates(const sched::FillCase& c) {
    std::vector<sched::FillCase> out;
    for (auto& flows : Shrinker<std::vector<sched::FlowCase>>::candidates(c.flows)) {
      sched::FillCase smaller = c;
      smaller.flows = std::move(flows);
      out.push_back(std::move(smaller));
    }
    return out;
  }
};

}  // namespace taps::test::prop

namespace taps::sched {
namespace {

TAPS_PROP(ProgressiveFillProp, MatchesReferenceBitwise, 400) {
  prop.for_all(generate_case, run_case);
}

TAPS_PROP(ProgressiveFillProp, OversubscribedStartMatchesReference, 400) {
  prop.for_all(generate_oversubscribed, run_case);
}

}  // namespace
}  // namespace taps::sched
