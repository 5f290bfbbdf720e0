// Shard::audit() is the check behind the benchmark's correctness gate and
// the soak, so its planner checks are exact. Fed the slice-exclusivity
// stream, where a one-ulp double booking appears unless Algorithm 3 clamps
// slice ends to the next busy interval, the shard must audit clean after
// every request.
#include <gtest/gtest.h>

#include <vector>

#include "common/exclusivity_stream.hpp"
#include "svc/shard.hpp"

namespace taps::svc {
namespace {

class ShardAudit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardAudit, CleanAfterEveryRequestOfTheSliceExclusivityStream) {
  const topo::FatTree ft(topo::FatTreeConfig{4, test::kExclusivityCapacity});
  Shard shard(ft, ShardConfig{});
  const std::vector<net::FlowSpec> stream = test::exclusivity_stream(ft, GetParam());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    TaskRequest r;
    r.arrival = 0.0;
    r.deadline = stream[i].deadline;
    r.flows.push_back(FlowRequest{stream[i].src, stream[i].dst, stream[i].size});
    (void)shard.process(i, r);
    const auto violation = shard.audit();
    ASSERT_EQ(violation, std::nullopt) << "after request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardAudit, ::testing::Values(5u, 24u, 35u));

}  // namespace
}  // namespace taps::svc
