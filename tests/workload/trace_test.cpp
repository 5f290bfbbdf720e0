#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "topo/tree.hpp"
#include "workload/task_generator.hpp"

namespace taps::workload {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Trace, RoundTripPreservesWorkload) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network original(tree);
  WorkloadConfig c;
  c.task_count = 20;
  c.flows_per_task_mean = 5.0;
  util::Rng rng(31);
  (void)generate(original, c, rng);

  const std::string path = temp_path("taps_trace_roundtrip.csv");
  save_trace(original, path);

  net::Network loaded(tree);
  const std::size_t tasks = load_trace(loaded, path);
  EXPECT_EQ(tasks, original.tasks().size());
  ASSERT_EQ(loaded.flows().size(), original.flows().size());
  for (std::size_t i = 0; i < original.flows().size(); ++i) {
    const auto& a = original.flows()[i].spec;
    const auto& b = loaded.flows()[i].spec;
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_DOUBLE_EQ(a.size, b.size);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadRejectsNonEmptyNetwork) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  WorkloadConfig c;
  c.task_count = 2;
  util::Rng rng(1);
  (void)generate(net, c, rng);
  const std::string path = temp_path("taps_trace_nonempty.csv");
  save_trace(net, path);
  EXPECT_THROW((void)load_trace(net, path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  EXPECT_THROW((void)load_trace(net, "/nonexistent/trace.csv"), std::runtime_error);
}

TEST(Trace, MalformedRowThrows) {
  const std::string path = temp_path("taps_trace_bad.csv");
  {
    std::ofstream out(path);
    out << "task,arrival,deadline,flow,src,dst,size\n1,0.0,1.0\n";
  }
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  EXPECT_THROW((void)load_trace(net, path), std::runtime_error);
  std::remove(path.c_str());
}

// Every malformed value is an explicit error naming the file and data row.
class TraceValidation : public ::testing::Test {
 protected:
  TraceValidation() : tree_(topo::SingleRootedConfig::scaled()) {
    // One file per test: ctest runs the cases as concurrent processes.
    const std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = temp_path(("taps_trace_" + test + ".csv").c_str());
    const auto& hosts = tree_.hosts();
    src_ = std::to_string(hosts[0]);
    dst_ = std::to_string(hosts[1]);
    for (const auto& n : tree_.graph().nodes()) {
      if (n.kind != topo::NodeKind::kHost) switch_ = std::to_string(n.id);
    }
  }

  /// A data row of task `task` (flow id = task id).
  static std::string row(int task, const std::string& arrival, const std::string& deadline,
                         const std::string& src, const std::string& dst,
                         const std::string& size) {
    const std::string id = std::to_string(task);
    return id + "," + arrival + "," + deadline + "," + id + "," + src + "," + dst + "," + size +
           "\n";
  }

  /// load_trace's error message for a trace made of `rows`, or "" if it loaded.
  std::string load_error(const std::string& rows) {
    {
      std::ofstream out(path_);
      out << "task,arrival,deadline,flow,src,dst,size\n" << rows;
    }
    net::Network net(tree_);
    std::string what;
    try {
      (void)load_trace(net, path_);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    std::remove(path_.c_str());
    return what;
  }

  /// Expects the second data row of `rows` to be rejected with `reason`.
  void expect_row2_rejected(const std::string& rows, const std::string& reason) {
    const std::string what = load_error(rows);
    EXPECT_NE(what.find(path_ + ": row 2: "), std::string::npos) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }

  std::string good() const { return row(0, "0", "1", src_, dst_, "1000"); }

  topo::SingleRootedTree tree_;
  std::string path_;
  std::string src_;
  std::string dst_;
  std::string switch_;  // a node id that is not a host
};

TEST_F(TraceValidation, RejectsNonFiniteValues) {
  expect_row2_rejected(good() + row(1, "0", "nan", src_, dst_, "1000"), "deadline is not finite");
  expect_row2_rejected(good() + row(1, "0", "1", src_, dst_, "inf"), "size is not finite");
}

TEST_F(TraceValidation, RejectsTrailingCharacters) {
  expect_row2_rejected(good() + row(1, "0", "1.0x", src_, dst_, "1000"),
                       "deadline is not a number");
  expect_row2_rejected(good() + row(1, "0", "1", src_ + "x", dst_, "1000"),
                       "src is not an integer");
  expect_row2_rejected(good() + row(1, "0", "1", src_, dst_, ""), "size is not a number");
}

TEST_F(TraceValidation, RejectsNonPositiveSize) {
  expect_row2_rejected(good() + row(1, "0", "1", src_, dst_, "-5"), "size is not positive");
  expect_row2_rejected(good() + row(1, "0", "1", src_, dst_, "0"), "size is not positive");
}

TEST_F(TraceValidation, RejectsDeadlineNotAfterArrival) {
  expect_row2_rejected(good() + row(1, "2", "1", src_, dst_, "1000"),
                       "deadline is not after arrival");
  expect_row2_rejected(good() + row(1, "1", "1", src_, dst_, "1000"),
                       "deadline is not after arrival");
}

TEST_F(TraceValidation, RejectsFlowToItself) {
  expect_row2_rejected(good() + row(1, "0", "1", src_, src_, "1000"), "src equals dst");
}

TEST_F(TraceValidation, RejectsNodeThatIsNotAHost) {
  expect_row2_rejected(good() + row(1, "0", "1", switch_, dst_, "1000"),
                       "is not a host of the topology");
  expect_row2_rejected(good() + row(1, "0", "1", src_, "-1", "1000"),
                       "is not a host of the topology");
  expect_row2_rejected(good() + row(1, "0", "1", src_, "99999", "1000"),
                       "is not a host of the topology");
}

TEST_F(TraceValidation, RejectsConflictingTaskTimes) {
  // Two rows of task 0 that disagree on the deadline.
  expect_row2_rejected(good() + row(0, "0", "2", dst_, src_, "1000"),
                       "arrival/deadline differ from an earlier row of task 0");
  expect_row2_rejected(good() + row(0, "0.5", "1", dst_, src_, "1000"),
                       "arrival/deadline differ from an earlier row of task 0");
}

}  // namespace
}  // namespace taps::workload
