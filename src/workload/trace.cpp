#include "workload/trace.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "util/csv.hpp"

namespace taps::workload {

void save_trace(const net::Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace for writing: " + path);
  util::CsvWriter csv(out);
  csv.row("task", "arrival", "deadline", "flow", "src", "dst", "size");
  for (const auto& t : net.tasks()) {
    for (const net::FlowId fid : t.spec.flows) {
      const auto& f = net.flow(fid);
      csv.row(static_cast<long long>(t.id()), t.spec.arrival, t.spec.deadline,
              static_cast<long long>(fid), static_cast<long long>(f.spec.src),
              static_cast<long long>(f.spec.dst), f.spec.size);
    }
  }
}

namespace {

/// Parses the whole of `field` as a T (no leading/trailing characters).
template <typename T>
bool parse_full(const std::string& field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::size_t load_trace(net::Network& net, const std::string& path) {
  if (!net.tasks().empty()) {
    throw std::invalid_argument("load_trace expects an empty network");
  }
  const auto rows = util::read_csv(path);
  if (rows.empty()) throw std::runtime_error("empty trace: " + path);

  std::vector<char> is_host(net.graph().node_count(), 0);
  for (const topo::NodeId h : net.topology().hosts()) is_host[static_cast<std::size_t>(h)] = 1;

  struct PendingTask {
    double arrival = 0.0;
    double deadline = 0.0;
    std::vector<net::FlowSpec> flows;
  };
  std::map<long long, PendingTask> tasks;  // ordered by original task id

  // rows[0] is the header, so rows[i] is data row i.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error(path + ": row " + std::to_string(i) + ": " + what);
    };
    if (r.size() != 7) fail("expected 7 fields, got " + std::to_string(r.size()));
    const auto number = [&](std::size_t col, const char* name) {
      double v = 0.0;
      if (!parse_full(r[col], v)) fail(std::string(name) + " is not a number: '" + r[col] + "'");
      if (!std::isfinite(v)) fail(std::string(name) + " is not finite");
      return v;
    };
    const auto integer = [&](std::size_t col, const char* name) {
      long long v = 0;
      if (!parse_full(r[col], v)) fail(std::string(name) + " is not an integer: '" + r[col] + "'");
      return v;
    };
    const auto host = [&](std::size_t col, const char* name) {
      const long long id = integer(col, name);
      if (id < 0 || static_cast<std::size_t>(id) >= is_host.size() ||
          is_host[static_cast<std::size_t>(id)] == 0) {
        fail(std::string(name) + " " + r[col] + " is not a host of the topology");
      }
      return static_cast<topo::NodeId>(id);
    };
    const long long task_id = integer(0, "task");
    (void)integer(3, "flow");  // flow ids are reassigned on load
    const double arrival = number(1, "arrival");
    const double deadline = number(2, "deadline");
    if (deadline <= arrival) fail("deadline is not after arrival");
    net::FlowSpec fs;
    fs.src = host(4, "src");
    fs.dst = host(5, "dst");
    if (fs.src == fs.dst) fail("src equals dst");
    fs.size = number(6, "size");
    if (fs.size <= 0.0) fail("size is not positive");

    const auto [it, first] = tasks.try_emplace(task_id);
    PendingTask& t = it->second;
    if (first) {
      t.arrival = arrival;
      t.deadline = deadline;
    } else if (arrival != t.arrival || deadline != t.deadline) {
      fail("arrival/deadline differ from an earlier row of task " + r[0]);
    }
    t.flows.push_back(fs);
  }
  for (const auto& [id, t] : tasks) {
    net.add_task(t.arrival, t.deadline, t.flows);
  }
  return tasks.size();
}

}  // namespace taps::workload
