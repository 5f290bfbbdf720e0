// Workload traces: persist a generated workload to CSV and reload it, so a
// run can be reproduced or inspected independently of the generator.
//
// Format (one row per flow, header included):
//   task,arrival,deadline,flow,src,dst,size
#pragma once

#include <string>

#include "net/network.hpp"

namespace taps::workload {

/// Write the tasks/flows registered in `net` to `path`.
void save_trace(const net::Network& net, const std::string& path);

/// Load a trace into `net` (which must be empty). Hosts are referenced by
/// node id and must be hosts of the bound topology. Returns the task count.
/// Throws std::invalid_argument for a non-empty network, and
/// std::runtime_error naming the file and data row (1 = first row after the
/// header) for a row that does not have 7 fields, a field that is not wholly
/// a number, a non-finite value, size <= 0, deadline <= arrival,
/// src == dst, a node id that is not a host, or a task whose rows disagree
/// on arrival/deadline.
std::size_t load_trace(net::Network& net, const std::string& path);

}  // namespace taps::workload
