#include "gen.hpp"

#include <algorithm>
#include <cmath>

namespace taps_bench {

namespace {

/// Acklam's rational approximation of the standard normal inverse CDF
/// (relative error < 1.2e-9), p in (0, 1).
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  const auto tail = [&](double q) {
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  };
  if (p < kLow) return tail(std::sqrt(-2.0 * std::log(p)));
  if (p > 1.0 - kLow) return -tail(std::sqrt(-2.0 * std::log1p(-p)));
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double exponential_icdf(double mean, double u) { return -mean * std::log1p(-u); }

std::int64_t poisson_icdf(double mean, double u) {
  double p = std::exp(-mean);
  double cdf = p;
  std::int64_t k = 0;
  // The cap only guards against the summed CDF rounding below u.
  const auto cap = static_cast<std::int64_t>(10.0 * mean + 100.0);
  while (cdf <= u && k < cap) {
    ++k;
    p *= mean / static_cast<double>(k);
    cdf += p;
  }
  return k;
}


std::pair<topo::NodeId, topo::NodeId> distinct_hosts(const topo::FatTree& ft, Draw& draw) {
  const auto& hosts = ft.hosts();
  const std::size_t src = draw.index(hosts.size());
  std::size_t dst = draw.index(hosts.size() - 1);
  if (dst >= src) ++dst;
  return {hosts[src], hosts[dst]};
}

}  // namespace

std::size_t Draw::index(std::size_t n) {
  const auto i = static_cast<std::size_t>(uniform() * static_cast<double>(n));
  return std::min(i, n - 1);
}

double Draw::exponential(double mean) { return exponential_icdf(mean, uniform()); }

std::vector<double> Draw::stratified(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[index(i)]);
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(order[i]) + uniform()) / static_cast<double>(n);
  }
  return u;
}

double Draw::normal_above(double mean, double sd, double lo) {
  const double floor_p = normal_cdf((lo - mean) / sd);
  // Open interval (0, 1): shift the 53-bit grid by half a step.
  const double u = (static_cast<double>(eng_() >> 11) + 0.5) * 0x1.0p-53;
  return std::max(lo, mean + sd * inverse_normal_cdf(floor_p + u * (1.0 - floor_p)));
}

std::vector<svc::TaskRequest> coflow_stream(const topo::FatTree& ft, std::size_t tasks,
                                            double flows_per_task, std::uint64_t seed) {
  constexpr double kArrivalRate = 1500.0;
  constexpr double kMeanDeadline = 0.040;
  constexpr double kMinDeadline = 0.002;
  constexpr double kMeanSize = 200e3;
  constexpr double kSizeSd = 50e3;
  constexpr double kMinSize = 10e3;
  Draw draw(seed);
  const std::vector<double> gap_u = draw.stratified(tasks);
  const std::vector<double> deadline_u = draw.stratified(tasks);
  const std::vector<double> flows_u = draw.stratified(tasks);
  std::vector<svc::TaskRequest> out(tasks);
  double arrival = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) {
    if (i > 0) arrival += exponential_icdf(1.0 / kArrivalRate, gap_u[i]);
    svc::TaskRequest& req = out[i];
    req.arrival = arrival;
    req.deadline = arrival + std::max(kMinDeadline, exponential_icdf(kMeanDeadline, deadline_u[i]));
    const std::int64_t flows = std::max<std::int64_t>(1, poisson_icdf(flows_per_task, flows_u[i]));
    req.flows.reserve(static_cast<std::size_t>(flows));
    for (std::int64_t j = 0; j < flows; ++j) {
      const auto [src, dst] = distinct_hosts(ft, draw);
      req.flows.push_back({src, dst, draw.normal_above(kMeanSize, kSizeSd, kMinSize)});
    }
  }
  return out;
}

std::vector<svc::TaskRequest> burst_stream(const topo::FatTree& ft, std::size_t tasks,
                                           std::uint64_t seed) {
  constexpr double kFirstDeadline = 0.050;
  constexpr double kLastDeadline = 4.0;
  constexpr std::int64_t kJitterSteps = 3;
  const double capacity = ft.graph().links().front().capacity;
  Draw draw(seed);
  std::vector<svc::TaskRequest> out(tasks);
  const auto last = static_cast<std::int64_t>(tasks) - 1;
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::int64_t jitter =
        static_cast<std::int64_t>(draw.index(2 * kJitterSteps + 1)) - kJitterSteps;
    const std::int64_t pos = std::clamp(static_cast<std::int64_t>(i) + jitter,
                                        std::int64_t{0}, std::max<std::int64_t>(last, 0));
    const double share = last > 0 ? static_cast<double>(pos) / static_cast<double>(last) : 0.0;
    svc::TaskRequest& req = out[i];
    req.arrival = 0.0;
    req.deadline = kFirstDeadline + (kLastDeadline - kFirstDeadline) * share;
    const auto [src, dst] = distinct_hosts(ft, draw);
    req.flows.push_back({src, dst, draw.uniform(0.0005, 0.002) * capacity});
  }
  return out;
}

svc::TaskRequest MixedStream::next() {
  const int k = ft_->k();
  const int half = k / 2;
  arrival_ += draw_.exponential(0.01) + 1e-7;
  const int src_pod = static_cast<int>(draw_.index(static_cast<std::size_t>(k)));
  int dst_pod = src_pod;
  if (draw_.bernoulli(0.3)) {
    dst_pod = static_cast<int>(draw_.index(static_cast<std::size_t>(k - 1)));
    if (dst_pod >= src_pod) ++dst_pod;
  }
  const auto host = [&](int pod) {
    return ft_->host(pod, static_cast<int>(draw_.index(static_cast<std::size_t>(half))),
                     static_cast<int>(draw_.index(static_cast<std::size_t>(half))));
  };
  const topo::NodeId src = host(src_pod);
  topo::NodeId dst = src;
  while (dst == src) dst = host(dst_pod);
  const double transfer = draw_.uniform(0.002, 0.02);
  svc::TaskRequest req;
  req.arrival = arrival_;
  req.deadline = arrival_ + draw_.uniform(1.2, 3.0) * transfer;
  req.flows.push_back({src, dst, transfer * ft_->graph().links().front().capacity});
  return req;
}

}  // namespace taps_bench
