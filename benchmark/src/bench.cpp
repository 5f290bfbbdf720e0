#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace taps_bench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::string quantile_summary(std::vector<double>& v) {
  std::string out = "n=" + std::to_string(v.size());
  for (const auto& [name, q] : {std::pair{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95},
                                {"p99", 0.99}, {"p99.9", 0.999}}) {
    char buf[48];
    std::snprintf(buf, sizeof buf, " %s=%.1f", name, quantile(v, q));
    out += buf;
  }
  return out;
}

void Fingerprint::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add_double(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

void Fingerprint::add_response(const svc::TaskResponse& r) {
  add_u64(static_cast<std::uint64_t>(r.reason));
  add_u64(r.preempted.size());
  for (const svc::Seq s : r.preempted) add_u64(s);
  add_u64(r.grants.size());
  for (const svc::FlowGrant& g : r.grants) {
    add_u64(g.path.links.size());
    for (const topo::LinkId l : g.path.links) add_u64(static_cast<std::uint64_t>(l));
    add_u64(g.slices.intervals().size());
    for (const auto& iv : g.slices.intervals()) {
      add_double(iv.lo);
      add_double(iv.hi);
    }
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void SetupSampler::sample() {
  const Sample s = once_();
  topo_.push_back(s.topo_s);
  rest_.push_back(s.rest_s);
  total_.push_back(s.topo_s + s.rest_s);
  last_ = Clock::now();
}

SetupSampler::Sample SetupSampler::median_parts() {
  while (topo_.size() < kMinSamples) sample();
  return {median(topo_), median(rest_)};
}

double SetupSampler::median_total_s() {
  while (total_.size() < kMinSamples) sample();
  return median(total_);
}

std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t episode) {
  // splitmix64 of (seed, episode).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + episode + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace taps_bench
