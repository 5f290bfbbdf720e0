#include "trace.hpp"

#include <fstream>
#include <iomanip>

namespace taps_bench {

void Tracer::begin(const char* name, std::uint64_t seq, Track track) {
  const std::int64_t parent = open_.empty() ? -1 : open_.back().id;
  open_.push_back(Open{name, seq, next_id_++, parent, track, Clock::now(), 0.0});
}

double Tracer::end() {
  const auto t1 = Clock::now();
  const Open o = open_.back();
  open_.pop_back();
  const double dur = micros(o.t0, t1);
  if (!open_.empty()) open_.back().child_us += dur;
  Layer& l = layers_[o.name];
  ++l.count;
  l.total_us += dur;
  l.self_us += dur - o.child_us;
  if (kept_.size() < kKeptSpans) {
    kept_.push_back(Span{o.name, o.seq, o.id, o.parent, o.track, micros(origin_, o.t0), dur});
  }
  return dur;
}

Tracer::Layer Tracer::layer(std::string_view name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? Layer{} : it->second;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"client\"}},"
     << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
        "\"args\":{\"name\":\"standalone replay\"}}";
  for (const Span& s : kept_) {
    os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << static_cast<int>(s.track) << ",\"ts\":" << s.ts_us << ",\"dur\":" << s.dur_us
       << ",\"args\":{\"seq\":" << s.seq << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << "}}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace taps_bench
