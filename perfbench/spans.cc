#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanRecorder::BeginOp() {
  if (enabled_) ++op_;
}

uint32_t SpanRecorder::Open(const char* name) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.op = op_;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::Close(uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

uint32_t SpanRecorder::AddDerived(uint32_t parent, const char* name, double ms) {
  if (!enabled_ || parent == 0) return 0;
  const Span& p = spans_[parent - 1];
  Span s;
  s.name = name;
  s.op = p.op;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = p.start_ns;
  s.end_ns = p.start_ns + static_cast<int64_t>(ms * 1e6);
  s.derived = true;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> SpanRecorder::SelfTimeMs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

double SpanRecorder::RootTotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%llu,\"span\":%u,\"parent\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"derived\":%s}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.op), s.id,
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
