#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "common/status.h"
#include "obs/profile.h"

namespace perfbench {

namespace {

thread_local std::vector<i64> t_open;  // ids of this thread's open spans

u64 thread_tag() {
  return static_cast<u64>(std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

i64 current_span() { return t_open.empty() ? -1 : t_open.back(); }

i64 Tracer::open(const char* name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.begin_ns = sj::obs::now_ns();
  s.parent = current_span();
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<i64>(spans_.size());
  spans_.push_back(s);
  t_open.push_back(s.id);
  return s.id;
}

void Tracer::close() {
  if (!on_ || t_open.empty()) return;
  const u64 end = sj::obs::now_ns();
  const i64 id = t_open.back();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<usize>(id)].end_ns = end;
}

void Tracer::add(const char* name, u64 begin_ns, u64 end_ns, i64 parent, i64 request_id) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.request_id = request_id;
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<i64>(spans_.size());
  spans_.push_back(s);
}

usize Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  SJ_REQUIRE(f != nullptr, "cannot write trace file " + path);
  const u64 t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const u64 end = s.end_ns < s.begin_ns ? s.begin_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld",
                 i == 0 ? "" : ",\n", s.name, static_cast<unsigned long long>(s.thread),
                 static_cast<double>(s.begin_ns - t0) / 1e3,
                 static_cast<double>(end - s.begin_ns) / 1e3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
    if (s.request_id >= 0) {
      std::fprintf(f, ",\"request_id\":%lld", static_cast<long long>(s.request_id));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
