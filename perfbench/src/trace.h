// In-memory span recorder for the traced benchmark run (--trace 1).
//
// Every span has a name, a start and an end (steady-clock ns), a parent span
// and, for wire requests, the request id. Spans stay in memory and are
// written once, as Chrome trace-event JSON, when the run ends. When the
// recorder is off, Scope does nothing but one branch: the untraced runs,
// which give the end-to-end numbers, take no clock reads for it.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using sj::i64;
using sj::u64;
using sj::usize;

class Tracer {
 public:
  struct Span {
    const char* name = "";
    u64 begin_ns = 0;
    u64 end_ns = 0;
    i64 id = 0;
    i64 parent = -1;      // -1 = root
    i64 request_id = -1;  // -1 = not a wire request
    u64 thread = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span on the calling thread, parented to the thread's innermost
  /// open span. Returns its id (-1 when off).
  i64 open(const char* name);
  /// Closes the calling thread's innermost open span.
  void close();
  /// Records a finished span with an explicit parent (wire requests, whose
  /// ends are observed on another thread than their starts).
  void add(const char* name, u64 begin_ns, u64 end_ns, i64 parent, i64 request_id);

  usize size() const;
  /// Writes {"traceEvents": [...]} (complete "X" events, microseconds).
  void write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t) {
    if (t_.on()) t_.open(name);
  }
  ~Scope() {
    if (t_.on()) t_.close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

/// The innermost open span id on the calling thread (-1 when none).
i64 current_span();

}  // namespace perfbench
