#include "hpfcg/trace/chrome_export.hpp"

#include <limits>
#include <ostream>
#include <sstream>

namespace hpfcg::trace {

namespace {

/// Trace-viewer lane for a span: communication, intrinsic compute, or
/// solver structure.  Lanes render as named threads inside the rank's
/// process, so the reduction-tree vs SAXPY split is visually separable.
int lane_of(SpanKind k) {
  switch (k) {
    case SpanKind::kSend:
    case SpanKind::kRecv:
    case SpanKind::kBarrier:
    case SpanKind::kBroadcast:
    case SpanKind::kAllreduceVec:
    case SpanKind::kAllreduceBatch:
    case SpanKind::kAllgatherv:
    case SpanKind::kAlltoallv:
    case SpanKind::kSequential:
    case SpanKind::kHalo:
    case SpanKind::kGatherFull:
    case SpanKind::kReproMerge:
      return 0;
    case SpanKind::kDot:
    case SpanKind::kDotBatch:
    case SpanKind::kAxpy:
    case SpanKind::kAypx:
      return 1;
    case SpanKind::kMatvec:
    case SpanKind::kPrecond:
    case SpanKind::kIteration:
    case SpanKind::kRedistribute:
    case SpanKind::kMgLevel:
      return 2;
  }
  return 0;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

void meta_event(std::ostream& os, bool& first, int pid, const char* what,
                int tid, const std::string& name) {
  os << (first ? "" : ",\n") << R"( {"name":")" << what
     << R"(","ph":"M","pid":)" << pid;
  if (tid >= 0) os << R"(,"tid":)" << tid;
  os << R"(,"args":{"name":")" << name << R"("}})";
  first = false;
}

void counter_event(std::ostream& os, int pid, std::uint64_t t_ns,
                   const char* name, double value) {
  // max_digits10 decimal digits round-trip any finite double exactly
  // through strtod, so consumers that parse counter values back (the
  // reproducibility gates compare residuals bit-for-bit) see the same
  // bits the solver produced — the default 6-digit ostream precision
  // silently truncated them.
  const auto prev = os.precision(std::numeric_limits<double>::max_digits10);
  os << ",\n"
     << R"( {"name":")" << name << R"(","ph":"C","pid":)" << pid
     << R"(,"tid":0,"ts":)" << us(t_ns) << R"(,"args":{")" << name
     << R"(":)" << value << "}}";
  os.precision(prev);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Session& session) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (int r = 0; r < session.nprocs(); ++r) {
    const int pid = r;
    meta_event(os, first, pid, "process_name", -1,
               "rank " + std::to_string(r));
    meta_event(os, first, pid, "thread_name", 0, "comm");
    meta_event(os, first, pid, "thread_name", 1, "intrinsics");
    meta_event(os, first, pid, "thread_name", 2, "solver");

    for (const Span& s : session.rank(r).spans()) {
      os << ",\n"
         << R"( {"name":")" << span_kind_name(s.kind)
         << R"(","ph":"X","pid":)" << pid << R"(,"tid":)" << lane_of(s.kind)
         << R"(,"ts":)" << us(s.t0_ns) << R"(,"dur":)"
         << us(s.t1_ns - s.t0_ns) << R"(,"args":{"bytes":)" << s.bytes
         << R"(,"a":)" << s.a << R"(,"depth":)" << s.depth << R"(,"aux":)"
         << static_cast<int>(s.aux) << "}}";
    }

    // Counter tracks from the solver metrics channel: the residual plus
    // Stats-cumulative merge and byte counters, one track each, so
    // Perfetto plots convergence against communication volume.
    for (const IterationMetrics& m : session.rank(r).iterations()) {
      counter_event(os, pid, m.t_ns, "residual", m.residual);
      counter_event(os, pid, m.t_ns, "reductions",
                    static_cast<double>(m.reductions));
      counter_event(os, pid, m.t_ns, "bytes_moved",
                    static_cast<double>(m.bytes_moved));
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_json(const Session& session) {
  std::ostringstream os;
  write_chrome_trace(os, session);
  return os.str();
}

}  // namespace hpfcg::trace
