// Exclusive time per layer from the nesting of trace spans.
//
// A rank's spans come from RAII scopes on one thread, so any two of them
// are either disjoint or nested.  Sorting by (start asc, end desc) puts a
// parent before its children; a stack then finds each span's parent, and a
// span's exclusive time is its duration minus its direct children's.  Only
// spans inside a solver iteration count: the per-iteration rows divide by
// the number of iteration spans.

#include <algorithm>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using hpfcg::trace::Span;
using hpfcg::trace::SpanKind;

Layer layer_of(const Span& s) {
  switch (s.kind) {
    case SpanKind::kIteration: return kBookkeeping;
    case SpanKind::kMatvec: return kSpmv;
    case SpanKind::kPrecond: return kPrecond;
    case SpanKind::kMgLevel:
      return static_cast<Layer>(kMgL0 + std::min<std::uint32_t>(s.a, 3));
    case SpanKind::kHalo: return kHalo;
    case SpanKind::kSend: return kSend;
    case SpanKind::kRecv: return kRecv;
    case SpanKind::kDot:
    case SpanKind::kDotBatch:
    case SpanKind::kAxpy:
    case SpanKind::kAypx: return kVec;
    default:
      return hpfcg::trace::is_tree_collective(s.kind) ? kReduce : kOther;
  }
}

/// Computed bytes a vector kernel streams: axpy/aypx read two operands and
/// write one; a dot reads two per pair.  Span::bytes is the local length
/// times the element size.
double kernel_bytes(const Span& s) {
  switch (s.kind) {
    case SpanKind::kAxpy:
    case SpanKind::kAypx: return 3.0 * static_cast<double>(s.bytes);
    case SpanKind::kDot: return 2.0 * static_cast<double>(s.bytes);
    case SpanKind::kDotBatch:
      return 2.0 * static_cast<double>(s.a) * static_cast<double>(s.bytes);
    default: return 0.0;
  }
}

struct Node {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  Layer layer = kOther;
  bool iteration = false;
  const Span* span = nullptr;  ///< null for benchmark closures
};

}  // namespace

const char* layer_name(int layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "solvers.bookkeeping", "sparse.spmv", "solvers.precond",
      "solvers.mg_l0",       "solvers.mg_l1", "solvers.mg_l2",
      "solvers.mg_l3",       "sparse.halo",   "msg.send",
      "msg.recv_wait",       "msg.reduce",    "hpf.vec",
      "other"};
  return kNames[layer];
}

void LayerAccum::add_solve(const std::vector<Span>& spans,
                           const std::vector<ClosureSpan>& closures,
                           std::uint64_t dropped_spans) {
  dropped += dropped_spans;
  std::vector<Node> nodes;
  nodes.reserve(spans.size() + closures.size());
  for (const Span& s : spans) {
    nodes.push_back({s.t0_ns, s.t1_ns, layer_of(s),
                     s.kind == SpanKind::kIteration, &s});
  }
  for (const ClosureSpan& c : closures) {
    nodes.push_back({c.t0_ns, c.t1_ns, c.layer, false, nullptr});
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
  });

  struct Open {
    const Node* node;
    double child_ns;
    bool in_iteration;  ///< this node is, or sits inside, an iteration
    bool in_halo;
    bool in_reduce;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    if (!o.in_iteration) return;
    const double dur = static_cast<double>(o.node->t1 - o.node->t0);
    excl_ns[o.node->layer] += dur - o.child_ns;
  };
  for (const Node& n : nodes) {
    while (!stack.empty() && stack.back().node->t1 <= n.t0) {
      close(stack.back());
      stack.pop_back();
    }
    const double dur = static_cast<double>(n.t1 - n.t0);
    Open o{&n, 0.0, n.iteration, n.layer == kHalo, n.layer == kReduce};
    if (!stack.empty()) {
      Open& parent = stack.back();
      parent.child_ns += dur;
      o.in_iteration = o.in_iteration || parent.in_iteration;
      o.in_halo = o.in_halo || parent.in_halo;
      o.in_reduce = o.in_reduce || parent.in_reduce;
      if (o.in_iteration) {
        if (n.layer == kHalo && !parent.in_halo) halo_incl_ns += dur;
        if (n.layer == kReduce && !parent.in_reduce) reduce_incl_ns += dur;
      }
    }
    if (o.in_iteration && n.span != nullptr) {
      vec_bytes += kernel_bytes(*n.span);
      if (n.span->kind == SpanKind::kMatvec) ++matvecs;
      if (n.iteration) ++iterations;
    }
    stack.push_back(o);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

}  // namespace perfbench
