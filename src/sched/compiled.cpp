#include "sched/compiled.hpp"

#include <algorithm>

namespace bine::sched {

void CompiledSchedule::lower_into(const Schedule& s, CompiledSchedule& out) {
  out.p = s.p;
  out.steps = s.num_steps();
  out.keepalive.reset();

  // Size pass reads only the per-step vector headers; plain recvs are
  // dropped during the fill, so this is an upper bound trimmed afterwards.
  size_t total_ops = 0;
  for (const auto& rank_steps : s.steps)
    for (const RankStep& st : rank_steps) total_ops += st.ops.size();
  out.own.kind.resize(total_ops);
  out.own.rank.resize(total_ops);
  out.own.peer.resize(total_ops);
  out.own.bytes.resize(total_ops);
  out.own.extra_segments.resize(total_ops);
  out.own.step_begin.clear();
  out.own.step_begin.reserve(out.steps + 1);
  out.own.step_begin.push_back(0);

  // Step-major fill via the shared lowering-order visitor: the traversal
  // order IS the output order, so every array is written sequentially with
  // one cursor. Rank grouping and per-rank op order are what the engine's
  // overhead accumulator and the float-level parity with the reference
  // engine rely on.
  std::uint32_t i = 0;
  for_each_lowered_op(
      s, out.steps,
      [&](Rank r, const Op& op) {
        out.own.kind[i] = op.kind;
        out.own.rank[i] = static_cast<std::int32_t>(r);
        out.own.peer[i] = static_cast<std::int32_t>(op.peer);
        out.own.bytes[i] = s.op_bytes(op);
        out.own.extra_segments[i] = lowered_extra_segments(op);
        ++i;
      },
      [&](size_t) { out.own.step_begin.push_back(i); });
  out.own.kind.resize(i);
  out.own.rank.resize(i);
  out.own.peer.resize(i);
  out.own.bytes.resize(i);
  out.own.extra_segments.resize(i);

  out.step_begin = out.own.step_begin;
  out.kind = out.own.kind;
  out.rank = out.own.rank;
  out.peer = out.own.peer;
  out.bytes = out.own.bytes;
  out.extra_segments = out.own.extra_segments;
}

CompiledSchedule CompiledSchedule::lower(const Schedule& s) {
  CompiledSchedule out;
  lower_into(s, out);
  return out;
}

}  // namespace bine::sched
