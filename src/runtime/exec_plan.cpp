#include "runtime/exec_plan.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace bine::runtime {

namespace {

/// The per-step dataflow analysis over one entry's delivery stream: receiver
/// runs, zero-copy direct marks, fused symmetric pairs, and per-step staging
/// block offsets. Pure structure -- nothing here touches element counts --
/// which is what makes the result cacheable per schedule entry.
ExecSkeleton analyze_structure(const sched::SizeFreeSchedule& sf) {
  const size_t steps = sf.steps;
  const std::span<const std::uint32_t> step_begin = sf.delivery_step_begin;
  const std::span<const std::uint8_t> reduce = sf.delivery_reduce;
  const i64 p = sf.p;
  const i64 nblocks = sf.nblocks;
  const size_t nops = sf.num_deliveries();

  ExecSkeleton sk;
  // Resolve each delivery through its send once -- receiver, sender and
  // expanded payload ids -- so every later hit reuses them.
  sk.to.reserve(nops);
  sk.from.reserve(nops);
  sk.block_begin.reserve(nops + 1);
  sk.block_begin.push_back(0);
  for (size_t i = 0; i < nops; ++i) {
    const std::uint32_t send = sf.delivery_send[i];
    sk.to.push_back(sf.peer[send]);
    sk.from.push_back(sf.rank[send]);
    for (const sched::BlockRange32& br : sf.exchange_ranges(sf.exchange[send]))
      for (i64 k = 0; k < br.count; ++k) sk.ids.push_back(pmod(br.begin + k, nblocks));
    sk.block_begin.push_back(static_cast<std::uint32_t>(sk.ids.size()));
  }
  const std::span<const std::int32_t> to = sk.to;
  const std::span<const std::int32_t> from = sk.from;

  sk.run_begin.clear();
  sk.step_run_begin.reserve(steps + 1);
  sk.step_run_begin.push_back(0);
  sk.direct.assign(nops, 0);
  sk.fused.assign(nops, 0);
  sk.step_fused_begin.reserve(steps + 1);
  sk.step_fused_begin.push_back(0);
  sk.staged_id.assign(sk.ids.size(), 0);
  sk.stage_block_off.assign(nops, 0);
  // Per-cell stamps for the zero-copy analyses below, epoch-keyed by step so
  // they are never cleared: `written` marks cells some delivery writes this
  // step, `touched`/`touch_count` count read+write touches per cell.
  const auto npos = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> written(static_cast<size_t>(p * nblocks), npos);
  std::vector<std::uint32_t> touched(static_cast<size_t>(p * nblocks), npos);
  std::vector<std::uint32_t> touch_count(static_cast<size_t>(p * nblocks), 0);
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<std::uint32_t>> by_flow;
  for (size_t t = 0; t < steps; ++t) {
    const std::uint32_t ob = step_begin[t], oe = step_begin[t + 1];
    by_flow.clear();
    for (std::uint32_t j = ob; j < oe; ++j) {
      if (j == ob || to[j] != to[j - 1]) sk.run_begin.push_back(j);
      if (reduce[j]) by_flow[{to[j], from[j]}].push_back(j);
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k) {
        const size_t wcell = static_cast<size_t>(to[j] * nblocks + sk.ids[k]);
        const size_t rcell = static_cast<size_t>(from[j] * nblocks + sk.ids[k]);
        written[wcell] = static_cast<std::uint32_t>(t);
        for (const size_t cell : {wcell, rcell}) {
          if (touched[cell] != static_cast<std::uint32_t>(t)) {
            touched[cell] = static_cast<std::uint32_t>(t);
            touch_count[cell] = 0;
          }
          ++touch_count[cell];
        }
      }
    }
    // A delivery is direct when nothing this step writes the cells it reads:
    // the sender's live buffer then IS the pre-step snapshot, so the
    // executor applies it without staging.
    for (std::uint32_t j = ob; j < oe; ++j) {
      bool is_direct = true;
      for (std::uint32_t k = sk.block_begin[j]; is_direct && k < sk.block_begin[j + 1];
           ++k)
        is_direct = written[static_cast<size_t>(from[j] * nblocks + sk.ids[k])] !=
                    static_cast<std::uint32_t>(t);
      sk.direct[j] = is_direct ? 1 : 0;
    }
    // Symmetric-exchange fusion (see header): mutual recv_reduce pairs over
    // the identical id list whose cells only the pair touches. touch_count
    // == 2 on every cell certifies exclusivity (the pair itself contributes
    // one write- and one read-touch per cell).
    for (std::uint32_t j = ob; j < oe; ++j) {
      if (!reduce[j] || sk.direct[j] || sk.fused[j] || to[j] > from[j]) continue;
      const auto fwd = by_flow.find({to[j], from[j]});
      const auto rev = by_flow.find({from[j], to[j]});
      if (fwd == by_flow.end() || rev == by_flow.end()) continue;
      if (fwd->second.size() != 1 || rev->second.size() != 1) continue;
      const std::uint32_t j2 = rev->second.front();
      if (sk.direct[j2] || sk.fused[j2]) continue;
      const std::uint32_t len = sk.block_begin[j + 1] - sk.block_begin[j];
      if (sk.block_begin[j2 + 1] - sk.block_begin[j2] != len) continue;
      if (!std::equal(sk.ids.begin() + sk.block_begin[j],
                      sk.ids.begin() + sk.block_begin[j + 1],
                      sk.ids.begin() + sk.block_begin[j2]))
        continue;
      bool exclusive = true;
      for (std::uint32_t k = sk.block_begin[j]; exclusive && k < sk.block_begin[j + 1];
           ++k)
        exclusive =
            touch_count[static_cast<size_t>(to[j] * nblocks + sk.ids[k])] == 2 &&
            touch_count[static_cast<size_t>(from[j] * nblocks + sk.ids[k])] == 2;
      if (!exclusive) continue;
      sk.fused[j] = sk.fused[j2] = 1;
      sk.fused_pair.push_back(j);
      sk.fused_pair.push_back(j2);
    }
    sk.step_fused_begin.push_back(static_cast<std::uint32_t>(sk.fused_pair.size() / 2));
    // Pair-tiling over what remains: a non-direct delivery failed the
    // whole-delivery test, but usually only part of its payload genuinely
    // overlaps this step's writes. Mark exactly the ids whose read cell is
    // written (those stage); the rest execute in place like a direct
    // delivery. Staging block offsets count only the marked ids (element
    // offsets are size-dependent and computed in finalize_sizes).
    i64 staged_blocks = 0;
    for (std::uint32_t j = ob; j < oe; ++j) {
      sk.stage_block_off[j] = staged_blocks;
      if (sk.direct[j] || sk.fused[j]) continue;
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k)
        if (written[static_cast<size_t>(from[j] * nblocks + sk.ids[k])] ==
            static_cast<std::uint32_t>(t)) {
          sk.staged_id[k] = 1;
          ++staged_blocks;
        }
    }
    sk.step_run_begin.push_back(static_cast<std::uint32_t>(sk.run_begin.size()));
    sk.max_step_blocks = std::max<i64>(sk.max_step_blocks, staged_blocks);
  }
  sk.run_begin.push_back(step_begin[steps]);
  return sk;
}

}  // namespace

std::shared_ptr<const ExecSkeleton> ExecSkeleton::of(const sched::SizeFreeSchedule& sf) {
  sched::SizeFreeSchedule::DerivedSlot& slot = *sf.derived;
  const std::scoped_lock lock(slot.mutex);
  if (!slot.value) slot.value = std::make_shared<const ExecSkeleton>(analyze_structure(sf));
  return std::static_pointer_cast<const ExecSkeleton>(slot.value);
}

void ExecPlan::finalize_sizes() {
  // Point structural spans at the (built or cached) skeleton.
  to = skeleton->to;
  from = skeleton->from;
  block_begin = skeleton->block_begin;
  ids = skeleton->ids;
  run_begin = skeleton->run_begin;
  step_run_begin = skeleton->step_run_begin;
  direct = skeleton->direct;
  fused = skeleton->fused;
  fused_pair = skeleton->fused_pair;
  step_fused_begin = skeleton->step_fused_begin;
  staged_id = skeleton->staged_id;
  stage_block_off = skeleton->stage_block_off;
  max_step_blocks = skeleton->max_step_blocks;

  // Dense element layout: block id b occupies [block_off[b], block_off[b+1])
  // of every rank's flat buffer. For per_vector space this is exactly the
  // vector's own layout; for pairwise space ids are s-major so rank s's send
  // buffer lands contiguously at offset s*elem_count.
  block_off.resize(static_cast<size_t>(nblocks) + 1);
  block_off[0] = 0;
  for (i64 b = 0; b < nblocks; ++b) {
    const i64 len = space == sched::BlockSpace::per_vector
                        ? sched::block_elems(b, elem_count, nblocks)
                        : sched::block_elems(b % p, elem_count, p);
    block_off[static_cast<size_t>(b) + 1] = block_off[static_cast<size_t>(b)] + len;
  }
  elems_per_rank = block_off[static_cast<size_t>(nblocks)];
  words = (p + 63) / 64;

  elem_prefix.resize(ids.size() + 1);
  elem_prefix[0] = 0;
  for (size_t k = 0; k < ids.size(); ++k)
    elem_prefix[k + 1] = elem_prefix[k] + block_len(ids[k]);

  total_wire_bytes = 0;
  for (const i64 b : op_bytes) total_wire_bytes += b;

  stage_elem_off.assign(num_ops(), 0);
  max_step_elems = 0;
  stage_bytes = 0;
  for (size_t t = 0; t < steps; ++t) {
    i64 staged_elems = 0;
    for (std::uint32_t j = step_begin[t]; j < step_begin[t + 1]; ++j) {
      stage_elem_off[j] = staged_elems;
      if (direct[j] || fused[j]) continue;
      for (std::uint32_t k = block_begin[j]; k < block_begin[j + 1]; ++k)
        if (staged_id[k]) staged_elems += elem_prefix[k + 1] - elem_prefix[k];
    }
    max_step_elems = std::max<i64>(max_step_elems, staged_elems);
    stage_bytes += staged_elems * elem_size;
  }
}

ExecPlan ExecPlan::lower(const sched::Schedule& s) {
  if (const std::string err = s.validate(); !err.empty())
    throw std::runtime_error("invalid schedule: " + err);
  return from_size_free(
      std::make_shared<const sched::SizeFreeSchedule>(sched::SizeFreeSchedule::from(s)),
      s.coll, s.root, s.elem_count, s.elem_size);
}

ExecPlan ExecPlan::from_size_free(std::shared_ptr<const sched::SizeFreeSchedule> sf,
                                  sched::Collective coll, Rank root, i64 elem_count,
                                  i64 elem_size) {
  ExecPlan plan;
  plan.coll = coll;
  plan.space = sf->space;
  plan.p = sf->p;
  plan.nblocks = sf->nblocks;
  plan.elem_count = elem_count;
  plan.elem_size = elem_size;
  plan.root = root;
  plan.steps = sf->steps;
  // The step CSR and reduce flags alias the entry's overlay; every other
  // structural column aliases its cached skeleton. Only op_bytes and the
  // element arithmetic below are computed per plan.
  plan.step_begin = sf->delivery_step_begin;
  plan.reduce = sf->delivery_reduce;
  plan.skeleton = ExecSkeleton::of(*sf);

  const i64 n = sf->space == sched::BlockSpace::pairwise ? elem_count * sf->p : elem_count;
  const size_t ops = sf->num_deliveries();
  plan.op_bytes.resize(ops);
  for (size_t i = 0; i < ops; ++i) {
    // The same arithmetic Schedule::op_bytes runs, so the plan's bytes are
    // the schedule's at this size.
    const std::uint32_t e = sf->exchange[sf->delivery_send[i]];
    plan.op_bytes[i] = sched::ranges_elem_count(sf->exchange_ranges(e), n, sf->nblocks) *
                       elem_size;
  }
  plan.keepalive = std::move(sf);
  plan.finalize_sizes();
  return plan;
}

}  // namespace bine::runtime
