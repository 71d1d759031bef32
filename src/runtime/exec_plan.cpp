#include "runtime/exec_plan.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace bine::runtime {

namespace {

/// Held cells of every rank (initial holdings plus delivered ids, ascending
/// per rank) and each delivered block's read and write cell. `ids[k]` is
/// delivered block k, received by `to` and sent by `from` of its delivery.
void build_cells(const sched::SizeFreeSchedule& sf, const std::vector<std::uint32_t>& ids,
                 ExecSkeleton& sk) {
  const i64 p = sf.p;
  const size_t nops = sk.to.size();
  // Every (rank, block) a rank ever holds, as rank-major sortable keys.
  std::vector<u64> held;
  const auto hold = [&](i64 r, i64 b) {
    held.push_back(static_cast<u64>(r) << 32 | static_cast<u64>(b));
  };
  for (Rank r = 0; r < p; ++r) {
    const sched::BlockRange init = initial_blocks(sk.coll, sk.root, p, sf.nblocks, r);
    for (i64 b = init.begin; b < init.begin + init.count; ++b) hold(r, b);
  }
  for (size_t j = 0; j < nops; ++j)
    for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k)
      hold(sk.to[j], ids[k]);
  std::sort(held.begin(), held.end());
  held.erase(std::unique(held.begin(), held.end()), held.end());
  // The sentinel takes the index past the last held cell.
  if (held.size() >= std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("execution plan: more than 2^32-2 held cells");
  sk.cell_begin.assign(static_cast<size_t>(p) + 1, 0);
  sk.cell_block.reserve(held.size());
  for (const u64 key : held) {
    ++sk.cell_begin[static_cast<size_t>(key >> 32) + 1];
    sk.cell_block.push_back(static_cast<std::uint32_t>(key));
  }
  for (size_t r = 0; r < static_cast<size_t>(p); ++r) sk.cell_begin[r + 1] += sk.cell_begin[r];
  sk.read_cell.resize(ids.size());
  sk.write_cell.resize(ids.size());
  for (size_t j = 0; j < nops; ++j)
    for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k) {
      sk.read_cell[k] = find_cell(sk.cell_begin, sk.cell_block, sk.from[j], ids[k]);
      sk.write_cell[k] = find_cell(sk.cell_begin, sk.cell_block, sk.to[j], ids[k]);
    }
}

/// The per-step dataflow analysis over one entry's delivery stream: held
/// cells, receiver runs, zero-copy direct marks, fused symmetric pairs, and
/// per-step staging block offsets. Pure structure -- nothing here touches
/// element counts -- which is what makes the result cacheable per schedule
/// entry.
ExecSkeleton analyze_structure(const sched::SizeFreeSchedule& sf, sched::Collective coll,
                               Rank root) {
  const size_t steps = sf.steps;
  const std::span<const std::uint32_t> step_begin = sf.delivery_step_begin;
  const std::span<const std::uint8_t> reduce = sf.delivery_reduce;
  const i64 nblocks = sf.nblocks;
  const size_t nops = sf.num_deliveries();

  ExecSkeleton sk;
  sk.coll = coll;
  sk.root = root;
  // Resolve each delivery through its send once -- receiver, sender and
  // payload cells -- so every later hit reuses them.
  std::vector<std::uint32_t> ids;
  sk.to.reserve(nops);
  sk.from.reserve(nops);
  sk.block_begin.reserve(nops + 1);
  sk.block_begin.push_back(0);
  for (size_t i = 0; i < nops; ++i) {
    const std::uint32_t send = sf.delivery_send[i];
    sk.to.push_back(sf.peer[send]);
    sk.from.push_back(sf.rank[send]);
    for (const sched::BlockRange32& br : sf.exchange_ranges(sf.exchange[send]))
      for (i64 k = 0; k < br.count; ++k)
        ids.push_back(static_cast<std::uint32_t>(pmod(br.begin + k, nblocks)));
    sk.block_begin.push_back(static_cast<std::uint32_t>(ids.size()));
  }
  build_cells(sf, ids, sk);
  const std::span<const std::int32_t> to = sk.to;
  const std::span<const std::int32_t> from = sk.from;
  const std::span<const std::uint32_t> rcell = sk.read_cell;
  const std::span<const std::uint32_t> wcell = sk.write_cell;
  // Every cell, the sentinel included.
  const size_t ncells = sk.cell_block.size() + 1;

  sk.run_begin.clear();
  sk.step_run_begin.reserve(steps + 1);
  sk.step_run_begin.push_back(0);
  sk.direct.assign(nops, 0);
  sk.fused.assign(nops, 0);
  sk.step_fused_begin.reserve(steps + 1);
  sk.step_fused_begin.push_back(0);
  sk.staged_id.assign(ids.size(), 0);
  sk.stage_block_off.assign(nops, 0);
  // Per-cell stamps for the zero-copy analyses below, epoch-keyed by step so
  // they are never cleared: `written` marks cells some delivery writes this
  // step, `touched`/`touch_count` count read+write touches per cell.
  const auto npos = std::numeric_limits<std::uint32_t>::max();
  // The sentinel is never written, so a read of it is never staged.
  std::vector<std::uint32_t> written(ncells, npos);
  std::vector<std::uint32_t> touched(ncells, npos);
  std::vector<std::uint32_t> touch_count(ncells, 0);
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<std::uint32_t>> by_flow;
  for (size_t t = 0; t < steps; ++t) {
    const std::uint32_t ob = step_begin[t], oe = step_begin[t + 1];
    by_flow.clear();
    for (std::uint32_t j = ob; j < oe; ++j) {
      if (j == ob || to[j] != to[j - 1]) sk.run_begin.push_back(j);
      if (reduce[j]) by_flow[{to[j], from[j]}].push_back(j);
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k) {
        written[wcell[k]] = static_cast<std::uint32_t>(t);
        for (const std::uint32_t cell : {wcell[k], rcell[k]}) {
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
        is_direct = written[rcell[k]] != static_cast<std::uint32_t>(t);
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
      // Identical id lists: j reads exactly the cells j2 writes, in order
      // (cells are unique per (rank, block)).
      if (!std::equal(rcell.begin() + sk.block_begin[j], rcell.begin() + sk.block_begin[j + 1],
                      wcell.begin() + sk.block_begin[j2]))
        continue;
      bool exclusive = true;
      for (std::uint32_t k = sk.block_begin[j]; exclusive && k < sk.block_begin[j + 1];
           ++k)
        exclusive = touch_count[wcell[k]] == 2 && touch_count[rcell[k]] == 2;
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
        if (written[rcell[k]] == static_cast<std::uint32_t>(t)) {
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

sched::BlockRange initial_blocks(sched::Collective coll, Rank root, i64 p, i64 nblocks,
                                 Rank r) noexcept {
  using sched::Collective;
  switch (coll) {
    case Collective::bcast:
    case Collective::scatter:
      return {0, r == root ? nblocks : 0};
    case Collective::reduce:
    case Collective::allreduce:
    case Collective::reduce_scatter:
      return {0, nblocks};
    case Collective::gather:
    case Collective::allgather:
      return {r, 1};
    case Collective::alltoall:
      return {r * p, p};
  }
  return {};
}

std::shared_ptr<const ExecSkeleton> ExecSkeleton::of(const sched::SizeFreeSchedule& sf,
                                                     sched::Collective coll, Rank root) {
  sched::SizeFreeSchedule::DerivedSlot& slot = *sf.derived;
  const std::scoped_lock lock(slot.mutex);
  if (!slot.value)
    slot.value = std::make_shared<const ExecSkeleton>(analyze_structure(sf, coll, root));
  auto sk = std::static_pointer_cast<const ExecSkeleton>(slot.value);
  if (sk->coll != coll || sk->root != root)
    throw std::invalid_argument("execution plan: schedule entry was lowered for " +
                                std::string(to_string(sk->coll)) + " root " +
                                std::to_string(sk->root) + ", not " + std::string(to_string(coll)) +
                                " root " + std::to_string(root));
  return sk;
}

void ExecPlan::finalize_sizes() {
  // Point structural spans at the (built or cached) skeleton.
  cell_begin = skeleton->cell_begin;
  cell_block = skeleton->cell_block;
  to = skeleton->to;
  from = skeleton->from;
  block_begin = skeleton->block_begin;
  read_cell = skeleton->read_cell;
  write_cell = skeleton->write_cell;
  run_begin = skeleton->run_begin;
  step_run_begin = skeleton->step_run_begin;
  direct = skeleton->direct;
  fused = skeleton->fused;
  fused_pair = skeleton->fused_pair;
  step_fused_begin = skeleton->step_fused_begin;
  staged_id = skeleton->staged_id;
  stage_block_off = skeleton->stage_block_off;
  max_step_blocks = skeleton->max_step_blocks;

  // Cell element layout: cell c occupies [cell_off[c], cell_off[c+1]) of the
  // flat state buffer, ranks in order, each rank's blocks ascending. A
  // per_vector block b has the vector's block b length; a pairwise block
  // s*p + d has the length of block d of rank s's send buffer. The sentinel
  // cell is empty.
  const bool pairwise = space == sched::BlockSpace::pairwise;
  const i64 lens_n = pairwise ? p : nblocks;
  std::vector<i64> lens(static_cast<size_t>(lens_n));
  for (i64 b = 0; b < lens_n; ++b)
    lens[static_cast<size_t>(b)] = sched::block_elems(b, elem_count, lens_n);
  ncells = static_cast<i64>(cell_block.size()) + 1;
  cell_off.resize(static_cast<size_t>(ncells) + 1);
  cell_off[0] = 0;
  for (size_t c = 0; c < cell_block.size(); ++c) {
    const std::uint32_t b = cell_block[c];
    cell_off[c + 1] =
        cell_off[c] + lens[pairwise ? b % static_cast<std::uint32_t>(p) : b];
  }
  cell_off[cell_block.size() + 1] = cell_off[cell_block.size()];
  state_elems = cell_off.back();
  words = (p + 63) / 64;

  // A delivered block's length is its write cell's (the read cell may be
  // the empty sentinel).
  elem_prefix.resize(write_cell.size() + 1);
  elem_prefix[0] = 0;
  for (size_t k = 0; k < write_cell.size(); ++k)
    elem_prefix[k + 1] = elem_prefix[k] + cell_len(write_cell[k]);

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
  plan.skeleton = ExecSkeleton::of(*sf, coll, root);

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
