#include "runtime/exec_plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace bine::runtime {

namespace {

/// Deliveries bucketed by one endpoint (counting sort): rank r's are
/// order[begin[r] .. begin[r+1]), in delivery order.
struct RankBuckets {
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> order;
};

RankBuckets bucket_by_rank(std::span<const std::int32_t> rank_of, i64 p) {
  RankBuckets out;
  out.begin.assign(static_cast<size_t>(p) + 1, 0);
  for (const std::int32_t r : rank_of) ++out.begin[static_cast<size_t>(r) + 1];
  for (size_t r = 0; r < static_cast<size_t>(p); ++r) out.begin[r + 1] += out.begin[r];
  out.order.resize(rank_of.size());
  std::vector<std::uint32_t> next(out.begin.begin(), out.begin.end() - 1);
  for (size_t j = 0; j < rank_of.size(); ++j)
    out.order[next[static_cast<size_t>(rank_of[j])]++] = static_cast<std::uint32_t>(j);
  return out;
}

/// Held cells of every rank (initial holdings plus delivered ids, ascending
/// per rank) and each delivered block's read and write cell. `ids[k]` is
/// delivered block k, received by `to` and sent by `from` of its delivery.
///
/// Linear in the delivered blocks: deliveries are bucketed by receiver and
/// by sender, then the ranks are walked in order with one nblocks-sized
/// stamp table (stamp[b] == r: rank r holds b) and one cell table (cell_of[b]:
/// rank r's cell for b), both reused across ranks and never cleared. A
/// rank's unique ids ascend by sorting them or by scanning the stamps,
/// whichever is cheaper; its deliveries then resolve by table lookup.
void build_cells(const sched::SizeFreeSchedule& sf, const std::vector<std::uint32_t>& ids,
                 ExecSkeleton& sk) {
  const i64 p = sf.p;
  const auto nblocks = static_cast<size_t>(sf.nblocks);
  const RankBuckets received = bucket_by_rank(sk.to, p);
  const RankBuckets sent = bucket_by_rank(sk.from, p);
  const auto npos = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> stamp(nblocks, npos);
  std::vector<std::uint32_t> cell_of(nblocks);
  std::vector<std::uint32_t> uniq;
  sk.cell_begin.assign(static_cast<size_t>(p) + 1, 0);
  sk.read_cell.resize(ids.size());
  sk.write_cell.resize(ids.size());
  for (Rank r = 0; r < p; ++r) {
    const auto epoch = static_cast<std::uint32_t>(r);
    uniq.clear();
    const auto hold = [&](std::uint32_t b) {
      if (stamp[b] == epoch) return;
      stamp[b] = epoch;
      uniq.push_back(b);
    };
    const sched::BlockRange init = initial_blocks(sk.coll, sk.root, p, sf.nblocks, r);
    for (i64 b = init.begin; b < init.begin + init.count; ++b)
      hold(static_cast<std::uint32_t>(b));
    const auto rb = static_cast<size_t>(r);
    for (std::uint32_t i = received.begin[rb]; i < received.begin[rb + 1]; ++i) {
      const std::uint32_t j = received.order[i];
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k) hold(ids[k]);
    }
    if (uniq.size() * static_cast<size_t>(std::bit_width(uniq.size())) < nblocks) {
      std::sort(uniq.begin(), uniq.end());
    } else {
      uniq.clear();
      for (std::uint32_t b = 0; b < nblocks; ++b)
        if (stamp[b] == epoch) uniq.push_back(b);
    }
    // The sentinel takes the index past the last held cell.
    if (sk.cell_block.size() + uniq.size() >= npos)
      throw std::length_error("execution plan: more than 2^32-2 held cells");
    for (const std::uint32_t b : uniq) {
      cell_of[b] = static_cast<std::uint32_t>(sk.cell_block.size());
      sk.cell_block.push_back(b);
    }
    sk.cell_begin[rb + 1] = static_cast<std::uint32_t>(sk.cell_block.size());
    for (std::uint32_t i = received.begin[rb]; i < received.begin[rb + 1]; ++i) {
      const std::uint32_t j = received.order[i];
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k)
        sk.write_cell[k] = cell_of[ids[k]];
    }
    // A block the sender never holds reads the sentinel, whose index is
    // known once every rank's cells are: mark it and patch below.
    for (std::uint32_t i = sent.begin[rb]; i < sent.begin[rb + 1]; ++i) {
      const std::uint32_t j = sent.order[i];
      for (std::uint32_t k = sk.block_begin[j]; k < sk.block_begin[j + 1]; ++k)
        sk.read_cell[k] = stamp[ids[k]] == epoch ? cell_of[ids[k]] : npos;
    }
  }
  // The skeleton lives as long as its cache entry: drop the growth slack.
  sk.cell_block.shrink_to_fit();
  const auto sentinel = static_cast<std::uint32_t>(sk.cell_block.size());
  for (std::uint32_t& c : sk.read_cell)
    if (c == npos) c = sentinel;
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
    const sched::SizeFreeSchedule::StreamOp& send = sf.ops[sf.delivery_send[i]];
    sk.to.push_back(static_cast<std::int32_t>(sf.pair_to(send.pair)));
    sk.from.push_back(static_cast<std::int32_t>(sf.pair_from(send.pair)));
    for (const sched::BlockRange32& br : sf.row_ranges(send.row))
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
  // This step's recv_reduce deliveries by (receiver, sender), sorted: the
  // fusion pass below looks flows up in both directions.
  struct Flow {
    std::int32_t to, from;
    std::uint32_t j;
  };
  const auto by_pair = [](const Flow& a, const Flow& b) {
    return std::tie(a.to, a.from) < std::tie(b.to, b.from);
  };
  std::vector<Flow> flows;
  // The step's only recv_reduce delivery dst <- src, or npos when it has
  // none or several.
  const auto sole_flow = [&](std::int32_t dst, std::int32_t src) {
    const auto [lo, hi] =
        std::equal_range(flows.begin(), flows.end(), Flow{dst, src, 0}, by_pair);
    return hi - lo == 1 ? lo->j : npos;
  };
  for (size_t t = 0; t < steps; ++t) {
    const std::uint32_t ob = step_begin[t], oe = step_begin[t + 1];
    flows.clear();
    for (std::uint32_t j = ob; j < oe; ++j) {
      if (j == ob || to[j] != to[j - 1]) sk.run_begin.push_back(j);
      if (reduce[j]) flows.push_back({to[j], from[j], j});
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
    std::sort(flows.begin(), flows.end(), by_pair);
    for (std::uint32_t j = ob; j < oe; ++j) {
      if (!reduce[j] || sk.direct[j] || sk.fused[j] || to[j] > from[j]) continue;
      if (sole_flow(to[j], from[j]) != j) continue;
      const std::uint32_t j2 = sole_flow(from[j], to[j]);
      if (j2 == npos || sk.direct[j2] || sk.fused[j2]) continue;
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
    const std::uint32_t row = sf->ops[sf->delivery_send[i]].row;
    plan.op_bytes[i] =
        sched::ranges_elem_count(sf->row_ranges(row), n, sf->nblocks) * elem_size;
  }
  plan.keepalive = std::move(sf);
  plan.finalize_sizes();
  return plan;
}

}  // namespace bine::runtime
