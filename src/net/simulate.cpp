#include "net/simulate.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace bine::net {

// --- reference engine (naive oracle) -------------------------------------------

TrafficStats measure_traffic_reference(const sched::Schedule& sch, const Topology& topo,
                                       const Placement& pl) {
  TrafficStats stats;
  std::vector<i64> path;
  for (const sched::Exchange& x : sch.exchanges()) {
    ++stats.messages;
    const i64 bytes = sch.bytes_of(x.blocks);
    path.clear();
    topo.route(pl.node_of_rank[static_cast<size_t>(x.from)],
               pl.node_of_rank[static_cast<size_t>(x.to)], path);
    for (const i64 link : path) {
      switch (topo.links()[static_cast<size_t>(link)].cls) {
        case LinkClass::local: stats.local_bytes += bytes; break;
        case LinkClass::global: stats.global_bytes += bytes; break;
        case LinkClass::intra_node: stats.intra_node_bytes += bytes; break;
      }
    }
  }
  return stats;
}

SimResult simulate_reference(const sched::Schedule& sch, const Topology& topo,
                             const Placement& pl, const CostParams& cp) {
  SimResult result;
  result.traffic = measure_traffic_reference(sch, topo, pl);
  result.steps = sch.num_steps();

  std::vector<i64> path;
  // Reused per step: link id -> accumulated bytes (sparse).
  std::unordered_map<i64, i64> link_bytes;
  double max_rank_overhead = 0;
  double overhead = 0;
  Rank cur_rank = -1;
  sched::for_each_op_step_major(
      sch, result.steps,
      [&](Rank r, const sched::Op& op) {
        if (r != cur_rank) {  // ops arrive rank-grouped within a step
          max_rank_overhead = std::max(max_rank_overhead, overhead);
          overhead = 0;
          cur_rank = r;
        }
        switch (op.kind) {
          case sched::OpKind::send: {
            const i64 bytes = sch.op_bytes(op);
            path.clear();
            topo.route(pl.node_of_rank[static_cast<size_t>(r)],
                       pl.node_of_rank[static_cast<size_t>(op.peer)], path);
            bool crosses_global = false;
            for (const i64 link : path) {
              link_bytes[link] += bytes;
              crosses_global |=
                  topo.links()[static_cast<size_t>(link)].cls == LinkClass::global;
            }
            overhead += (crosses_global ? cp.alpha_global : cp.alpha_local) +
                        static_cast<double>(std::max<i64>(0, op.segments - 1)) *
                            cp.seg_overhead;
            break;
          }
          case sched::OpKind::recv:
            break;  // latency accounted on the sender side
          case sched::OpKind::recv_reduce:
            overhead += static_cast<double>(sch.op_bytes(op)) / cp.reduce_bandwidth;
            break;
          case sched::OpKind::local_perm:
            overhead += static_cast<double>(sch.op_bytes(op)) / cp.mem_bandwidth +
                        static_cast<double>(std::max<i64>(0, op.segments - 1)) *
                            cp.seg_overhead;
            break;
        }
      },
      [&](size_t) {
        max_rank_overhead = std::max(max_rank_overhead, overhead);
        double max_link_time = 0;
        for (const auto& [link, bytes] : link_bytes)
          max_link_time =
              std::max(max_link_time, static_cast<double>(bytes) /
                                          topo.links()[static_cast<size_t>(link)].bandwidth);
        result.seconds += max_link_time + max_rank_overhead;
        link_bytes.clear();
        max_rank_overhead = 0;
        overhead = 0;
        cur_rank = -1;
      });
  return result;
}

// --- scalar oracle ---------------------------------------------------------------

namespace {

/// Exact per-class accounting of one send via the cache's hop counts.
inline void accumulate_send(TrafficStats& stats, const RouteCache::ClassHops& h, i64 b) {
  ++stats.messages;
  stats.local_bytes += static_cast<i64>(h.local) * b;
  stats.global_bytes += static_cast<i64>(h.global) * b;
  stats.intra_node_bytes += static_cast<i64>(h.intra_node) * b;
}

}  // namespace

SimResult simulate(const sched::Schedule& sch, const RouteCache& rc, const CostParams& cp) {
  assert(sch.p == rc.num_ranks());
  SimResult result;
  result.steps = sch.num_steps();

  // Per-link byte accumulators; each step visits and resets only the links
  // it touched. A step's link time is a max over non-negative finite terms,
  // so the visiting order never changes a bit of the result.
  std::vector<i64> link_bytes(static_cast<size_t>(rc.num_links()), 0);
  std::vector<i64> touched;
  std::vector<i64> path;  // route() scratch
  const std::span<const double> inv_bw = rc.inv_bandwidth();
  const double inv_reduce_bw = 1.0 / cp.reduce_bandwidth;
  const double inv_mem_bw = 1.0 / cp.mem_bandwidth;

  double max_rank_overhead = 0;
  double overhead = 0;
  Rank cur_rank = -1;
  sched::for_each_op_step_major(
      sch, result.steps,
      [&](Rank r, const sched::Op& op) {
        if (op.kind == sched::OpKind::recv) return;  // cost-free in the model
        if (r != cur_rank) {  // ops arrive rank-grouped within a step
          max_rank_overhead = std::max(max_rank_overhead, overhead);
          overhead = 0;
          cur_rank = r;
        }
        const i64 b = sch.op_bytes(op);
        const double extra_segs =
            static_cast<double>(sched::lowered_extra_segments(op.segments));
        switch (op.kind) {
          case sched::OpKind::send: {
            const RouteCache::Route route = rc.route(r, op.peer, path);
            accumulate_send(result.traffic, route.hops, b);
            for (const i64 link : route.links) {
              if (link_bytes[static_cast<size_t>(link)] == 0) touched.push_back(link);
              link_bytes[static_cast<size_t>(link)] += b;
            }
            overhead += (route.hops.global > 0 ? cp.alpha_global : cp.alpha_local) +
                        extra_segs * cp.seg_overhead;
            break;
          }
          case sched::OpKind::recv:
            break;  // skipped above
          case sched::OpKind::recv_reduce:
            overhead += static_cast<double>(b) * inv_reduce_bw;
            break;
          case sched::OpKind::local_perm:
            overhead += static_cast<double>(b) * inv_mem_bw + extra_segs * cp.seg_overhead;
            break;
        }
      },
      [&](size_t) {
        max_rank_overhead = std::max(max_rank_overhead, overhead);
        double max_link_time = 0;
        for (const i64 link : touched) {
          i64& lb = link_bytes[static_cast<size_t>(link)];
          max_link_time = std::max(max_link_time,
                                   static_cast<double>(lb) * inv_bw[static_cast<size_t>(link)]);
          lb = 0;
        }
        touched.clear();
        result.seconds += max_link_time + max_rank_overhead;
        max_rank_overhead = 0;
        overhead = 0;
        cur_rank = -1;
      });
  return result;
}

// --- size-batched engine --------------------------------------------------------

namespace {

using StreamOp = sched::SizeFreeSchedule::StreamOp;
using Entry = sched::SizeFreeSchedule;

/// Per-thread scratch arena for the size-batched engine. Sweeps call it
/// once per schedule from long-lived pool threads, so reusing the vectors
/// turns dozens of heap round-trips per call into plain resizes.
struct SimScratch {
  std::vector<i64> full_bytes, base, rem;  // per-size geometry, padded
  std::vector<i64> rowvals;                // evaluated byte rows
  PairRouteMemo::Rows rows;                // resolved rows; route CSR remapped
  std::vector<double> pair_alpha;          // per schedule-local pair
  std::vector<std::uint32_t> cslot_of;     // scope slot -> schedule slot
  std::vector<std::uint32_t> cslot_ids;    // schedule slots, first-touch order
  std::vector<double> ib_c;                // per schedule slot, 1/bandwidth
  std::vector<i64> acc;
  std::vector<double> seconds;
  std::vector<i64> local_b, global_b, intra_b;

  template <typename F>
  void each(F&& f) {
    f(full_bytes); f(base); f(rem); f(rowvals); f(rows.route_off); f(rows.route_len);
    f(rows.route_slots); f(rows.hops); f(rows.crosses_global); f(rows.slot_link);
    f(pair_alpha); f(cslot_of); f(cslot_ids); f(ib_c); f(acc); f(seconds);
    f(local_b); f(global_b); f(intra_b);
  }

  [[nodiscard]] size_t resident_bytes() {
    size_t bytes = 0;
    each([&](const auto& v) { bytes += v.capacity() * sizeof(v[0]); });
    return bytes;
  }

  void trim() {
    // Release capacity pinned by an earlier outsized schedule once a small
    // call shows the arena no longer needs it. A call that used the space it
    // holds keeps it -- freeing hot scratch would re-fault it next call.
    // Every buffer is refilled per call (cslot_of regrows all-kNoSlot), so
    // releasing them all is safe.
    constexpr size_t kCapBytes = size_t{1} << 23;
    size_t used = 0;
    each([&](const auto& v) { used += v.size() * sizeof(v[0]); });
    if (used > kCapBytes / 2 || resident_bytes() <= kCapBytes) return;
    each([](auto& v) { std::decay_t<decltype(v)>().swap(v); });
  }
};

/// Inputs of the fused schedule stream: the entry's op stream and byte
/// rows, pair-level route/latency tables, and the per-size byte geometry.
/// There is no op-major bytes array and no per-op route table -- ops reach
/// the pair rows through their pair id and read their wire bytes from the
/// entry's distinct byte rows as they stream.
struct StreamCtx {
  const Entry* sf;
  i64* rows;                           ///< evaluated rows, num_rows tiles of W
  const std::uint32_t* pair_route_off; ///< per local pair, into route_slots
  const std::uint32_t* pair_route_len;
  const std::uint32_t* route_slots;    ///< pair CSR over schedule slots
  const double* pair_alpha;            ///< per schedule-local pair
  const RouteCache::ClassHops* pair_hops;
  size_t num_slots = 0;                ///< schedule slots (ever touched)
  const double* slot_inv_bw;           ///< per schedule slot
  const i64* full_bytes;  ///< per-size geometry, padded to the window grid
  const i64* base;
  const i64* rem;
  i64 elem_size = 0;
  double seg_overhead = 0;
  double inv_reduce_bw = 0;
  double inv_mem_bw = 0;
  i64* acc;               ///< num_slots tiles of W, zeroed by the caller
  double* seconds;        ///< outputs, written at [off, off+W)
  i64* local_b;
  i64* global_b;
  i64* intra_b;
};

/// Fused per-schedule pass for the W size lanes at window offset `off`:
/// one walk over the op stream does byte resolution, latency constants, link
/// accumulation and the per-step reductions together, with every per-lane
/// accumulator in a fixed-size stack tile the autovectorizer turns into
/// straight vector code. W covers the whole practical size axis (up to 32
/// lanes per window), so the op arrays, byte rows and route CSR are touched
/// once per op per cell. Lane s runs exactly the arithmetic the scalar
/// oracle runs on the schedule generated at size s: byte rows are the i64
/// closed form of ranges_elem_count, the op constants are the oracle's
/// double expressions term for term, and each lane's FP accumulation order
/// is the oracle's (ops outer, flushed at rank boundaries) -- lanes never
/// mix -- so results are bitwise identical to it.
template <size_t W>
void stream_schedule(const StreamCtx& cx, size_t off) {
  const Entry& sf = *cx.sf;
  const sched::BlockRange32* ranges = sf.ranges.data();
  const std::uint32_t* row_begin = sf.row_begin.data();
  const i64 B = sf.nblocks;
  const i64* full_bytes = cx.full_bytes + off;
  const i64* base = cx.base + off;
  const i64* rem = cx.rem + off;
  const i64 elem_size = cx.elem_size;
  // Hoist every context field into a local: accumulator stores through acc
  // would otherwise force the compiler to re-load same-typed context members
  // (they could alias an i64 behind the struct) on every op.
  const StreamOp* const ops = sf.ops.data();
  const std::uint32_t* const step_begin = sf.step_begin.data();
  const std::uint32_t* const pair_route_off = cx.pair_route_off;
  const std::uint32_t* const pair_route_len = cx.pair_route_len;
  const std::uint32_t* const route_slots = cx.route_slots;
  const double* const pair_alpha = cx.pair_alpha;
  const RouteCache::ClassHops* const pair_hops = cx.pair_hops;
  const size_t num_slots = cx.num_slots;
  const double* const slot_inv_bw = cx.slot_inv_bw;
  const double seg_overhead = cx.seg_overhead;
  const double inv_reduce_bw = cx.inv_reduce_bw;
  const double inv_mem_bw = cx.inv_mem_bw;
  i64* const acc = cx.acc;

  // Evaluate the entry's distinct byte rows for this window: the only place
  // the block ranges are touched. Everything after streams row loads.
  // ranges_elem_count(rs, n, B) decomposes exactly as C*(n/B) + R(n%B): C is
  // the total covered block count and R(rem) sums, over the *unwrapped*
  // sub-runs [lo, hi) each range splits into, the ids below rem:
  // max(0, min(hi, rem) - lo). All-i64, so each row holds precisely what
  // Schedule::op_bytes gives at that size; pad lanes (base = rem = 0) come
  // out 0. One walk per row accumulates the count total and the clamp terms
  // together (i64 addition reassociates exactly).
  i64* const rows = cx.rows;
  const size_t num_rows = sf.num_rows();
  for (size_t row = 0; row < num_rows; ++row) {
    i64 c = 0;
    i64 cl[W] = {};
    for (std::uint32_t r = row_begin[row]; r < row_begin[row + 1]; ++r) {
      const i64 lo = ranges[r].begin, cnt = ranges[r].count;
      c += cnt;
      const i64 head = std::min(cnt, B - lo);
      const i64 hi = lo + head;
      for (size_t s = 0; s < W; ++s)
        cl[s] += std::max<i64>(0, std::min(hi, rem[s]) - lo);
      const i64 tail = cnt - head;  // wrapped part, restarting at block 0
      if (tail > 0)
        for (size_t s = 0; s < W; ++s) cl[s] += std::min(tail, rem[s]);
    }
    i64* b = rows + row * W;
    for (size_t s = 0; s < W; ++s) b[s] = (c * base[s] + cl[s]) * elem_size;
  }

  double sec[W] = {};
  i64 lb[W] = {}, gb[W] = {}, ib2[W] = {};
  for (size_t t = 0; t < sf.steps; ++t) {
    double ov[W] = {}, max_ov[W] = {}, max_link[W] = {};
    for (std::uint32_t j = step_begin[t]; j < step_begin[t + 1]; ++j) {
      const StreamOp& o = ops[j];
      if (o.flags & StreamOp::kBoundary) {  // first op of a rank group: flush
        for (size_t s = 0; s < W; ++s) max_ov[s] = std::max(max_ov[s], ov[s]);
        for (size_t s = 0; s < W; ++s) ov[s] = 0.0;
      }
      switch (o.kind()) {
        case sched::OpKind::send: {
          const i64* b = rows + static_cast<size_t>(o.row) * W;
          const std::uint32_t pid = o.pair;
          const RouteCache::ClassHops& h = pair_hops[pid];
          // Skipping a zero-hop class skips i64 adds of zero: exact.
          if (h.local) {
            const i64 m = h.local;
            for (size_t s = 0; s < W; ++s) lb[s] += m * b[s];
          }
          if (h.global) {
            const i64 m = h.global;
            for (size_t s = 0; s < W; ++s) gb[s] += m * b[s];
          }
          if (h.intra_node) {
            const i64 m = h.intra_node;
            for (size_t s = 0; s < W; ++s) ib2[s] += m * b[s];
          }
          const std::uint32_t ru0 = pair_route_off[pid];
          for (std::uint32_t u = ru0; u < ru0 + pair_route_len[pid]; ++u) {
            const std::uint32_t slot = route_slots[u];
            i64* a = acc + static_cast<size_t>(slot) * W;
            for (size_t s = 0; s < W; ++s) a[s] += b[s];
          }
          const double c = pair_alpha[pid] +
                           static_cast<double>(o.extra) * seg_overhead;
          for (size_t s = 0; s < W; ++s) ov[s] += c;
          break;
        }
        case sched::OpKind::recv_reduce: {
          const i64* b = rows + static_cast<size_t>(o.row) * W;
          for (size_t s = 0; s < W; ++s)
            ov[s] += static_cast<double>(b[s]) * inv_reduce_bw;
          break;
        }
        default: {  // local_perm (never a plain recv): the whole vector
          const double c = static_cast<double>(o.extra) * seg_overhead;
          for (size_t s = 0; s < W; ++s)
            ov[s] += static_cast<double>(full_bytes[s]) * inv_mem_bw + c;
          break;
        }
      }
    }
    for (size_t s = 0; s < W; ++s) max_ov[s] = std::max(max_ov[s], ov[s]);

    // Dense max-reduce over the schedule's slot table: every slot this
    // schedule ever sends through is scanned each step, sequentially and
    // branch-free. That removes the per-visit touch bookkeeping from the
    // send loop above and the gather through a touched list here. A slot
    // idle this step holds 0, contributing +0.0 to a max over non-negative
    // finite terms -- bitwise the same result as the oracle's touched-only
    // reduce. The clear restores the tiles to zero for the next step.
    for (size_t slot = 0; slot < num_slots; ++slot) {
      const double ib = slot_inv_bw[slot];
      i64* a = acc + slot * W;
      for (size_t s = 0; s < W; ++s)
        max_link[s] = std::max(max_link[s], static_cast<double>(a[s]) * ib);
      for (size_t s = 0; s < W; ++s) a[s] = 0;
    }
    for (size_t s = 0; s < W; ++s) sec[s] += max_link[s] + max_ov[s];
  }
  for (size_t s = 0; s < W; ++s) cx.seconds[off + s] = sec[s];
  for (size_t s = 0; s < W; ++s) cx.local_b[off + s] = lb[s];
  for (size_t s = 0; s < W; ++s) cx.global_b[off + s] = gb[s];
  for (size_t s = 0; s < W; ++s) cx.intra_b[off + s] = ib2[s];
}

SimScratch& thread_sim_scratch() {
  static thread_local SimScratch sc;
  return sc;
}

}  // namespace

std::vector<SimResult> simulate(const sched::SizeFreeSchedule& sf,
                                std::span<const i64> elem_counts, i64 elem_size,
                                const RouteCache& rc, const CostParams& cp,
                                PairRouteMemo& memo) {
  assert(sf.p == rc.num_ranks());
  const size_t S = elem_counts.size();
  if (S == 0) return {};

  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  SimScratch& sc = thread_sim_scratch();

  // Window width: one register-tiled window covers the whole size axis for
  // every practical grid (tuner grids and sweep plans are <= 32 sizes), so
  // the op stream is walked once per schedule; longer axes fall back to
  // 32-lane windows.
  const size_t W = S <= 2 ? 2 : S <= 4 ? 4 : S <= 8 ? 8 : S <= 16 ? 16 : 32;
  const size_t P = (S + W - 1) / W * W;

  // Route rows for the schedule's own pairs, in its pair order (the memo
  // copies rows out in key order), so pair ids index them directly.
  memo.resolve(rc, sf.pair_keys, sc.rows);

  // Remap the route CSR in place from scope slots to dense schedule slots in
  // first-touch order. Slot order is free: the per-step link reduction is a
  // max over non-negative finite terms (order-independent bitwise) and byte
  // accumulation is exact i64. Cost is O(pairs x route length) -- pair
  // counts are orders of magnitude below op counts -- and it buys the stream
  // a branch-free inner loop: no touch bookkeeping per route visit, and a
  // sequential max-reduce over exactly the slots this schedule can touch.
  // cslot_of is all-kNoSlot between calls (reset through cslot_ids below);
  // growing with resize preserves that for entries carried over.
  if (sc.cslot_of.size() < sc.rows.num_scope_slots())
    sc.cslot_of.resize(sc.rows.num_scope_slots(), kNoSlot);
  const std::span<const double> inv_bandwidth = rc.inv_bandwidth();
  sc.cslot_ids.clear();
  sc.ib_c.clear();
  for (std::uint32_t& v : sc.rows.route_slots) {
    std::uint32_t& cslot = sc.cslot_of[v];
    if (cslot == kNoSlot) {
      cslot = static_cast<std::uint32_t>(sc.cslot_ids.size());
      sc.cslot_ids.push_back(v);
      sc.ib_c.push_back(inv_bandwidth[static_cast<size_t>(sc.rows.slot_link[v])]);
    }
    v = cslot;
  }
  for (const std::uint32_t v : sc.cslot_ids) sc.cslot_of[v] = kNoSlot;
  const size_t npairs = sf.pair_keys.size();
  sc.pair_alpha.resize(npairs);
  for (size_t k = 0; k < npairs; ++k)
    sc.pair_alpha[k] = sc.rows.crosses_global[k] ? cp.alpha_global : cp.alpha_local;
  const size_t num_slots = sc.cslot_ids.size();
  sc.acc.assign(num_slots * W, 0);  // accumulator tiles; each step clears its own

  // Per-size geometry: block space and nblocks shape it, the arithmetic
  // Schedule::op_bytes runs at each size.
  const i64 B = sf.nblocks;
  sc.full_bytes.assign(P, 0);
  sc.base.assign(P, 0);
  sc.rem.assign(P, 0);
  for (size_t s = 0; s < S; ++s) {
    const i64 n = sf.space == sched::BlockSpace::pairwise ? elem_counts[s] * sf.p
                                                          : elem_counts[s];
    sc.full_bytes[s] = n * elem_size;
    sc.base[s] = n / B;
    sc.rem[s] = n % B;
  }

  sc.seconds.resize(P);
  sc.local_b.resize(P);
  sc.global_b.resize(P);
  sc.intra_b.resize(P);
  sc.rowvals.resize(sf.num_rows() * W);
  StreamCtx cx;
  cx.sf = &sf;
  cx.rows = sc.rowvals.data();
  cx.pair_route_off = sc.rows.route_off.data();
  cx.pair_route_len = sc.rows.route_len.data();
  cx.route_slots = sc.rows.route_slots.data();
  cx.pair_alpha = sc.pair_alpha.data();
  cx.pair_hops = sc.rows.hops.data();
  cx.num_slots = num_slots;
  cx.slot_inv_bw = sc.ib_c.data();
  cx.full_bytes = sc.full_bytes.data();
  cx.base = sc.base.data();
  cx.rem = sc.rem.data();
  cx.elem_size = elem_size;
  cx.seg_overhead = cp.seg_overhead;
  cx.inv_reduce_bw = 1.0 / cp.reduce_bandwidth;
  cx.inv_mem_bw = 1.0 / cp.mem_bandwidth;
  cx.acc = sc.acc.data();
  cx.seconds = sc.seconds.data();
  cx.local_b = sc.local_b.data();
  cx.global_b = sc.global_b.data();
  cx.intra_b = sc.intra_b.data();
  const auto run_windows = [&](auto width) {
    constexpr size_t kW = decltype(width)::value;
    for (size_t off = 0; off < P; off += kW) stream_schedule<kW>(cx, off);
  };
  switch (W) {
    case 2: run_windows(std::integral_constant<size_t, 2>{}); break;
    case 4: run_windows(std::integral_constant<size_t, 4>{}); break;
    case 8: run_windows(std::integral_constant<size_t, 8>{}); break;
    case 16: run_windows(std::integral_constant<size_t, 16>{}); break;
    default: run_windows(std::integral_constant<size_t, 32>{}); break;
  }

  // Every exchange sends once and delivers once.
  const auto messages = static_cast<i64>(sf.num_deliveries());
  std::vector<SimResult> results(S);
  for (size_t s = 0; s < S; ++s) {
    results[s].seconds = sc.seconds[s];
    results[s].steps = sf.steps;
    results[s].traffic = {sc.local_b[s], sc.global_b[s], sc.intra_b[s], messages};
  }
  sc.trim();
  return results;
}

/// Testing hook (scratch-arena hygiene): resident capacity of this thread's
/// size-batched scratch, so the trim regression test can observe that a
/// huge schedule's spike is released once small ones follow.
size_t sim_scratch_resident_bytes() { return thread_sim_scratch().resident_bytes(); }

// --- Schedule-level conveniences -----------------------------------------------

namespace {

/// The conveniences route through `pl` and `topo` by index, so a placement
/// shorter than the schedule or one naming a node off the topology is
/// rejected before any lookup.
void check_placement(const sched::Schedule& sch, const Topology& topo,
                     const Placement& pl) {
  if (static_cast<i64>(pl.node_of_rank.size()) < sch.p)
    throw std::invalid_argument("placement covers " +
                                std::to_string(pl.node_of_rank.size()) +
                                " ranks, schedule has " + std::to_string(sch.p));
  for (Rank r = 0; r < sch.p; ++r) {
    const i64 node = pl.node_of_rank[static_cast<size_t>(r)];
    if (node < 0 || node >= topo.num_nodes())
      throw std::invalid_argument("placement puts rank " + std::to_string(r) +
                                  " on node " + std::to_string(node) + " of " +
                                  std::to_string(topo.num_nodes()));
  }
}

}  // namespace

TrafficStats measure_traffic(const sched::Schedule& sch, const Topology& topo,
                             const Placement& pl) {
  return simulate(sch, topo, pl, CostParams{}).traffic;
}

SimResult simulate(const sched::Schedule& sch, const Topology& topo, const Placement& pl,
                   const CostParams& cp) {
  check_placement(sch, topo, pl);
  return simulate(sch, RouteCache(topo, pl), cp);
}

i64 inter_group_bytes(const sched::Schedule& sch, std::span<const i64> group_of_rank) {
  i64 total = 0;
  for (const sched::Exchange& x : sch.exchanges())
    if (group_of_rank[static_cast<size_t>(x.from)] != group_of_rank[static_cast<size_t>(x.to)])
      total += sch.bytes_of(x.blocks);
  return total;
}

}  // namespace bine::net
