#include "coll/alltoall_colls.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/butterfly.hpp"
#include "core/nu.hpp"

namespace bine::coll {

using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

namespace {

using sched::BlockRange;

/// The pairwise blocks one alltoall phase moves, relative to the sender: rank
/// r sends block s * p + d, s = (r + a) mod p and d = (r + c) mod p, for
/// every pattern pair (a, c). Pairs are grouped by source offset: `a`
/// ascending and distinct, group g's destination offsets
/// `c[c_begin[g] .. c_begin[g + 1])` ascending.
struct RelPattern {
  std::vector<i64> a;
  std::vector<std::uint32_t> c_begin{0};
  std::vector<i64> c;
};

/// The pattern of `pairs`, each (a, c) in [0, p)^2 and distinct.
RelPattern pattern_of(std::vector<std::pair<i64, i64>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  RelPattern pat;
  for (const auto& [a, c] : pairs) {
    if (pat.a.empty() || pat.a.back() != a) {
      pat.a.push_back(a);
      pat.c_begin.push_back(pat.c_begin.back());
    }
    pat.c.push_back(c);
    ++pat.c_begin.back();
  }
  return pat;
}

/// Rank r's sorted pairwise ranges of `pat`, written to `out`: a rotation by
/// r of the sources, and within each source of the destinations, so the
/// offsets pushed past p come first. Linear in the output.
void translated_blocks(const RelPattern& pat, Rank r, i64 p, std::vector<BlockRange>& out) {
  out.clear();
  const auto emit_group = [&](size_t g) {
    const i64 src_base = pmod(pat.a[g] + r, p) * p;
    const i64* first = pat.c.data() + pat.c_begin[g];
    const i64* last = pat.c.data() + pat.c_begin[g + 1];
    const i64* wrapped = std::lower_bound(first, last, p - r);
    for (const i64* c = wrapped; c < last; ++c) out.push_back({src_base + *c + r - p, 1});
    for (const i64* c = first; c < wrapped; ++c) out.push_back({src_base + *c + r, 1});
  };
  const auto g0 =
      static_cast<size_t>(std::lower_bound(pat.a.begin(), pat.a.end(), p - r) - pat.a.begin());
  for (size_t g = g0; g < pat.a.size(); ++g) emit_group(g);
  for (size_t g = 0; g < g0; ++g) emit_group(g);
}

}  // namespace

Schedule alltoall_bruck(const Config& cfg) {
  Schedule sch =
      make_base(Collective::alltoall, cfg, "alltoall_bruck", sched::BlockSpace::pairwise);
  const i64 p = cfg.p;
  // Block (s, d) starts at rank s at offset (d - s) mod p and hops +2^k at
  // phase k for every set bit k of that offset. Before phase k it sits t =
  // offset mod 2^k ranks past s, so rank r moves the blocks (r - t, r + j)
  // for t < 2^k and j an odd multiple of 2^k with t + j < p.
  std::vector<BlockRange> pieces;
  size_t step = 0;
  for (i64 dist = 1; dist < p; dist <<= 1, ++step) {
    std::vector<std::pair<i64, i64>> pairs;
    for (i64 t = 0; t < dist; ++t)
      for (i64 j = dist; t + j < p; j += 2 * dist) pairs.push_back({pmod(-t, p), j});
    const RelPattern pat = pattern_of(std::move(pairs));
    for (Rank r = 0; r < p; ++r) {
      translated_blocks(pat, r, p, pieces);
      BlockSet blocks = sched::blockset_from_ranges(pieces, sch.nblocks, sch.arena());
      const i64 segs = blocks.block_count();  // store-and-forward packs per block
      sch.add_exchange(step, r, pmod(r + dist, p), std::move(blocks), false, segs);
    }
  }
  return sch;
}

Schedule alltoall_bine(const Config& cfg) {
  if (!is_pow2(cfg.p))
    throw std::invalid_argument("alltoall_bine requires a power-of-two rank count");
  Schedule sch =
      make_base(Collective::alltoall, cfg, "alltoall_bine", sched::BlockSpace::pairwise);
  const i64 p = cfg.p;
  const int s = log2_exact(p);

  // Route plan: a block with relative destination l (l = dest - src for even
  // src, src - dest for odd src) hops over the bine_dd butterfly at exactly
  // the phases named by the set bits of nu(l). Each hop flips the holder's
  // parity and so the sign of the next step's distance: after the hops named
  // by the bits b of nu(l) below k, the block sits A(b) = dist_0 - dist_1 +
  // ... (the alternating sum of those steps' distances) past its source,
  // mirrored for odd sources. Appendix A's identity makes the full sum land
  // on the destination.
  const auto alternating = [](u64 bits) {
    i64 sum = 0, sign = 1;
    for (int i = 0; bits != 0; ++i, bits >>= 1)
      if (bits & 1) {
        sum += sign * core::negabinary_ones_value(i + 1);
        sign = -sign;
      }
    return sum;
  };
  assert([&] {
    for (i64 l = 0; l < p; ++l)
      if (pmod(alternating(core::nu(l, p)) - l, p) != 0) return false;
    return true;
  }() && "bine alltoall routing failed");

  std::vector<BlockRange> pieces;
  for (int k = 0; k < s; ++k) {
    // An even rank moves, for every l with bit k of nu(l) set, the block of
    // the source A(b) behind it when an even number of hops brought it
    // (an even source), else of the odd source A(b) ahead; odd ranks mirror.
    std::vector<std::pair<i64, i64>> even, odd;
    for (i64 l = 0; l < p; ++l) {
      const u64 v = core::nu(l, p);
      if (((v >> k) & 1) == 0) continue;
      const u64 before = v & low_bits(k);
      const i64 A = alternating(before);
      const bool even_source = std::popcount(before) % 2 == 0;
      const i64 a = even_source ? -A : A;
      const i64 c = even_source ? l - A : A - l;
      even.push_back({pmod(a, p), pmod(c, p)});
      odd.push_back({pmod(-a, p), pmod(-c, p)});
    }
    const RelPattern pats[2] = {pattern_of(std::move(even)), pattern_of(std::move(odd))};
    for (Rank r = 0; r < p; ++r) {
      translated_blocks(pats[r % 2], r, p, pieces);
      BlockSet blocks = sched::blockset_from_ranges(pieces, sch.nblocks, sch.arena());
      const i64 segs = blocks.block_count();
      sch.add_exchange(static_cast<size_t>(k), r,
                       core::butterfly_partner(core::ButterflyVariant::bine_dd, r, k, p),
                       std::move(blocks), false, segs);
    }
  }
  return sch;
}

Schedule alltoall_pairwise(const Config& cfg) {
  Schedule sch = make_base(Collective::alltoall, cfg, "alltoall_pairwise",
                           sched::BlockSpace::pairwise);
  for (i64 t = 1; t < cfg.p; ++t)
    for (Rank r = 0; r < cfg.p; ++r) {
      const Rank q = pmod(r + t, cfg.p);
      sch.add_exchange(static_cast<size_t>(t - 1), r, q, BlockSet::single(r * cfg.p + q),
                       false);
    }
  return sch;
}

Schedule allgather_bruck(const Config& cfg) {
  Schedule sch =
      make_base(Collective::allgather, cfg, "allgather_bruck", sched::BlockSpace::per_vector);
  const i64 p = cfg.p;
  // Rank r accumulates the circular run [r, r + have); sends it backwards to
  // r - dist, doubling `have` (capping the final partial round).
  size_t step = 0;
  i64 have = 1;
  for (i64 dist = 1; dist < p; dist <<= 1, ++step) {
    const i64 send_count = std::min(have, p - have);
    for (Rank r = 0; r < p; ++r) {
      const Rank q = pmod(r - dist, p);
      sch.add_exchange(step, r, q, BlockSet::run(r, send_count), false);
    }
    have += send_count;
  }
  return sch;
}

}  // namespace bine::coll
