#pragma once

#include <vector>

#include "core/nu.hpp"
#include "core/types.hpp"

/// Shared destination-set computations for Bine butterflies, used by the flat
/// butterfly collectives, the rooted aliased composites, and the torus and
/// hierarchical per-dimension variants.
///
/// In a distance-doubling Bine butterfly reduce-scatter over P = 2^s ranks,
/// rank r parts at step j with the relative destinations l whose nu(l) is
/// congruent to 2^j modulo 2^{j+1}, and keeps {l : nu(l) == 0 mod 2^{j+1}};
/// after s steps only l = 0 (its own block) remains. The allgather is the
/// exact time reversal. See DESIGN.md for the derivation.
namespace bine::coll::detail {

/// sent_rel[j] = relative destinations departing at reduce-scatter step j.
[[nodiscard]] inline std::vector<std::vector<i64>> dd_sent_rel(i64 P) {
  const int s = log2_exact(P);
  std::vector<std::vector<i64>> per_step(static_cast<size_t>(s));
  for (i64 l = 0; l < P; ++l) {
    const u64 v = core::nu(l, P);
    if (v == 0) continue;
    int j = 0;
    while (((v >> j) & 1) == 0) ++j;
    per_step[static_cast<size_t>(j)].push_back(l);
  }
  return per_step;
}

/// held_rel[i] = relative destinations a rank holds before allgather step i.
[[nodiscard]] inline std::vector<std::vector<i64>> dh_held_rel(i64 P) {
  const int s = log2_exact(P);
  std::vector<std::vector<i64>> per_step(static_cast<size_t>(s));
  for (i64 l = 0; l < P; ++l) {
    const u64 v = core::nu(l, P);
    for (int i = 0; i < s; ++i)
      if ((v & low_bits(s - i)) == 0) per_step[static_cast<size_t>(i)].push_back(l);
  }
  return per_step;
}

/// Physical destination of relative offset `l` for rank `r`: even ranks
/// extend one way, odd ranks the mirrored way (Sec. 3.1).
[[nodiscard]] constexpr i64 rel_to_dest(Rank r, i64 l, i64 P) noexcept {
  return pmod(r % 2 == 0 ? r + l : r - l, P);
}

}  // namespace bine::coll::detail
