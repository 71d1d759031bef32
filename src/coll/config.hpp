#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "sched/schedule.hpp"

/// Shared configuration for all schedule generators.
namespace bine::coll {

struct Config {
  i64 p = 0;           ///< number of ranks (any p >= 1; power of two fast path)
  i64 elem_count = 0;  ///< vector length in elements (collective convention: see DESIGN.md)
  i64 elem_size = 4;   ///< bytes per element (paper uses 32-bit integers)
  Rank root = 0;       ///< root for rooted collectives
  /// Torus shape for the Appendix D algorithms (product must equal p);
  /// empty = derive a near-cubic factorization.
  std::vector<i64> torus_dims;
};

/// Near-cubic factorization of p for torus algorithms when no shape is given
/// (prefers three balanced power-of-two dimensions).
[[nodiscard]] inline std::vector<i64> default_torus_dims(i64 p) {
  std::vector<i64> dims;
  if (is_pow2(p)) {
    int s = log2_exact(p);
    const int ndims = s >= 3 ? 3 : (s >= 1 ? s : 1);
    for (int d = 0; d < ndims; ++d) {
      const int remaining_dims = ndims - d;
      const int share = (s + remaining_dims - 1) / remaining_dims;
      dims.push_back(i64{1} << share);
      s -= share;
    }
  } else {
    dims.push_back(p);  // fall back to a 1D ring
  }
  return dims;
}

/// Largest power of two <= p (p' of Appendix C).
[[nodiscard]] constexpr i64 pow2_floor(i64 p) noexcept {
  return i64{1} << floor_log2(p);
}

/// Fresh, empty schedule for `cfg`.
[[nodiscard]] inline sched::Schedule make_base(sched::Collective coll, const Config& cfg,
                                               std::string algorithm,
                                               sched::BlockSpace space) {
  sched::Schedule s;
  s.coll = coll;
  s.algorithm = std::move(algorithm);
  s.p = cfg.p;
  s.space = space;
  s.nblocks = space == sched::BlockSpace::pairwise ? cfg.p * cfg.p : cfg.p;
  s.elem_count = cfg.elem_count;
  s.elem_size = cfg.elem_size;
  s.root = cfg.root;
  return s;
}

}  // namespace bine::coll
