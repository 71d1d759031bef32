#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/types.hpp"

/// Element-wise reduction operators with MPI semantics. All operators used by
/// the collectives are associative and commutative (MPI assumes associativity
/// by default, paper Sec. 2.1), which is what allows arbitrary tree shapes.
namespace bine::runtime {

enum class ReduceOp { sum, prod, min, max, band, bor, bxor };

/// Element types the verified execution paths are parameterized over
/// (harness::Runner::run_verified, exp::Backend::execute_verified). The cross
/// product with ReduceOp makes verified execution a first-class sweep mode
/// instead of a u32/sum special case.
enum class ElemType { u32, u64, f32, f64 };

[[nodiscard]] constexpr const char* to_string(ElemType t) noexcept {
  switch (t) {
    case ElemType::u32: return "u32";
    case ElemType::u64: return "u64";
    case ElemType::f32: return "f32";
    case ElemType::f64: return "f64";
  }
  return "?";
}

[[nodiscard]] constexpr i64 elem_size_of(ElemType t) noexcept {
  switch (t) {
    case ElemType::u32: return 4;
    case ElemType::u64: return 8;
    case ElemType::f32: return 4;
    case ElemType::f64: return 8;
  }
  return 4;
}

[[nodiscard]] constexpr const char* to_string(ReduceOp op) noexcept {
  switch (op) {
    case ReduceOp::sum: return "sum";
    case ReduceOp::prod: return "prod";
    case ReduceOp::min: return "min";
    case ReduceOp::max: return "max";
    case ReduceOp::band: return "band";
    case ReduceOp::bor: return "bor";
    case ReduceOp::bxor: return "bxor";
  }
  return "?";
}

/// Whether verified execution can check `op` over floating-point elements.
/// sum/min/max give identical bits in every reduction order over the
/// verifier's inputs; prod rounds order-dependently, and the bitwise ops are
/// undefined on floats (apply_one keeps its left operand, so the result
/// depends on fold order). Either would fail every correct algorithm.
[[nodiscard]] constexpr bool verifiable_over_floats(ReduceOp op) noexcept {
  return op == ReduceOp::sum || op == ReduceOp::min || op == ReduceOp::max;
}

namespace detail {
template <typename T>
[[nodiscard]] constexpr T apply_one(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::sum: return static_cast<T>(a + b);
    case ReduceOp::prod: return static_cast<T>(a * b);
    case ReduceOp::min: return std::min(a, b);
    case ReduceOp::max: return std::max(a, b);
    case ReduceOp::band:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a & b);
      return a;  // bitwise ops undefined on floating point; identity
    case ReduceOp::bor:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a | b);
      return a;
    case ReduceOp::bxor:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a ^ b);
      return a;
  }
  return a;
}
}  // namespace detail

/// accumulator[i] = op(accumulator[i], incoming[i])
///
/// The operator dispatch is hoisted out of the element loop: each case body
/// is a tight fixed-op loop the compiler can vectorize, which matters once
/// the compiled executor makes reduction the remaining per-element work of
/// large-vector execution.
template <typename T>
void reduce_into(ReduceOp op, std::span<T> accumulator, std::span<const T> incoming) {
  assert(accumulator.size() == incoming.size());
  const size_t n = accumulator.size();
  T* a = accumulator.data();
  const T* b = incoming.data();
  switch (op) {
    case ReduceOp::sum:
      for (size_t i = 0; i < n; ++i) a[i] = static_cast<T>(a[i] + b[i]);
      return;
    case ReduceOp::prod:
      for (size_t i = 0; i < n; ++i) a[i] = static_cast<T>(a[i] * b[i]);
      return;
    case ReduceOp::min:
      for (size_t i = 0; i < n; ++i) a[i] = std::min(a[i], b[i]);
      return;
    case ReduceOp::max:
      for (size_t i = 0; i < n; ++i) a[i] = std::max(a[i], b[i]);
      return;
    case ReduceOp::band:
    case ReduceOp::bor:
    case ReduceOp::bxor:
      for (size_t i = 0; i < n; ++i) a[i] = detail::apply_one(op, a[i], b[i]);
      return;
  }
}

/// a[i] = op(a[i], b[i]) and b[i] = op(b[i], a[i]) in one pass: both sides
/// of a symmetric sendrecv-reduce exchange, each with ITS OWN operand order.
/// Computing both directions (rather than one shared value) keeps the fused
/// path bit-identical to two directional reduce_into calls even where the
/// operator is not bit-commutative -- floating-point min/max ties on
/// +/-0.0, NaN operand-order propagation -- which the compiled executor's
/// parity contract requires. The fused full-vector butterfly exchanges of
/// recursive doubling run through this, eliminating their staging copy.
template <typename T>
void reduce_symmetric(ReduceOp op, std::span<T> a_span, std::span<T> b_span) {
  assert(a_span.size() == b_span.size());
  const size_t n = a_span.size();
  T* a = a_span.data();
  T* b = b_span.data();
  switch (op) {
    case ReduceOp::sum:
      for (size_t i = 0; i < n; ++i) {
        const T av = static_cast<T>(a[i] + b[i]);
        const T bv = static_cast<T>(b[i] + a[i]);
        a[i] = av;
        b[i] = bv;
      }
      return;
    case ReduceOp::prod:
      for (size_t i = 0; i < n; ++i) {
        const T av = static_cast<T>(a[i] * b[i]);
        const T bv = static_cast<T>(b[i] * a[i]);
        a[i] = av;
        b[i] = bv;
      }
      return;
    case ReduceOp::min:
      for (size_t i = 0; i < n; ++i) {
        const T av = std::min(a[i], b[i]);
        const T bv = std::min(b[i], a[i]);
        a[i] = av;
        b[i] = bv;
      }
      return;
    case ReduceOp::max:
      for (size_t i = 0; i < n; ++i) {
        const T av = std::max(a[i], b[i]);
        const T bv = std::max(b[i], a[i]);
        a[i] = av;
        b[i] = bv;
      }
      return;
    case ReduceOp::band:
    case ReduceOp::bor:
    case ReduceOp::bxor:
      for (size_t i = 0; i < n; ++i) {
        const T av = detail::apply_one(op, a[i], b[i]);
        const T bv = detail::apply_one(op, b[i], a[i]);
        a[i] = av;
        b[i] = bv;
      }
      return;
  }
}

}  // namespace bine::runtime
