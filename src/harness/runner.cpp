#include "harness/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "core/fnv.hpp"
#include "net/simulate.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/verify.hpp"

namespace bine::harness {

using sched::Collective;

std::vector<i64> paper_vector_sizes(bool full) {
  // 32 B, 256 B, 2 KiB, 16 KiB, 128 KiB, 1 MiB, 8 MiB, 64 MiB, 512 MiB.
  std::vector<i64> sizes = {32, 256, 2048, 16384, 131072, 1048576, 8388608};
  if (full) {
    sizes.push_back(67108864);
    sizes.push_back(536870912);
  }
  return sizes;
}

std::string size_label(i64 bytes) {
  if (bytes >= (i64{1} << 30)) return std::to_string(bytes >> 30) + " GiB";
  if (bytes >= (i64{1} << 20)) return std::to_string(bytes >> 20) + " MiB";
  if (bytes >= (i64{1} << 10)) return std::to_string(bytes >> 10) + " KiB";
  return std::to_string(bytes) + " B";
}

Runner::Runner(net::SystemProfile profile, bool spread_placement, u64 seed)
    : profile_(std::move(profile)),
      spread_placement_(spread_placement),
      seed_(seed) {
  // Fault model: profile-attached spec wins; otherwise BINE_FAULT_SPEC lets
  // the CI fault-injection job degrade every Runner in a process without
  // touching call sites. Trivial specs are dropped here, so every fault
  // branch below keys off a single null check -- the zero-fault parity
  // contract (a trivial spec is bit-identical to no spec).
  auto spec = profile_.faults ? profile_.faults : fault::spec_from_env();
  if (spec && !spec->trivial()) {
    spec->validate();
    fault_ = std::move(spec);
  }
}

i64 Runner::effective_ranks(i64 nodes) const {
  if (!fault_ || !fault_->has_failed_ranks()) return nodes;
  const i64 p = fault_->survivor_count(nodes);
  if (p < 2)
    throw std::runtime_error("fault spec leaves fewer than 2 surviving ranks of " +
                             std::to_string(nodes));
  return p;
}

std::vector<std::string> Runner::degrade_notes() const {
  const std::scoped_lock lock(notes_mutex_);
  return degrade_notes_;
}

const coll::AlgorithmEntry& Runner::resolve_algorithm(Collective coll,
                                                      const coll::AlgorithmEntry& algo,
                                                      i64 p_effective, i64 size_bytes) {
  if (!fault_ || !fault_->has_failed_ranks()) return algo;
  if (!algo.pow2_only || is_pow2(p_effective)) return algo;
  // The algorithm cannot shrink to the surviving rank count: demote to the
  // paper's heuristic recommendation (which honours the pow2 gates) and say
  // so once per (algorithm, p) instead of letting the generator throw.
  const auto& fallback =
      coll::recommended_algorithm(coll, p_effective, std::max<i64>(size_bytes, 1));
  std::string note = std::string("fault degrade: ") + to_string(coll) + "/" + algo.name +
                     " cannot run over " + std::to_string(p_effective) +
                     " survivors; demoted to " + fallback.name;
  {
    const std::scoped_lock lock(notes_mutex_);
    if (std::find(degrade_notes_.begin(), degrade_notes_.end(), note) ==
        degrade_notes_.end())
      degrade_notes_.push_back(std::move(note));
  }
  return fallback;
}

Runner::Sized& Runner::sized_for(i64 nodes) {
  const std::scoped_lock lock(cache_mutex_);
  auto it = cache_.find(nodes);
  if (it != cache_.end()) return it->second;

  Sized sized;
  sized.topo = profile_.build(nodes);
  net::Placement placement;
  if (spread_placement_ && sized.topo->num_nodes() > nodes) {
    // Fragmented machine: the job lands on whichever nodes are free, spanning
    // several groups, with ranks sorted by hostname (paper Sec. 2.2/5).
    const i64 total = sized.topo->num_nodes();
    const i64 per_group = total / std::max<i64>(1, sized.topo->group_of(total - 1) + 1);
    // Production machines run highly utilized, which is what fragments jobs
    // across groups (paper: 4-64 node MN5 jobs spanned up to 8 subtrees).
    alloc::Machine machine{sized.topo->group_of(total - 1) + 1, per_group};
    alloc::SyntheticScheduler sched_gen(machine, /*busy_fraction=*/0.85,
                                        seed_ + static_cast<u64>(nodes));
    placement.node_of_rank = sched_gen.sample_job(nodes).node_of_rank;
  } else {
    placement = net::Placement::identity(nodes);
  }
  if (fault_ && fault_->has_failed_ranks()) {
    // Graceful degradation: failed ranks leave the job. Survivors keep their
    // nodes and renumber densely (the rank remap the shrunk communicator
    // runs on), so the machine instance has effective_ranks(nodes) ranks.
    std::vector<i64> surviving;
    surviving.reserve(placement.node_of_rank.size());
    for (Rank r = 0; r < nodes; ++r)
      if (!fault_->rank_failed(r))
        surviving.push_back(placement.node_of_rank[static_cast<size_t>(r)]);
    if (static_cast<i64>(surviving.size()) < 2)
      throw std::runtime_error("fault spec leaves fewer than 2 surviving ranks of " +
                               std::to_string(nodes));
    placement.node_of_rank = std::move(surviving);
  }
  sized.routes = std::make_unique<net::RouteCache>(*sized.topo, std::move(placement));
  if (fault_ && fault_->degrades_links()) sized.routes->degrade(*fault_);
  return cache_.emplace(nodes, std::move(sized)).first->second;
}

coll::Config Runner::cell_config(i64 nodes, i64 size_bytes, i64 elem_size) const {
  coll::Config cfg;
  cfg.p = effective_ranks(nodes);
  cfg.elem_size = elem_size;  // default 4: 32-bit ints, the paper's methodology
  cfg.elem_count = std::max<i64>(cfg.p, size_bytes / cfg.elem_size);
  cfg.torus_dims = torus_dims;
  return cfg;
}

namespace {

RunResult to_run_result(const net::SimResult& sim) {
  RunResult out;
  out.seconds = sim.seconds;
  out.global_bytes = sim.traffic.global_bytes;
  out.total_bytes = sim.traffic.total();
  out.messages = sim.traffic.messages;
  out.steps = sim.steps;
  return out;
}

}  // namespace

std::shared_ptr<const sched::SizeFreeSchedule> Runner::cached_entry(
    Collective coll, const coll::AlgorithmEntry& algo, const coll::Config& cfg) {
  // Transparent view key: a hit performs no string/vector copies and takes
  // only a shared lock inside the cache. The fault epoch (spec fingerprint;
  // 0 = healthy) partitions the shared table so a changed fault model can
  // never be served entries cached under another machine state.
  const sched::ScheduleKeyView key(coll, algo.name, cfg.p, cfg.root, cfg.torus_dims,
                                   fault_ ? fault_->fingerprint() : 0);
  return sched::process_schedule_cache().get(key, [&](i64 canonical_elems) {
    coll::Config build_cfg = cfg;
    build_cfg.elem_count = canonical_elems;
    return algo.make(build_cfg);
  });
}

std::vector<std::vector<RunResult>> Runner::run_candidates(
    Collective coll, std::span<const coll::AlgorithmEntry* const> algos, i64 nodes,
    std::span<const i64> sizes_bytes) {
  const size_t S = sizes_bytes.size();
  std::vector<std::vector<RunResult>> out(algos.size());
  if (S == 0) return out;
  const coll::Config cfg = cell_config(nodes, sizes_bytes[0]);
  std::vector<i64> elem_counts(S);
  for (size_t s = 0; s < S; ++s)
    elem_counts[s] = cell_config(nodes, sizes_bytes[s]).elem_count;

  // Fault demotion keys on size (the heuristic recommendation depends on
  // it), so rewrite the pool as the distinct algorithms its slots resolve
  // to, first-use order: pick[k * S + s] indexes `resolved`. On the healthy
  // machine this is the pool itself, minus its null slots.
  std::vector<const coll::AlgorithmEntry*> resolved;
  std::vector<size_t> pick(algos.size() * S);
  for (size_t k = 0; k < algos.size(); ++k) {
    if (algos[k] == nullptr) continue;
    for (size_t s = 0; s < S; ++s) {
      const coll::AlgorithmEntry* r =
          &resolve_algorithm(coll, *algos[k], cfg.p, sizes_bytes[s]);
      const size_t j =
          static_cast<size_t>(std::find(resolved.begin(), resolved.end(), r) -
                              resolved.begin());
      if (j == resolved.size()) resolved.push_back(r);
      pick[k * S + s] = j;
    }
  }
  if (resolved.empty()) return out;

  Sized& sized = sized_for(nodes);
  std::vector<std::vector<net::SimResult>> sims(resolved.size());
  for (size_t j = 0; j < resolved.size(); ++j) {
    // One cached size-free entry answers the whole axis. Lanes never mix,
    // so a size the algorithm doesn't answer costs a lane and changes
    // nothing else.
    const auto entry = cached_entry(coll, *resolved[j], cfg);
    sims[j] = net::simulate(*entry, elem_counts, cfg.elem_size, *sized.routes,
                            profile_.cost, net::process_route_memo());
  }

  for (size_t k = 0; k < algos.size(); ++k) {
    if (algos[k] == nullptr) continue;
    out[k].resize(S);
    for (size_t s = 0; s < S; ++s) out[k][s] = to_run_result(sims[pick[k * S + s]][s]);
  }
  return out;
}

runtime::ExecPlan Runner::exec_plan(Collective coll, const coll::AlgorithmEntry& algo_in,
                                    i64 nodes, i64 size_bytes, i64 elem_size) {
  const coll::Config cfg = cell_config(nodes, size_bytes, elem_size);
  const coll::AlgorithmEntry& algo = resolve_algorithm(coll, algo_in, cfg.p, size_bytes);
  return runtime::ExecPlan::from_size_free(cached_entry(coll, algo, cfg), coll, cfg.root,
                                           cfg.elem_count, cfg.elem_size);
}

namespace {

/// Deterministic synthetic inputs for the verified path. Integral elements
/// use the full multiplicative-hash pattern (wrapping arithmetic stays
/// deterministic); floating-point elements are small exact integers, so
/// sums stay exactly representable (p * 996 << 2^24 for any realistic p)
/// and sum/min/max produce identical bits in every reduction order -- tree,
/// butterfly, fused. Products are NOT order-safe for floats (they leave the
/// exact range immediately); run_verified_impl rejects that combination.
template <typename T>
std::vector<std::vector<T>> synthetic_inputs(i64 p, i64 elems) {
  std::vector<std::vector<T>> inputs(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    auto& in = inputs[static_cast<size_t>(r)];
    in.resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e) {
      const std::uint32_t h =
          static_cast<std::uint32_t>(r) * 2654435761u + static_cast<std::uint32_t>(e);
      if constexpr (std::is_floating_point_v<T>)
        in[static_cast<size_t>(e)] = static_cast<T>(h % 997u);
      else
        in[static_cast<size_t>(e)] = static_cast<T>(h);
    }
  }
  return inputs;
}

/// Digest of a verified final state over the held cells in (rank, block)
/// order: layout scalars, each rank's held block ids, then the cells'
/// validity bytes, contributor words and element bit patterns, folded
/// word-wise so digesting stays a small fraction of a verified cell. The
/// held cells are fixed by the schedule's structure and never-filled cells
/// hold value-initialized elements, so the digest is a pure function of the
/// plan and inputs. The sentinel cell is always empty and stays out.
template <typename T>
u64 state_digest(const runtime::ExecPlan& plan,
                 const runtime::CompiledExecResult<T>& res) {
  const size_t held = plan.cell_block.size();
  u64 h = core::kFnvOffset;
  core::fnv_mix_words(h, &plan.p, sizeof(plan.p));
  core::fnv_mix_words(h, &plan.nblocks, sizeof(plan.nblocks));
  core::fnv_mix_words(h, plan.cell_begin.data(), plan.cell_begin.size_bytes());
  core::fnv_mix_words(h, plan.cell_block.data(), plan.cell_block.size_bytes());
  core::fnv_mix_words(h, res.valid.data(), held);
  core::fnv_mix_words(h, res.contrib.data(),
                      held * static_cast<size_t>(plan.words) * sizeof(u64));
  core::fnv_mix_words(h, res.data.data(), res.data.size() * sizeof(T));
  return h;
}

}  // namespace

std::optional<VerifiedRun> VerifyMemo::find(const Key& key) {
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void VerifyMemo::record(const std::optional<Key>& key, const VerifiedRun& run) {
  runs_.fetch_add(1, std::memory_order_relaxed);
  if (!key) return;
  const std::scoped_lock lock(mutex_);
  entries_.emplace(*key, run);
}

template <typename T>
VerifiedRun Runner::run_verified_impl(Collective coll, const coll::AlgorithmEntry& algo_in,
                                      i64 nodes, i64 size_bytes, i64 threads,
                                      runtime::ElemType elem, runtime::ReduceOp op,
                                      VerifyMemo* memo) {
  VerifiedRun out;
  std::optional<VerifyMemo::Key> key;
  if (std::is_floating_point_v<T> && !runtime::verifiable_over_floats(op)) {
    // Floating-point products round order-dependently and bitwise ops are
    // undefined on floats, so schedule-order vs reference-order reductions
    // would diverge bit-wise and fail every correct algorithm. Reject up
    // front with an actionable error instead of a spurious data mismatch.
    out.error = "verified execution does not support ReduceOp::";
    out.error += runtime::to_string(op);
    out.error += " over floating-point elements (order-dependent or undefined); "
                 "use an integral element type";
  } else {
    try {
      const coll::Config cfg = cell_config(nodes, size_bytes, static_cast<i64>(sizeof(T)));
      const coll::AlgorithmEntry& algo =
          resolve_algorithm(coll, algo_in, cfg.p, size_bytes);
      // Executor injection hook: only a spec with drop/corrupt probabilities
      // is passed through; the resulting damage surfaces as a verify failure
      // or an executor throw, both reported as a not-ok VerifiedRun below.
      // Such runs never read or fill the memo.
      const fault::FaultSpec* inject =
          fault_ && fault_->has_exec_injection() ? fault_.get() : nullptr;
      if (memo != nullptr && inject == nullptr) {
        key = VerifyMemo::Key{coll, algo.name, cfg.p, cfg.root, cfg.torus_dims,
                              fault_ ? fault_->fingerprint() : 0, cfg.elem_count, elem,
                              op};
        if (std::optional<VerifiedRun> hit = memo->find(*key)) return std::move(*hit);
      }
      const runtime::ExecPlan plan = runtime::ExecPlan::from_size_free(
          cached_entry(coll, algo, cfg), coll, cfg.root, cfg.elem_count, cfg.elem_size);
      const auto inputs = synthetic_inputs<T>(plan.p, plan.elem_count);
      const auto res = runtime::execute<T>(plan, op, inputs, threads, inject);
      out.messages = res.messages;
      out.wire_bytes = res.wire_bytes;
      out.stage_bytes = res.stage_bytes;
      out.error = runtime::verify<T>(plan, op, inputs, res);
      out.ok = out.error.empty();
      if (out.ok) out.digest = state_digest<T>(plan, res);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
  }
  if (memo != nullptr) memo->record(key, out);
  return out;
}

VerifiedRun Runner::run_verified(Collective coll, const coll::AlgorithmEntry& algo,
                                 i64 nodes, i64 size_bytes, i64 threads,
                                 runtime::ElemType elem, runtime::ReduceOp op,
                                 VerifyMemo* memo) {
  switch (elem) {
    case runtime::ElemType::u32:
      return run_verified_impl<std::uint32_t>(coll, algo, nodes, size_bytes, threads, elem,
                                              op, memo);
    case runtime::ElemType::u64:
      return run_verified_impl<std::uint64_t>(coll, algo, nodes, size_bytes, threads, elem,
                                              op, memo);
    case runtime::ElemType::f32:
      return run_verified_impl<float>(coll, algo, nodes, size_bytes, threads, elem, op,
                                      memo);
    case runtime::ElemType::f64:
      return run_verified_impl<double>(coll, algo, nodes, size_bytes, threads, elem, op,
                                       memo);
  }
  throw std::logic_error("unknown element type");
}

std::vector<std::string> Runner::bine_names(Collective coll, bool contiguous_only) const {
  std::vector<std::string> names;
  for (const auto& entry : coll::algorithms_for(coll)) {
    if (!entry.is_bine || entry.specialized) continue;
    if (contiguous_only && (entry.name == "bine_block")) continue;
    names.push_back(entry.name);
  }
  return names;
}

std::vector<std::string> Runner::binomial_names(Collective coll) const {
  switch (coll) {
    case Collective::bcast: return {"binomial", "binomial_dh", "scatter_allgather"};
    case Collective::reduce: return {"binomial", "binomial_dh", "rs_gather"};
    case Collective::gather:
    case Collective::scatter: return {"binomial"};
    case Collective::allgather: return {"recursive_doubling"};
    case Collective::reduce_scatter: return {"recursive_halving"};
    case Collective::allreduce: return {"recursive_doubling", "rabenseifner"};
    case Collective::alltoall: return {"bruck"};
  }
  throw std::logic_error("unknown collective");
}

std::vector<std::string> Runner::sota_names(Collective coll) const {
  std::vector<std::string> names;
  for (const auto& entry : coll::algorithms_for(coll))
    if (!entry.is_bine && !entry.specialized) names.push_back(entry.name);
  return names;
}

}  // namespace bine::harness
