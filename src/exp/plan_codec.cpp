#include "exp/plan_codec.hpp"

#include <set>
#include <stdexcept>
#include <utility>

#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"
#include "tune/json.hpp"

namespace bine::exp {

namespace {

using tune::json::Value;
using tune::json::escape;

// --- enum spellings ---------------------------------------------------------

const char* to_string(Series::Pick p) {
  switch (p) {
    case Series::Pick::best: return "best";
    case Series::Pick::single: return "single";
    case Series::Pick::tuned: return "tuned";
  }
  return "?";
}

Series::Pick pick_from_string(std::string_view s) {
  if (s == "best") return Series::Pick::best;
  if (s == "single") return Series::Pick::single;
  if (s == "tuned") return Series::Pick::tuned;
  throw std::invalid_argument("plan: unknown series pick \"" + std::string(s) + "\"");
}

const char* to_string(Series::Family f) {
  switch (f) {
    case Series::Family::list: return "list";
    case Series::Family::bine: return "bine";
    case Series::Family::binomial: return "binomial";
    case Series::Family::sota: return "sota";
  }
  return "?";
}

Series::Family family_from_string(std::string_view s) {
  if (s == "list") return Series::Family::list;
  if (s == "bine") return Series::Family::bine;
  if (s == "binomial") return Series::Family::binomial;
  if (s == "sota") return Series::Family::sota;
  throw std::invalid_argument("plan: unknown series family \"" + std::string(s) +
                              "\"");
}

const char* to_string(tune::MissPolicy p) {
  switch (p) {
    case tune::MissPolicy::heuristic_default: return "heuristic_default";
    case tune::MissPolicy::error: return "error";
  }
  return "?";
}

tune::MissPolicy miss_policy_from_string(std::string_view s) {
  if (s == "heuristic_default") return tune::MissPolicy::heuristic_default;
  if (s == "error") return tune::MissPolicy::error;
  throw std::invalid_argument("plan: unknown miss_policy \"" + std::string(s) + "\"");
}

const char* to_string(SweepPlan::OnError e) {
  switch (e) {
    case SweepPlan::OnError::propagate: return "propagate";
    case SweepPlan::OnError::isolate: return "isolate";
  }
  return "?";
}

SweepPlan::OnError on_error_from_string(std::string_view s) {
  if (s == "propagate") return SweepPlan::OnError::propagate;
  if (s == "isolate") return SweepPlan::OnError::isolate;
  throw std::invalid_argument("plan: unknown on_error \"" + std::string(s) + "\"");
}

runtime::ElemType elem_from_string(std::string_view s) {
  for (const auto t : {runtime::ElemType::u32, runtime::ElemType::u64,
                       runtime::ElemType::f32, runtime::ElemType::f64})
    if (s == runtime::to_string(t)) return t;
  throw std::invalid_argument("plan: unknown elem type \"" + std::string(s) + "\"");
}

runtime::ReduceOp op_from_string(std::string_view s) {
  for (const auto o :
       {runtime::ReduceOp::sum, runtime::ReduceOp::prod, runtime::ReduceOp::min,
        runtime::ReduceOp::max, runtime::ReduceOp::band, runtime::ReduceOp::bor,
        runtime::ReduceOp::bxor})
    if (s == runtime::to_string(o)) return o;
  throw std::invalid_argument("plan: unknown reduce op \"" + std::string(s) + "\"");
}

// --- canonical writers ------------------------------------------------------

void put_i64_array(std::string& out, const std::vector<i64>& xs) {
  out += '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(xs[i]);
  }
  out += ']';
}

void put_string_array(std::string& out, const std::vector<std::string>& xs) {
  out += '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    out += escape(xs[i]);
    out += '"';
  }
  out += ']';
}

void put_coll_array(std::string& out, const std::vector<Collective>& xs) {
  out += '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    out += sched::to_string(xs[i]);
    out += '"';
  }
  out += ']';
}

std::string hex_u64(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4)
    s += digits[(v >> shift) & 0xf];
  return s;
}

u64 u64_from_hex(std::string_view s, std::string_view what) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x')
    throw std::invalid_argument("plan: " + std::string(what) +
                                " must be an \"0x\" + 16-hex-digit string");
  u64 v = 0;
  for (size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    u64 d;
    if (c >= '0' && c <= '9') d = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<u64>(c - 'a' + 10);
    else
      throw std::invalid_argument("plan: " + std::string(what) +
                                  " has a non-hex digit");
    v = (v << 4) | d;
  }
  return v;
}

// --- strict-parse helpers ---------------------------------------------------

/// Reject members outside the schema: hand-rolled strict mode on top of the
/// permissive tune::json reader, so typo'd knobs fail loudly instead of
/// silently running a different experiment than the author wrote.
void check_keys(const Value& obj, std::string_view what,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, _] : obj.members) {
    bool ok = false;
    for (const auto a : allowed)
      if (key == a) { ok = true; break; }
    if (!ok)
      throw std::invalid_argument("plan: unknown key \"" + key + "\" in " +
                                  std::string(what));
  }
}

std::vector<i64> get_i64_array(const Value& v, std::string_view what) {
  std::vector<i64> out;
  for (const auto& item : v.as_array(what)) out.push_back(item.as_i64(what));
  return out;
}

std::vector<std::string> get_string_array(const Value& v, std::string_view what) {
  std::vector<std::string> out;
  for (const auto& item : v.as_array(what)) out.push_back(item.as_string(what));
  return out;
}

std::vector<Collective> get_coll_array(const Value& v, std::string_view what) {
  std::vector<Collective> out;
  for (const auto& item : v.as_array(what)) {
    try {
      out.push_back(coll::collective_from_name(item.as_string(what)));
    } catch (const std::out_of_range& e) {
      throw std::invalid_argument("plan: " + std::string(what) + ": " + e.what());
    }
  }
  return out;
}

i64 get_i64_or(const Value& obj, std::string_view key, i64 fallback) {
  const Value* v = obj.find(key);
  return v ? v->as_i64(key) : fallback;
}

}  // namespace

std::string plan_to_json(const SweepPlan& plan) {
  if (plan.backend == Backend::custom || plan.metric)
    throw std::invalid_argument(
        "plan: Backend::custom / metric-bearing plans are not serializable "
        "(the metric is an opaque function)");

  std::string out;
  out.reserve(1024);
  out += "{\n";
  out += "  \"format\": \"";
  out += kPlanFormat;
  out += "\",\n";
  out += "  \"version\": " + std::to_string(kPlanVersion) + ",\n";
  out += "  \"name\": \"" + escape(plan.name) + "\",\n";

  out += "  \"systems\": [";
  for (size_t i = 0; i < plan.systems.size(); ++i) {
    const SystemSpec& sys = plan.systems[i];
    // Prove the profile really is the named factory's output before letting
    // its *name* stand in for it on the wire: a hand-tweaked cost model that
    // serialized by name would deserialize into a different machine and
    // silently produce different cells.
    {
      net::SystemProfile rebuilt =
          net::profile_by_name(sys.profile.name, sys.profile.dims);
      rebuilt.faults = sys.profile.faults;
      if (tune::profile_fingerprint(rebuilt) !=
          tune::profile_fingerprint(sys.profile))
        throw std::invalid_argument(
            "plan: system \"" + sys.profile.name +
            "\" is not the named factory profile (fingerprint mismatch); only "
            "profile_by_name-reconstructible profiles serialize");
    }
    out += i ? ",\n    {\n" : "\n    {\n";
    out += "      \"profile\": \"" + escape(sys.profile.name) + "\",\n";
    if (!sys.profile.dims.empty()) {
      out += "      \"dims\": ";
      put_i64_array(out, sys.profile.dims);
      out += ",\n";
    }
    if (sys.profile.faults) {
      const std::string spec = fault::spec_to_string(*sys.profile.faults);
      if (!spec.empty())
        out += "      \"faults\": \"" + escape(spec) + "\",\n";
    }
    out += std::string("      \"spread_placement\": ") +
           (sys.spread_placement ? "true" : "false") + ",\n";
    // Hex string, like journal_salt: a bare JSON integer cannot carry the
    // upper half of the u64 range.
    out += "      \"seed\": \"" + hex_u64(sys.seed) + "\"";
    if (!sys.torus_dims.empty()) {
      out += ",\n      \"torus_dims\": ";
      put_i64_array(out, sys.torus_dims);
    }
    out += "\n";
    out += "    }";
  }
  out += plan.systems.empty() ? "],\n" : "\n  ],\n";

  out += "  \"colls\": ";
  put_coll_array(out, plan.colls);
  out += ",\n";

  out += "  \"series\": [";
  for (size_t i = 0; i < plan.series.size(); ++i) {
    const Series& s = plan.series[i];
    out += i ? ",\n    {\n" : "\n    {\n";
    out += "      \"label\": \"" + escape(s.label) + "\",\n";
    out += std::string("      \"pick\": \"") + to_string(s.pick) + "\",\n";
    out += std::string("      \"family\": \"") + to_string(s.family) + "\"";
    if (s.contiguous_only) out += ",\n      \"contiguous_only\": true";
    if (!s.algorithms.empty()) {
      out += ",\n      \"algorithms\": ";
      put_string_array(out, s.algorithms);
    }
    out += "\n    }";
  }
  out += plan.series.empty() ? "],\n" : "\n  ],\n";

  out += "  \"nodes\": {\n";
  out += "    \"counts\": ";
  put_i64_array(out, plan.nodes.counts);
  if (!plan.nodes.extra_counts.empty() || !plan.nodes.extra_colls.empty()) {
    out += ",\n    \"extra_counts\": ";
    put_i64_array(out, plan.nodes.extra_counts);
    out += ",\n    \"extra_colls\": ";
    put_coll_array(out, plan.nodes.extra_colls);
  }
  out += "\n  },\n";

  out += "  \"sizes\": ";
  put_i64_array(out, plan.sizes);
  out += ",\n";

  out += std::string("  \"backend\": \"") + to_string(plan.backend) + "\",\n";
  out += std::string("  \"elem\": \"") + runtime::to_string(plan.elem) + "\",\n";
  out += std::string("  \"op\": \"") + runtime::to_string(plan.op) + "\",\n";
  out += "  \"exec_threads\": " + std::to_string(plan.exec_threads) + ",\n";
  out += std::string("  \"miss_policy\": \"") + to_string(plan.miss_policy) +
         "\",\n";
  out += "  \"threads\": " + std::to_string(plan.threads) + ",\n";
  out += std::string("  \"on_error\": \"") + to_string(plan.on_error) + "\",\n";
  out += "  \"transient_retries\": " + std::to_string(plan.transient_retries) +
         ",\n";
  out += "  \"retry_backoff_ms\": " + std::to_string(plan.retry_backoff_ms) +
         ",\n";
  out += "  \"journal_salt\": \"" + hex_u64(plan.journal_salt) + "\",\n";
  out += "  \"cell_deadline_ms\": " + std::to_string(plan.cell_deadline_ms) +
         "\n";
  out += "}\n";
  return out;
}

SweepPlan plan_from_json(std::string_view text) {
  const Value doc = Value::parse(text);
  if (doc.kind != Value::Kind::object)
    throw std::invalid_argument("plan: document is not a JSON object");

  // Duplicate keys would make "last one wins" schema drift invisible; the
  // tune::json reader keeps members in order, so police them here.
  {
    std::set<std::string_view> seen;
    for (const auto& [key, _] : doc.members)
      if (!seen.insert(key).second)
        throw std::invalid_argument("plan: duplicate key \"" + key + "\"");
  }
  check_keys(doc, "plan",
             {"format", "version", "name", "systems", "colls", "series", "nodes",
              "sizes", "backend", "elem", "op", "exec_threads", "miss_policy",
              "threads", "on_error", "transient_retries", "retry_backoff_ms",
              "journal_salt", "cell_deadline_ms"});

  if (doc.at("format", "format").as_string("format") != kPlanFormat)
    throw std::invalid_argument("plan: not a " + std::string(kPlanFormat) +
                                " document");
  if (doc.at("version", "version").as_i64("version") != kPlanVersion)
    throw std::invalid_argument(
        "plan: unsupported version " +
        std::to_string(doc.at("version", "version").as_i64("version")));

  SweepPlan plan;
  plan.name = doc.at("name", "name").as_string("name");

  for (const auto& sv : doc.at("systems", "systems").as_array("systems")) {
    if (sv.kind != Value::Kind::object)
      throw std::invalid_argument("plan: systems entries must be objects");
    check_keys(sv, "system",
               {"profile", "dims", "faults", "spread_placement", "seed",
                "torus_dims"});
    SystemSpec sys;
    const std::string& pname = sv.at("profile", "profile").as_string("profile");
    std::vector<i64> dims;
    if (const Value* d = sv.find("dims")) dims = get_i64_array(*d, "dims");
    sys.profile = net::profile_by_name(pname, dims);
    if (const Value* f = sv.find("faults")) {
      const std::string& spec = f->as_string("faults");
      std::shared_ptr<const fault::FaultSpec> parsed = fault::parse_spec(spec);
      // Canonical form only: a non-canonical spelling would still parse, but
      // then dump != input and equal plans could serialize differently.
      if (!parsed || fault::spec_to_string(*parsed) != spec)
        throw std::invalid_argument("plan: fault spec \"" + spec +
                                    "\" is not in canonical spec_to_string form");
      sys.profile.faults = std::move(parsed);
    }
    const Value& sp = sv.at("spread_placement", "spread_placement");
    sys.spread_placement = sp.as_bool("spread_placement");
    sys.seed = u64_from_hex(sv.at("seed", "seed").as_string("seed"), "seed");
    if (const Value* t = sv.find("torus_dims"))
      sys.torus_dims = get_i64_array(*t, "torus_dims");
    plan.systems.push_back(std::move(sys));
  }

  plan.colls = get_coll_array(doc.at("colls", "colls"), "colls");

  for (const auto& sv : doc.at("series", "series").as_array("series")) {
    if (sv.kind != Value::Kind::object)
      throw std::invalid_argument("plan: series entries must be objects");
    check_keys(sv, "series",
               {"label", "pick", "family", "contiguous_only", "algorithms"});
    Series s;
    s.label = sv.at("label", "label").as_string("label");
    s.pick = pick_from_string(sv.at("pick", "pick").as_string("pick"));
    s.family = family_from_string(sv.at("family", "family").as_string("family"));
    if (const Value* c = sv.find("contiguous_only")) {
      if (!c->as_bool("contiguous_only"))
        throw std::invalid_argument(
            "plan: contiguous_only is only serialized when true");
      s.contiguous_only = true;
    }
    if (const Value* a = sv.find("algorithms")) {
      s.algorithms = get_string_array(*a, "algorithms");
      if (s.algorithms.empty())
        throw std::invalid_argument(
            "plan: algorithms is only serialized when non-empty");
    }
    plan.series.push_back(std::move(s));
  }

  {
    const Value& nodes = doc.at("nodes", "nodes");
    if (nodes.kind != Value::Kind::object)
      throw std::invalid_argument("plan: nodes must be an object");
    check_keys(nodes, "nodes", {"counts", "extra_counts", "extra_colls"});
    plan.nodes.counts = get_i64_array(nodes.at("counts", "counts"), "counts");
    const Value* ec = nodes.find("extra_counts");
    const Value* el = nodes.find("extra_colls");
    if (!!ec != !!el)
      throw std::invalid_argument(
          "plan: extra_counts and extra_colls travel together");
    if (ec) {
      plan.nodes.extra_counts = get_i64_array(*ec, "extra_counts");
      plan.nodes.extra_colls = get_coll_array(*el, "extra_colls");
      if (plan.nodes.extra_counts.empty() && plan.nodes.extra_colls.empty())
        throw std::invalid_argument(
            "plan: extra_counts/extra_colls are only serialized when used");
    }
  }

  plan.sizes = get_i64_array(doc.at("sizes", "sizes"), "sizes");

  plan.backend =
      backend_from_string(doc.at("backend", "backend").as_string("backend"));
  if (plan.backend == Backend::custom)
    throw std::invalid_argument("plan: backend \"custom\" is not serializable");
  plan.elem = elem_from_string(doc.at("elem", "elem").as_string("elem"));
  plan.op = op_from_string(doc.at("op", "op").as_string("op"));
  plan.exec_threads = get_i64_or(doc, "exec_threads", 0);
  plan.miss_policy = miss_policy_from_string(
      doc.at("miss_policy", "miss_policy").as_string("miss_policy"));
  plan.threads = get_i64_or(doc, "threads", 0);
  plan.on_error =
      on_error_from_string(doc.at("on_error", "on_error").as_string("on_error"));
  plan.transient_retries = get_i64_or(doc, "transient_retries", 0);
  plan.retry_backoff_ms = get_i64_or(doc, "retry_backoff_ms", 0);
  plan.journal_salt = u64_from_hex(
      doc.at("journal_salt", "journal_salt").as_string("journal_salt"),
      "journal_salt");
  plan.cell_deadline_ms = get_i64_or(doc, "cell_deadline_ms", 0);
  return plan;
}

}  // namespace bine::exp
