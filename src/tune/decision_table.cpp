#include "tune/decision_table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/fnv.hpp"
#include "fault/fault.hpp"
#include "tune/json.hpp"

namespace bine::tune {

namespace {

std::string hex_u64(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

u64 parse_hex_u64(const std::string& s, const std::string& what) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x')
    throw std::runtime_error("decision table: malformed fingerprint for " + what);
  u64 v = 0;
  for (size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<u64>(c - 'a' + 10);
    else throw std::runtime_error("decision table: malformed fingerprint for " + what);
  }
  return v;
}

void check_intervals(const CellKey& key, const std::vector<SizeInterval>& intervals) {
  const auto where = [&] {
    return std::string(to_string(key.coll)) + " p=" + std::to_string(key.p) + " on '" +
           key.profile + "'";
  };
  if (intervals.empty())
    throw std::invalid_argument("decision table: empty cell for " + where());
  if (intervals.front().lo_bytes != 0)
    throw std::invalid_argument("decision table: first interval of " + where() +
                                " must start at 0");
  for (size_t i = 0; i < intervals.size(); ++i) {
    const SizeInterval& iv = intervals[i];
    if (iv.algorithm.empty())
      throw std::invalid_argument("decision table: unnamed algorithm in " + where());
    if (iv.hi_bytes <= iv.lo_bytes)
      throw std::invalid_argument("decision table: empty interval in " + where());
    if (i + 1 < intervals.size() && intervals[i + 1].lo_bytes != iv.hi_bytes)
      throw std::invalid_argument("decision table: gap or overlap in " + where());
  }
  if (intervals.back().hi_bytes != kNoUpperBound)
    throw std::invalid_argument("decision table: last interval of " + where() +
                                " must be open-ended");
}

}  // namespace

u64 profile_fingerprint(const net::SystemProfile& profile) {
  u64 h = core::kFnvOffset;
  core::fnv_mix_string(h, profile.name);
  core::fnv_mix_string(h, profile.description);
  for (const double d :
       {profile.cost.alpha_local, profile.cost.alpha_global, profile.cost.seg_overhead,
        profile.cost.mem_bandwidth, profile.cost.reduce_bandwidth}) {
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    core::fnv_mix_bytes(h, &bits, sizeof(bits));
  }
  // A degraded machine is a different machine: winners tuned under a fault
  // spec must never serve the healthy profile (or vice versa). Trivial/absent
  // specs contribute nothing, keeping fault-free fingerprints stable.
  if (profile.faults && !profile.faults->trivial()) {
    const u64 ffp = profile.faults->fingerprint();
    core::fnv_mix_bytes(h, &ffp, sizeof(ffp));
  }
  return h;
}

void DecisionTable::set_profile(const std::string& name, u64 fingerprint) {
  profiles_[name] = fingerprint;
}

void DecisionTable::set_cell(CellKey key, std::vector<SizeInterval> intervals) {
  check_intervals(key, intervals);
  cells_[std::move(key)] = std::move(intervals);
}

const std::vector<SizeInterval>* DecisionTable::cell(const std::string& profile,
                                                     sched::Collective coll,
                                                     i64 p) const {
  const auto it = cells_.find(CellKey{profile, coll, p});
  return it == cells_.end() ? nullptr : &it->second;
}

const std::string* DecisionTable::lookup(const std::string& profile,
                                         sched::Collective coll, i64 p,
                                         i64 bytes) const {
  const std::vector<SizeInterval>* intervals = cell(profile, coll, p);
  if (!intervals || bytes < 0) return nullptr;
  // The last interval whose lo <= bytes; coverage is a set_cell invariant,
  // so it always contains bytes.
  const auto it = std::upper_bound(
      intervals->begin(), intervals->end(), bytes,
      [](i64 b, const SizeInterval& iv) { return b < iv.lo_bytes; });
  return &std::prev(it)->algorithm;
}

void DecisionTable::merge(const DecisionTable& other) {
  for (const auto& [name, fp] : other.profiles_) {
    const auto it = profiles_.find(name);
    if (it != profiles_.end() && it->second != fp)
      throw std::runtime_error("decision table merge: profile '" + name +
                               "' fingerprint mismatch (" + hex_u64(it->second) +
                               " vs " + hex_u64(fp) + ")");
    profiles_[name] = fp;
  }
  for (const auto& [key, intervals] : other.cells_) cells_[key] = intervals;
}

std::string DecisionTable::dump() const {
  std::ostringstream out;
  out << "{\n  \"format\": \"" << kTableFormat << "\",\n  \"version\": " << kTableVersion
      << ",\n  \"profiles\": {";
  bool first = true;
  for (const auto& [name, fp] : profiles_) {
    out << (first ? "\n" : ",\n") << "    \"" << json::escape(name) << "\": \""
        << hex_u64(fp) << "\"";
    first = false;
  }
  out << (profiles_.empty() ? "},\n" : "\n  },\n") << "  \"cells\": [";
  first = true;
  for (const auto& [key, intervals] : cells_) {
    out << (first ? "\n" : ",\n") << "    {\"profile\": \"" << json::escape(key.profile)
        << "\", \"collective\": \"" << to_string(key.coll) << "\", \"p\": " << key.p
        << ", \"intervals\": [";
    for (size_t i = 0; i < intervals.size(); ++i) {
      const SizeInterval& iv = intervals[i];
      out << (i ? ", " : "") << "{\"lo\": " << iv.lo_bytes << ", \"hi\": "
          << (iv.hi_bytes == kNoUpperBound ? i64{-1} : iv.hi_bytes)
          << ", \"algorithm\": \"" << json::escape(iv.algorithm) << "\"}";
    }
    out << "]}";
    first = false;
  }
  out << (cells_.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

DecisionTable DecisionTable::parse(std::string_view text, LoadReport* report) {
  const json::Value doc = json::Value::parse(text);
  const std::string& format = doc.at("format", "table").as_string("format");
  if (format != kTableFormat)
    throw std::runtime_error("decision table: unrecognized format '" + format + "'");
  const i64 version = doc.at("version", "table").as_i64("version");
  if (version != kTableVersion)
    throw std::runtime_error(
        "decision table: version mismatch (artifact v" + std::to_string(version) +
        ", this library reads v" + std::to_string(kTableVersion) +
        "); re-tune or convert the artifact");

  DecisionTable table;
  const json::Value& profiles = doc.at("profiles", "table");
  if (profiles.kind != json::Value::Kind::object)
    throw std::runtime_error("decision table: 'profiles' must be an object");
  for (const auto& [name, fp] : profiles.members)
    table.profiles_[name] = parse_hex_u64(fp.as_string("fingerprint"), name);

  LoadReport local;
  LoadReport& rep = report ? *report : local;
  for (const json::Value& cell : doc.at("cells", "table").as_array("cells")) {
    CellKey key;
    key.profile = cell.at("profile", "cell").as_string("profile");
    // Every served cell must be covered by the staleness guard: a cell whose
    // profile carries no fingerprint could never be checked against the
    // consumer's machine model, so it is rejected, not served unguarded.
    if (!table.profiles_.contains(key.profile))
      throw std::runtime_error("decision table: cell references profile '" +
                               key.profile + "' absent from the fingerprint map");
    key.coll = coll::collective_from_name(
        cell.at("collective", "cell").as_string("collective"));
    key.p = cell.at("p", "cell").as_i64("p");
    std::vector<SizeInterval> intervals;
    for (const json::Value& iv : cell.at("intervals", "cell").as_array("intervals")) {
      SizeInterval si;
      si.lo_bytes = iv.at("lo", "interval").as_i64("lo");
      const i64 hi = iv.at("hi", "interval").as_i64("hi");
      si.hi_bytes = hi == -1 ? kNoUpperBound : hi;
      si.algorithm = iv.at("algorithm", "interval").as_string("algorithm");
      // Registry drift: a table may name an algorithm this build no longer
      // registers. Serving it would throw at dispatch time; demote the
      // interval to the heuristic default instead and say so.
      if (!coll::has_algorithm(key.coll, si.algorithm)) {
        const std::string fallback =
            coll::recommended_algorithm(key.coll, key.p, std::max<i64>(si.lo_bytes, 1))
                .name;
        rep.notes.push_back("demoted unknown algorithm '" + si.algorithm + "' to '" +
                            fallback + "' for " + std::string(to_string(key.coll)) +
                            " p=" + std::to_string(key.p) + " on '" + key.profile +
                            "'");
        si.algorithm = fallback;
        ++rep.demoted_intervals;
      }
      intervals.push_back(std::move(si));
    }
    // Demotion can make adjacent intervals agree; re-coalesce so the cell
    // stays canonical (dump() round-trips bit-identically).
    std::vector<SizeInterval> merged;
    for (SizeInterval& si : intervals) {
      if (!merged.empty() && merged.back().algorithm == si.algorithm &&
          merged.back().hi_bytes == si.lo_bytes)
        merged.back().hi_bytes = si.hi_bytes;
      else
        merged.push_back(std::move(si));
    }
    try {
      table.set_cell(std::move(key), std::move(merged));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(e.what());  // structural damage = load failure
    }
    ++rep.cells;
  }
  return table;
}

void DecisionTable::save(const std::string& path) const {
  fault::write_file_atomic(path, dump());
}

DecisionTable DecisionTable::load(const std::string& path, LoadReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("decision table: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), report);
}

std::optional<DecisionTable> DecisionTable::load_or_quarantine(const std::string& path,
                                                               LoadReport* report) {
  LoadReport local;
  LoadReport& rep = report ? *report : local;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    rep.notes.push_back("no decision table at '" + path + "'");
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  try {
    return parse(buf.str(), &rep);
  } catch (const std::exception& e) {
    const std::string aside = fault::quarantine_file(path);
    rep.notes.push_back("quarantined corrupt table '" + path + "'" +
                        (aside.empty() ? std::string(" (quarantine rename failed)")
                                       : " as '" + aside + "'") +
                        ": " + e.what());
    return std::nullopt;
  }
}

Selection select(const DecisionTable& table, const net::SystemProfile& profile,
                 sched::Collective coll, i64 p, i64 bytes, MissPolicy policy) {
  const auto it = table.profiles().find(profile.name);
  if (it != table.profiles().end()) {
    const u64 expect = profile_fingerprint(profile);
    if (it->second != expect)
      throw std::runtime_error(
          "decision table: tuned for a different '" + profile.name +
          "' (fingerprint " + hex_u64(it->second) + " != " + hex_u64(expect) +
          "); the machine model changed -- re-tune");
  }
  bytes = std::max<i64>(bytes, 0);  // cells cover [0, inf); no negative probes
  if (const std::string* name = table.lookup(profile.name, coll, p, bytes))
    return {&coll::find_algorithm(coll, *name), true};
  if (policy == MissPolicy::error)
    throw std::runtime_error(std::string("decision table: no cell for ") +
                             to_string(coll) + " p=" + std::to_string(p) + " on '" +
                             profile.name + "'");
  return {&coll::recommended_algorithm(coll, p, std::max<i64>(bytes, 1)), false};
}

}  // namespace bine::tune
