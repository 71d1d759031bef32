#include "fault/fault.hpp"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace bine::fault {

namespace {

/// splitmix64 finalizer: the standard strong 64-bit mixer. All fault
/// sampling funnels through it so decisions depend only on (seed, site),
/// never on thread schedule or iteration order.
[[nodiscard]] constexpr u64 mix64(u64 x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Map a hashed site to [0, 1) and compare against a probability.
[[nodiscard]] bool hash_below(u64 h, double fraction) noexcept {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  // 53 high bits -> exactly representable uniform double in [0, 1).
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return unit < fraction;
}

[[nodiscard]] u64 double_bits(double d) noexcept {
  u64 bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// FNV-1a over a value's bytes, continuing from `h`.
template <class T>
[[nodiscard]] u64 fnv_mix(u64 h, T value) noexcept {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("fault::FaultSpec: ") + what);
}

/// Position-bearing spec rejection (tune/json's error style): every message
/// names the byte offset of the offending token within the spec string.
[[noreturn]] void spec_fail(size_t at, const std::string& what) {
  throw std::invalid_argument("fault spec: " + what + " at byte " +
                              std::to_string(at));
}

/// Strict double: the whole token must be consumed, no leading/trailing
/// whitespace (strtod would silently skip it -- trailing garbage in disguise).
[[nodiscard]] double parse_double_field(std::string_view key, std::string_view text,
                                        size_t at) {
  const std::string buf(text);
  if (buf.empty() || buf.find_first_of(" \t\n\r\f\v") != std::string::npos)
    spec_fail(at, "bad number for '" + std::string(key) + "': '" + buf + "'");
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size())
    spec_fail(at + static_cast<size_t>(end - buf.c_str()),
              "trailing garbage after number for '" + std::string(key) + "': '" +
                  buf + "'");
  return v;
}

[[nodiscard]] i64 parse_int_field(std::string_view key, std::string_view text,
                                  size_t at) {
  i64 v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || text.empty())
    spec_fail(at, "bad integer for '" + std::string(key) + "': '" +
                      std::string(text) + "'");
  if (ptr != text.data() + text.size())
    spec_fail(at + static_cast<size_t>(ptr - text.data()),
              "trailing garbage after integer for '" + std::string(key) + "': '" +
                  std::string(text) + "'");
  return v;
}

}  // namespace

FaultClass classify(const std::exception& e) noexcept {
  return dynamic_cast<const TransientError*>(&e) != nullptr ? FaultClass::transient
                                                            : FaultClass::permanent;
}

FaultClass classify_current_exception() noexcept {
  try {
    throw;
  } catch (const std::exception& e) {
    return classify(e);
  } catch (...) {
    return FaultClass::permanent;
  }
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

bool current_exception_is_deadline() noexcept {
  try {
    throw;
  } catch (const DeadlineExceeded&) {
    return true;
  } catch (...) {
    return false;
  }
}

bool FaultSpec::trivial() const noexcept {
  return !degrades_links() && !has_failed_ranks() && !has_exec_injection();
}

bool FaultSpec::degrades_links() const noexcept {
  return degrade_local != 1.0 || degrade_global != 1.0 || degrade_intra_node != 1.0 ||
         link_outage_fraction > 0.0 || !dead_links.empty();
}

u64 FaultSpec::fingerprint() const {
  u64 h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = fnv_mix(h, seed);
  h = fnv_mix(h, double_bits(degrade_local));
  h = fnv_mix(h, double_bits(degrade_global));
  h = fnv_mix(h, double_bits(degrade_intra_node));
  h = fnv_mix(h, double_bits(link_outage_fraction));
  h = fnv_mix(h, double_bits(dead_link_bandwidth));
  h = fnv_mix(h, static_cast<u64>(dead_links.size()));
  for (i64 l : dead_links) h = fnv_mix(h, l);
  h = fnv_mix(h, static_cast<u64>(failed_ranks.size()));
  for (Rank r : failed_ranks) h = fnv_mix(h, r);
  h = fnv_mix(h, double_bits(drop_fraction));
  h = fnv_mix(h, double_bits(corrupt_fraction));
  // A non-trivial spec must never fingerprint to 0 (0 is the reserved
  // "no faults" epoch in ScheduleCache keys).
  if (h == 0 && !trivial()) h = 1;
  return trivial() ? 0 : h;
}

bool FaultSpec::rank_failed(Rank r) const noexcept {
  return std::find(failed_ranks.begin(), failed_ranks.end(), r) != failed_ranks.end();
}

std::vector<Rank> FaultSpec::survivor_ranks(i64 p) const {
  std::vector<Rank> out;
  out.reserve(static_cast<size_t>(p));
  for (Rank r = 0; r < p; ++r)
    if (!rank_failed(r)) out.push_back(r);
  return out;
}

i64 FaultSpec::survivor_count(i64 p) const {
  i64 n = 0;
  for (Rank r = 0; r < p; ++r)
    if (!rank_failed(r)) ++n;
  return n;
}

bool FaultSpec::link_dead(i64 link) const noexcept {
  if (std::find(dead_links.begin(), dead_links.end(), link) != dead_links.end())
    return true;
  if (link_outage_fraction <= 0.0) return false;
  const u64 h = mix64(mix64(seed ^ 0x6f75746167656c6bULL) ^ static_cast<u64>(link));
  return hash_below(h, link_outage_fraction);
}

bool FaultSpec::drop_delivery(size_t step, u64 delivery) const noexcept {
  if (drop_fraction <= 0.0) return false;
  const u64 h =
      mix64(mix64(seed ^ 0x64726f70646c7672ULL) ^ mix64(static_cast<u64>(step)) ^
            delivery);
  return hash_below(h, drop_fraction);
}

bool FaultSpec::corrupt_delivery(size_t step, u64 delivery) const noexcept {
  if (corrupt_fraction <= 0.0) return false;
  const u64 h =
      mix64(mix64(seed ^ 0x636f7272757074ULL) ^ mix64(static_cast<u64>(step)) ^
            delivery);
  return hash_below(h, corrupt_fraction);
}

void FaultSpec::validate() const {
  const auto factor_ok = [](double f) { return f > 0.0 && f <= 1.0 && std::isfinite(f); };
  require(factor_ok(degrade_local), "degrade_local must be in (0, 1]");
  require(factor_ok(degrade_global), "degrade_global must be in (0, 1]");
  require(factor_ok(degrade_intra_node), "degrade_intra must be in (0, 1]");
  require(link_outage_fraction >= 0.0 && link_outage_fraction <= 1.0 &&
              std::isfinite(link_outage_fraction),
          "outage fraction must be in [0, 1]");
  require(dead_link_bandwidth > 0.0 && std::isfinite(dead_link_bandwidth),
          "dead link bandwidth must be positive");
  require(drop_fraction >= 0.0 && drop_fraction <= 1.0 && std::isfinite(drop_fraction),
          "drop fraction must be in [0, 1]");
  require(corrupt_fraction >= 0.0 && corrupt_fraction <= 1.0 &&
              std::isfinite(corrupt_fraction),
          "corrupt fraction must be in [0, 1]");
  for (i64 l : dead_links) require(l >= 0, "dead link ids must be non-negative");
  for (Rank r : failed_ranks) require(r >= 0, "failed rank ids must be non-negative");
}

std::shared_ptr<const FaultSpec> parse_spec(std::string_view text) {
  if (text.empty()) return nullptr;
  auto spec = std::make_shared<FaultSpec>();
  std::vector<std::string> seen;
  size_t pos = 0;
  for (;;) {
    const size_t start = pos;
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view pair = text.substr(start, comma - start);
    if (pair.empty())
      spec_fail(start, comma == text.size() ? "trailing ','" : "empty key=value pair");
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos)
      spec_fail(start, "expected key=value, got '" + std::string(pair) + "'");
    if (eq == 0) spec_fail(start, "empty key");
    const std::string_view key = pair.substr(0, eq);
    const std::string_view val = pair.substr(eq + 1);
    const size_t val_at = start + eq + 1;
    if (val.empty()) spec_fail(val_at, "empty value for '" + std::string(key) + "'");
    if (std::find(seen.begin(), seen.end(), key) != seen.end())
      spec_fail(start, "duplicate key '" + std::string(key) + "'");
    seen.emplace_back(key);
    if (key == "seed") {
      spec->seed = static_cast<u64>(parse_int_field(key, val, val_at));
    } else if (key == "degrade_local") {
      spec->degrade_local = parse_double_field(key, val, val_at);
    } else if (key == "degrade_global") {
      spec->degrade_global = parse_double_field(key, val, val_at);
    } else if (key == "degrade_intra") {
      spec->degrade_intra_node = parse_double_field(key, val, val_at);
    } else if (key == "outage") {
      spec->link_outage_fraction = parse_double_field(key, val, val_at);
    } else if (key == "dead_bw") {
      spec->dead_link_bandwidth = parse_double_field(key, val, val_at);
    } else if (key == "drop") {
      spec->drop_fraction = parse_double_field(key, val, val_at);
    } else if (key == "corrupt") {
      spec->corrupt_fraction = parse_double_field(key, val, val_at);
    } else if (key == "dead_links" || key == "failed") {
      auto& dst = (key == "failed") ? spec->failed_ranks : spec->dead_links;
      size_t vp = 0;
      for (;;) {
        const size_t colon = std::min(val.find(':', vp), val.size());
        const std::string_view item = val.substr(vp, colon - vp);
        if (item.empty())
          spec_fail(val_at + vp, "empty list entry for '" + std::string(key) + "'");
        dst.push_back(parse_int_field(key, item, val_at + vp));
        if (colon == val.size()) break;
        vp = colon + 1;
      }
    } else {
      spec_fail(start, "unknown key '" + std::string(key) + "'");
    }
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  spec->validate();
  return spec;
}

std::string spec_to_string(const FaultSpec& spec) {
  std::string out;
  const auto put = [&out](std::string_view key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  const auto fmt_double = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const auto put_list = [&put](std::string_view key, const auto& items) {
    std::string value;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) value += ':';
      value += std::to_string(items[i]);
    }
    put(key, value);
  };
  if (spec.seed != 0) put("seed", std::to_string(spec.seed));
  if (spec.degrade_local != 1.0) put("degrade_local", fmt_double(spec.degrade_local));
  if (spec.degrade_global != 1.0)
    put("degrade_global", fmt_double(spec.degrade_global));
  if (spec.degrade_intra_node != 1.0)
    put("degrade_intra", fmt_double(spec.degrade_intra_node));
  if (spec.link_outage_fraction != 0.0)
    put("outage", fmt_double(spec.link_outage_fraction));
  if (!spec.dead_links.empty()) put_list("dead_links", spec.dead_links);
  if (spec.dead_link_bandwidth != 1.0)
    put("dead_bw", fmt_double(spec.dead_link_bandwidth));
  if (!spec.failed_ranks.empty()) put_list("failed", spec.failed_ranks);
  if (spec.drop_fraction != 0.0) put("drop", fmt_double(spec.drop_fraction));
  if (spec.corrupt_fraction != 0.0) put("corrupt", fmt_double(spec.corrupt_fraction));
  return out;
}

std::shared_ptr<const FaultSpec> spec_from_env() {
  const char* env = std::getenv("BINE_FAULT_SPEC");
  if (env == nullptr || *env == '\0') return nullptr;
  return parse_spec(env);
}

void retry_backoff(i64 attempt, i64 base_ms, i64 cap_ms) {
  if (base_ms <= 0 || attempt <= 0) return;
  i64 delay = base_ms;
  for (i64 i = 1; i < attempt && delay < cap_ms; ++i) delay *= 2;
  std::this_thread::sleep_for(std::chrono::milliseconds(std::min(delay, cap_ms)));
}

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {
  // Unique per process so concurrent writers never clobber each other's temp;
  // a monotonic counter disambiguates repeated writes within one process.
  static std::atomic<u64> counter{0};
  temp_ = path_ + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
          std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  file_ = std::fopen(temp_.c_str(), "wb");
}

AtomicFile::~AtomicFile() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(temp_.c_str());
  }
}

bool AtomicFile::commit() {
  if (file_ == nullptr) return false;
  bool ok = std::fflush(file_) == 0;
  if (ok) ok = ::fsync(::fileno(file_)) == 0;
  ok = (std::fclose(file_) == 0) && ok;
  file_ = nullptr;
  if (ok) ok = std::rename(temp_.c_str(), path_.c_str()) == 0;
  if (!ok) std::remove(temp_.c_str());
  return ok;
}

void write_file_atomic(const std::string& path, std::string_view content) {
  AtomicFile out(path);
  if (!out) throw std::runtime_error("cannot open temp file for " + path);
  if (!content.empty() &&
      std::fwrite(content.data(), 1, content.size(), out.handle()) != content.size())
    throw std::runtime_error("short write to temp file for " + path);
  if (!out.commit()) throw std::runtime_error("cannot commit atomic write to " + path);
}

std::string quarantine_file(const std::string& path) {
  const std::string aside = path + ".corrupt";
  std::remove(aside.c_str());
  if (std::rename(path.c_str(), aside.c_str()) != 0) return {};
  return aside;
}

i64 clean_stale_temps(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.empty() ? "/" : dir.c_str());
  if (d == nullptr) return 0;
  std::vector<std::string> stale;
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix)
      continue;
    // The AtomicFile naming scheme is "<path>.tmp.<pid>.<counter>"; anything
    // matching the prefix but not that shape is not ours -- leave it alone.
    const std::string_view tail = name.substr(prefix.size());
    const size_t dot = tail.find('.');
    if (dot == std::string_view::npos || dot == 0 || dot + 1 >= tail.size()) continue;
    i64 pid = 0, seq = 0;
    const std::string_view pid_sv = tail.substr(0, dot);
    const std::string_view seq_sv = tail.substr(dot + 1);
    auto pr = std::from_chars(pid_sv.data(), pid_sv.data() + pid_sv.size(), pid);
    auto sr = std::from_chars(seq_sv.data(), seq_sv.data() + seq_sv.size(), seq);
    if (pr.ec != std::errc{} || pr.ptr != pid_sv.data() + pid_sv.size() ||
        sr.ec != std::errc{} || sr.ptr != seq_sv.data() + seq_sv.size() || pid <= 0)
      continue;
    // A live writer's temp (our own process included) is in flight, not
    // stale. kill(pid, 0) probes existence: only ESRCH proves the process is
    // gone (EPERM means alive-but-not-ours).
    if (pid == static_cast<i64>(::getpid())) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    stale.push_back((dir.empty() ? std::string("/") : dir + "/") + std::string(name));
  }
  ::closedir(d);
  i64 removed = 0;
  for (const std::string& temp : stale)
    if (std::remove(temp.c_str()) == 0) ++removed;
  return removed;
}

}  // namespace bine::fault
