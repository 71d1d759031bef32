#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coll/registry.hpp"
#include "net/profiles.hpp"

/// The persisted tuning artifact: per (system profile, collective, p) cell, a
/// piecewise decomposition of the message-size axis into intervals with one
/// winning algorithm each (the crossover structure every collective-tuning
/// system from Barchet-Estefanel & Mounié onward persists). tune::Tuner
/// builds tables from sharded candidate sweeps; tune::select() (in process)
/// and svc::Server (over a socket) dispatch through them in O(log
/// intervals).
///
/// Artifact format: versioned JSON (`kTableFormat`/`kTableVersion`), one
/// fingerprint per profile so a table can never silently serve winners tuned
/// for a different machine model. Loading is defensive by contract:
///
///   * format/version mismatches are rejected with a clear error (never a
///     best-effort parse of a future schema);
///   * structural damage (gaps, overlaps, unknown collectives, empty cells)
///     is rejected;
///   * algorithms that no longer exist in coll::registry are *demoted* to
///     the heuristic default for their cell -- reported via LoadReport, so
///     callers can warn -- instead of failing dispatch at runtime;
///   * consumers (select / svc::Server) verify the profile fingerprint
///     before serving a single decision.
namespace bine::tune {

inline constexpr std::string_view kTableFormat = "bine-decision-table";
inline constexpr i64 kTableVersion = 1;

/// Exclusive upper bound of a cell's last interval ("any larger size").
/// Serialized as -1.
inline constexpr i64 kNoUpperBound = std::numeric_limits<i64>::max();

/// Stable fingerprint of the machine model a table was tuned for: profile
/// name, description (which encodes the topology shape, e.g. the Fugaku
/// sub-torus dims) and the cost-model parameters' exact bit patterns. A
/// non-trivial fault spec attached to the profile is mixed in too -- winners
/// tuned on a degraded machine must never silently serve the healthy one --
/// while fault-free profiles fingerprint exactly as before the fault layer.
[[nodiscard]] u64 profile_fingerprint(const net::SystemProfile& profile);

/// One piece of a cell's size axis: [lo_bytes, hi_bytes) -> algorithm.
struct SizeInterval {
  i64 lo_bytes = 0;              ///< inclusive
  i64 hi_bytes = kNoUpperBound;  ///< exclusive
  std::string algorithm;
  friend bool operator==(const SizeInterval&, const SizeInterval&) = default;
};

struct CellKey {
  std::string profile;
  sched::Collective coll{};
  i64 p = 0;
  friend auto operator<=>(const CellKey&, const CellKey&) = default;
};

/// What load-time validation did to a parsed table.
struct LoadReport {
  i64 cells = 0;
  i64 demoted_intervals = 0;  ///< unknown algorithms replaced by the default
  std::vector<std::string> notes;
};

class DecisionTable {
 public:
  /// Record the fingerprint of a profile this table was tuned for.
  void set_profile(const std::string& name, u64 fingerprint);

  /// Install one cell. Intervals must partition [0, kNoUpperBound) in
  /// order (first lo 0, contiguous, last hi open) with non-empty algorithm
  /// names; throws std::invalid_argument otherwise -- the coverage invariant
  /// is enforced at construction, not discovered at dispatch.
  void set_cell(CellKey key, std::vector<SizeInterval> intervals);

  [[nodiscard]] const std::map<std::string, u64>& profiles() const { return profiles_; }
  [[nodiscard]] const std::map<CellKey, std::vector<SizeInterval>>& cells() const {
    return cells_;
  }

  [[nodiscard]] const std::vector<SizeInterval>* cell(const std::string& profile,
                                                      sched::Collective coll,
                                                      i64 p) const;

  /// Winning algorithm name for (profile, coll, p, bytes): one map lookup
  /// plus an O(log intervals) binary search. nullptr on a miss (cell never
  /// tuned). Does NOT check fingerprints -- that is select()'s job, done
  /// once per consumer, not once per dispatch.
  [[nodiscard]] const std::string* lookup(const std::string& profile,
                                          sched::Collective coll, i64 p,
                                          i64 bytes) const;

  /// Merge `other` into this table: its cells win on overlap (later tuning
  /// runs refresh earlier ones); profile fingerprints must agree where both
  /// tables name the same profile (std::runtime_error otherwise).
  void merge(const DecisionTable& other);

  /// Canonical serialization: fixed field order, cells sorted by key, so
  /// equal tables dump byte-identically (the round-trip tests rely on it).
  [[nodiscard]] std::string dump() const;

  /// Parse + validate (see file comment for the contract). `report`, when
  /// given, receives demotion counts and notes.
  [[nodiscard]] static DecisionTable parse(std::string_view text,
                                           LoadReport* report = nullptr);

  /// Crash-safe save: write-temp-then-rename (fault::write_file_atomic), so
  /// a kill mid-write leaves the previous table intact, never a torn file.
  void save(const std::string& path) const;
  [[nodiscard]] static DecisionTable load(const std::string& path,
                                          LoadReport* report = nullptr);

  /// Defensive load: a file that fails to parse/validate is *quarantined* --
  /// renamed aside as `path + ".corrupt"` with a LoadReport note -- and
  /// nullopt returned, so callers fall back to tuning (tune-on-miss repairs)
  /// instead of failing hard. A missing file is also nullopt (with a note),
  /// distinguishing "no artifact yet" from damage. Only I/O errors that
  /// leave the file in place (e.g. unreadable permissions on the rename)
  /// still throw.
  [[nodiscard]] static std::optional<DecisionTable> load_or_quarantine(
      const std::string& path, LoadReport* report = nullptr);

  friend bool operator==(const DecisionTable&, const DecisionTable&) = default;

 private:
  std::map<std::string, u64> profiles_;
  std::map<CellKey, std::vector<SizeInterval>> cells_;
};

/// What select() does when the table has no cell for a query. Tuning a
/// missed cell is svc::Server's job (single-flight, persisted), not a
/// select() policy. The integer values are hashed into plan fingerprints,
/// journal keys and svc result-cache keys, so they never change.
enum class MissPolicy {
  heuristic_default = 0,  ///< serve coll::recommended_algorithm (the paper's rules)
  error = 1,              ///< throw std::runtime_error
};

struct Selection {
  const coll::AlgorithmEntry* entry = nullptr;
  bool from_table = false;  ///< false = heuristic fallback served the miss
};

/// Tuned dispatch: the winning algorithm for (coll, p, bytes) on `profile`.
/// Negative `bytes` clamp to 0, so a tuned cell serves its first interval.
/// Throws std::runtime_error when the table names `profile` with a different
/// fingerprint (a stale table must never silently serve), and on a miss
/// under MissPolicy::error.
[[nodiscard]] Selection select(const DecisionTable& table,
                               const net::SystemProfile& profile,
                               sched::Collective coll, i64 p, i64 bytes,
                               MissPolicy policy = MissPolicy::heuristic_default);

}  // namespace bine::tune
