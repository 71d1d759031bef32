#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

/// The durable-execution substrate: an append-only, fsync-per-record,
/// per-record-checksummed cell journal.
///
/// A journaled sweep appends one record per completed (system, collective, p)
/// work item, keyed by the cell's coordinates and guarded by the owning
/// plan's fingerprint in the header. A run killed at ANY byte boundary --
/// SIGKILL mid-record included -- resumes by replaying the valid record
/// prefix and re-executing only what is missing; because every cell is a
/// pure function of its plan coordinates, the resumed result is
/// byte-identical to an uninterrupted run.
///
/// On-disk layout (plain text, newline-framed):
///
///   binejournal 2 0x<16-hex plan fingerprint>\n
///   cell <key> <payload_bytes> 0x<16-hex FNV-1a of payload>\n
///   <payload bytes>\n
///   ... more records ...
///
/// Damage discipline mirrors tune::DecisionTable::load_or_quarantine: a
/// journal written for a different plan fingerprint is quarantined whole
/// (*.corrupt) and the run starts fresh; a record failing its checksum is
/// dropped (framing intact -> later records survive); a torn tail (framing
/// broken -- the SIGKILL case) drops everything from the tear on. Whenever
/// anything was dropped, the damaged file is quarantined aside and the
/// surviving records are rewritten clean before appending resumes, so damage
/// never compounds across kill-resume cycles.
namespace bine::exp {

class Journal {
 public:
  /// What open() found on disk.
  struct OpenReport {
    i64 replayable = 0;        ///< valid records loaded for replay
    i64 dropped = 0;           ///< records discarded (checksum failure / torn tail)
    bool quarantined = false;  ///< damaged/stale bytes moved aside as *.corrupt
    std::vector<std::string> notes;
  };

  /// Open (or create) the journal at `path` for a plan with this
  /// fingerprint. Never throws on damage -- damaged or stale content is
  /// quarantined and reported, and the returned journal is always writable.
  /// Stale AtomicFile temps for `path` (a previous incarnation killed
  /// mid-rewrite) are cleaned first. Returns nullptr only when the file
  /// cannot be opened for appending at all (the caller degrades to
  /// journal-off execution).
  [[nodiscard]] static std::unique_ptr<Journal> open(std::string path, u64 fingerprint,
                                                     OpenReport* report = nullptr);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] u64 fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] size_t records() const noexcept { return records_.size(); }

  /// The replayable payload for `key`, or nullptr. Reflects the state found
  /// at open(); records appended by this handle are not re-read (the engine
  /// resolves replays before executing anything).
  [[nodiscard]] const std::string* lookup(std::string_view key) const;

  /// Append one completed cell: the record is written, flushed and fsync'd
  /// before returning, so a kill after append() can never lose the cell.
  /// Thread-safe (records never interleave). Returns false on I/O failure --
  /// journaling degrades to best-effort rather than failing the sweep.
  [[nodiscard]] bool append(std::string_view key, std::string_view payload);

  /// The FNV-1a checksum record frames carry (exposed for tests).
  [[nodiscard]] static u64 checksum(std::string_view payload) noexcept;

 private:
  Journal() = default;

  std::string path_;
  u64 fingerprint_ = 0;
  std::map<std::string, std::string, std::less<>> records_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace bine::exp
