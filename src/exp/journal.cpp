#include "exp/journal.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstring>

#include "core/fnv.hpp"
#include "fault/fault.hpp"

namespace bine::exp {

namespace {

constexpr std::string_view kMagic = "binejournal";
/// Bumped whenever a record's meaning changes, so a resume never mixes
/// records written under two definitions: 2 redefined the verified-run
/// digest over held execution cells.
constexpr i64 kVersion = 2;

std::string hex16(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// "0x<16 hex>" -> value; false on any deviation.
bool parse_hex16(std::string_view s, u64& out) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return false;
  u64 v = 0;
  for (const char c : s.substr(2)) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<u64>(c - 'a' + 10);
    else
      return false;
  }
  out = v;
  return true;
}

bool parse_size(std::string_view s, size_t& out) {
  if (s.empty()) return false;
  size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<size_t>(c - '0');
  }
  out = v;
  return true;
}

std::string header_line(u64 fingerprint) {
  return std::string(kMagic) + " " + std::to_string(kVersion) + " " +
         hex16(fingerprint) + "\n";
}

std::string record_frame(std::string_view key, std::string_view payload) {
  std::string out = "cell ";
  out += key;
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += hex16(Journal::checksum(payload));
  out += '\n';
  out += payload;
  out += "\n";
  return out;
}

/// What parsing the on-disk bytes recovered.
struct Parsed {
  bool header_ok = false;
  u64 fingerprint = 0;
  std::map<std::string, std::string, std::less<>> records;
  i64 dropped = 0;   ///< checksum-failing records + the torn tail (if any)
  bool clean = true; ///< the bytes are exactly a valid journal
  std::string note;  ///< first damage, with its byte offset
};

Parsed parse_journal(const std::string& content) {
  Parsed out;
  const size_t header_end = content.find('\n');
  if (header_end == std::string::npos) {
    out.clean = false;
    out.note = "unrecognized journal header";
    return out;
  }
  {
    const std::string_view line(content.data(), header_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    u64 fp = 0;
    if (sp2 == std::string_view::npos || line.substr(0, sp1) != kMagic ||
        line.substr(sp1 + 1, sp2 - sp1 - 1) != std::to_string(kVersion) ||
        !parse_hex16(line.substr(sp2 + 1), fp)) {
      out.clean = false;
      out.note = "unrecognized journal header";
      return out;
    }
    out.header_ok = true;
    out.fingerprint = fp;
  }

  size_t pos = header_end + 1;
  while (pos < content.size()) {
    const size_t record_at = pos;
    const size_t line_end = content.find('\n', pos);
    bool framed = false;
    std::string_view key;
    size_t payload_bytes = 0;
    u64 sum = 0;
    if (line_end != std::string::npos) {
      const std::string_view line(content.data() + pos, line_end - pos);
      const size_t sp1 = line.find(' ');
      const size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
      const size_t sp3 = sp2 == std::string_view::npos ? sp2 : line.find(' ', sp2 + 1);
      if (sp3 != std::string_view::npos && line.substr(0, sp1) == "cell" &&
          sp1 + 1 < sp2 && parse_size(line.substr(sp2 + 1, sp3 - sp2 - 1), payload_bytes) &&
          parse_hex16(line.substr(sp3 + 1), sum) &&
          line_end + 1 + payload_bytes < content.size() &&
          content[line_end + 1 + payload_bytes] == '\n') {
        key = line.substr(sp1 + 1, sp2 - sp1 - 1);
        framed = true;
      }
    }
    if (!framed) {
      // Torn tail (the SIGKILL-mid-append case): nothing after the tear can
      // be trusted to be record-aligned, so the rest is dropped whole.
      out.clean = false;
      ++out.dropped;
      if (out.note.empty())
        out.note = "torn journal tail at byte " + std::to_string(record_at);
      break;
    }
    const std::string_view payload(content.data() + line_end + 1, payload_bytes);
    pos = line_end + 1 + payload_bytes + 1;
    if (Journal::checksum(payload) != sum) {
      // Framing is intact, so only this record is lost; later records (and
      // their cells) survive the bit flip.
      out.clean = false;
      ++out.dropped;
      if (out.note.empty())
        out.note = "checksum mismatch in journal record at byte " +
                   std::to_string(record_at);
      continue;
    }
    out.records[std::string(key)] = std::string(payload);
  }
  return out;
}

}  // namespace

u64 Journal::checksum(std::string_view payload) noexcept {
  u64 h = core::kFnvOffset;
  core::fnv_mix_bytes(h, payload.data(), payload.size());
  return h;
}

std::unique_ptr<Journal> Journal::open(std::string path, u64 fingerprint,
                                       OpenReport* report) {
  OpenReport local;
  OpenReport& rep = report ? *report : local;
  rep = OpenReport{};

  // A previous incarnation killed between temp write and rename strands a
  // *.tmp; reclaim our own artifact's garbage before touching anything.
  (void)fault::clean_stale_temps(path);

  std::string content;
  bool exists = false;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    exists = true;
    char buf[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
    std::fclose(f);
  }

  auto journal = std::unique_ptr<Journal>(new Journal());
  journal->path_ = path;
  journal->fingerprint_ = fingerprint;

  bool rewrite = !exists;  // fresh file: just the header
  if (exists && content.empty()) {
    rewrite = true;  // zero-byte artifact: adopt it silently
  } else if (exists) {
    Parsed parsed = parse_journal(content);
    if (parsed.header_ok && parsed.fingerprint != fingerprint) {
      // A journal for a DIFFERENT plan: replaying it would violate the
      // byte-identity contract. Quarantine whole and start fresh.
      rep.quarantined = !fault::quarantine_file(path).empty();
      rep.notes.push_back("journal " + path + " belongs to plan fingerprint " +
                          hex16(parsed.fingerprint) + ", expected " + hex16(fingerprint) +
                          "; quarantined");
      rewrite = true;
    } else if (!parsed.header_ok) {
      rep.quarantined = !fault::quarantine_file(path).empty();
      rep.notes.push_back("journal " + path + ": " + parsed.note + "; quarantined");
      rewrite = true;
    } else {
      journal->records_ = std::move(parsed.records);
      rep.replayable = static_cast<i64>(journal->records_.size());
      rep.dropped = parsed.dropped;
      if (!parsed.clean) {
        // Damage found: move the damaged bytes aside and rewrite the valid
        // prefix clean, so the next kill-resume cycle starts from a
        // well-formed file (load_or_quarantine's discipline).
        rep.quarantined = !fault::quarantine_file(path).empty();
        rep.notes.push_back("journal " + path + ": " + parsed.note + "; dropped " +
                            std::to_string(parsed.dropped) +
                            " record(s), quarantined damaged bytes");
        rewrite = true;
      }
    }
  }

  if (rewrite) {
    fault::AtomicFile clean(path);
    if (!clean) {
      rep.notes.push_back("journal " + path + ": cannot open for writing");
      return nullptr;
    }
    std::string fresh = header_line(fingerprint);
    for (const auto& [key, payload] : journal->records_)
      fresh += record_frame(key, payload);
    if (std::fwrite(fresh.data(), 1, fresh.size(), clean.handle()) != fresh.size() ||
        !clean.commit()) {
      rep.notes.push_back("journal " + path + ": cannot rewrite");
      return nullptr;
    }
  }

  journal->file_ = std::fopen(path.c_str(), "ab");
  if (journal->file_ == nullptr) {
    rep.notes.push_back("journal " + path + ": cannot open for appending");
    return nullptr;
  }
  return journal;
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

const std::string* Journal::lookup(std::string_view key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

bool Journal::append(std::string_view key, std::string_view payload) {
  if (file_ == nullptr) return false;
  const std::string frame = record_frame(key, payload);
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) return false;
  if (std::fflush(file_) != 0) return false;
  // The durability point: after this the record survives SIGKILL and power
  // loss; a kill mid-append leaves a torn tail the next open() drops.
  // fdatasync, not fsync: POSIX guarantees it flushes the data plus the
  // metadata needed to read it back (the new file size), and skipping the
  // mtime flush roughly halves the per-record cost.
  return ::fdatasync(::fileno(file_)) == 0;
}

}  // namespace bine::exp
