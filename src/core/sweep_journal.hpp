// Per-cell checkpoint journal for run_sweep (`sweep_checkpoint.bin`).
//
// Layout: one wire-protocol frame per record (runtime/proc/wire.hpp — each
// frame carries its own FNV-1a checksum), starting with a header frame
// binding the journal to a sweep fingerprint, followed by one record frame
// per COMPLETED cell (u64 cell index + encoded SweepCellResult), appended
// and flushed as cells finish.
//
// Resume semantics: a sweep killed mid-run leaves at worst a truncated
// final frame; load() keeps every intact record and drops the tail, so a
// `--resume` run re-executes exactly the missing cells and its results are
// byte-identical to an uninterrupted run. A journal whose fingerprint does
// not match the current cell list is rejected (std::runtime_error) — it
// belongs to a different sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>

#include "core/sweep.hpp"

namespace groupfel::core {

class SweepJournal {
 public:
  /// Frame tags within a journal file.
  static constexpr std::uint8_t kHeaderFrame = 1;
  static constexpr std::uint8_t kRecordFrame = 2;

  /// Parses `path` and returns the completed cells it holds, keyed by cell
  /// index. Missing file -> empty map. Throws std::runtime_error when the
  /// file is not a journal (bad header), was written with another
  /// kSweepCodecVersion, or was written for a different sweep
  /// (`fingerprint`/`num_cells` mismatch). Tolerates a truncated or
  /// checksum-failing tail — everything after the first damaged frame is
  /// dropped.
  [[nodiscard]] static std::map<std::size_t, SweepCellResult> load(
      const std::string& path, std::uint64_t fingerprint,
      std::size_t num_cells);

  /// Opens `path` for writing: header frame plus one record frame per entry
  /// of `retained` (the records a resumed run carried over). Rewriting on
  /// open is what heals a truncated tail left by a kill. Throws on I/O
  /// failure.
  SweepJournal(const std::string& path, std::uint64_t fingerprint,
               std::size_t num_cells,
               const std::map<std::size_t, SweepCellResult>& retained);

  /// Appends one completed cell and flushes, so the record survives a kill
  /// arriving right after. NOT thread-safe — run_sweep serializes appends.
  void append(std::size_t index, const SweepCellResult& result);

 private:
  std::ofstream out_;
  std::string path_;
};

}  // namespace groupfel::core
