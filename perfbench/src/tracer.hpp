// In-memory span recorder for the traced benchmark pass.
//
// A span is one call into a groupfel layer made from benchmark code: its
// kind (which names the layer), start and end on std::chrono::steady_clock,
// the span that caused it, and the global round it belongs to. Each thread
// appends to its own buffer, so recording takes no lock after a thread's
// first span; buffers are merged only when the run ends, when the per-layer
// metrics are computed and the spans are written out as TSV.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  // Control plane (setup replay, round == kSetupRound).
  kPartition,
  kLabelMatrix,
  kGrouping,
  kProbabilities,
  // One global round and its structure.
  kRound,
  kSample,
  kFanout,
  kGroup,
  kTrainClient,
  // Inside one client's local SGD.
  kBatch,
  kForward,
  kLoss,
  kBackward,
  kOptimizer,
  // Group operations.
  kWire,
  kSecaggSetup,
  kSecaggMask,
  kSecaggUnmask,
  kFlame,
  kGroupAverage,
  // Cloud.
  kGlobalAggregate,
  kEvaluate,
  kCount,
};

inline constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

/// Span name as written to the trace: `<layer>.<call>`.
[[nodiscard]] const char* span_name(SpanKind kind);

/// Identifies a span across threads: (thread slot << 32) | index + 1.
/// 0 means "no parent".
using SpanId = std::uint64_t;

inline constexpr std::uint32_t kSetupRound = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  SpanId parent = 0;
  std::uint32_t round = kSetupRound;
  SpanKind kind = SpanKind::kRound;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Round stamped on spans opened from now on (set by the round loop).
  void set_round(std::uint32_t round) {
    round_.store(round, std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its id. `parent` 0 means
  /// "the innermost span still open on this thread".
  SpanId open(SpanKind kind, SpanId parent);
  void close(SpanId id);

  /// A span merged from all thread buffers; `id` as returned by open().
  struct Record {
    SpanId id = 0;
    std::uint32_t thread = 0;
    Span span;
  };
  /// Every closed span, grouped by thread in open order. Call only after
  /// every traced pool loop has returned.
  [[nodiscard]] std::vector<Record> records() const;

  /// Writes `records()` as TSV: thread, id, parent, round, name, start_ns,
  /// end_ns. Returns false if the file could not be written.
  bool write_tsv(const std::string& path) const;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  struct ThreadBuffer {
    std::uint32_t slot = 0;
    std::vector<Span> spans;
    std::vector<SpanId> open_stack;
  };
  ThreadBuffer& local();

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t generation_;
  std::atomic<std::uint32_t> round_{kSetupRound};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op (the untraced SGD mirror).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, SpanId parent = 0)
      : tracer_(tracer), id_(tracer ? tracer->open(kind, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

/// Per-round self time by span kind, plus the structural quantities the
/// per-layer metrics need. Self time is a span's duration minus the part
/// of it covered by the union of its children's intervals.
struct TraceSummary {
  std::size_t rounds = 0;
  std::array<double, kNumSpanKinds> self_s{};  ///< summed over all spans
  std::vector<double> round_s;                  ///< wall time per round
  double round_covered_s = 0.0;  ///< union of each round's children, summed
  double fanout_wall_s = 0.0;    ///< summed over rounds
  double fanout_busy_s = 0.0;    ///< work spans under the fan-out
  std::vector<double> group_straggler_s;  ///< per round: max - median group
};

[[nodiscard]] TraceSummary summarize(
    const std::vector<Tracer::Record>& records);

}  // namespace perfbench
