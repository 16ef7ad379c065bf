#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

constexpr std::array<const char*, kNumSpanKinds> kSpanNames = {
    "data.partition",        "data.label_matrix", "grouping.form",
    "sampling.probabilities", "core.round",        "sampling.sample",
    "runtime.fanout",        "runtime.group",     "algorithms.train_client",
    "data.batch",            "nn.forward",        "nn.loss",
    "nn.backward",           "nn.optimizer",      "compression.wire",
    "secagg.setup",          "secagg.mask",       "secagg.unmask",
    "backdoor.flame",        "nn.group_average",  "core.global_aggregate",
    "core.evaluate",
};

std::atomic<std::uint64_t> g_generation{0};

struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

std::uint32_t slot_of(SpanId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
std::uint32_t index_of(SpanId id) {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
}

bool is_work_under_fanout(SpanKind k) {
  switch (k) {
    case SpanKind::kTrainClient:
    case SpanKind::kWire:
    case SpanKind::kSecaggSetup:
    case SpanKind::kSecaggMask:
    case SpanKind::kSecaggUnmask:
    case SpanKind::kFlame:
    case SpanKind::kGroupAverage:
      return true;
    default:
      return false;
  }
}

/// Length of the union of `intervals` clipped to [lo, hi].
double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
                 std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return static_cast<double>(covered) * 1e-9;
}

double seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

}  // namespace

const char* span_name(SpanKind kind) {
  return kSpanNames[static_cast<std::size_t>(kind)];
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1) + 1) {}

Tracer::ThreadBuffer& Tracer::local() {
  if (t_cache.generation == generation_)
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  const std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->slot = static_cast<std::uint32_t>(buffers_.size());
  t_cache = {generation_, buf.get()};
  buffers_.push_back(std::move(buf));
  return *buffers_.back();
}

SpanId Tracer::open(SpanKind kind, SpanId parent) {
  ThreadBuffer& buf = local();
  if (parent == 0 && !buf.open_stack.empty()) parent = buf.open_stack.back();
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.round = round_.load(std::memory_order_relaxed);
  s.start_ns = now_ns();
  buf.spans.push_back(s);
  const SpanId id = (static_cast<SpanId>(buf.slot) << 32) |
                    static_cast<SpanId>(buf.spans.size());
  buf.open_stack.push_back(id);
  return id;
}

void Tracer::close(SpanId id) {
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = local();
  buf.spans[index_of(id)].end_ns = end;
  buf.open_stack.pop_back();
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Record> out;
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  out.reserve(total);
  for (const auto& b : buffers_)
    for (std::size_t i = 0; i < b->spans.size(); ++i)
      out.push_back({(static_cast<SpanId>(b->slot) << 32) | (i + 1), b->slot,
                     b->spans[i]});
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tid\tparent\tround\tname\tstart_ns\tend_ns\n";
  for (const Record& r : records()) {
    out << r.thread << '\t' << r.id << '\t' << r.span.parent << '\t';
    if (r.span.round == kSetupRound)
      out << "setup";
    else
      out << r.span.round;
    out << '\t' << span_name(r.span.kind) << '\t' << r.span.start_ns << '\t'
        << r.span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

TraceSummary summarize(const std::vector<Tracer::Record>& records) {
  TraceSummary sum;
  // records() lists each thread's spans contiguously in slot order.
  std::vector<std::size_t> slot_offset;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0 && records[i].thread == records[i - 1].thread) continue;
    if (slot_offset.size() <= records[i].thread)
      slot_offset.resize(records[i].thread + 1, 0);
    slot_offset[records[i].thread] = i;
  }
  const auto index = [&](SpanId id) {
    return slot_offset[slot_of(id)] + index_of(id);
  };

  // Children in CSR form.
  std::vector<std::size_t> first(records.size() + 1, 0);
  for (const auto& r : records)
    if (r.span.parent != 0) ++first[index(r.span.parent) + 1];
  for (std::size_t i = 0; i < records.size(); ++i) first[i + 1] += first[i];
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  std::vector<std::size_t> child(first.back());
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].span.parent != 0)
      child[fill[index(records[i].span.parent)]++] = i;

  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  std::vector<std::vector<double>> group_s_by_round;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Span& s = records[i].span;
    intervals.clear();
    for (std::size_t c = first[i]; c < first[i + 1]; ++c)
      intervals.emplace_back(records[child[c]].span.start_ns,
                             records[child[c]].span.end_ns);
    const double covered = covered_s(intervals, s.start_ns, s.end_ns);
    const auto k = static_cast<std::size_t>(s.kind);
    sum.self_s[k] += seconds(s) - covered;
    if (s.kind == SpanKind::kRound) {
      ++sum.rounds;
      sum.round_s.push_back(seconds(s));
      sum.round_covered_s += covered;
    } else if (s.kind == SpanKind::kFanout) {
      sum.fanout_wall_s += seconds(s);
    } else if (s.kind == SpanKind::kGroup) {
      if (group_s_by_round.size() <= s.round)
        group_s_by_round.resize(s.round + 1);
      group_s_by_round[s.round].push_back(seconds(s));
    }
    if (s.round != kSetupRound && is_work_under_fanout(s.kind))
      sum.fanout_busy_s += seconds(s);
  }
  for (auto& groups : group_s_by_round) {
    if (groups.empty()) continue;
    std::sort(groups.begin(), groups.end());
    const std::size_t n = groups.size();
    const double median = n % 2 ? groups[n / 2]
                                : 0.5 * (groups[n / 2 - 1] + groups[n / 2]);
    sum.group_straggler_s.push_back(groups.back() - median);
  }
  return sum;
}

}  // namespace perfbench
