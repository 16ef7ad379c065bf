#include "core/sweep_journal.hpp"

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/sweep_codec.hpp"
#include "runtime/proc/wire.hpp"

namespace groupfel::core {

namespace proc = runtime::proc;

namespace {

std::vector<std::byte> header_payload(std::uint64_t fingerprint,
                                      std::size_t num_cells) {
  nn::ByteWriter w;
  w.u32(kSweepCodecVersion);
  w.u64(fingerprint);
  w.size(num_cells);
  return w.take();
}

std::vector<std::byte> record_payload(std::size_t index,
                                      const SweepCellResult& result) {
  nn::ByteWriter w;
  w.size(index);
  const std::vector<std::byte> body = encode_cell_result(result);
  w.size(body.size());
  std::vector<std::byte> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void write_frame(std::ofstream& out, std::uint8_t type,
                 std::span<const std::byte> payload, const std::string& path) {
  const std::vector<std::byte> frame = proc::encode_frame(type, payload);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out)
    throw std::runtime_error("SweepJournal: write failed for " + path);
}

}  // namespace

std::map<std::size_t, SweepCellResult> SweepJournal::load(
    const std::string& path, std::uint64_t fingerprint,
    std::size_t num_cells) {
  std::map<std::size_t, SweepCellResult> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no journal yet -> nothing completed

  const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  const std::span<const std::byte> buf{
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()};

  std::size_t offset = 0;
  proc::Frame frame;

  // Header must be intact and match this sweep; anything else is a real
  // error — resuming against the wrong journal silently merges results of
  // different configurations.
  if (proc::parse_frame(buf, offset, frame) != proc::ParseStatus::kOk ||
      frame.type != kHeaderFrame)
    throw std::runtime_error("SweepJournal: " + path +
                             " is not a sweep checkpoint journal");
  {
    nn::ByteReader r(frame.payload);
    const std::uint32_t version = r.u32();
    if (version != kSweepCodecVersion)
      throw std::runtime_error(
          "SweepJournal: " + path + " uses codec version " +
          std::to_string(version) + ", this build expects version " +
          std::to_string(kSweepCodecVersion) + "; delete it or drop --resume");
    const std::uint64_t fp = r.u64();
    const std::size_t cells = r.size();
    r.expect_done();
    if (fp != fingerprint || cells != num_cells)
      throw std::runtime_error(
          "SweepJournal: " + path +
          " was written by a different sweep (fingerprint/cell-count "
          "mismatch); delete it or drop --resume");
  }

  // Records: keep every intact frame, stop at the first damaged one (the
  // truncated tail a kill mid-append leaves behind).
  while (offset < buf.size()) {
    const proc::ParseStatus status = proc::parse_frame(buf, offset, frame);
    if (status != proc::ParseStatus::kOk) break;
    if (frame.type != kRecordFrame) break;
    nn::ByteReader r(frame.payload);
    const std::size_t index = r.size();
    const std::size_t body_bytes = r.size();
    if (body_bytes != r.remaining() || index >= num_cells) break;
    out[index] = decode_cell_result(
        std::span<const std::byte>(frame.payload).subspan(
            frame.payload.size() - body_bytes));
  }
  return out;
}

SweepJournal::SweepJournal(
    const std::string& path, std::uint64_t fingerprint, std::size_t num_cells,
    const std::map<std::size_t, SweepCellResult>& retained)
    : path_(path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw std::runtime_error("SweepJournal: cannot open " + path +
                             " for writing");
  write_frame(out_, kHeaderFrame, header_payload(fingerprint, num_cells),
              path_);
  for (const auto& [index, result] : retained) append(index, result);
}

void SweepJournal::append(std::size_t index, const SweepCellResult& result) {
  write_frame(out_, kRecordFrame, record_payload(index, result), path_);
}

}  // namespace groupfel::core
