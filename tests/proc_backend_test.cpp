// Multi-process sweep backend tests: the tier-1 gate proving the process
// backend is bit-identical to the serial and in-process backends (for any
// worker count), that a killed worker surfaces as a diagnosable error while
// the checkpoint journal keeps every completed cell, and that a killed sweep
// resumed with SweepOptions::resume reproduces the uninterrupted run byte
// for byte while re-executing only the missing cells.
#include "core/sweep_proc.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "core/sweep_codec.hpp"
#include "core/sweep_journal.hpp"
#include "runtime/proc/subprocess.hpp"
#include "runtime/proc/wire.hpp"

namespace groupfel {
namespace {

namespace proc = runtime::proc;

/// Tiny but non-trivial sweep (mirrors sweep_scheduler_test): three methods
/// including SCAFFOLD on one shared federation, plus a seed-shifted cell.
std::vector<core::SweepCell> tiny_cells() {
  core::ExperimentSpec spec;
  spec.num_clients = 12;
  spec.num_edges = 2;
  spec.size_mean = 24;
  spec.size_std = 4;
  spec.size_min = 16;
  spec.size_max = 32;
  spec.test_size = 60;
  spec.mlp_hidden = 16;
  spec.seed = 11;

  std::vector<core::SweepCell> cells;
  for (const auto method : {core::Method::kFedAvg, core::Method::kScaffold,
                            core::Method::kGroupFel}) {
    core::SweepCell cell;
    cell.label = core::to_string(method);
    cell.spec = spec;
    cell.config.global_rounds = 2;
    cell.config.group_rounds = 2;
    cell.config.local_epochs = 1;
    cell.config.sampled_groups = 2;
    cell.config.local.batch_size = 8;
    cell.config.grouping_params.min_group_size = 3;
    cell.config.eval_every = 1;
    cell.config.seed = spec.seed ^ 0x5eed;
    core::apply_method(method, cell.config);
    cell.task = spec.task;
    cell.op = core::cost_group_op(method);
    cells.push_back(std::move(cell));
  }
  core::SweepCell other = cells.front();
  other.label = "FedAvg/seed1";
  other.spec.seed = spec.seed + 1000;
  other.config.seed = other.spec.seed ^ 0x5eed;
  cells.push_back(std::move(other));
  return cells;
}

/// One cheap cell followed by slower ones — the shape the kill tests use so
/// a signal sent after the first journal record lands mid-sweep.
std::vector<core::SweepCell> front_loaded_cells(std::size_t n,
                                                std::size_t slow_rounds) {
  std::vector<core::SweepCell> cells = tiny_cells();
  cells.resize(1);
  for (std::size_t i = 1; i < n; ++i) {
    core::SweepCell cell = cells.front();
    cell.label = "slow/" + std::to_string(i);
    cell.config.global_rounds = slow_rounds;
    cell.config.seed = 0x5eed + i;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void expect_sweeps_identical(const core::SweepRunResult& a,
                             const core::SweepRunResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    const core::TrainResult& ra = a.cells[i].result;
    const core::TrainResult& rb = b.cells[i].result;
    ASSERT_EQ(ra.history.size(), rb.history.size()) << a.cells[i].label;
    for (std::size_t j = 0; j < ra.history.size(); ++j) {
      EXPECT_EQ(ra.history[j].accuracy, rb.history[j].accuracy)
          << a.cells[i].label << " round " << j;
      EXPECT_EQ(ra.history[j].train_loss, rb.history[j].train_loss)
          << a.cells[i].label << " round " << j;
      EXPECT_EQ(ra.history[j].test_loss, rb.history[j].test_loss)
          << a.cells[i].label << " round " << j;
    }
    ASSERT_EQ(ra.final_params.size(), rb.final_params.size());
    for (std::size_t j = 0; j < ra.final_params.size(); ++j)
      EXPECT_EQ(ra.final_params[j], rb.final_params[j])
          << a.cells[i].label << " param " << j;
  }
}

/// Strongest identity check: the encoded bytes of two results, minus the
/// wall-time field, must match exactly.
void expect_cells_byte_identical(const core::SweepCellResult& a,
                                 const core::SweepCellResult& b) {
  core::SweepCellResult na = a, nb = b;
  na.seconds = nb.seconds = 0.0;
  EXPECT_EQ(core::encode_cell_result(na), core::encode_cell_result(nb))
      << a.label;
}

/// Number of intact record frames currently in a journal file.
std::size_t journal_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  const std::span<const std::byte> buf{
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()};
  std::size_t offset = 0, records = 0;
  proc::Frame frame;
  while (proc::parse_frame(buf, offset, frame) == proc::ParseStatus::kOk)
    if (frame.type == core::SweepJournal::kRecordFrame) ++records;
  return records;
}

core::SweepRunResult run_serial_reference(
    const std::vector<core::SweepCell>& cells) {
  runtime::ThreadPool inline_pool(0);
  core::SweepOptions opts;
  opts.pool = &inline_pool;
  opts.serial_cells = true;
  return core::run_sweep(cells, opts);
}

TEST(ProcBackend, BitIdenticalToSerialAndInProcess) {
  const std::vector<core::SweepCell> cells = tiny_cells();
  const core::SweepRunResult reference = run_serial_reference(cells);

  runtime::ThreadPool pool(2);
  core::SweepOptions inproc;
  inproc.pool = &pool;
  const core::SweepRunResult in_process = core::run_sweep(cells, inproc);
  expect_sweeps_identical(reference, in_process);

  for (const std::size_t workers : {1UL, 4UL}) {
    core::SweepOptions opts;
    opts.backend = core::SweepBackend::kProcess;
    opts.workers = workers;
    const core::SweepRunResult procs = core::run_sweep(cells, opts);
    expect_sweeps_identical(reference, procs);
    for (std::size_t i = 0; i < cells.size(); ++i)
      expect_cells_byte_identical(reference.cells[i], procs.cells[i]);
    EXPECT_EQ(procs.cells_from_checkpoint, 0u);
    EXPECT_EQ(procs.distinct_experiments, 2u);
  }
}

TEST(ProcBackend, WorkerRunsMultipleCellsWithSharedSpecCache) {
  // 4 cells through 2 workers forces at least one worker to take several
  // cells and exercise its experiment cache.
  const std::vector<core::SweepCell> cells = tiny_cells();
  const core::SweepRunResult reference = run_serial_reference(cells);
  core::SweepOptions opts;
  opts.backend = core::SweepBackend::kProcess;
  opts.workers = 2;
  const core::SweepRunResult procs = core::run_sweep(cells, opts);
  expect_sweeps_identical(reference, procs);
}

TEST(ProcBackend, ResumeRunsOnlyMissingCells) {
  const char* path = "/tmp/groupfel_resume_test.bin";
  const std::vector<core::SweepCell> cells = tiny_cells();
  const core::SweepRunResult reference = run_serial_reference(cells);

  // Full journaled run, then keep the header + first two records and append
  // garbage — the torn tail a kill mid-append leaves behind.
  {
    runtime::ThreadPool inline_pool(0);
    core::SweepOptions opts;
    opts.pool = &inline_pool;
    opts.serial_cells = true;
    opts.checkpoint_path = path;
    const core::SweepRunResult full = core::run_sweep(cells, opts);
    expect_sweeps_identical(reference, full);
    ASSERT_EQ(journal_records(path), cells.size());
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    in.close();
    const std::span<const std::byte> buf{
        reinterpret_cast<const std::byte*>(raw.data()), raw.size()};
    std::size_t offset = 0;
    proc::Frame frame;
    for (int i = 0; i < 3; ++i)  // header + two records
      ASSERT_EQ(proc::parse_frame(buf, offset, frame), proc::ParseStatus::kOk);
    raw.resize(offset);
    raw.insert(raw.end(), {'\x47', '\x46', '\x57'});  // torn partial frame
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }

  runtime::ThreadPool inline_pool(0);
  core::SweepOptions opts;
  opts.pool = &inline_pool;
  opts.serial_cells = true;
  opts.checkpoint_path = path;
  opts.resume = true;
  const core::SweepRunResult resumed = core::run_sweep(cells, opts);
  EXPECT_EQ(resumed.cells_from_checkpoint, 2u);
  expect_sweeps_identical(reference, resumed);
  for (std::size_t i = 0; i < cells.size(); ++i)
    expect_cells_byte_identical(reference.cells[i], resumed.cells[i]);
  // The rewrite-on-open healed the torn tail: journal is whole again.
  EXPECT_EQ(journal_records(path), cells.size());
  std::remove(path);
}

TEST(ProcBackend, ResumeRejectsJournalFromDifferentSweep) {
  const char* path = "/tmp/groupfel_resume_mismatch_test.bin";
  std::vector<core::SweepCell> cells = tiny_cells();
  {
    runtime::ThreadPool inline_pool(0);
    core::SweepOptions opts;
    opts.pool = &inline_pool;
    opts.serial_cells = true;
    opts.checkpoint_path = path;
    (void)core::run_sweep(cells, opts);
  }
  cells.back().config.seed ^= 1;  // different sweep now
  runtime::ThreadPool inline_pool(0);
  core::SweepOptions opts;
  opts.pool = &inline_pool;
  opts.serial_cells = true;
  opts.checkpoint_path = path;
  opts.resume = true;
  EXPECT_THROW((void)core::run_sweep(cells, opts), std::runtime_error);
  std::remove(path);
}

TEST(ProcBackend, WorkerKilledAtSpawnIsADiagnosableError) {
  const std::vector<core::SweepCell> cells = tiny_cells();
  core::SweepOptions opts;
  opts.backend = core::SweepBackend::kProcess;
  opts.workers = 1;
  opts.on_worker_spawn = [](int pid) { kill(pid, SIGKILL); };
  try {
    (void)core::run_sweep(cells, opts);
    FAIL() << "expected a worker-death error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sweep worker"), std::string::npos)
        << e.what();
  }
}

TEST(ProcBackend, WorkerDeadBeforeFirstCellIsNamedInTheError) {
  // The worker is reaped-dead (a zombie, still waitable) before dispatch,
  // so the first cell's write always fails with EPIPE; the error must name
  // the worker and its signal, not just the broken pipe.
  const std::vector<core::SweepCell> cells = tiny_cells();
  core::SweepOptions opts;
  opts.backend = core::SweepBackend::kProcess;
  opts.workers = 1;
  opts.on_worker_spawn = [](int pid) {
    kill(pid, SIGKILL);
    siginfo_t info{};
    ASSERT_EQ(waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT),
              0);
  };
  try {
    (void)core::run_sweep(cells, opts);
    FAIL() << "expected a worker-death error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep worker pid "), std::string::npos) << what;
    EXPECT_NE(what.find("killed by signal " + std::to_string(SIGKILL)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(cells.front().label), std::string::npos) << what;
  }
}

TEST(ProcBackend, WorkerKilledMidSweepKeepsCompletedCellsInJournal) {
  const char* path = "/tmp/groupfel_crash_journal_test.bin";
  std::remove(path);
  const std::vector<core::SweepCell> cells = front_loaded_cells(4, 150);
  const core::SweepRunResult reference = run_serial_reference(cells);

  // Kill the (single) worker once the first cell has been journaled; the
  // remaining cells are slow enough that the signal lands mid-sweep.
  int worker_pid = 0;
  core::SweepOptions opts;
  opts.backend = core::SweepBackend::kProcess;
  opts.workers = 1;
  opts.checkpoint_path = path;
  opts.on_worker_spawn = [&](int pid) { worker_pid = pid; };

  std::thread killer([&] {
    while (journal_records(path) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    kill(worker_pid, SIGKILL);
  });
  try {
    (void)core::run_sweep(cells, opts);
    killer.join();
    FAIL() << "expected a worker-death error";
  } catch (const std::runtime_error& e) {
    killer.join();
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep worker pid"), std::string::npos) << what;
    EXPECT_NE(what.find("signal"), std::string::npos) << what;
  }

  // Everything the journal kept is byte-identical to the reference run.
  const std::size_t kept = journal_records(path);
  EXPECT_GE(kept, 1u);
  EXPECT_LT(kept, cells.size());
  const auto retained = core::SweepJournal::load(
      path, core::sweep_fingerprint(cells), cells.size());
  ASSERT_EQ(retained.size(), kept);
  for (const auto& [index, result] : retained)
    expect_cells_byte_identical(reference.cells[index], result);
  std::remove(path);
}

TEST(ProcBackend, KilledSweepResumesByteIdentical) {
  const char* path = "/tmp/groupfel_kill_resume_test.bin";
  std::remove(path);
  const std::vector<core::SweepCell> cells = front_loaded_cells(4, 150);
  const core::SweepRunResult reference = run_serial_reference(cells);

  // Child process runs the journaled process-backend sweep; we SIGKILL it
  // once the first record is durable — exactly the crash --resume exists
  // for. Its orphaned worker exits on pipe EOF (sibling-fd discipline).
  const std::string journal_path = path;
  proc::Subprocess sweep = proc::Subprocess::spawn([&](int, int) {
    core::SweepOptions opts;
    opts.backend = core::SweepBackend::kProcess;
    opts.workers = 1;
    opts.checkpoint_path = journal_path;
    (void)core::run_sweep(cells, opts);
    return 0;
  });
  while (journal_records(path) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sweep.kill_now();
  const proc::ExitStatus status = sweep.wait();
  EXPECT_TRUE(status.signaled);

  runtime::ThreadPool inline_pool(0);
  core::SweepOptions resume;
  resume.pool = &inline_pool;
  resume.serial_cells = true;
  resume.checkpoint_path = path;
  resume.resume = true;
  const core::SweepRunResult resumed = core::run_sweep(cells, resume);
  EXPECT_GE(resumed.cells_from_checkpoint, 1u);
  EXPECT_LT(resumed.cells_from_checkpoint, cells.size());
  expect_sweeps_identical(reference, resumed);
  for (std::size_t i = 0; i < cells.size(); ++i)
    expect_cells_byte_identical(reference.cells[i], resumed.cells[i]);
  EXPECT_EQ(journal_records(path), cells.size());
  std::remove(path);
}

}  // namespace
}  // namespace groupfel
