// Generalized fork+pipe worker pool for sharded run-point execution.
//
// This is the PR 3 sweep machinery, extracted and generalized: the caller
// hands over an *indexed task list* (any mix of scenarios — runCampaign
// shards the flattened grids of every scenario it was given)
// and a pool of forked workers executes the tasks round-robin, streaming
// each finished MetricRow back over a pipe. The parent reassembles rows by
// task index, so the merged result is byte-identical to a serial run: a
// worker's identity never reaches a row, and tasks must derive any
// randomness from their index, never from execution order.
//
// Diagnostics: each worker announces the task it is about to run (a
// "BEGIN <index>" control line) and carries a dedicated stderr pipe. When a
// worker dies — nonzero exit, uncaught exception, or a signal mid-point —
// the parent reports *which* task was in flight (via the caller's describe
// hook, e.g. "scenario 'fig4_mss' point 12 (mss_frames=3, seed=2)") plus
// the tail of everything the worker wrote to stderr, instead of the bare
// "a worker exited abnormally" of PR 3.
//
// Resumability: `skip[i]` marks tasks whose rows the caller already has
// (e.g. from a campaign manifest); they are never assigned to a worker.
// `onRow` fires in the parent as each row lands — the campaign manifest
// appends completed points through it, so an interrupted run can resume.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tcplp/scenario/metrics.hpp"

namespace tcplp::scenario {

/// One worker death, attributed to the task it was executing.
struct ShardFailure {
    int worker = -1;       // worker slot (0-based)
    int waitStatus = 0;    // raw waitpid() status
    bool taskKnown = false;
    std::size_t taskIndex = 0;   // valid when taskKnown
    std::string taskDescription; // describe(taskIndex), when known
    std::string stderrTail;      // last bytes the worker wrote to stderr

    /// "worker 2 killed by signal 9 while running scenario 'x' point 3
    ///  (hops=2, seed=1); stderr tail: ..." — the one-line diagnostic.
    std::string message() const;
};

struct ShardOptions {
    int jobs = 1;  // <=1: serial in-process
    /// Tasks to skip (already done); empty = run everything.
    std::vector<bool> skip{};
    /// Parent-side hook, called as each row lands (serial path: after each
    /// task). NOT called for skipped tasks.
    std::function<void(std::size_t, const MetricRow&)> onRow;
};

struct ShardOutcome {
    bool ok = false;
    std::string error;                    // first failure's message
    std::vector<ShardFailure> failures;   // every dead worker, attributed
    std::vector<MetricRow> rows;          // indexed by task; skipped = empty
    std::vector<bool> produced;           // rows[i] holds a fresh row
};

/// Executes tasks 0..taskCount-1 (minus skipped ones). `run(i)` computes
/// task i's row — it executes inside a forked worker when jobs > 1 and must
/// not print to stdout; exceptions it throws fail that worker with the
/// what() captured in the stderr tail. `describe(i)` renders a short
/// human-readable name for task i, used only in failure diagnostics.
ShardOutcome runShardedTasks(std::size_t taskCount,
                             const std::function<MetricRow(std::size_t)>& run,
                             const std::function<std::string(std::size_t)>& describe,
                             const ShardOptions& options = {});

}  // namespace tcplp::scenario
