#pragma once

#include <cstdint>
#include <string>

#include "src/obs/json.h"

namespace levy::obs {

/// --- Live run progress (--progress[=SECS]) --------------------------------
///
/// A long Monte-Carlo sweep is a black box until its final table lands;
/// this module turns the metrics registry into a heartbeat. A *sampler
/// thread* wakes every `interval_seconds`, snapshots the registry counters
/// the Monte-Carlo driver already maintains (`mc.trials_planned`,
/// `mc.trials_completed`), and prints one line to **stderr** — so stdout
/// stays byte-identical with and without the flag (the resume-determinism
/// CI job diffs stdout). The hot path is untouched: trial completion is the
/// same one relaxed shard increment the registry always does; all reading,
/// rate math, and formatting happen on the sampler thread.
///
/// The reporter is observability, never results: timings are wall-clock and
/// schedule-dependent by nature, which is why they only ever land on stderr
/// and in /progress scrapes, never in tables or CSVs.

struct progress_config {
    double interval_seconds = 2.0;
    /// Prefix for every line (the experiment id in the benches).
    std::string label;
};

/// One consistent reading of the run's in-flight state.
struct progress_snapshot {
    std::string label;
    std::string phase;                      ///< most recent LEVY_SPAN name; "" = none
    std::uint64_t planned = 0;              ///< trials announced by started phases
    std::uint64_t completed = 0;
    std::uint64_t censored = 0;             ///< watchdog-truncated trials
    double elapsed_seconds = 0.0;
    double trials_per_sec = 0.0;            ///< windowed on the sampler, else cumulative
    double eta_seconds = -1.0;              ///< < 0: unknown (no rate yet)
    double checkpoint_age_seconds = -1.0;   ///< < 0: no checkpoint flush yet
};

/// Start the sampler thread. Throws std::logic_error when already running;
/// requires interval_seconds > 0.
void start_progress(const progress_config& cfg);

/// Stop the sampler and emit one final line (so a SIGTERM-cancelled run
/// still reports where it stopped — run_main calls this on the cancellation
/// path before exiting 130). Safe to call when inactive.
void stop_progress();

[[nodiscard]] bool progress_active() noexcept;

/// Monotonic seconds since the first call in this process (steady clock).
/// Shared timebase for checkpoint-age gauges and progress arithmetic.
[[nodiscard]] double monotonic_seconds() noexcept;

/// Record the phase name shown in progress lines; called by every LEVY_SPAN
/// constructor (one relaxed load when progress is off). Best-effort.
void note_progress_phase(const char* name) noexcept;

/// Assemble a snapshot from the registry right now.
/// Works with or without the sampler running (the /progress endpoint uses
/// it on scrape). Cumulative rate; the sampler substitutes a windowed one.
[[nodiscard]] progress_snapshot snapshot_progress();

/// "progress [E6]: 1120/5760 trials (19.4%) | 3210 trials/s | ..." —
/// pure formatting, exposed for tests.
[[nodiscard]] std::string format_progress_line(const progress_snapshot& s);

/// The /progress JSON document (insertion-ordered keys, deterministic
/// serialization for a fixed snapshot).
[[nodiscard]] json progress_to_json(const progress_snapshot& s);

/// Registry metric names the Monte-Carlo driver feeds (also what /metrics
/// exports); centralized so the driver and this reader cannot drift apart.
inline constexpr const char* kTrialsPlannedCounter = "mc.trials_planned";
inline constexpr const char* kTrialsCompletedCounter = "mc.trials_completed";
inline constexpr const char* kRunCensoredCounter = "run.censored";
inline constexpr const char* kCheckpointFlushGauge = "checkpoint.last_flush_seconds";

}  // namespace levy::obs
