#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/contracts.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/rng/rng_stream.h"
#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/thread_pool.h"
#include "src/stats/proportion.h"

namespace levy::sim {

/// Default master seed; every binary that wants different randomness passes
/// its own (benches expose --seed).
inline constexpr std::uint64_t kDefaultSeed = 0x5eed'1e17'ca11'ab1eULL;

/// Monte-Carlo driver configuration.
struct mc_options {
    std::size_t trials = 1000;
    /// 0 = use std::thread::hardware_concurrency().
    unsigned threads = 0;
    std::uint64_t seed = kDefaultSeed;
    /// Work-queue chunk size handed to each worker at a time; 0 = auto
    /// (~8 chunks per worker). Smaller chunks rebalance heavy-tailed trial
    /// costs better at the price of more atomic traffic.
    std::size_t chunk = 0;
    /// When non-empty, completed trial results are journaled to this file
    /// (CRC-checksummed, atomically renamed; see checkpoint.h) and a rerun
    /// with the same (seed, trials, result type) replays the journal and
    /// recomputes only the missing trials — bit-identical to an
    /// uninterrupted run, because each trial's RNG stream depends only on
    /// (seed, trial index). Requires a trivially copyable trial result.
    std::string checkpoint_path = {};
    /// Journal flush cadence: every this many completed trials…
    std::size_t checkpoint_interval = 256;
    /// …or this many seconds since the last flush, whichever comes first.
    /// (Durability only — flush timing can never affect results.)
    double checkpoint_seconds = 5.0;
};

/// Run `fn(i)` for i in [0, n) on the persistent worker pool (chunked
/// dynamic schedule: workers repeatedly claim the next `chunk` indices from
/// a shared atomic counter). The first exception thrown by `fn` is rethrown
/// on the calling thread after the pool drains; remaining chunks are
/// abandoned. `fn` must be safe to call concurrently for distinct i.
/// Returns the run's cost metrics (also added to the process run totals,
/// see `metrics_snapshot`).
pool_metrics parallel_for(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn, std::size_t chunk = 0);

/// Resolve `threads == 0` to the hardware concurrency (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned threads) noexcept;

/// --- Cooperative cancellation -------------------------------------------
///
/// SIGTERM-style shutdown: anything (a signal handler, a fault plan, a
/// watchdog) may call `request_cancel()`; the Monte-Carlo driver checks the
/// flag at every trial boundary and raises `run_cancelled`, which unwinds
/// through the checkpoint journal (flushing completed trials) and out of
/// `run_main`. A rerun with the same checkpoint resumes where it stopped.

class run_cancelled : public std::runtime_error {
public:
    run_cancelled() : std::runtime_error("run cancelled") {}
};

/// Async-signal-safe (a single lock-free atomic store).
void request_cancel() noexcept;
[[nodiscard]] bool cancel_requested() noexcept;
void clear_cancel() noexcept;
/// Throws run_cancelled when cancellation was requested.
void throw_if_cancelled();

/// Cumulative Monte-Carlo throughput for this process: every `parallel_for`
/// run adds its cost to the registry's `run.*` totals, so a bench can print
/// one trials/sec + utilization line for the whole sweep.
struct run_metrics {
    std::size_t trials = 0;
    double wall_seconds = 0.0;
    double busy_seconds = 0.0;
    unsigned max_workers = 0;
    /// Trials cut off by a per-trial step budget before reaching their
    /// intended budget (see trial.h); reported, never silently dropped.
    std::size_t censored = 0;

    [[nodiscard]] double trials_per_sec() const noexcept {
        return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
    }
    /// Busy fraction of the workers' combined wall-clock capacity; 0 when
    /// no capacity was measured (no work ran) — a run that did nothing was
    /// not "100% utilized".
    [[nodiscard]] double utilization() const noexcept {
        const double capacity = wall_seconds * static_cast<double>(max_workers);
        return capacity > 0.0 ? busy_seconds / capacity : 0.0;
    }
};

/// Count one watchdog-censored trial (called from trial runners).
void note_censored();
/// Sums only the run-total slots, never a full registry snapshot.
[[nodiscard]] run_metrics metrics_snapshot() noexcept;
/// Zeroes the whole registry (`obs::reset_metrics_registry`), run totals included.
void reset_metrics() noexcept;

/// Run `opts.trials` independent trials of `trial_fn(trial_index, stream)`
/// and collect the results in trial order.
///
/// Each trial's stream is derived purely from (opts.seed, trial_index), so
/// the output is bit-identical for any thread count and chunk size — the
/// property the reproducibility tests pin down. A throwing trial aborts the
/// run and rethrows on the caller.
///
/// With `opts.checkpoint_path` set, completed trials are journaled and a
/// rerun resumes: trials found in a valid journal are replayed verbatim,
/// only missing ones execute. Worker exceptions, cancellation, and even
/// kill -9 lose at most the un-flushed tail, which the next run recomputes
/// — the final result vector is identical either way.
template <class F>
auto monte_carlo_collect(const mc_options& opts, F&& trial_fn)
    -> std::vector<decltype(trial_fn(std::size_t{}, std::declval<rng&>()))> {
    using result_t = decltype(trial_fn(std::size_t{}, std::declval<rng&>()));
    std::vector<result_t> results(opts.trials);
    const rng master = rng::seeded(opts.seed);
    // Progress accounting: planned once per phase, completed per trial (one
    // relaxed shard increment amid thousands of walk steps — the progress
    // reporter and /metrics read these live without touching the hot path).
    const obs::counter planned = obs::get_counter(obs::kTrialsPlannedCounter);
    const obs::counter completed = obs::get_counter(obs::kTrialsCompletedCounter);
    planned.add(opts.trials);
    const auto run_one = [&](std::size_t i) {
        throw_if_cancelled();
        fault_before_trial(i);
        rng stream = master.substream(i);
        results[i] = trial_fn(i, stream);
        fault_after_trial(i);
        completed.add();
    };
    if (opts.checkpoint_path.empty()) {
        parallel_for(opts.trials, opts.threads, run_one, opts.chunk);
        return results;
    }
    static_assert(std::is_trivially_copyable_v<result_t>,
                  "checkpointed monte_carlo_collect requires a trivially copyable "
                  "trial result (it is journaled as raw bytes)");
    trial_journal journal(
        opts.checkpoint_path,
        journal_key{opts.seed, opts.trials, static_cast<std::uint32_t>(sizeof(result_t))},
        opts.checkpoint_interval, opts.checkpoint_seconds);
    const std::vector<std::size_t> missing = journal.restore(results.data());
    completed.add(opts.trials - missing.size());  // replayed trials are done work
    parallel_for(
        missing.size(), opts.threads,
        [&](std::size_t j) {
            const std::size_t i = missing[j];
            run_one(i);
            journal.record(i, &results[i]);
        },
        opts.chunk);
    journal.commit();
    return results;
}

/// Estimate P(event) with a Wilson interval: `pred(trial_index, stream)`
/// decides success per trial. Requires opts.trials >= 1 (the interval is
/// undefined on an empty sample). Watchdog-censored trials count as
/// failures *within the steps actually run* — the estimate stays exact for
/// the truncated budget; the censored fraction is reported separately via
/// run_metrics / hitting_time_sample so truncation is never silent.
template <class F>
stats::proportion estimate_probability(const mc_options& opts, F&& pred) {
    LEVY_PRECONDITION(opts.trials >= 1, "estimate_probability: opts.trials must be >= 1");
    const auto outcomes = monte_carlo_collect(opts, [&](std::size_t i, rng& g) {
        return static_cast<int>(static_cast<bool>(pred(i, g)));
    });
    std::uint64_t successes = 0;
    for (int o : outcomes) successes += static_cast<std::uint64_t>(o);
    return stats::wilson_interval(successes, opts.trials);
}

}  // namespace levy::sim
