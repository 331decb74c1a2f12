#pragma once

// Shared plumbing of the perfbench workloads: the run report every workload
// fills, percentile and digest helpers, failure tallies, and the timing
// primitives. Everything here is benchmark-side; the program under test is
// only ever reached through its public headers.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/parallel_search.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock_type::time_point a,
                                            clock_type::time_point b) noexcept {
    return std::chrono::duration<double>(b - a).count();
}

/// The time point `seconds` from now.
[[nodiscard]] inline clock_type::time_point deadline_after(double seconds) {
    return clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                                   std::chrono::duration<double>(seconds));
}

/// Arguments of one benchmark run (see main.cpp for the command line).
struct run_args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// Directory for spill files and the Chrome trace (inside the checkout).
    std::string out_dir;
    /// Deliberately corrupt one expected result: the run must then fail and
    /// name the mismatch (a self-check of the correctness checks).
    bool corrupt_expected = false;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run measured and whether its outputs were correct.
struct run_report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// One line per detected mismatch or failure, printed on stderr.
    std::vector<std::string> errors;
    std::vector<metric> metrics;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string& why) { errors.push_back(why); }
    [[nodiscard]] bool correct() const noexcept { return failed == 0 && errors.empty(); }
};

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q/100 · n). Requires a non-empty sample, 0 < q <= 100.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-th percentile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q) noexcept;

/// The ten-beyond rule: a percentile is reported only when at least ten
/// samples lie beyond its rank, so one outlier cannot set it.
inline constexpr std::size_t kMinBeyond = 10;
[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) noexcept {
    return samples_beyond(n, q) >= kMinBeyond;
}

/// Ops a sample needs so its `percentile` keeps ten samples beyond it.
[[nodiscard]] constexpr std::size_t min_ops_for(int percentile) noexcept {
    return kMinBeyond * 100 / static_cast<std::size_t>(100 - percentile);
}

/// The timed phase is cut into this many windows of equal op count; every
/// end-to-end timing is the median of its per-window values, so a burst of
/// load from outside the benchmark that slows a few windows cannot move it.
inline constexpr std::size_t kWindows = 10;

/// Ops a timed phase must complete: every window must support the tail
/// percentile. Each phase runs for at least --seconds and at least this
/// many ops, so a slower program makes the phase longer instead of leaving
/// a percentile unsupported.
[[nodiscard]] constexpr std::size_t min_run_ops(int tail_percentile) noexcept {
    return kWindows * min_ops_for(tail_percentile);
}

/// One timed op: when it finished (seconds since the timed phase began)
/// and how long it took.
struct op_sample {
    float end_s = 0.0F;
    float ms = 0.0F;
};

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count); 0 for an empty one.
[[nodiscard]] double median(std::vector<double> values);

/// Order-sensitive 64-bit digest (FNV-1a) of a sequence of trial results.
/// Every field the engines promise to reproduce bit for bit is folded in:
/// the hit flag, the time, the winner index and the winner's exponent bits.
class trial_digest {
public:
    void add(std::uint64_t trial_index, const levy::parallel_result& r) noexcept;
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    void mix(std::uint64_t word) noexcept;
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Field-by-field equality of two trial results (winner_alpha by bits, so
/// NaN equals NaN). Returns an empty string when equal, else a description.
[[nodiscard]] std::string diff_results(const levy::parallel_result& got,
                                       const levy::parallel_result& want);

/// Outcome of one served request, as the client saw it.
struct reply {
    int status = 0;                     ///< 0 = no parseable HTTP reply
    std::optional<std::string> body;    ///< nullopt = transport error
};

/// Failure classes of `error_rate`. Every attempted op lands in exactly one
/// bucket; nothing is retried or filtered.
struct op_tally {
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t wrong = 0;      ///< 200 with a body unequal to the reference
    std::uint64_t shed = 0;       ///< 503
    std::uint64_t non_200 = 0;    ///< any other status
    std::uint64_t transport = 0;  ///< no reply, torn reply, refused, reset

    /// Classify `r` against the expected body and count it.
    void count(const reply& r, const std::string& expected_body) noexcept;
    void merge(const op_tally& other) noexcept;
    [[nodiscard]] std::uint64_t failed() const noexcept {
        return wrong + shed + non_200 + transport;
    }
    [[nodiscard]] double error_rate() const noexcept {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed()) / static_cast<double>(attempted);
    }
};

/// Peak resident set of this process image so far, in MiB (VmHWM from
/// /proc/self/status; getrusage's ru_maxrss would also count the parent's
/// image this process was forked from).
[[nodiscard]] double peak_rss_mib();

/// Append the end-to-end metrics shared by every workload: the median of
/// the set-up repetitions; over the kWindows windows of `ops` (ordered by
/// completion), the median window throughput and the median window
/// nearest-rank latency percentiles p50, p90 and op_tail_ms at
/// `tail_percentile` (each window checked against the ten-beyond rule; an
/// unsupported percentile fails the run); peak RSS and the success rate.
void add_end_to_end(run_report& report, const std::vector<double>& setup_seconds,
                    std::vector<op_sample> ops, double rss_mib, int tail_percentile);

}  // namespace perfbench
