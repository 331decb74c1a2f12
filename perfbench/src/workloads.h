#pragma once

// The four workloads as data. Everything a run feeds the program is a pure
// function of the workload's fixed shape and the --seed argument; the
// generators live here so the tests can check exactly that.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/rng/rng_stream.h"

namespace perfbench {

/// Trials are handed to sim::monte_carlo_collect in batches of this many;
/// batch b runs under master seed mix64(seed, b), so trial j's stream is
/// rng::seeded(mix64(seed, j / kBatch)).substream(j % kBatch).
inline constexpr std::size_t kBatch = 32;

[[nodiscard]] levy::rng trial_stream(std::uint64_t seed, std::uint64_t trial);

/// One parameter point of a parallel-search workload (Thm 1.5 / 1.6).
struct search_point {
    std::size_t k = 0;
    std::int64_t ell = 0;
    /// Common exponent α*(k, ℓ); unused when the workload draws α ~ U(2,3).
    double alpha = 0.0;
    std::uint64_t budget = 0;
    std::uint64_t cap = 0;
};

/// A Monte-Carlo workload over `points`; trial j runs points[j % size].
struct mc_workload {
    std::string name;
    std::vector<search_point> points;
    bool random_exponent = false;  ///< Thm 1.6: each walker draws α ~ U(2, 3)
    unsigned workers = 2;
    /// Set-up's fixed warm-up batch (~0.3 s, so set-up repeats within a tenth).
    std::size_t warmup_trials = 0;
    /// Trials the traced run replays through both drivers; fixed so the
    /// exact per-trial counts are a pure function of the seed.
    std::size_t traced_trials = 0;

    [[nodiscard]] levy::exponent_strategy strategy(const search_point& p) const;
};

/// E7 sweep at α*(k, ℓ), uncapped: the Devroye + advance_one hot path.
[[nodiscard]] mc_workload mc_uncapped();
/// Thm 1.6 swarms, α ~ U(2, 3) per walker, cap = ℓ: spawn + dist_cache.
[[nodiscard]] mc_workload mc_random_capped();

/// The out-of-core workload: one sharded parameter point.
struct shard_workload {
    search_point point;
    std::uint64_t memory_budget = 0;  ///< resident walker bytes (1/8 of k)
    std::uint64_t epoch_steps = 0;    ///< step quantum per residency
    std::size_t sync_rounds = 1;      ///< fsync dirty shards every round
    std::size_t warmup_trials = 0;
    std::size_t traced_trials = 0;
};
[[nodiscard]] shard_workload shard_spill();

/// The levyserve workload: a cache warmed with a grid of exact answers,
/// then an equal-share mix of four request classes.
enum class request_class : std::uint8_t { cache_hit, interpolated, exact_tiny, plan };
inline constexpr std::size_t kRequestClasses = 4;
[[nodiscard]] const char* class_name(request_class c) noexcept;

struct serve_plan {
    /// Exact queries whose answers warm the cache (fit their deadline).
    std::vector<std::string> warm_paths;
    /// Distinct request targets of each class, indexed by request_class.
    std::vector<std::string> pools[kRequestClasses];
};

/// Warm grid, request pools: pure functions of the seed.
[[nodiscard]] serve_plan make_serve_plan(std::uint64_t seed);

/// Request i of the timed sequence: a class drawn uniformly, then a pool
/// entry drawn uniformly — a pure function of (seed, i).
struct request_ref {
    request_class cls = request_class::cache_hit;
    std::size_t pool_index = 0;
};
[[nodiscard]] request_ref request_at(const serve_plan& plan, std::uint64_t seed,
                                     std::uint64_t i);

}  // namespace perfbench
