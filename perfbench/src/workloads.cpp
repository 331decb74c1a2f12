#include "perfbench/src/workloads.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/rng/jump_distribution.h"
#include "src/rng/splitmix64.h"
#include "src/serve/cache.h"

namespace perfbench {

namespace {

/// Salts that separate the seed's uses from one another.
enum : std::uint64_t { kSaltPools = 0x706f6f6c, kSaltRequests = 0x72657173 };

std::uint64_t budget_for(double scale, std::size_t k, std::int64_t ell) {
    const double l = static_cast<double>(ell);
    return static_cast<std::uint64_t>(scale * (l * l / static_cast<double>(k) + l));
}

search_point point_at(std::size_t k, std::int64_t ell, double budget_scale, std::uint64_t cap) {
    search_point p;
    p.k = k;
    p.ell = ell;
    p.alpha = levy::optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
    p.budget = budget_for(budget_scale, k, ell);
    p.cap = cap;
    return p;
}

std::string format_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// The served grid: (ℓ, k) = (24, 4) for the warmed cells, (8, 2) — a
// disjoint pair — for the tiny exact queries that insert. Cells use the
// default cache pitch (α step 1/32, 8 budget steps per octave); the cache is
// warmed on every α cell in [2, 3] and on the even budget cells
// 2^8 .. 2^10, so odd budget cells are empty and interpolate.
constexpr std::int64_t kWarmEll = 24;
constexpr std::uint64_t kWarmK = 4;
constexpr std::int32_t kAlphaQLo = 64;   // α = 2
constexpr std::int32_t kAlphaQHi = 96;   // α = 3
constexpr std::int32_t kBudgetQLo = 64;  // budget 2^8
constexpr std::int32_t kBudgetQHi = 80;  // budget 2^10
constexpr std::uint64_t kWarmTrials = 32;
constexpr std::int64_t kTinyEll = 8;
constexpr std::uint64_t kTinyK = 2;
constexpr std::size_t kPoolSize = 64;

std::uint64_t budget_of(double budget_q) {
    return static_cast<std::uint64_t>(std::llround(std::exp2(budget_q / 8.0)));
}

std::string query_path(double alpha, std::int64_t ell, std::uint64_t k, std::uint64_t budget,
                       const std::string& extra) {
    return "/query?alpha=" + format_double(alpha) + "&ell=" + std::to_string(ell) +
           "&k=" + std::to_string(k) + "&budget=" + std::to_string(budget) + extra;
}

}  // namespace

levy::rng trial_stream(std::uint64_t seed, std::uint64_t trial) {
    return levy::rng::seeded(levy::mix64(seed, trial / kBatch)).substream(trial % kBatch);
}

levy::exponent_strategy mc_workload::strategy(const search_point& p) const {
    return random_exponent ? levy::uniform_exponent(2.0, 3.0) : levy::fixed_exponent(p.alpha);
}

mc_workload mc_uncapped() {
    mc_workload w;
    w.name = "mc_uncapped";
    for (const std::size_t k : {8, 32, 128, 512}) {
        w.points.push_back(point_at(k, 128, 32.0, levy::kNoCap));
    }
    w.warmup_trials = 48;
    w.traced_trials = 256;
    return w;
}

mc_workload mc_random_capped() {
    mc_workload w;
    w.name = "mc_random_capped";
    w.random_exponent = true;
    for (const std::size_t k : {1024, 2048, 4096}) {
        w.points.push_back(point_at(k, 24, 48.0, 24));
    }
    w.warmup_trials = 64;
    w.traced_trials = 192;
    return w;
}

shard_workload shard_spill() {
    shard_workload w;
    constexpr std::size_t k = std::size_t{1} << 11;
    w.point = point_at(k, 64, 32.0, 64);
    w.memory_budget = k / 8 * 224;  // walker_block::kBytesPerWalker
    w.epoch_steps = std::max<std::uint64_t>(1, w.point.budget / 8);
    w.sync_rounds = 1;
    w.warmup_trials = 24;
    w.traced_trials = 96;
    return w;
}

const char* class_name(request_class c) noexcept {
    switch (c) {
        case request_class::cache_hit: return "cache_hit";
        case request_class::interpolated: return "interpolated";
        case request_class::exact_tiny: return "exact_tiny";
        case request_class::plan: return "plan";
    }
    return "?";
}

serve_plan make_serve_plan(std::uint64_t seed) {
    serve_plan plan;
    // Warm grid: fixed, so set-up does the same work under every seed.
    const std::string warm_extra = "&trials=" + std::to_string(kWarmTrials) + "&deadline_ms=20";
    for (std::int32_t aq = kAlphaQLo; aq <= kAlphaQHi; ++aq) {
        for (std::int32_t bq = kBudgetQLo; bq <= kBudgetQHi; bq += 2) {
            plan.warm_paths.push_back(query_path(aq / 32.0, kWarmEll, kWarmK,
                                                 budget_of(bq), warm_extra));
        }
    }

    levy::rng g = levy::rng::seeded(seed).substream(kSaltPools);
    const levy::serve::result_cache quantizer{levy::serve::cache_options{}};
    const auto in_range = [&g](std::int32_t lo, std::int32_t hi) {
        return static_cast<std::int32_t>(g.uniform_int(lo, hi));
    };
    auto& hits = plan.pools[static_cast<std::size_t>(request_class::cache_hit)];
    auto& interp = plan.pools[static_cast<std::size_t>(request_class::interpolated)];
    auto& tiny = plan.pools[static_cast<std::size_t>(request_class::exact_tiny)];
    auto& plans = plan.pools[static_cast<std::size_t>(request_class::plan)];
    // deadline_ms=1 buys 20k steps: 200 default trials of a >= 256-step
    // budget never fit, so these are answered from the cache.
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        const std::int32_t aq = in_range(kAlphaQLo, kAlphaQHi);
        const std::int32_t bq = kBudgetQLo + 2 * in_range(0, (kBudgetQHi - kBudgetQLo) / 2);
        const levy::serve::cache_key key =
            quantizer.quantize(aq / 32.0, kWarmEll, kWarmK, budget_of(bq));
        if (key.alpha_q != aq || key.budget_q != bq) {
            throw std::logic_error("serve plan: cache-hit query missed its warmed cell");
        }
        hits.push_back(query_path(aq / 32.0, kWarmEll, kWarmK, budget_of(bq), "&deadline_ms=1"));
    }
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        const double alpha = g.uniform(2.0, 3.0);
        const std::int32_t bq = kBudgetQLo + 1 + 2 * in_range(0, (kBudgetQHi - kBudgetQLo) / 2 - 1);
        const std::uint64_t budget = budget_of(bq + g.uniform(-0.4, 0.4));
        if (quantizer.quantize(alpha, kWarmEll, kWarmK, budget).budget_q != bq) {
            throw std::logic_error("serve plan: interpolated query left its budget cell");
        }
        interp.push_back(query_path(alpha, kWarmEll, kWarmK, budget, "&deadline_ms=1"));
    }
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        const double alpha = in_range(kAlphaQLo, kAlphaQHi) / 32.0;
        const std::uint64_t budget = static_cast<std::uint64_t>(g.uniform_int(16, 64));
        tiny.push_back(query_path(alpha, kTinyEll, kTinyK, budget, "&trials=1"));
    }
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        plans.push_back("/plan?k=" + std::to_string(g.uniform_int(1, 4096)) +
                        "&ell=" + std::to_string(g.uniform_int(8, 1024)));
    }
    return plan;
}

request_ref request_at(const serve_plan& plan, std::uint64_t seed, std::uint64_t i) {
    levy::rng g = levy::rng::seeded(levy::mix64(seed, kSaltRequests)).substream(i);
    request_ref ref;
    ref.cls = static_cast<request_class>(g.below(kRequestClasses));
    ref.pool_index = static_cast<std::size_t>(
        g.below(plan.pools[static_cast<std::size_t>(ref.cls)].size()));
    return ref;
}

}  // namespace perfbench
