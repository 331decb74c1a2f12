#include "src/sim/trial.h"

#include <algorithm>

#include "src/core/levy_flight.h"
#include "src/core/levy_walk.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {
namespace {

/// The steps a trial actually runs: the watchdog cap, when set, truncates
/// the intended budget.
std::uint64_t effective_budget(std::uint64_t budget, std::uint64_t max_steps) noexcept {
    return max_steps == 0 ? budget : std::min(budget, max_steps);
}

/// Mark a truncated miss as censored (and count it in the process metrics).
template <class R>
R finish(R r, std::uint64_t ran, std::uint64_t intended) {
    if (!r.hit && ran < intended) {
        r.censored = true;
        note_censored();
    }
    return r;
}

}  // namespace

hit_result single_walk_trial(const single_walk_config& cfg, rng stream) {
    const std::uint64_t ran = effective_budget(cfg.budget, cfg.max_steps);
    if (cfg.engine == engine_kind::batch) {
        return finish(walk_engine::local().run_single(cfg.alpha, target_at(cfg.ell), ran,
                                                      stream, cfg.cap),
                      ran, cfg.budget);
    }
    levy_walk walk(cfg.alpha, stream, origin, cfg.cap);
    return finish(hit_within(walk, point_target{target_at(cfg.ell)}, ran), ran, cfg.budget);
}

stats::proportion single_hit_probability(const single_walk_config& cfg, const mc_options& opts) {
    return estimate_probability(
        opts, [&cfg](std::size_t, rng& g) { return single_walk_trial(cfg, g).hit; });
}

hit_result single_flight_trial(const single_walk_config& cfg, rng stream) {
    levy_flight flight(cfg.alpha, stream, origin, cfg.cap);
    const std::uint64_t ran = effective_budget(cfg.budget, cfg.max_steps);
    return finish(hit_within(flight, point_target{target_at(cfg.ell)}, ran), ran, cfg.budget);
}

stats::proportion flight_hit_probability(const single_walk_config& cfg, const mc_options& opts) {
    return estimate_probability(
        opts, [&cfg](std::size_t, rng& g) { return single_flight_trial(cfg, g).hit; });
}

parallel_result parallel_walk_trial(const parallel_walk_config& cfg, rng stream) {
    const std::uint64_t ran = effective_budget(cfg.budget, cfg.max_steps);
    if (cfg.engine == engine_kind::batch) {
        if (cfg.sharding.shards > 1 || cfg.sharding.memory_budget > 0) {
            return finish(sharded_walk_engine::local().run_parallel(
                              cfg.k, cfg.strategy, target_at(cfg.ell), ran, stream, cfg.cap,
                              cfg.sharding),
                          ran, cfg.budget);
        }
        return finish(walk_engine::local().run_parallel(cfg.k, cfg.strategy, target_at(cfg.ell),
                                                        ran, stream, cfg.cap),
                      ran, cfg.budget);
    }
    return finish(parallel_hit(cfg.k, cfg.strategy, target_at(cfg.ell), ran, stream, cfg.cap),
                  ran, cfg.budget);
}

stats::proportion parallel_hit_probability(const parallel_walk_config& cfg,
                                           const mc_options& opts) {
    return estimate_probability(
        opts, [&cfg](std::size_t, rng& g) { return parallel_walk_trial(cfg, g).hit; });
}

hitting_time_sample parallel_hitting_times(const parallel_walk_config& cfg,
                                           const mc_options& opts) {
    const auto results = monte_carlo_collect(
        opts, [&cfg](std::size_t, rng& g) { return parallel_walk_trial(cfg, g); });
    hitting_time_sample out;
    out.times.reserve(results.size());
    for (const auto& r : results) {
        out.times.push_back(static_cast<double>(r.time));
        out.hits += r.hit ? 1 : 0;
        out.censored += r.censored ? 1 : 0;
    }
    return out;
}

}  // namespace levy::sim
