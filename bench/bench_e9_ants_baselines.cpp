// E9 — §1.2.4 / §2: the ANTS-problem comparison.
//
// k non-communicating agents from a common nest, unknown target at distance
// ℓ (Feinerman–Korman [14], zero advice). The paper's randomized-Lévy
// strategy is a *uniform* solution: it knows neither k nor ℓ, yet is within
// polylog of the Ω(ℓ²/k + ℓ) lower bound. We pit it against
//   - k simple random walks        (diffusive, the α→∞ limit),
//   - k ballistic walks            (straight shots, the α→1 limit),
//   - the FK-style searcher        (knows k — an informed comparator),
// at the same step budget, reporting hit rate and median parallel time.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/ballistic_walk.h"
#include "src/baselines/fk_ants.h"
#include "src/baselines/simple_random_walk.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

struct outcome {
    double hit_rate = 0.0;
    double median_time = 0.0;
};

template <class TrialFn>
outcome measure(const sim::mc_options& mc, std::uint64_t budget, TrialFn&& trial) {
    const auto results = sim::monte_carlo_collect(mc, trial);
    std::vector<double> times;
    std::uint64_t hits = 0;
    times.reserve(results.size());
    for (const hit_result& r : results) {
        times.push_back(static_cast<double>(r.hit ? r.time : budget));
        hits += r.hit;
    }
    return {static_cast<double>(hits) / static_cast<double>(results.size()),
            stats::median(times)};
}

void compare(const sim::run_options& opts, std::size_t k, std::int64_t ell) {
    const point target = sim::target_at(ell);
    const double lb = theory::universal_lower_bound(static_cast<double>(k),
                                                    static_cast<double>(ell));
    const auto budget = static_cast<std::uint64_t>(32.0 * lb);
    std::cout << "k = " << k << ", ell = " << ell << ", budget = 32*(ell^2/k + ell) = "
              << budget << "\n";

    stats::text_table table({"strategy", "knows", "hit rate", "median tau^k", "p50/LB"});
    const auto add = [&](const char* name, const char* knows, const outcome& o) {
        table.add_row({name, knows, stats::fmt(o.hit_rate, 2), stats::fmt(o.median_time, 0),
                       stats::fmt(o.median_time / lb, 1)});
    };

    add("Levy U(2,3)", "nothing",
        measure(opts.mc(80, 1), budget, [&](std::size_t, rng& g) {
            const auto r = parallel_hit(k, uniform_exponent(), target, budget, g);
            return hit_result{r.hit, r.time};
        }));
    add("Levy fixed a=2.5", "nothing",
        measure(opts.mc(80, 2), budget, [&](std::size_t, rng& g) {
            const auto r = parallel_hit(k, fixed_exponent(2.5), target, budget, g);
            return hit_result{r.hit, r.time};
        }));
    add("k simple random walks", "nothing",
        measure(opts.mc(80, 3), budget, [&](std::size_t, rng& g) {
            return bench::parallel_hit_generic(k, target, budget, g, [](std::size_t, rng s) {
                return baselines::simple_random_walk(s);
            });
        }));
    add("k ballistic walks", "nothing",
        measure(opts.mc(80, 4), budget, [&](std::size_t, rng& g) {
            return bench::parallel_hit_generic(k, target, budget, g, [](std::size_t, rng s) {
                return baselines::ballistic_walk(s);
            });
        }));
    add("FK ball+spiral", "k",
        measure(opts.mc(80, 5), budget, [&](std::size_t, rng& g) {
            return bench::parallel_hit_generic(k, target, budget, g, [&](std::size_t, rng s) {
                return baselines::fk_ants_searcher(k, s);
            });
        }));
    table.print(std::cout);
    std::cout << '\n';
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E9", "ANTS comparison: uniform Levy strategy vs classical baselines",
                  "random-exponent Levy walks are within polylog of the Omega(ell^2/k + ell) "
                  "lower bound, with zero knowledge; SRWs pay extra log factors, ballistic "
                  "walks rarely hit, FK is the informed yardstick");
    {
        LEVY_SPAN("compare_k16");
        compare(opts, /*k=*/16, bench::scaled(32, opts.scale));
    }
    {
        LEVY_SPAN("compare_k64");
        compare(opts, /*k=*/64, bench::scaled(192, opts.scale));
    }
    std::cout << "Reading: Levy U(2,3) stays competitive with FK (which knows k) at both\n"
                 "distances with zero knowledge; ballistic hit rates collapse with ell;\n"
                 "SRW fleets trail by the extra log factors they pay for retracing their\n"
                 "own paths (the gap is polylog, so it is visible but not dramatic here).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E9", argc, argv, kFlags, run); }
