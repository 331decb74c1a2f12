// E8 — Theorem 1.6: random exponents are near-optimal for every distance.
//
// Give each of the k walks an independent α ~ U(2,3) — no knowledge of k or
// ℓ — and the parallel hitting time is O((ℓ²/k) log⁷ ℓ + ℓ log³ ℓ) w.h.p.,
// i.e. within polylog factors of the oracle that knows both. We sweep ℓ at
// fixed k and compare four strategies at a common generous budget:
// U(2,3), the oracle fixed α*(k,ℓ), and the fixed "extremes" α = 2 (Cauchy)
// and α = 3 — the exponents prior work singles out — which must lose at the
// distances they are mistuned for.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

struct strategy_row {
    const char* name;
    exponent_strategy strategy;
};

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint |
                            sim::group::watchdog | sim::group::sharding;

void run(const sim::run_options& opts) {
    bench::banner("E8", "Thm 1.6: uniformly random exponents, optimal for all ell at once",
                  "tau^k_rand = O((ell^2/k) log^7 ell + ell log^3 ell) w.h.p., within "
                  "polylog of any strategy");

    const std::size_t k = 64;
    std::vector<std::int64_t> ells;
    for (const std::int64_t e : {32L, 96L, 256L}) ells.push_back(bench::scaled(e, opts.scale));

    stats::text_table table({"ell", "strategy", "hit rate", "cens", "median tau^k",
                             "p50/LB", "LB = ell^2/k + ell"});
    for (const std::int64_t ell : ells) {
        const double lb = theory::universal_lower_bound(static_cast<double>(k),
                                                        static_cast<double>(ell));
        const std::vector<strategy_row> strategies = {
            {"U(2,3) random", uniform_exponent()},
            {"oracle a*(k,l)",
             fixed_exponent(optimal_alpha(static_cast<double>(k), static_cast<double>(ell)))},
            {"fixed a=2.05", fixed_exponent(2.05)},
            {"fixed a=2.95", fixed_exponent(2.95)},
        };
        std::size_t strategy_index = 0;
        for (const auto& s : strategies) {
            sim::parallel_walk_config cfg;
            cfg.k = k;
            cfg.strategy = s.strategy;
            cfg.ell = ell;
            cfg.budget = static_cast<std::uint64_t>(48.0 * lb);
            cfg.max_steps = opts.max_trial_steps;
            cfg.sharding = opts.sharding;
            const auto mc = opts.mc(/*default_trials=*/50,
                                    /*salt=*/static_cast<std::uint64_t>(ell) * 10 +
                                        strategy_index);
            const auto sample = sim::parallel_hitting_times(cfg, mc);
            const double med = stats::median(sample.times);
            table.add_row({stats::fmt(ell), s.name, stats::fmt(sample.hit_fraction(), 2),
                           stats::fmt(sample.censored_fraction(), 2), stats::fmt(med, 0),
                           stats::fmt(med / lb, 1), stats::fmt(lb, 0)});
            ++strategy_index;
        }
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: the U(2,3) row stays within a small polylog factor of the\n"
                 "oracle row at EVERY ell, while each fixed exponent is competitive only\n"
                 "near the ell it happens to match (a=2.05 at small ell^2/k ~ ell, a=2.95\n"
                 "when k ~ polylog) — the paper's central message.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E8", argc, argv, kFlags, run); }
