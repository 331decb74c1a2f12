// E7 — Theorem 1.5(a) / Eq. (1): parallel speedup at the optimal exponent.
//
// With α = α*(k, ℓ), the parallel hitting time is
// O((ℓ²/k)·log⁶ ℓ + ℓ) w.h.p. — linear speedup in k down to the universal
// floor of ℓ. We fix ℓ, sweep k over doublings, run at α*(k, ℓ), and check
// that median τ^k scales like ℓ²/k (log-log slope ≈ −1 in k) until it
// saturates near ℓ.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/stats/regression.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"
#include "src/stats/streaming.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint |
                            sim::group::watchdog | sim::group::engine | sim::group::sharding;

void run(const sim::run_options& opts) {
    bench::banner("E7", "Thm 1.5(a): parallel hitting time O((ell^2/k) polylog + ell)",
                  "tau^k = O((ell^2/k) log^6 ell + ell) w.h.p. at alpha = alpha*(k, ell)");

    const std::int64_t ell = bench::scaled(128, opts.scale);
    std::vector<std::size_t> ks = {2, 8, 32, 128, 512};

    stats::text_table table({"k", "alpha*", "hit rate", "cens", "median tau^k",
                             "mean tau ± 95ci", "ell^2/k", "p50/(ell^2/k)",
                             "LB ell^2/k+ell"});
    std::vector<double> xs, ys;
    for (const std::size_t k : ks) {
        const double alpha = optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
        sim::parallel_walk_config cfg;
        cfg.k = k;
        cfg.strategy = fixed_exponent(alpha);
        cfg.ell = ell;
        // Generous budget so medians are rarely censored: 32×(ℓ²/k) + 32ℓ.
        cfg.budget = static_cast<std::uint64_t>(
            32.0 * (static_cast<double>(ell) * static_cast<double>(ell) /
                        static_cast<double>(k) +
                    static_cast<double>(ell)));
        cfg.max_steps = opts.max_trial_steps;
        cfg.cap = opts.cap;
        cfg.engine = opts.engine;
        cfg.sharding = opts.sharding;
        const auto mc = opts.mc(/*default_trials=*/150, /*salt=*/k);
        const auto sample = sim::parallel_hitting_times(cfg, mc);
        const double med = stats::median(sample.times);
        const double ideal = static_cast<double>(ell) * static_cast<double>(ell) /
                             static_cast<double>(k);
        const auto ci = stats::normal_interval(stats::summarize(sample.times));
        table.add_row({stats::fmt(k), stats::fmt(alpha, 2),
                       stats::fmt(sample.hit_fraction(), 2),
                       stats::fmt(sample.censored_fraction(), 2), stats::fmt(med, 0),
                       stats::fmt_pm(ci.estimate, ci.half_width(), 0),
                       stats::fmt(ideal, 0), stats::fmt(med / ideal, 2),
                       stats::fmt(theory::universal_lower_bound(static_cast<double>(k),
                                                                static_cast<double>(ell)),
                                  0)});
        xs.push_back(static_cast<double>(k));
        ys.push_back(med);
    }
    const auto fit = stats::loglog_fit(xs, ys);
    table.add_separator();
    // ± is the 95% CI of the fitted slope, the noise floor levyreport gates
    // paper-drift against.
    table.add_row({"slope", "-", "-", "-",
                   stats::fmt_pm(fit.slope, 1.96 * fit.slope_std_error, 3) + " (fit)",
                   "-1 (paper)", "r2=" + stats::fmt(fit.r_squared, 3), "-", "-"});
    table.print(std::cout);
    std::cout << "\nReading: median tau^k tracks ell^2/k (slope ~ -1 in k) until the budget\n"
                 "floor ~ell bites at very large k; the p50/(ell^2/k) column is the\n"
                 "polylog-and-constant overhead the theorem allows.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E7", argc, argv, kFlags, run); }
