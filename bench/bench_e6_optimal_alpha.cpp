// E6 — Corollary 4.2 / Theorem 1.5: the unique optimal common exponent.
//
// For k parallel walks and a target at distance ℓ with
// polylog ℓ ≤ k ≤ ℓ polylog ℓ, the parallel hitting time is minimized at
// α* = 3 − log k / log ℓ (within O(log log ℓ / log ℓ)); moving α away from
// α* by a constant blows the hitting time up polynomially (Cor 4.2(b)) or
// makes the walks miss outright (Cor 4.2(c)). We sweep α across (2,3) at
// fixed (k, ℓ) and report hit rate and median parallel hitting time; the
// minimum should sit near α*.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/strategy.h"
#include "src/sim/trial.h"
#include "src/stats/streaming.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

void sweep(const sim::run_options& opts, std::size_t k, std::int64_t ell,
           std::uint64_t budget_factor) {
    const double alpha_star = optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
    const auto budget = budget_factor * static_cast<std::uint64_t>(ell) *
                        static_cast<std::uint64_t>(ell);

    std::cout << "k = " << k << ", ell = " << ell << ", budget = " << budget_factor
              << "*ell^2 = " << budget
              << ", alpha* = 3 - log k/log ell = " << stats::fmt(alpha_star, 3) << "\n";

    stats::text_table table({"alpha", "alpha-alpha*", "hit rate", "cens", "median tau^k",
                             "mean tau ± 95ci", "p50/LB(ell^2/k)", "verdict"});
    std::vector<double> sweep_alphas, sweep_medians;
    const double lower_bound = static_cast<double>(ell) * static_cast<double>(ell) /
                               static_cast<double>(k);
    for (double alpha = 2.05; alpha < 3.0; alpha += 0.1) {
        sim::parallel_walk_config cfg;
        cfg.k = k;
        cfg.strategy = fixed_exponent(alpha);
        cfg.ell = ell;
        cfg.budget = budget;
        cfg.max_steps = opts.max_trial_steps;
        cfg.cap = opts.cap;
        cfg.engine = opts.engine;
        cfg.sharding = opts.sharding;
        const auto mc = opts.mc(/*default_trials=*/80,
                                /*salt=*/static_cast<std::uint64_t>(alpha * 1000) + k);
        const auto sample = sim::parallel_hitting_times(cfg, mc);
        const double med = stats::median(sample.times);
        sweep_alphas.push_back(alpha);
        sweep_medians.push_back(med);
        const auto ci = stats::normal_interval(stats::summarize(sample.times));
        table.add_row({stats::fmt(alpha, 2), stats::fmt(alpha - alpha_star, 2),
                       stats::fmt(sample.hit_fraction(), 2),
                       stats::fmt(sample.censored_fraction(), 2), stats::fmt(med, 0),
                       stats::fmt_pm(ci.estimate, ci.half_width(), 0),
                       stats::fmt(med / lower_bound, 1),
                       std::abs(alpha - alpha_star) < 0.15 ? "<- near alpha*" : ""});
    }
    table.print(std::cout);
    // The valley is shallow at laptop scales, so report the near-optimal
    // *set* (within 1.5x of the minimum) — the paper's claim is about where
    // that set sits, and median noise over ~80 trials blurs single points.
    const double best_median = *std::min_element(sweep_medians.begin(), sweep_medians.end());
    std::string near_set;
    for (std::size_t i = 0; i < sweep_alphas.size(); ++i) {
        if (sweep_medians[i] <= 1.5 * best_median) {
            if (!near_set.empty()) near_set += ", ";
            near_set += stats::fmt(sweep_alphas[i], 2);
        }
    }
    std::cout << "alphas within 1.5x of the best median: {" << near_set
              << "}  (paper optimum: " << stats::fmt(alpha_star, 2)
              << " ± O(log log ell/log ell))\n\n";
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint |
                            sim::group::watchdog | sim::group::engine | sim::group::sharding;

void run(const sim::run_options& opts) {
    bench::banner("E6", "Cor 4.2: unique optimal exponent alpha* = 3 - log k/log ell",
                  "tau^k minimized only for |alpha - alpha*| = O(log log ell / log ell); "
                  "polynomial blow-up otherwise");
    // Both sweeps keep k comparable to ell (k between sqrt(ell) and ell):
    // Cor 4.2 needs polylog(ell) <= k <= ell*polylog(ell), and at laptop
    // scales a small k slides into the Thm 1.5(b) regime where alpha -> 3
    // wins (bench output for k << log^6 ell shows exactly that drift).
    sweep(opts, /*k=*/48, bench::scaled(160, opts.scale), /*budget_factor=*/1);
    sweep(opts, /*k=*/64, bench::scaled(192, opts.scale), /*budget_factor=*/1);
    std::cout << "Reading: median hitting time is U-shaped in alpha with the valley at\n"
                 "alpha*; hit rate collapses toward alpha -> 3 (too local to reach ell)\n"
                 "and times blow up toward alpha -> 2 (overshooting).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E6", argc, argv, kFlags, run); }
