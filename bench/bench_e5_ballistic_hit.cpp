// E5 — Theorem 1.3 / §5: the ballistic regime (α ∈ (1,2]).
//
// For α ∈ (1,2]: P(τ_α = O(ℓ)) = Ω(1/(ℓ log ℓ)) and P(τ_α < ∞) =
// O(log² ℓ / ℓ): the walk behaves like a straight shot in a random
// direction — it reaches distance ℓ in O(ℓ) steps but points at the target
// only with probability ~1/ℓ. We sweep ℓ with budget c·ℓ and compare the
// decay slope against −1.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/stats/regression.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint |
                            sim::group::watchdog;

void run(const sim::run_options& opts) {
    bench::banner("E5", "Thm 1.3: ballistic hitting decays like 1/ell",
                  "P(tau_alpha = O(ell)) = Omega(1/(ell log ell)) for alpha in (1,2]");

    const std::vector<double> alphas = {1.5, 2.0};
    std::vector<std::int64_t> ells;
    for (std::int64_t e = 8; e <= 128; e *= 2) ells.push_back(bench::scaled(e, opts.scale));

    stats::text_table table({"alpha", "ell", "budget", "trials", "P(hit) ± ci",
                             "paper 1/(l log l)", "meas/paper"});
    for (const double alpha : alphas) {
        std::vector<double> xs, ys;
        for (const std::int64_t ell : ells) {
            const auto budget = static_cast<std::uint64_t>(8 * ell);
            const sim::single_walk_config cfg{.alpha = alpha, .ell = ell, .budget = budget,
                                              .max_steps = opts.max_trial_steps};
            const auto mc = opts.mc(/*default_trials=*/60000,
                                    /*salt=*/static_cast<std::uint64_t>(ell) * 13 +
                                        static_cast<std::uint64_t>(alpha * 100));
            const auto p = sim::single_hit_probability(cfg, mc);
            const double shape = theory::ballistic_hit_prob(static_cast<double>(ell));
            table.add_row({stats::fmt(alpha, 2), stats::fmt(ell), stats::fmt(budget),
                           stats::fmt(mc.trials),
                           stats::fmt_sci(p.estimate()) + " ± " +
                               stats::fmt_sci((p.hi - p.lo) / 2, 1),
                           stats::fmt_sci(shape), stats::fmt(p.estimate() / shape, 2)});
            xs.push_back(static_cast<double>(ell));
            ys.push_back(p.estimate());
        }
        const auto fit = stats::loglog_fit(xs, ys);
        table.add_row({stats::fmt(alpha, 2), "slope", "-", "-",
                       stats::fmt(fit.slope, 3) + " (fit)", "-1 (paper)",
                       "r2=" + stats::fmt(fit.r_squared, 3)});
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: hit probability ~ 1/ell (slope near -1, modulo log factors) in\n"
                 "O(ell) steps — fast reach, poor aim; contrast with E1 where alpha in (2,3)\n"
                 "decays only like ell^-(3-alpha).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E5", argc, argv, kFlags, run); }
