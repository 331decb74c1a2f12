// E3 — Theorem 1.1(c) / Lemma 3.11: probability of ever hitting the target.
//
// For α ∈ (2,3): P(τ_α < ∞) = O(log ℓ / ℓ^{3−α}) — walks are transient and
// most of them *never* find the target, no matter how long they run. We
// proxy τ < ∞ with a budget far beyond the optimum t_ℓ (additional steps
// past t_ℓ add only a polylog-factor of probability, per §1.2.1), sweep ℓ,
// and compare the decay exponent against −(3−α).

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
    bench::banner("E3", "Thm 1.1(c): eventual-hit probability decays like ell^-(3-alpha)",
                  "P(tau_alpha < inf) = O(log ell / ell^(3-alpha))");

    const std::vector<double> alphas = {2.25, 2.5};
    std::vector<std::int64_t> ells;
    for (std::int64_t e = 16; e <= 256; e *= 2) ells.push_back(bench::scaled(e, opts.scale));

    stats::text_table table({"alpha", "ell", "budget", "trials", "P(hit ever) ± ci",
                             "paper O(log l/l^(3-a))", "meas/paper"});
    for (const double alpha : alphas) {
        std::vector<double> xs, ys;
        for (const std::int64_t ell : ells) {
            // 32×t_ℓ: hits beyond this add at most a polylog sliver.
            const auto budget = static_cast<std::uint64_t>(
                16.0 * theory::t_ell(alpha, static_cast<double>(ell)));
            const sim::single_walk_config cfg{.alpha = alpha, .ell = ell, .budget = budget,
                                              .max_steps = opts.max_trial_steps};
            const auto mc = opts.mc(/*default_trials=*/2000,
                                    /*salt=*/static_cast<std::uint64_t>(ell) +
                                        static_cast<std::uint64_t>(alpha * 1000));
            const auto p = sim::single_hit_probability(cfg, mc);
            const double shape = theory::eventual_hit_prob(alpha, static_cast<double>(ell));
            table.add_row({stats::fmt(alpha, 2), stats::fmt(ell), stats::fmt(budget),
                           stats::fmt(mc.trials),
                           stats::fmt_pm(p.estimate(), (p.hi - p.lo) / 2, 4),
                           stats::fmt_sci(shape), stats::fmt(p.estimate() / shape, 3)});
            xs.push_back(static_cast<double>(ell));
            ys.push_back(p.estimate());
        }
        const auto fit = stats::loglog_fit(xs, ys);
        table.add_row({stats::fmt(alpha, 2), "slope", "-", "-",
                       stats::fmt(fit.slope, 3) + " (fit)",
                       stats::fmt(-(3.0 - alpha), 3) + " (paper)",
                       "r2=" + stats::fmt(fit.r_squared, 3)});
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: decay slope tracks -(3-alpha); the measured/paper ratio should\n"
                 "be roughly flat across ell (the O() constant).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E3", argc, argv, kFlags, run); }
