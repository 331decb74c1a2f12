// E2 — Theorem 1.1(b) / 4.1(b): the early-hitting lower bound.
//
// For α ∈ (2,3), ℓ ≤ t = O(ℓ^{α−1}): P(τ_α ≤ t) = O(t²/ℓ^{α+1}), i.e. the
// hitting probability grows (at most) quadratically in the step budget well
// below the optimal t_ℓ. We fix ℓ and α, sweep t over doublings from ℓ, and
// fit the log-log slope of P(τ ≤ t) vs t, which the paper caps at 2.

#include <algorithm>
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
    bench::banner("E2", "Thm 1.1(b): early-hitting probability is quadratic in t",
                  "P(tau_alpha <= t) = O(t^2 / ell^(alpha+1)) for ell <= t << ell^(alpha-1)");

    const double alpha = 2.5;
    const std::int64_t ell = bench::scaled(128, opts.scale);
    const double t_opt = theory::t_ell(alpha, static_cast<double>(ell));

    std::vector<std::uint64_t> budgets;
    for (std::uint64_t t = static_cast<std::uint64_t>(ell); static_cast<double>(t) <= t_opt;
         t *= 2) {
        budgets.push_back(t);
    }

    stats::text_table table(
        {"alpha", "ell", "t", "trials", "P(tau<=t) ± ci", "paper t^2/ell^(a+1)", "meas/paper"});
    std::vector<double> xs, ys;
    double worst_ratio = 0.0;
    for (const std::uint64_t t : budgets) {
        const sim::single_walk_config cfg{.alpha = alpha, .ell = ell, .budget = t,
                                          .max_steps = opts.max_trial_steps};
        const auto mc = opts.mc(/*default_trials=*/150000, /*salt=*/t);
        const auto p = sim::single_hit_probability(cfg, mc);
        const double shape = theory::early_hit_prob(alpha, static_cast<double>(ell),
                                                    static_cast<double>(t));
        table.add_row({stats::fmt(alpha, 2), stats::fmt(ell), stats::fmt(t),
                       stats::fmt(mc.trials),
                       stats::fmt_sci(p.estimate()) + " ± " + stats::fmt_sci((p.hi - p.lo) / 2, 1),
                       stats::fmt_sci(shape), stats::fmt(shape > 0 ? p.estimate() / shape : 0, 2)});
        worst_ratio = std::max(worst_ratio, p.hi / shape);
        xs.push_back(static_cast<double>(t));
        ys.push_back(p.estimate());
    }
    const auto fit = stats::loglog_fit(xs, ys);
    table.add_separator();
    table.add_row({stats::fmt(alpha, 2), stats::fmt(ell), "verdict", "-",
                   "max (upper CI)/bound = " + stats::fmt(worst_ratio, 3),
                   "O(1) constant (paper)", "slope " + stats::fmt(fit.slope, 2)});
    table.print(std::cout);
    std::cout << "\nReading: Thm 1.1(b) is an UPPER bound — P(tau<=t) must sit below a\n"
                 "constant times t^2/ell^(alpha+1) at every t in the window, so the\n"
                 "meas/paper column must stay bounded (here: well under 1). The measured\n"
                 "growth can be steeper than t^2 deep below the bound; it must flatten to\n"
                 "at most quadratic as t approaches ell^(alpha-1), where the bound is tight.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E2", argc, argv, kFlags, run); }
