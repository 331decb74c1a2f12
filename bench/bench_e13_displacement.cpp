// E13 — ablation: anomalous diffusion exponents across the three regimes.
//
// The regime taxonomy of §1.2.1 rests on how far a walk wanders in t steps:
//   ballistic  α ∈ (1,2]: displacement ~ t           (exponent 1)
//   super-diff α ∈ (2,3): displacement ~ t^{1/(α−1)} (exponent in (1/2,1))
//   diffusive  α > 3:     displacement ~ √t          (exponent 1/2)
// We measure the median max-displacement over doubling budgets and fit the
// growth exponent per α.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/levy_walk.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trajectory.h"
#include "src/stats/regression.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

double predicted_exponent(double alpha) {
    if (alpha <= 2.0) return 1.0;
    if (alpha < 3.0) return 1.0 / (alpha - 1.0);
    return 0.5;
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E13", "ablation: displacement scaling across regimes (basis of §1.2.1)",
                  "radius after t steps ~ t (alpha<=2), t^(1/(alpha-1)) (2<alpha<3), "
                  "sqrt(t) (alpha>3)");

    const std::vector<double> alphas = {1.5, 2.25, 2.5, 2.75, 3.5, 5.0};
    std::vector<std::uint64_t> ts;
    for (std::uint64_t t = 1024; t <= 65536; t *= 4) {
        ts.push_back(static_cast<std::uint64_t>(bench::scaled(static_cast<std::int64_t>(t),
                                                              opts.scale)));
    }

    stats::text_table table({"alpha", "t", "median max-displacement", "growth fit",
                             "paper exponent"});
    for (const double alpha : alphas) {
        LEVY_SPAN("alpha_sweep");
        std::vector<double> xs, ys;
        for (const std::uint64_t t : ts) {
            const auto mc = opts.mc(/*default_trials=*/200,
                                    /*salt=*/static_cast<std::uint64_t>(alpha * 100) + t);
            const auto disps = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
                levy_walk w(alpha, g);
                return static_cast<double>(sim::run_displacement(w, t).max_l1);
            });
            const double med = stats::median(disps);
            xs.push_back(static_cast<double>(t));
            ys.push_back(med);
            table.add_row({stats::fmt(alpha, 2), stats::fmt(t), stats::fmt(med, 0), "", ""});
        }
        const auto fit = stats::loglog_fit(xs, ys);
        table.add_row({stats::fmt(alpha, 2), "fit", "-", stats::fmt(fit.slope, 3),
                       stats::fmt(predicted_exponent(alpha), 3)});
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: the fitted growth exponent interpolates from 1 (ballistic)\n"
                 "through 1/(alpha-1) (super-diffusive) down to 1/2 (diffusive) — the\n"
                 "mechanism behind the optimal-budget choices t_ell = ell^(alpha-1).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E13", argc, argv, kFlags, run); }
