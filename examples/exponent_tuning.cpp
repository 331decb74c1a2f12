// Exponent tuning: explore the unique optimum alpha*(k, ell) interactively.
//
// Corollary 4.2 says the best common exponent for k walks and distance ell
// is alpha* = 3 - log k / log ell, and that missing it by a constant costs
// polynomially. This example sweeps alpha for a (k, ell) you pick via
// --scale (which multiplies ell) and prints the hit-rate/median-time curve
// so you can see the valley move as k and ell change.
//
//   $ ./examples/exponent_tuning [--scale=S] [--trials=N]

#include <iostream>
#include <vector>

#include "src/core/strategy.h"
#include "src/sim/experiment.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
    using namespace levy;
    try {
        const auto opts =
            sim::parse_run_options(argc, argv, sim::group::monte_carlo | sim::group::checkpoint);
        const std::size_t k = 16;
        const auto ell = static_cast<std::int64_t>(96.0 * opts.scale);
        const double alpha_star = optimal_alpha(static_cast<double>(k),
                                                static_cast<double>(ell));
        const auto budget = static_cast<std::uint64_t>(ell) * static_cast<std::uint64_t>(ell);
        const std::size_t trials = opts.trials != 0 ? opts.trials : 50;

        std::cout << "k = " << k << " walks, target distance ell = " << ell
                  << ", step budget ell^2 = " << budget << "\n"
                  << "Corollary 4.2 predicts the optimum at alpha* = 3 - log k / log ell = "
                  << stats::fmt(alpha_star, 3) << "\n\n";

        stats::text_table table({"alpha", "hit rate", "median parallel time", ""});
        for (double alpha = 2.1; alpha < 3.01; alpha += 0.1) {
            sim::parallel_walk_config cfg;
            cfg.k = k;
            cfg.strategy = fixed_exponent(alpha);
            cfg.ell = ell;
            cfg.budget = budget;
            const auto sample = sim::parallel_hitting_times(
                cfg, opts.mc(trials, static_cast<std::uint64_t>(alpha * 1000)));
            // A coarse ASCII bar: shorter is better.
            const double med = stats::median(sample.times);
            const int bar = static_cast<int>(20.0 * med / static_cast<double>(budget));
            table.add_row({stats::fmt(alpha, 1), stats::fmt(sample.hit_fraction(), 2),
                           stats::fmt(med, 0),
                           std::string(static_cast<std::size_t>(bar), '#')});
        }
        table.print(std::cout);
        std::cout << "\nThe '#' bars show the median time (relative to the budget): the\n"
                     "valley should sit near alpha* = " << stats::fmt(alpha_star, 2)
                  << ". Try --scale=2 or --scale=4 and watch it shift.\n";
        return 0;
    } catch (const std::exception& e) {
        return cli::exit_status("exponent_tuning", e);
    }
}
