// E17 — ablation: the Lévy foraging hypothesis setting (§2, [38]).
//
// Sparse targets scattered uniformly at random (a Bernoulli site field),
// searcher collects as many as it can in a fixed time T. The classical
// claim ([38], proven in 1D [4], *not* in 2D [26] — the gap the paper
// opens with): α = 2 maximizes the target-collection rate for sparse
// REVISITABLE targets, while destructive foraging (targets are consumed)
// pushes the optimum toward the ballistic end. We measure collected
// targets per 10^5 steps vs α in both modes.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/levy_walk.h"
#include "src/core/target_field.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace {

using namespace levy;

double collected(double alpha, bool destructive, double density, std::uint64_t steps,
                 const sim::mc_options& mc) {
    const auto counts = sim::monte_carlo_collect(mc, [&](std::size_t trial, rng& g) {
        random_target_field field(density, mix64(mc.seed, trial));
        levy_walk w(alpha, g);
        std::uint64_t found = 0;
        // Count a find only when *entering* the target node (no farming a
        // revisitable target by standing on it through stay-put phases).
        point prev = w.position();
        for (std::uint64_t t = 0; t < steps; ++t) {
            const point p = w.step();
            if (p != prev && field.contains(p)) {
                ++found;
                if (destructive) field.consume(p);
            }
            prev = p;
        }
        return static_cast<double>(found);
    });
    return stats::summarize(counts).mean();
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E17", "ablation: Levy foraging hypothesis, sparse random targets ([38], §2)",
                  "alpha ~ 2 maximizes collection of sparse revisitable targets; "
                  "destructive foraging favors more ballistic exponents");

    const double density = 1.0 / 2048.0;  // mean spacing ~ 45 lattice units
    const auto steps = static_cast<std::uint64_t>(bench::scaled(100000, opts.scale));
    const std::vector<double> alphas = {1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5};

    stats::text_table table({"alpha", "revisitable (found/run)", "destructive (found/run)"});
    std::vector<double> revisit_rates, destruct_rates;
    for (const double alpha : alphas) {
        const auto mc_r = opts.mc(/*default_trials=*/60,
                                  /*salt=*/static_cast<std::uint64_t>(alpha * 100) * 2);
        const auto mc_d = opts.mc(/*default_trials=*/60,
                                  /*salt=*/static_cast<std::uint64_t>(alpha * 100) * 2 + 1);
        const double r = collected(alpha, /*destructive=*/false, density, steps, mc_r);
        const double d = collected(alpha, /*destructive=*/true, density, steps, mc_d);
        revisit_rates.push_back(r);
        destruct_rates.push_back(d);
        table.add_row({stats::fmt(alpha, 2), stats::fmt(r, 2), stats::fmt(d, 2)});
    }
    table.print(std::cout);

    const auto argmax = [&](const std::vector<double>& v) {
        return alphas[static_cast<std::size_t>(
            std::max_element(v.begin(), v.end()) - v.begin())];
    };
    std::cout << "\nempirical optimum: revisitable alpha ~ " << stats::fmt(argmax(revisit_rates), 2)
              << ", destructive alpha ~ " << stats::fmt(argmax(destruct_rates), 2) << "\n"
              << "Reading: the classical alpha = 2 optimum was proven only in 1D [4]; in\n"
                 "2D with continuous (non-intermittent) detection the curve is shallow and\n"
                 "ballistic-shifted — exactly the failure mode [26] points out (and E16\n"
                 "shows alpha = 2 re-emerging once sensing is intermittent). This fragility\n"
                 "is why the paper re-examines the hypothesis via parallel hitting times.\n"
                 "Destructive foraging steepens the penalty for local exponents: consumed\n"
                 "neighborhoods make oversampling one's own trail much more costly.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E17", argc, argv, kFlags, run); }
