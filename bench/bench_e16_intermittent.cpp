// E16 — ablation: intermittent vs continuous sensing (§2 / footnote 3).
//
// In [18]'s setting the searcher cannot sense the target mid-jump, and the
// target has diameter D; there the Cauchy walk (α = 2) is the unique
// near-optimal exponent. Footnote 3 of the paper observes that with D = 1
// *or* with continuous (non-intermittent) sensing, whole ranges of α become
// optimal instead. We sweep α for both sensing modes and both target sizes
// and report hit rates at a fixed budget: the "α = 2 uniquely wins" shape
// should appear only in the (intermittent, large-D) cell.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/intermittent.h"
#include "src/core/levy_walk.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/table.h"

namespace {

using namespace levy;

struct cell {
    double hit_rate = 0.0;
};

cell measure(double alpha, bool intermittent, std::int64_t target_radius, std::int64_t ell,
             std::uint64_t budget, const sim::mc_options& mc) {
    const disc_target target{{ell, 0}, target_radius};
    const auto p = sim::estimate_probability(mc, [&](std::size_t, rng& g) {
        levy_walk w(alpha, g);
        return intermittent ? hit_within_intermittent(w, target, budget).hit
                            : hit_within(w, target, budget).hit;
    });
    return {p.estimate()};
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E16", "ablation: intermittent sensing x target diameter (footnote 3, [18])",
                  "intermittent + large-D favors alpha = 2 uniquely; continuous sensing "
                  "or unit targets flatten the optimum into a range");

    const std::int64_t ell = bench::scaled(192, opts.scale);
    const auto budget = static_cast<std::uint64_t>(24 * ell);
    const std::vector<double> alphas = {1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0};

    for (const bool intermittent : {false, true}) {
        for (const std::int64_t radius : {0L, 8L}) {
            std::cout << (intermittent ? "intermittent sensing" : "continuous sensing")
                      << ", target diameter D = " << (2 * radius + 1) << ", ell = " << ell
                      << ", budget = " << budget << "\n";
            stats::text_table table({"alpha", "hit rate", "relative to best"});
            std::vector<double> rates;
            for (const double alpha : alphas) {
                const auto mc =
                    opts.mc(/*default_trials=*/8000,
                            /*salt=*/static_cast<std::uint64_t>(alpha * 100) * 4 +
                                static_cast<std::uint64_t>(intermittent) * 2 +
                                static_cast<std::uint64_t>(radius != 0));
                rates.push_back(measure(alpha, intermittent, radius, ell, budget, mc).hit_rate);
            }
            const double best = *std::max_element(rates.begin(), rates.end());
            for (std::size_t i = 0; i < alphas.size(); ++i) {
                table.add_row({stats::fmt(alphas[i], 2), stats::fmt(rates[i], 4),
                               best > 0 ? stats::fmt(rates[i] / best, 2) : "-"});
            }
            table.print(std::cout);
            std::cout << '\n';
        }
    }
    std::cout << "Reading: with continuous sensing the ballistic range alpha <= 2 performs\n"
                 "comparably (footnote 3); intermittent sensing punishes alpha < 2 (long\n"
                 "blind jumps fly over the target), and a larger D rescues local search\n"
                 "less than it rescues alpha ~ 2 — reproducing [18]'s Cauchy optimality.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E16", argc, argv, kFlags, run); }
