// E19 — the [18] setting on the torus (§2): Cauchy search time Õ(n/D).
//
// [18] (discussed at length in the paper's related work): on a torus of
// area n with a single uniformly random target of diameter D and an
// *intermittent* Lévy searcher, the Cauchy walk (α = 2) finds the target in
// near-optimal time Õ(n/D), and exponents α ≠ 2 are suboptimal. We measure
// median search time on n = side² tori: (a) scaling in area and D at α = 2,
// (b) an α sweep at fixed (side, D).

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/intermittent.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/regression.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"
#include "src/torus/torus_walk.h"

namespace {

using namespace levy;

double median_search_time(double alpha, std::int64_t side, std::int64_t radius,
                          std::uint64_t budget, const sim::mc_options& mc) {
    const torus::torus_geometry geometry(side);
    const auto times = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
        const point target_node = geometry.random_node(g);
        torus::torus_levy_walk walk(alpha, g, geometry);
        const torus::torus_disc_target target{geometry, target_node, radius};
        const auto r = hit_within_intermittent(walk, target, budget);
        return static_cast<double>(r.time);
    });
    return stats::median(times);
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E19", "the [18] torus setting: Cauchy search time ~ n/D (extension)",
                  "intermittent Levy search on an area-n torus finds a random diameter-D "
                  "target in ~O(n/D) at alpha = 2; other alphas are suboptimal");

    // (a) scaling in area and D at alpha = 2.
    std::cout << "--- (a) search time vs area and D at alpha = 2 ---\n";
    stats::text_table scaling({"side", "area n", "D", "median time", "time/(n/D)"});
    std::vector<double> xs, ys;
    for (const std::int64_t side : {32L, 64L, 128L}) {
        const auto area = static_cast<double>(side) * static_cast<double>(side);
        for (const std::int64_t radius : {0L, 1L, 4L}) {
            const double diameter = static_cast<double>(2 * radius + 1);
            const auto budget = static_cast<std::uint64_t>(400.0 * area / diameter);
            const auto mc = opts.mc(/*default_trials=*/50,
                                    /*salt=*/static_cast<std::uint64_t>(side) * 16 +
                                        static_cast<std::uint64_t>(radius));
            const double med = median_search_time(2.0, side, radius, budget, mc);
            scaling.add_row({stats::fmt(side), stats::fmt(static_cast<std::int64_t>(area)),
                             stats::fmt(2 * radius + 1), stats::fmt(med, 0),
                             stats::fmt(med / (area / diameter), 1)});
            xs.push_back(area / diameter);
            ys.push_back(med);
        }
    }
    const auto fit = stats::loglog_fit(xs, ys);
    scaling.add_separator();
    scaling.add_row({"fit", "time ~ (n/D)^" + stats::fmt(fit.slope, 2), "1 (paper)",
                     "r2=" + stats::fmt(fit.r_squared, 3), "-"});
    scaling.print(std::cout);

    // (b) alpha sweep at fixed side, D.
    std::cout << "\n--- (b) alpha sweep at side = 96, D = 9 ---\n";
    const std::int64_t side = bench::scaled(96, opts.scale);
    const std::int64_t radius = 4;
    const auto area = static_cast<double>(side) * static_cast<double>(side);
    const auto budget = static_cast<std::uint64_t>(100.0 * area / 9.0);
    stats::text_table sweep({"alpha", "median time", "relative to best"});
    std::vector<double> alphas = {1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0};
    std::vector<double> medians;
    for (const double alpha : alphas) {
        const auto mc = opts.mc(/*default_trials=*/300,
                                /*salt=*/1000 + static_cast<std::uint64_t>(alpha * 100));
        medians.push_back(median_search_time(alpha, side, radius, budget, mc));
    }
    const double best = *std::min_element(medians.begin(), medians.end());
    for (std::size_t i = 0; i < alphas.size(); ++i) {
        sweep.add_row({stats::fmt(alphas[i], 2), stats::fmt(medians[i], 0),
                       stats::fmt(medians[i] / best, 2)});
    }
    sweep.print(std::cout);
    std::cout << "\nReading: (a) the Cauchy walk's search time grows linearly in n/D\n"
                 "(slope ~ 1), [18]'s headline bound. (b) the diffusive side (alpha >= 2.5)\n"
                 "pays clear multiples; at this torus size the ballistic side stays within\n"
                 "~2x of Cauchy because jumps are capped at n/2, making alpha < 2 behave\n"
                 "like uniform probing — the polynomial alpha<2 separation of [18] opens\n"
                 "up with n (re-run with --scale to watch the gap grow).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E19", argc, argv, kFlags, run); }
