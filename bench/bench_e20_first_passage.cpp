// E20 — the t_i / λ_i machinery of Lemma 3.11 (and Lemma 4.8's reach bound).
//
// The transience proofs slice a walk's lifetime at the first-passage times
// t_i to radii λ_i = 2^i ℓ and argue t_i ≤ τ_i := 2 λ_i^{α−1} log λ_i with
// overwhelming probability (a radius-λ displacement needs a jump ~λ, which
// takes ~λ^{α−1} draws to see). We measure the first-passage time
// distribution to doubling radii and check (a) the median scales like
// λ^{α−1} and (b) P(t_λ > τ_λ) is small — the two ingredients the lemma
// composes.

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

void sweep(const sim::run_options& opts, double alpha) {
    std::cout << "alpha = " << alpha << "\n";
    stats::text_table table(
        {"radius", "median t_r", "tau_r = 2 r^(a-1) log r", "P(t_r > tau_r)"});
    std::vector<double> xs, ys;
    for (const std::int64_t radius : {16L, 32L, 64L, 128L, 256L}) {
        const double tau = 2.0 * std::pow(static_cast<double>(radius), alpha - 1.0) *
                           std::log(static_cast<double>(radius));
        const auto budget = static_cast<std::uint64_t>(64.0 * tau);
        const auto mc = opts.mc(/*default_trials=*/400,
                                /*salt=*/static_cast<std::uint64_t>(alpha * 100) * 1000 +
                                    static_cast<std::uint64_t>(radius));
        const auto results = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
            levy_walk w(alpha, g);
            return static_cast<double>(sim::first_passage_radius(w, radius, budget).time);
        });
        const double med = stats::median(results);
        std::uint64_t exceed = 0;
        for (const double t : results) exceed += (t > tau);
        table.add_row({stats::fmt(radius), stats::fmt(med, 0), stats::fmt(tau, 0),
                       stats::fmt(static_cast<double>(exceed) /
                                      static_cast<double>(results.size()),
                                  3)});
        xs.push_back(static_cast<double>(radius));
        ys.push_back(med);
    }
    const auto fit = stats::loglog_fit(xs, ys);
    table.add_separator();
    table.add_row({"fit", "t_r ~ r^" + stats::fmt(fit.slope, 2),
                   stats::fmt(alpha - 1.0, 2) + " (= alpha-1, paper)",
                   "r2=" + stats::fmt(fit.r_squared, 3)});
    table.print(std::cout);
    std::cout << '\n';
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E20", "Lemma 3.11 machinery: first passage to radius lambda",
                  "t_lambda concentrates below tau_lambda = 2 lambda^(alpha-1) log lambda; "
                  "median scales like lambda^(alpha-1)");
    sweep(opts, 2.25);
    sweep(opts, 2.5);
    sweep(opts, 2.75);
    std::cout << "Reading: per alpha, the median first-passage time grows like r^(alpha-1)\n"
                 "and the lemma's tau_r threshold is exceeded with small, shrinking\n"
                 "probability — the concentration the transience proof composes over\n"
                 "doubling radii.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E20", argc, argv, kFlags, run); }
