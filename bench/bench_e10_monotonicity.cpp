// E10 — Lemma 3.9: the monotonicity property of monotone radial processes.
//
// For a Lévy flight (the walk restricted to jump endpoints) and any nodes
// u, v with ‖v‖∞ ≥ ‖u‖₁: P(J_t = u) ≥ P(J_t = v) at every t. We estimate
// the occupancy distribution at a fixed t and print it along two transects
// (the axis and the diagonal), annotated with the box-norm ordering the
// lemma uses; every lemma-comparable pair must be correctly ordered.

#include <cmath>
#include <iostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/levy_flight.h"
#include "src/sim/monte_carlo.h"

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E10", "Lemma 3.9: occupancy is monotone in the Q-norm ordering",
                  "||v||_inf >= ||u||_1 implies P(J_t = u) >= P(J_t = v), all t");

    const double alpha = 2.2;
    const std::uint64_t t = 4;
    const auto mc = opts.mc(/*default_trials=*/2000000);

    // One pass: bin the endpoint of every trial.
    const auto endpoints = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
        levy_flight f(alpha, g);
        for (std::uint64_t i = 0; i < t; ++i) f.step();
        return f.position();
    });
    std::unordered_map<point, std::uint64_t, point_hash> census;
    for (const point p : endpoints) ++census[p];
    const auto occupancy = [&](point p) {
        const auto it = census.find(p);
        return it == census.end()
                   ? 0.0
                   : static_cast<double>(it->second) / static_cast<double>(mc.trials);
    };

    stats::text_table table({"node u", "||u||_1", "||u||_inf", "P(J_t = u)"});
    std::vector<point> transect;
    for (std::int64_t d = 0; d <= 8; ++d) transect.push_back({d, 0});
    for (std::int64_t d = 1; d <= 5; ++d) transect.push_back({d, d});
    for (const point u : transect) {
        std::ostringstream name;
        name << u;
        table.add_row({name.str(), stats::fmt(l1_norm(u)), stats::fmt(linf_norm(u)),
                       stats::fmt_sci(occupancy(u))});
    }
    table.print(std::cout);

    // Exhaustive pairwise verification over a window: every pair the lemma
    // orders must come out ordered (up to Monte-Carlo noise).
    std::uint64_t comparable = 0, violations = 0;
    const double noise = 3.0 / std::sqrt(static_cast<double>(mc.trials));
    for (std::int64_t ux = -4; ux <= 4; ++ux) {
        for (std::int64_t uy = -4; uy <= 4; ++uy) {
            for (std::int64_t vx = -6; vx <= 6; ++vx) {
                for (std::int64_t vy = -6; vy <= 6; ++vy) {
                    const point u{ux, uy}, v{vx, vy};
                    if (linf_norm(v) >= l1_norm(u) && !(u == v)) {
                        ++comparable;
                        if (occupancy(u) + noise < occupancy(v)) ++violations;
                    }
                }
            }
        }
    }
    std::cout << "\npairwise check over a 9x9 vs 13x13 window: " << comparable
              << " lemma-comparable pairs, " << violations
              << " orderings violated beyond noise (paper: 0)\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E10", argc, argv, kFlags, run); }
