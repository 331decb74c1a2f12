// Quickstart: the 60-second tour of the library.
//
// Build one Lévy walk, send it after a target, then let a small fleet with
// randomly chosen exponents (the paper's knowledge-free strategy, Thm 1.6)
// do the same job in parallel.
//
//   $ ./examples/quickstart

#include <iostream>

#include "src/core/hitting.h"
#include "src/core/levy_walk.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
#include "src/sim/experiment.h"

int main(int argc, char** argv) {
    using namespace levy;
    try {
        cli::args(argc, argv).finish();  // no flags: anything given is a mistake
    } catch (const std::exception& e) {
        return cli::exit_status("quickstart", e);
    }

    // A treasure 40 lattice steps from the nest (the walk doesn't know where).
    const point treasure{24, -16};
    std::cout << "Target at " << treasure << ", distance ell = " << l1_norm(treasure) << "\n\n";

    // --- One walk ---------------------------------------------------------
    // α = 2.5 sits mid-superdiffusive; rng::seeded gives a reproducible run.
    levy_walk walk(/*alpha=*/2.5, rng::seeded(2021));
    const hit_result solo = hit_within(walk, treasure, /*budget=*/200000);
    if (solo.hit) {
        std::cout << "single walk (alpha=2.5): found it at step " << solo.time << "\n";
    } else {
        std::cout << "single walk (alpha=2.5): gave up after " << solo.time
                  << " steps.\n  (Expected! A lone super-diffusive walk misses a distance-"
                  << l1_norm(treasure) << " target\n  with probability ~ 1 - 1/ell^(3-alpha)"
                  << " — Theorem 1.1(c). Hence the fleet:)\n";
    }

    // --- A fleet with random exponents -------------------------------------
    // Each of the 32 walks draws its own alpha ~ U(2,3); nobody knows k or
    // ell, yet the parallel hitting time is near-optimal (Theorem 1.6).
    const std::size_t k = 32;
    const parallel_result fleet =
        parallel_hit(k, uniform_exponent(), treasure, /*budget=*/200000, rng::seeded(2021));
    if (fleet.hit) {
        std::cout << "fleet of " << k << " (alpha ~ U(2,3)): walk #" << fleet.winner
                  << " (alpha = " << fleet.winner_alpha << ") found it at step " << fleet.time
                  << "\n";
    } else {
        std::cout << "fleet of " << k << ": no walk found it within budget\n";
    }

    if (solo.hit && fleet.hit && fleet.time > 0) {
        std::cout << "\nspeedup over the solo walk: "
                  << static_cast<double>(solo.time) / static_cast<double>(fleet.time) << "x\n";
    }
    return 0;
}
