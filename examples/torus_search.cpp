// Torus search: the setting of [18] (paper §2) in one runnable scene.
//
// An intermittent Lévy searcher on a torus — it cannot sense the target
// mid-jump — looks for a food patch of diameter D planted uniformly at
// random. The Cauchy exponent alpha = 2 is the near-optimal choice in this
// model; run a few searchers with different exponents on the SAME instance
// and watch who gets there first.
//
//   $ ./examples/torus_search [--seed=X]

#include <iostream>

#include "src/core/intermittent.h"
#include "src/sim/experiment.h"
#include "src/stats/table.h"
#include "src/torus/torus_walk.h"

int main(int argc, char** argv) {
    using namespace levy;
    try {
        const auto opts = sim::parse_run_options(argc, argv, sim::group::monte_carlo);
        const torus::torus_geometry world(128);
        rng master = rng::seeded(opts.seed);

        // One shared instance: a diameter-9 patch somewhere on the torus.
        rng placer = master.substream(0);
        const point patch_center = world.random_node(placer);
        const torus::torus_disc_target patch{world, patch_center, 4};
        const std::uint64_t budget = 40 * world.area();

        std::cout << "Torus " << world.n() << "x" << world.n()
                  << ", hidden food patch of diameter 9 at " << patch_center
                  << " (the searchers don't know this).\n"
                  << "Each searcher senses only between jumps ([18]'s intermittent model).\n\n";

        stats::text_table table({"alpha", "found?", "time", "distance walked per sensing"});
        for (const double alpha : {1.5, 2.0, 2.5, 3.0}) {
            torus::torus_levy_walk searcher(alpha, master.substream(10 + static_cast<std::uint64_t>(alpha * 4)),
                                            world);
            const auto r = hit_within_intermittent(searcher, patch, budget);
            const double per_phase =
                searcher.phases() == 0
                    ? 0.0
                    : static_cast<double>(searcher.steps()) / static_cast<double>(searcher.phases());
            table.add_row({stats::fmt(alpha, 1), r.hit ? "yes" : "no",
                           r.hit ? stats::fmt(r.time) : "-", stats::fmt(per_phase, 2)});
        }
        table.print(std::cout);
        std::cout << "\nAggregate behavior (many instances, scaling in n and D) is measured\n"
                     "by bench_e19_torus_cauchy; here you can replay single instances with\n"
                     "--seed=<n> and watch alpha = 2's balance: long enough jumps to move,\n"
                     "frequent enough sensing not to fly over the patch.\n";
        return 0;
    } catch (const std::exception& e) {
        return cli::exit_status("torus_search", e);
    }
}
