// Direct-path gallery: an ASCII reproduction of the paper's Figure 2.
//
// Renders sampled direct paths (Definition 3.1) between the origin and a few
// destinations, showing how the lattice path hugs the real segment, plus one
// full Lévy-walk trajectory so you can see jump-phases chained together.
//
//   $ ./examples/direct_path_gallery [--seed=X]

#include <iostream>
#include <map>
#include <vector>

#include "src/core/levy_walk.h"
#include "src/grid/direct_path.h"
#include "src/sim/experiment.h"
#include "src/sim/trajectory.h"

namespace {

using namespace levy;

/// Render a set of points in a terminal grid; y grows upward.
void render(const std::vector<point>& pts, point mark_from, point mark_to) {
    std::int64_t min_x = 0, max_x = 0, min_y = 0, max_y = 0;
    for (const point p : pts) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    }
    std::map<std::pair<std::int64_t, std::int64_t>, char> canvas;
    for (const point p : pts) canvas[{p.x, p.y}] = '*';
    canvas[{mark_from.x, mark_from.y}] = 'S';
    canvas[{mark_to.x, mark_to.y}] = 'T';
    for (std::int64_t y = max_y; y >= min_y; --y) {
        for (std::int64_t x = min_x; x <= max_x; ++x) {
            const auto it = canvas.find({x, y});
            std::cout << (it == canvas.end() ? '.' : it->second);
        }
        std::cout << '\n';
    }
}

void show_path(point to, rng& g) {
    std::cout << "direct path (0,0) -> " << to << "  [d = " << l1_norm(to) << "]\n";
    render(sample_direct_path(origin, to, g), origin, to);
    std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const auto opts = sim::parse_run_options(argc, argv, sim::group::monte_carlo);
        rng g = rng::seeded(opts.seed);

        std::cout << "=== Figure 2 reproduction: direct paths (Def. 3.1) ===\n\n";
        show_path({14, 5}, g);
        show_path({6, 11}, g);
        show_path({-9, -4}, g);

        std::cout << "=== A Levy walk trajectory (alpha = 2.2, 220 steps) ===\n";
        std::cout << "Chained jump-phases: long straight runs mixed with local shuffling.\n\n";
        levy_walk w(2.2, g.substream(1));
        const auto traj = sim::record_trajectory(w, 220);
        render(traj, traj.front(), traj.back());
        std::cout << "\nS = start (origin), T = position after 220 steps.\n";
        return 0;
    } catch (const std::exception& e) {
        return cli::exit_status("direct_path_gallery", e);
    }
}
