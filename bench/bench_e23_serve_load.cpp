// E23 — levyserve under overload: admission control and graceful
// degradation as a measured policy, not a hope.
//
// An in-process levyserve daemon (src/serve/server.h) answers /query
// Monte-Carlo requests while a closed-loop load generator sweeps offered
// concurrency from below the server's capacity to far above it. The
// robustness contract under test:
//
//   - every response is either a real answer (200) or an explicit shed
//     (503 + Retry-After) — non-503 5xx responses under pure overload are
//     a bug, and this bench aborts loudly on the first one;
//   - latency percentiles of *answered* requests stay bounded as offered
//     load grows, because the bounded queue sheds instead of building an
//     unbounded backlog;
//   - the shed rate rises smoothly with offered load (the degradation is
//     graceful, not a cliff into timeouts).
//
// --queue-capacity and --deadline-ms (sim::run_options) configure the
// server; --trials sets requests per sweep point.

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/stats/table.h"

#if !LEVY_SERVE_HAVE_POSIX_SOCKETS
int main() {
    std::cout << "E23 requires POSIX sockets on this platform\n";
    return 0;
}
#else

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::serving;

void run(const sim::run_options& opts) {
    bench::banner("E23", "levyserve overload: shed explicitly, degrade gracefully",
                  "under offered load >> capacity: zero non-503 5xx, bounded p99 of "
                  "answered requests, shed rate rising smoothly");

    serve::serve_options sopts;
    sopts.workers = 2;
    sopts.queue_capacity = opts.queue_capacity;
    sopts.default_deadline_ms = opts.deadline_ms;
    sopts.steps_per_ms = 2000;
    sopts.default_trials = 16;
    sopts.seed = opts.seed;
    serve::server server(sopts);
    const unsigned short port = server.start();

    const std::int64_t ell = bench::scaled(64, opts.scale);
    const std::string query = "/query?alpha=2.5&ell=" + std::to_string(ell) +
                              "&k=2&budget=2000&trials=8";
    const std::size_t requests = opts.trials != 0 ? opts.trials : 200;
    // Offered load: closed-loop client threads, from under capacity
    // (workers alone can drain it) to several times workers + queue.
    const std::vector<unsigned> concurrencies = {1, 4, 16, 64};

    stats::text_table table({"clients", "sent", "ok", "shed", "shed rate", "5xx!=503",
                             "p50 ms", "p95 ms", "p99 ms"});
    for (const unsigned c : concurrencies) {
        serve::loadgen_options lopts;
        lopts.port = port;
        lopts.paths = {query};
        lopts.requests = requests;
        lopts.concurrency = c;
        const serve::loadgen_report report = serve::run_loadgen(lopts);
        if (report.server_errors != 0) {
            server.stop();
            throw std::runtime_error("E23: " + std::to_string(report.server_errors) +
                                     " non-503 5xx responses under overload");
        }
        if (report.transport_errors != 0) {
            server.stop();
            throw std::runtime_error("E23: " + std::to_string(report.transport_errors) +
                                     " transport errors (" + report.transport_causes() + ")");
        }
        const double shed_rate =
            report.sent == 0
                ? 0.0
                : static_cast<double>(report.shed) / static_cast<double>(report.sent);
        table.add_row({stats::fmt(c), stats::fmt(report.sent), stats::fmt(report.ok),
                       stats::fmt(report.shed), stats::fmt(shed_rate, 2),
                       stats::fmt(report.server_errors),
                       stats::fmt(report.percentile_ms(50), 1),
                       stats::fmt(report.percentile_ms(95), 1),
                       stats::fmt(report.percentile_ms(99), 1)});
    }
    table.print(std::cout);

    const serve::server::stats_snapshot s = server.stats();
    std::cout << "\nserver: admitted=" << s.admission.admitted
              << " shed=" << s.admission.shed_total() << " exact=" << s.exact
              << " interpolated=" << s.interpolated << " degraded=" << s.degraded
              << " cache_hits=" << s.cache_hits << " worker_faults=" << s.worker_faults
              << "\n";
    server.stop();
    std::cout << "\nReading: ok+shed accounts for every request at every offered load;\n"
                 "the queue bound keeps answered-request percentiles flat while the\n"
                 "shed rate absorbs the excess — overload degrades, never cascades.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E23", argc, argv, kFlags, run); }

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS
