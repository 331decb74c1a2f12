#include "src/serve/loadgen.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <mutex>
// levylint:allow(raw-thread) client threads: the load generator *is* the
// concurrency under test — it drives sockets, never trial work.
#include <thread>

#include "src/core/contracts.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

namespace levy::serve {

double loadgen_report::percentile_ms(double q) const noexcept {
    if (latencies_ms.empty()) return 0.0;
    if (q <= 0.0) return latencies_ms.front();
    if (q >= 100.0) return latencies_ms.back();
    // Nearest-rank: ceil(q/100 * n), 1-based.
    const std::size_t n = latencies_ms.size();
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return latencies_ms[rank - 1];
}

std::string loadgen_report::transport_causes() const {
    return "refused=" + std::to_string(refused) + " reset=" + std::to_string(reset) +
           " timeout=" + std::to_string(timeout) + " short_read=" + std::to_string(short_read);
}

loadgen_report run_loadgen(const loadgen_options& opts) {
    LEVY_PRECONDITION(opts.requests >= 1, "loadgen: requests must be >= 1");
    LEVY_PRECONDITION(opts.concurrency >= 1, "loadgen: concurrency must be >= 1");
    LEVY_PRECONDITION(!opts.paths.empty(), "loadgen: need at least one path");

    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> client_errors{0};
    std::atomic<std::uint64_t> server_errors{0};
    std::array<std::atomic<std::uint64_t>, 5> torn{};  // indexed by transport_error
    std::mutex latencies_m;
    std::vector<double> latencies;
    latencies.reserve(opts.requests);

    const auto client = [&] {
        using clock = std::chrono::steady_clock;
        std::vector<double> local;
        for (;;) {
            const std::uint64_t i = next.fetch_add(1);
            if (i >= opts.requests) break;
            const std::string& path = opts.paths[i % opts.paths.size()];
            const auto start = clock::now();
            int status = 0;
            transport_error why = transport_error::none;
            const std::optional<std::string> body =
                http_get(opts.port, path, opts.timeout_seconds, &status, &why);
            const double ms =
                std::chrono::duration<double, std::milli>(clock::now() - start).count();
            if (!body.has_value()) {
                torn[static_cast<std::size_t>(why)].fetch_add(1);
                continue;  // no reply: nothing to time
            }
            local.push_back(ms);
            if (status >= 200 && status < 300) {
                ok.fetch_add(1);
            } else if (status == 503) {
                shed.fetch_add(1);
            } else if (status >= 400 && status < 500) {
                client_errors.fetch_add(1);
            } else {
                server_errors.fetch_add(1);
            }
        }
        const std::lock_guard<std::mutex> lock(latencies_m);
        latencies.insert(latencies.end(), local.begin(), local.end());
    };

    std::vector<std::thread> threads;  // levylint:allow(raw-thread) see file header note
    const unsigned n =
        static_cast<unsigned>(std::min<std::uint64_t>(opts.concurrency, opts.requests));
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        // levylint:allow(raw-thread) client threads; see file header note
        threads.emplace_back(client);
    }
    for (auto& t : threads) t.join();

    loadgen_report report;
    report.sent = std::min<std::uint64_t>(next.load(), opts.requests);
    report.ok = ok.load();
    report.shed = shed.load();
    report.client_errors = client_errors.load();
    report.server_errors = server_errors.load();
    report.refused = torn[static_cast<std::size_t>(transport_error::refused)].load();
    report.reset = torn[static_cast<std::size_t>(transport_error::reset)].load();
    report.timeout = torn[static_cast<std::size_t>(transport_error::timeout)].load();
    report.short_read = torn[static_cast<std::size_t>(transport_error::short_read)].load();
    report.transport_errors = report.refused + report.reset + report.timeout + report.short_read;
    std::sort(latencies.begin(), latencies.end());
    report.latencies_ms = std::move(latencies);
    return report;
}

}  // namespace levy::serve

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS
