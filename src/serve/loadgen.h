#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/http.h"

namespace levy::serve {

/// --- Closed-loop load generator -------------------------------------------
///
/// The one client harness shared by `levyserve loadgen`, the E23 overload
/// bench, and the CI serve-smoke job. Closed loop: `concurrency` client
/// threads each issue the next request the moment the previous one
/// finishes, until `requests` total have been sent — offered load is
/// therefore concurrency / mean-latency, and pushing `concurrency` past the
/// server's worker count + queue capacity forces the admission gate to
/// shed, which is exactly what the overload assertions measure.
///
/// Latency here is wall-clock *measurement* of the service, never content
/// of an answer — the determinism contract (serve/server.h) is untouched.

struct loadgen_options {
    unsigned short port = 0;
    /// Request target, e.g. "/healthz" or "/query?alpha=2.5&ell=32". Cycled
    /// round-robin when several are given (requests i uses paths[i % n]).
    std::vector<std::string> paths = {"/healthz"};
    std::size_t requests = 100;  ///< total requests across all threads
    unsigned concurrency = 8;    ///< parallel client threads (>= 1)
    double timeout_seconds = 10.0;
};

struct loadgen_report {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;            ///< 2xx
    std::uint64_t shed = 0;          ///< 503 (the overload contract)
    std::uint64_t client_errors = 0; ///< 4xx
    /// Non-503 5xx, or a status levyserve never sends (1xx/3xx) — must be
    /// 0 under pure overload.
    std::uint64_t server_errors = 0;
    /// No/torn HTTP reply: the sum of the four causes below.
    std::uint64_t transport_errors = 0;
    std::uint64_t refused = 0;
    std::uint64_t reset = 0;
    std::uint64_t timeout = 0;
    std::uint64_t short_read = 0;
    /// Per-request wall latency in milliseconds, sorted ascending
    /// (successful and shed requests both count — shedding is a response).
    std::vector<double> latencies_ms;

    /// Nearest-rank percentile of `latencies_ms` (q in [0, 100]); 0 when
    /// no latency was recorded.
    [[nodiscard]] double percentile_ms(double q) const noexcept;

    /// "refused=0 reset=2 timeout=0 short_read=1": transport errors by cause.
    [[nodiscard]] std::string transport_causes() const;
};

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
/// Run the closed loop against 127.0.0.1:port. Requires requests >= 1,
/// concurrency >= 1, at least one path.
[[nodiscard]] loadgen_report run_loadgen(const loadgen_options& opts);
#endif

}  // namespace levy::serve
