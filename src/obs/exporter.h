#pragma once

#include <cstdint>
#include <string>

namespace levy::obs {

/// --- Scrapeable metrics endpoint (--metrics-port=P) ------------------------
///
/// A minimal stdlib+POSIX HTTP/1.1 server so any running bench can be
/// watched like a production service: Prometheus scrapes `/metrics`,
/// `levytop` polls `/progress`, and orchestration liveness probes hit
/// `/healthz`. One server thread accepts connections and answers them
/// serially with bounded socket timeouts — every response is assembled from
/// a registry snapshot at scrape time, so serving is read-only and touches
/// nothing on the simulation hot path.
///
///   GET /metrics   Prometheus text exposition format, version 0.0.4:
///                  registry counters (`levy_<name>_total`), gauges, and
///                  fixed-layout histograms (cumulative `le` buckets) —
///                  every count, the Monte-Carlo run totals included.
///   GET /healthz   200 "ok" — liveness.
///   GET /progress  the obs::progress_snapshot as JSON (see progress.h).
///
/// Endpoints are observability output: wall-clock dependent, never part of
/// the deterministic stdout/CSV/JSON result surface.

/// Start the server on `port` (0 = let the OS pick an ephemeral port, which
/// the tests use). Returns the actually bound port. Throws
/// std::runtime_error when the socket cannot be bound and std::logic_error
/// when a server is already running.
unsigned short start_metrics_exporter(unsigned short port);

/// Shut the server down and join its thread. Safe when not running.
void stop_metrics_exporter() noexcept;

[[nodiscard]] bool metrics_exporter_active() noexcept;

/// The `/metrics` payload for the current registry + run state; exposed so
/// tests can golden-parse the exposition format without a socket.
[[nodiscard]] std::string prometheus_text();

/// Sanitize a registry metric name into the Prometheus grammar
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): every other byte becomes '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name);

}  // namespace levy::obs
