#include "src/obs/exporter.h"

#include <atomic>
#include <charconv>
#include <cstring>
#include <mutex>
#include <stdexcept>
// levylint:allow(raw-thread) server thread: observability I/O only — it
// serves read-only snapshots and never runs trial work.
#include <thread>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/serve/http.h"

#define LEVY_HAVE_POSIX_SOCKETS LEVY_SERVE_HAVE_POSIX_SOCKETS
#if LEVY_HAVE_POSIX_SOCKETS
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace levy::obs {
namespace {

/// Shortest-round-trip double, matching the JSON writer's determinism.
std::string fmt_double(double v) {
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc{}) return "0";
    return std::string(buf, ptr);
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Inclusive upper edge of log2 snapshot slot `i` (slot 0 = zeros, slot
/// b >= 1 = [2^(b-1), 2^b)), as a Prometheus `le` label.
std::string log2_le(std::size_t slot) {
    if (slot == 0) return "0";
    if (slot >= 64) return fmt_u64(~std::uint64_t{0});
    return fmt_u64((std::uint64_t{1} << slot) - 1);
}

void append_histogram(std::string& out, const std::string& name,
                      const histogram_snapshot& h) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    double sum_estimate = 0.0;
    if (h.spec.kind == histogram_spec::scale::log2) {
        for (std::size_t slot = 0; slot < h.buckets.size(); ++slot) {
            cumulative += h.buckets[slot];
            out += name + "_bucket{le=\"" + log2_le(slot) + "\"} " + fmt_u64(cumulative) +
                   "\n";
            if (slot > 0) {
                // Midpoint of [2^(slot-1), 2^slot) — a factor-2 envelope.
                sum_estimate += static_cast<double>(h.buckets[slot]) * 1.5 *
                                static_cast<double>(std::uint64_t{1} << (slot - 1));
            }
        }
    } else {
        const double width =
            (h.spec.hi - h.spec.lo) / static_cast<double>(h.spec.bins);
        // Slot 0 is underflow: folded into the first cumulative bucket (its
        // values are below every boundary). The last slot is overflow,
        // visible only in +Inf.
        cumulative = h.buckets[0];
        sum_estimate += static_cast<double>(h.buckets[0]) * h.spec.lo;
        for (std::size_t bin = 0; bin < h.spec.bins; ++bin) {
            cumulative += h.buckets[bin + 1];
            const double upper = h.spec.lo + width * static_cast<double>(bin + 1);
            out += name + "_bucket{le=\"" + fmt_double(upper) + "\"} " +
                   fmt_u64(cumulative) + "\n";
            sum_estimate += static_cast<double>(h.buckets[bin + 1]) *
                            (h.spec.lo + width * (static_cast<double>(bin) + 0.5));
        }
        sum_estimate += static_cast<double>(h.buckets[h.spec.bins + 1]) * h.spec.hi;
    }
    const std::uint64_t total = h.total();
    out += name + "_bucket{le=\"+Inf\"} " + fmt_u64(total) + "\n";
    out += name + "_sum " + fmt_double(sum_estimate) + "\n";
    out += name + "_count " + fmt_u64(total) + "\n";
}

#if LEVY_HAVE_POSIX_SOCKETS

struct exporter_state {
    std::mutex m;
    bool running = false;
    std::atomic<bool> stop{false};
    int listen_fd = -1;
    std::thread server;  // levylint:allow(raw-thread) see file header note
};

exporter_state& state() {
    static exporter_state* s = new exporter_state;  // leaked like the registry
    return *s;
}

serve::http_response route(const std::string& path) {
    serve::http_response resp;
    if (path == "/metrics") {
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = prometheus_text();
        return resp;
    }
    if (path == "/healthz") {
        resp.body = "ok\n";
        return resp;
    }
    if (path == "/progress") {
        resp.content_type = "application/json; charset=utf-8";
        resp.body = progress_to_json(snapshot_progress()).dump(2) + "\n";
        return resp;
    }
    resp.status = 404;
    resp.body = "not found\n";
    return resp;
}

void handle_connection(int fd) {
    // Shared socket hygiene (serve/http): per-recv/send timeouts plus a
    // *total* head deadline and byte bound — a silent or drip-feeding
    // scraper is cut off by the deadline, never wedging the server the way
    // a per-recv timer alone would allow.
    serve::http_limits limits;
    limits.io_timeout_seconds = 1.0;    // scrapers are local and fast;
    limits.head_deadline_seconds = 2.0; // match the old 2 s worst case
    serve::apply_socket_timeouts(fd, limits);
    serve::http_request req;
    const serve::head_status hs = serve::read_request_head(fd, limits, req);
    serve::http_response resp;
    if (hs != serve::head_status::ok) {
        if (hs == serve::head_status::closed) {  // nobody left to answer
            ::close(fd);
            return;
        }
        resp.status = hs == serve::head_status::timeout     ? 408
                      : hs == serve::head_status::too_large ? 431
                                                            : 400;
        resp.body = std::string("bad request: ") + serve::head_status_name(hs) + "\n";
    } else if (req.method != "GET") {
        resp.status = 400;
        resp.body = "bad request\n";
    } else {
        resp = route(req.path);
    }
    (void)serve::send_all(fd, serve::render_response(resp));
    ::close(fd);
}

void server_loop() {
    exporter_state& st = state();
    static const counter scrapes = get_counter("obs.scrapes");
    while (!st.stop.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = st.listen_fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
        if (ready <= 0) continue;  // timeout or EINTR: re-check stop
        const int conn = ::accept(st.listen_fd, nullptr, nullptr);
        if (conn < 0) continue;
        scrapes.add();
        handle_connection(conn);
    }
}

#endif  // LEVY_HAVE_POSIX_SOCKETS

}  // namespace

std::string prometheus_name(const std::string& name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9' && !out.empty()) || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty()) out = "_";
    return out;
}

std::string prometheus_text() {
    const metrics_view view = snapshot_metrics();
    std::string out;
    out.reserve(4096);
    for (const auto& [name, value] : view.counters) {
        const std::string pn = "levy_" + prometheus_name(name) + "_total";
        out += "# TYPE " + pn + " counter\n";
        out += pn + " " + fmt_u64(value) + "\n";
    }
    for (const auto& [name, value] : view.gauges) {
        const std::string pn = "levy_" + prometheus_name(name);
        out += "# TYPE " + pn + " gauge\n";
        out += pn + " " + fmt_double(value) + "\n";
    }
    for (const auto& [name, hist] : view.histograms) {
        append_histogram(out, "levy_" + prometheus_name(name), hist);
    }
    return out;
}

#if LEVY_HAVE_POSIX_SOCKETS

unsigned short start_metrics_exporter(unsigned short port) {
    exporter_state& st = state();
    std::lock_guard lk(st.m);
    if (st.running) throw std::logic_error("metrics exporter already running");
    const auto [fd, bound_port] = serve::listen_on(port);
    st.listen_fd = fd;
    st.stop.store(false, std::memory_order_release);
    // levylint:allow(raw-thread) observability server; never runs trial work
    st.server = std::thread(server_loop);
    st.running = true;
    return bound_port;
}

void stop_metrics_exporter() noexcept {
    exporter_state& st = state();
    std::lock_guard lk(st.m);
    if (!st.running) return;
    st.stop.store(true, std::memory_order_release);
    if (st.server.joinable()) st.server.join();
    ::close(st.listen_fd);
    st.listen_fd = -1;
    st.running = false;
}

bool metrics_exporter_active() noexcept {
    exporter_state& st = state();
    std::lock_guard lk(st.m);
    return st.running;
}

#else  // !LEVY_HAVE_POSIX_SOCKETS

unsigned short start_metrics_exporter(unsigned short) {
    throw std::runtime_error("metrics exporter requires POSIX sockets on this platform");
}
void stop_metrics_exporter() noexcept {}
bool metrics_exporter_active() noexcept { return false; }

#endif

}  // namespace levy::obs
