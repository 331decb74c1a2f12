// levytop — live view of a running bench's /progress endpoint.
//
// A bench started with --metrics-port=P serves its in-flight state over
// HTTP (see src/obs/exporter.h); levytop polls it and redraws a small
// status table, `top`-style:
//
//   levytop --port=9464              # refresh every second until Ctrl-C
//   levytop --port=9464 --once       # print one snapshot and exit (CI)
//   levytop --port=9464 --raw        # dump the raw /progress JSON
//
// Exit status: 0 on success; 1 when the endpoint is unreachable in --once
// mode (in polling mode an unreachable endpoint just shows "waiting" —
// the bench may not have started yet, or has already finished).

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>  // levylint:allow(raw-thread) client-side poll sleep only

#include "src/obs/json.h"
#include "src/sim/experiment.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#error "levytop requires POSIX sockets"
#endif

namespace {

struct options {
    std::string host;
    int port = 0;
    double interval = 1.0;
    bool once = false;
    bool raw = false;
};

/// One GET over a fresh connection (the exporter answers Connection: close).
/// Returns the response body, or nullopt when unreachable/malformed.
std::optional<std::string> http_get(const std::string& host, int port,
                                    const std::string& path) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res) != 0) {
        return std::nullopt;
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        timeval timeout{};
        timeout.tv_sec = 2;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) return std::nullopt;
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                                "\r\nConnection: close\r\n\r\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
        if (n <= 0) {
            ::close(fd);
            return std::nullopt;
        }
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (response.compare(0, 12, "HTTP/1.1 200") != 0) return std::nullopt;
    const std::size_t body = response.find("\r\n\r\n");
    if (body == std::string::npos) return std::nullopt;
    return response.substr(body + 4);
}

std::string fmt_duration(double seconds) {
    if (seconds < 0.0) return "?";
    const auto total = static_cast<std::uint64_t>(seconds + 0.5);
    char buf[64];
    if (total >= 3600) {
        std::snprintf(buf, sizeof(buf), "%lluh%llum",
                      static_cast<unsigned long long>(total / 3600),
                      static_cast<unsigned long long>((total % 3600) / 60));
    } else if (total >= 60) {
        std::snprintf(buf, sizeof(buf), "%llum%llus",
                      static_cast<unsigned long long>(total / 60),
                      static_cast<unsigned long long>(total % 60));
    } else {
        std::snprintf(buf, sizeof(buf), "%llus", static_cast<unsigned long long>(total));
    }
    return buf;
}

double number_or(const levy::obs::json& doc, const char* key, double fallback) {
    const levy::obs::json* field = doc.find(key);
    return field != nullptr && field->is_number() ? field->as_number() : fallback;
}

std::string string_or(const levy::obs::json& doc, const char* key) {
    const levy::obs::json* field = doc.find(key);
    return field != nullptr && field->is_string() ? field->as_string() : std::string{};
}

void render(const std::string& body, const options& opts, bool redraw) {
    levy::obs::json doc;
    try {
        doc = levy::obs::json::parse(body);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "levytop: bad /progress document: %s\n", e.what());
        return;
    }
    if (redraw) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    const std::string label = string_or(doc, "label");
    const std::string phase = string_or(doc, "phase");
    const double planned = number_or(doc, "planned", 0.0);
    const double completed = number_or(doc, "completed", 0.0);
    const double censored = number_or(doc, "censored", 0.0);
    const double rate = number_or(doc, "trials_per_sec", 0.0);
    const double eta = number_or(doc, "eta_seconds", -1.0);
    const double ckpt_age = number_or(doc, "checkpoint_age_seconds", -1.0);
    const double elapsed = number_or(doc, "elapsed_seconds", 0.0);
    std::printf("levytop — http://%s:%d/progress\n\n", opts.host.c_str(), opts.port);
    std::printf("  %-11s %s\n", "run", label.empty() ? "(unlabeled)" : label.c_str());
    std::printf("  %-11s %s\n", "phase", phase.empty() ? "-" : phase.c_str());
    if (planned > 0.0) {
        std::printf("  %-11s %.0f / %.0f  (%.1f%%)\n", "trials", completed, planned,
                    100.0 * completed / planned);
    } else {
        std::printf("  %-11s %.0f\n", "trials", completed);
    }
    std::printf("  %-11s %.0f\n", "censored", censored);
    std::printf("  %-11s %.0f trials/s\n", "rate", rate);
    std::printf("  %-11s %s\n", "ETA", fmt_duration(eta).c_str());
    std::printf("  %-11s %s\n", "checkpoint",
                ckpt_age < 0.0 ? "-" : (fmt_duration(ckpt_age) + " ago").c_str());
    std::printf("  %-11s %s\n", "elapsed", fmt_duration(elapsed).c_str());
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    options opts;
    try {
        levy::cli::args args(argc, argv);
        opts.port = args.get("port", 0, "the bench's --metrics-port (required, 1..65535)");
        opts.host = args.text("host", "127.0.0.1", "host the bench runs on");
        opts.interval = args.get("interval", 1.0, "refresh period in seconds");
        opts.once = args.has("once", "print one snapshot and exit");
        opts.raw = args.has("raw", "dump the raw /progress JSON");
        args.finish();
        if (opts.port < 1 || opts.port > 65535) {
            throw std::invalid_argument("--port=P is required (1..65535)");
        }
        if (!(opts.interval > 0.0)) throw std::invalid_argument("--interval must be positive");
    } catch (const std::exception& e) {
        return levy::cli::exit_status("levytop", e);
    }
    std::signal(SIGPIPE, SIG_IGN);
    const bool redraw = !opts.once && !opts.raw && ::isatty(::fileno(stdout)) != 0;
    for (;;) {
        const std::optional<std::string> body =
            http_get(opts.host, opts.port, "/progress");
        if (!body.has_value()) {
            if (opts.once) {
                std::fprintf(stderr, "levytop: no response from %s:%d\n",
                             opts.host.c_str(), opts.port);
                return 1;
            }
            if (redraw) std::fputs("\x1b[H\x1b[2J", stdout);
            std::printf("levytop — waiting for http://%s:%d/progress ...\n",
                        opts.host.c_str(), opts.port);
            std::fflush(stdout);
        } else if (opts.raw) {
            std::fputs(body->c_str(), stdout);
            std::fflush(stdout);
        } else {
            render(*body, opts, redraw);
        }
        if (opts.once) return 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.interval));
    }
}
