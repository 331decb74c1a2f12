// serve_cached: an in-process levyserve (2 workers) whose cache is warmed
// with a grid of exact answers, driven by a closed loop of 2 clients over an
// equal-share mix of cache hits, interpolations, tiny exact queries that
// insert, and /plan requests. Every reply must be 200 with a body
// byte-equal to server::handle on a reference server warmed the same way.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
// Client threads: the closed loop's clients are the load under test, not
// trial work, so they are plain threads as in serve/loadgen.
#include <thread>
#include <vector>

#include "perfbench/src/runners.h"
#include "src/obs/trace.h"
#include "src/serve/http.h"
#include "src/serve/server.h"

namespace perfbench {

namespace {

using levy::serve::http_request;
using levy::serve::server;

constexpr int kSetupReps = 5;
/// Over 100k requests per run: p99 keeps hundreds of samples beyond it.
constexpr int kTailPercentile = 99;
constexpr unsigned kClients = 2;
constexpr double kClientTimeoutSeconds = 5.0;
/// Requests per phase of the traced run (fixed, so class shares are exact).
constexpr std::uint64_t kTracedRequests = 40000;

levy::serve::serve_options options() {
    levy::serve::serve_options o;
    o.workers = 2;
    return o;
}

http_request parse_target(const std::string& target) {
    http_request req;
    if (!levy::serve::parse_request_line("GET " + target + " HTTP/1.1", req)) {
        throw std::logic_error("unparseable request target " + target);
    }
    return req;
}

/// Expected reply bodies, per class and pool entry, from the reference.
using expected_bodies = std::array<std::vector<std::string>, kRequestClasses>;

/// What one client of the closed loop saw.
struct client_log {
    op_tally tally;
    std::vector<op_sample> ops;
    std::vector<request_class> cls;
    std::vector<std::string> mismatches;  ///< first few, for stderr
};

/// Requests per second per client the logs are sized for up front. The
/// logs are touched before timing, so peak RSS does not step with the
/// request count (a vector doubling mid-run would add megabytes).
constexpr double kLogRatePerClient = 40000.0;

/// Closed loop: each client sends request i = next++ of the seed's sequence
/// as soon as its previous reply is in, until `deadline` has passed and
/// `min_ops` requests have been claimed (or `max_ops` have).
std::vector<client_log> closed_loop(unsigned short port, const serve_plan& plan,
                                    const expected_bodies& expected, std::uint64_t seed,
                                    clock_type::time_point deadline, std::uint64_t min_ops,
                                    std::uint64_t max_ops, bool span_per_request,
                                    double seconds) {
    std::atomic<std::uint64_t> next{0};
    std::vector<client_log> logs(kClients);
    const auto start = clock_type::now();
    const auto capacity = static_cast<std::size_t>(std::min(
        static_cast<double>(max_ops), std::max(static_cast<double>(min_ops), seconds * kLogRatePerClient)));
    for (client_log& log : logs) {
        log.ops.assign(capacity, op_sample{});
        log.ops.clear();
        log.cls.assign(capacity, request_class::cache_hit);
        log.cls.clear();
    }
    const auto client = [&](client_log& log) noexcept {
        try {
            for (;;) {
                const std::uint64_t i = next.fetch_add(1);
                if (i >= max_ops || (i >= min_ops && clock_type::now() >= deadline)) break;
                const request_ref ref = request_at(plan, seed, i);
                const auto c = static_cast<std::size_t>(ref.cls);
                const std::string& path = plan.pools[c][ref.pool_index];
                const auto t0 = clock_type::now();
                reply r;
                if (span_per_request) {
                    LEVY_SPAN("serve.request");
                    r.body = levy::serve::http_get(port, path, kClientTimeoutSeconds, &r.status);
                } else {
                    r.body = levy::serve::http_get(port, path, kClientTimeoutSeconds, &r.status);
                }
                const auto t1 = clock_type::now();
                log.ops.push_back({static_cast<float>(seconds_between(start, t1)),
                                   static_cast<float>(seconds_between(t0, t1) * 1e3)});
                log.cls.push_back(ref.cls);
                const std::uint64_t failed_before = log.tally.failed();
                log.tally.count(r, expected[c][ref.pool_index]);
                if (log.tally.failed() != failed_before && log.mismatches.size() < 5) {
                    log.mismatches.push_back("request " + std::to_string(i) + " " + path +
                                             ": status " + std::to_string(r.status) +
                                             (r.body ? ", body " + *r.body : ", no reply") +
                                             "; expected 200 and " +
                                             expected[c][ref.pool_index]);
                }
            }
        } catch (const std::exception& e) {
            ++log.tally.attempted;
            ++log.tally.transport;
            log.mismatches.push_back(std::string("client stopped: ") + e.what());
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (client_log& log : logs) threads.emplace_back(client, std::ref(log));
    for (std::thread& t : threads) t.join();
    return logs;
}

void record(const std::vector<client_log>& logs, run_report& report,
            std::vector<op_sample>* all_ops = nullptr) {
    op_tally total;
    for (const client_log& log : logs) {
        total.merge(log.tally);
        for (const std::string& m : log.mismatches) report.fail("serve_cached " + m);
        if (all_ops != nullptr) all_ops->insert(all_ops->end(), log.ops.begin(), log.ops.end());
    }
    report.attempted += total.attempted;
    report.failed += total.failed();
    if (total.failed() != 0) {
        report.fail("serve_cached: " + std::to_string(total.failed()) + " of " +
                    std::to_string(total.attempted) + " requests failed (wrong body " +
                    std::to_string(total.wrong) + ", shed " + std::to_string(total.shed) +
                    ", other non-200 " + std::to_string(total.non_200) + ", transport " +
                    std::to_string(total.transport) + "); error_rate " +
                    std::to_string(total.error_rate()));
    }
}

/// Warm the cache over HTTP with every grid answer, from kClients clients.
void warm(unsigned short port, const serve_plan& plan, run_report& report) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> bad{0};
    const auto client = [&]() noexcept {
        try {
            for (std::size_t i = next.fetch_add(1); i < plan.warm_paths.size(); i = next.fetch_add(1)) {
                int status = 0;
                const auto body =
                    levy::serve::http_get(port, plan.warm_paths[i], kClientTimeoutSeconds, &status);
                if (status != 200 || !body || body->find("\"quality\":\"exact\"") == std::string::npos) {
                    bad.fetch_add(1);
                }
            }
        } catch (const std::exception&) {
            bad.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client);
    for (std::thread& t : threads) t.join();
    if (bad.load() != 0) {
        report.fail("serve_cached: " + std::to_string(bad.load()) +
                    " cache-warming queries were not answered exactly");
    }
}

expected_bodies reference_bodies(server& ref, const serve_plan& plan, run_report& report) {
    for (const std::string& path : plan.warm_paths) {
        if (ref.handle(parse_target(path), 0).status != 200) {
            report.fail("reference server rejected warm query " + path);
        }
    }
    expected_bodies out;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        for (const std::string& path : plan.pools[c]) {
            out[c].push_back(ref.handle(parse_target(path), 0).body);
        }
    }
    return out;
}

/// Median handle() time per class on the reference server, in µs.
std::array<double, kRequestClasses> handle_us(server& ref, const serve_plan& plan) {
    std::array<double, kRequestClasses> out{};
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        std::vector<http_request> reqs;
        for (const std::string& path : plan.pools[c]) reqs.push_back(parse_target(path));
        std::vector<double> us;
        for (std::size_t i = 0; i < 32 * reqs.size(); ++i) {
            LEVY_SPAN("serve.handle");
            const auto t0 = clock_type::now();
            const auto resp = ref.handle(reqs[i % reqs.size()], 0);
            us.push_back(seconds_between(t0, clock_type::now()) * 1e6);
            keep(resp);
        }
        out[c] = median(us);
    }
    return out;
}

/// The coordinates a /query target is cached under.
struct query_point {
    double alpha = 0.0;
    std::int64_t ell = 0;
    std::uint64_t k = 0;
    std::uint64_t budget = 0;
};

std::vector<query_point> points_of(const std::vector<std::string>& targets) {
    std::vector<query_point> out;
    for (const std::string& target : targets) {
        const http_request req = parse_target(target);
        out.push_back({std::stod(*req.param("alpha")), std::stoll(*req.param("ell")),
                       std::stoull(*req.param("k")), std::stoull(*req.param("budget"))});
    }
    return out;
}

/// result_cache costs on a copy of the warmed cache (find on the hit pool,
/// interpolate on the interpolated pool, insert on the tiny pool's keys).
void cache_layer(server& ref, const serve_plan& plan, run_report& report) {
    levy::serve::result_cache copy(ref.options().cache);
    const auto key_of = [&copy](const query_point& p) {
        return copy.quantize(p.alpha, p.ell, p.k, p.budget);
    };
    for (const query_point& p : points_of(plan.warm_paths)) {
        if (const auto v = ref.cache().find(key_of(p))) copy.insert(key_of(p), *v);
    }
    const auto pool = [&plan](request_class c) {
        return points_of(plan.pools[static_cast<std::size_t>(c)]);
    };
    const std::vector<query_point> hits = pool(request_class::cache_hit);
    const std::vector<query_point> interp = pool(request_class::interpolated);
    const std::vector<query_point> tiny = pool(request_class::exact_tiny);
    std::size_t found = 0;
    report.add("cache.find_ns", ns_per_call(1 << 16, 3, [&](std::size_t i) {
                   found += copy.find(key_of(hits[i % hits.size()])).has_value();
               }),
               "ns");
    if (found == 0) report.fail("cache copy: no warmed cell was found");
    double sum = 0.0;
    report.add("cache.interpolate_ns", ns_per_call(1 << 16, 3, [&](std::size_t i) {
                   const query_point& p = interp[i % interp.size()];
                   if (const auto v = copy.interpolate(p.alpha, p.ell, p.k, p.budget)) {
                       sum += v->probability;
                   }
               }),
               "ns");
    keep(sum);
    report.add("cache.insert_ns", ns_per_call(1 << 16, 3, [&](std::size_t i) {
                   copy.insert(key_of(tiny[i % tiny.size()]),
                               levy::serve::cache_value{0.5, 0.4, 0.6, 1});
               }),
               "ns");
}

void traced_run(server& live, unsigned short port, server& ref, const serve_plan& plan,
                const expected_bodies& expected, const run_args& args, run_report& report) {
    const auto never = clock_type::time_point::max();
    const server::stats_snapshot before = live.stats();
    const auto a0 = clock_type::now();
    const auto untraced = closed_loop(port, plan, expected, args.seed, never, kTracedRequests,
                                      kTracedRequests, false, 0.0);
    const double a_s = seconds_between(a0, clock_type::now());
    const server::stats_snapshot after = live.stats();
    record(untraced, report);

    levy::obs::start_span_collection();
    const auto b0 = clock_type::now();
    const auto traced = closed_loop(port, plan, expected, args.seed, never, kTracedRequests,
                                    kTracedRequests, true, 0.0);
    const double b_s = seconds_between(b0, clock_type::now());
    record(traced, report);
    const std::array<double, kRequestClasses> handle = handle_us(ref, plan);
    levy::obs::stop_span_collection();
    report.add("trace.overhead_ratio", a_s / b_s, "ratio");

    // Exact class shares from the server's own quality counters.
    const double n = static_cast<double>(kTracedRequests);
    const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
    const double hits = delta(before.cache_hits, after.cache_hits);
    const double interpolated = delta(before.interpolated, after.interpolated);
    const double exact = delta(before.exact, after.exact);
    report.add("serve.class_share.cache_hit", (hits - interpolated) / n, "fraction");
    report.add("serve.class_share.interpolated", interpolated / n, "fraction");
    report.add("serve.class_share.exact_tiny", (exact - (hits - interpolated)) / n, "fraction");
    report.add("serve.class_share.plan", delta(before.plans, after.plans) / n, "fraction");
    report.add("serve.class_share.degraded", delta(before.degraded, after.degraded) / n, "fraction");
    report.add("serve.cache_hit_ratio", hits / delta(before.queries, after.queries), "fraction");

    // Per class: handle() alone, and (computed) what the client waited
    // beyond it — socket, accept, queue wait, head read, hand-off.
    std::array<std::vector<double>, kRequestClasses> client_ms;
    for (const client_log& log : untraced) {
        for (std::size_t i = 0; i < log.ops.size(); ++i) {
            client_ms[static_cast<std::size_t>(log.cls[i])].push_back(log.ops[i].ms);
        }
    }
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        const std::string name = class_name(static_cast<request_class>(c));
        report.add("serve.handle_us." + name, handle[c], "us");
        report.add("serve.outside_handle_us." + name, median(client_ms[c]) * 1e3 - handle[c], "us");
    }

    std::vector<std::string> lines;
    std::vector<levy::serve::http_response> responses;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        for (std::size_t i = 0; i < plan.pools[c].size(); ++i) {
            lines.push_back("GET " + plan.pools[c][i] + " HTTP/1.1");
            levy::serve::http_response resp;
            resp.content_type = "application/json";
            resp.body = expected[c][i];
            responses.push_back(std::move(resp));
        }
    }
    report.add("http.parse_ns", ns_per_call(1 << 16, 3, [&](std::size_t i) {
                   http_request req;
                   keep(levy::serve::parse_request_line(lines[i % lines.size()], req));
                   keep(req);
               }),
               "ns");
    report.add("http.render_ns", ns_per_call(1 << 16, 3, [&](std::size_t i) {
                   keep(levy::serve::render_response(responses[i % responses.size()]));
               }),
               "ns");
    cache_layer(ref, plan, report);
    write_trace(args, report);
}

}  // namespace

run_report run_serve(const run_args& args) {
    const serve_plan plan = make_serve_plan(args.seed);
    run_report report;

    // Set-up: start a server and warm its cache with the grid of exact
    // answers over HTTP. Repeated on fresh servers; the last one serves.
    std::unique_ptr<server> live;
    unsigned short port = 0;
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto s0 = clock_type::now();
        if (live) live->stop();
        live = std::make_unique<server>(options());
        port = live->start();
        warm(port, plan, report);
        setup.push_back(seconds_between(s0, clock_type::now()));
    }

    server ref(options());
    expected_bodies expected = reference_bodies(ref, plan, report);
    if (args.corrupt_expected) {
        const request_ref first = request_at(plan, args.seed, 0);
        expected[static_cast<std::size_t>(first.cls)][first.pool_index] += " ";
    }

    if (args.trace) {
        traced_run(*live, port, ref, plan, expected, args, report);
        live->stop();
        return report;
    }

    const auto logs = closed_loop(port, plan, expected, args.seed, deadline_after(args.seconds),
                                  min_run_ops(kTailPercentile), ~std::uint64_t{0}, false,
                                  args.seconds);
    const double rss = peak_rss_mib();
    live->stop();
    std::vector<op_sample> ops;
    record(logs, report, &ops);
    add_end_to_end(report, setup, std::move(ops), rss, kTailPercentile);
    return report;
}

}  // namespace perfbench
