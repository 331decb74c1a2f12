// perfbench — one run of one workload.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--corrupt-expected 1]
//
// Prints human-readable lines on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when any output
// was wrong (each mismatch is named on stderr), 2 on bad arguments.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "perfbench/src/runners.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"rng.substream_ns", "ns"},
        {"rng.jump_draw_ns", "ns"},
        {"rng.jump_uses_alias", "fraction"},
        {"rng.dist_build_us", "us"},
        {"engine.spawn_ns_per_walker", "ns"},
        {"engine.spawn_share", "fraction"},
        {"engine.dist_cache_misses_per_trial", "count"},
        {"engine.epochs_per_trial", "count"},
        {"engine.walker_phases_per_trial", "count"},
        {"engine.retired_per_epoch", "count"},
        {"engine.ns_per_walker_phase", "ns"},
        {"engine.epoch_share", "fraction"},
        {"pool.utilization", "fraction"},
        {"shard.rounds_per_trial", "count"},
        {"shard.spills_per_trial", "count"},
        {"shard.loads_per_trial", "count"},
        {"shard.spill_mib_per_trial", "MiB"},
        {"shard.peak_resident_mib", "MiB"},
        {"shard.overhead_ratio", "ratio"},
        {"shard.serialize_ns_per_walker", "ns"},
        {"shard.deserialize_ns_per_walker", "ns"},
        {"shard.io_share", "fraction"},
        {"checkpoint.atomic_write_ms", "ms"},
        {"checkpoint.crc_ns_per_kib", "ns"},
        {"http.parse_ns", "ns"},
        {"http.render_ns", "ns"},
        {"serve.handle_us.cache_hit", "us"},
        {"serve.handle_us.interpolated", "us"},
        {"serve.handle_us.exact_tiny", "us"},
        {"serve.handle_us.plan", "us"},
        {"serve.outside_handle_us.cache_hit", "us"},
        {"serve.outside_handle_us.interpolated", "us"},
        {"serve.outside_handle_us.exact_tiny", "us"},
        {"serve.outside_handle_us.plan", "us"},
        {"cache.find_ns", "ns"},
        {"cache.interpolate_ns", "ns"},
        {"cache.insert_ns", "ns"},
        {"serve.class_share.cache_hit", "fraction"},
        {"serve.class_share.interpolated", "fraction"},
        {"serve.class_share.exact_tiny", "fraction"},
        {"serve.class_share.plan", "fraction"},
        {"serve.class_share.degraded", "fraction"},
        {"serve.cache_hit_ratio", "fraction"},
        {"trace.overhead_ratio", "ratio"},
    };
    return names;
}

void write_trace(const run_args& args, run_report& report) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    try {
        levy::obs::write_chrome_trace(path);
        std::cerr << "perfbench: chrome trace " << path << " ("
                  << levy::obs::collected_spans().size() << " spans)\n";
    } catch (const std::exception& e) {
        report.fail(std::string("writing the chrome trace failed: ") + e.what());
    }
}

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},       {"ops_per_s", "ops/s"},      {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},    {"op_tail_ms", "ms"},         {"peak_rss_mib", "MiB"},
    {"success_rate", "fraction"},
};

run_args parse(int argc, char** argv) {
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
        }
        if (!kv.emplace(key.substr(2), argv[i + 1]).second) {
            throw std::invalid_argument("duplicate flag " + key);
        }
    }
    const auto take = [&kv](const std::string& key, bool required) -> std::string {
        const auto it = kv.find(key);
        if (it == kv.end()) {
            if (required) throw std::invalid_argument("missing --" + key);
            return {};
        }
        std::string v = it->second;
        kv.erase(it);
        return v;
    };
    const auto whole = [](const std::string& key, const std::string& v) {
        std::size_t used = 0;
        const unsigned long long n = std::stoull(v, &used);
        if (used != v.size() || v.empty() || v[0] == '-') {
            throw std::invalid_argument("--" + key + " needs a whole number, got '" + v + "'");
        }
        return n;
    };
    run_args a;
    a.workload = take("workload", true);
    if (a.workload != "mc_uncapped" && a.workload != "mc_random_capped" &&
        a.workload != "shard_spill" && a.workload != "serve_cached") {
        throw std::invalid_argument("unknown workload '" + a.workload +
                                    "' (mc_uncapped, mc_random_capped, shard_spill, serve_cached)");
    }
    a.seed = whole("seed", take("seed", true));
    a.seconds = static_cast<double>(whole("seconds", take("seconds", true)));
    const std::string trace = take("trace", true);
    if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
    a.trace = trace == "1";
    a.out_dir = take("out-dir", true);
    const std::string corrupt = take("corrupt-expected", false);
    if (!corrupt.empty() && corrupt != "0" && corrupt != "1") {
        throw std::invalid_argument("--corrupt-expected must be 0 or 1");
    }
    a.corrupt_expected = corrupt == "1";
    if (!kv.empty()) throw std::invalid_argument("unknown flag --" + kv.begin()->first);
    if (a.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    return a;
}

run_report dispatch(const run_args& a) {
    if (a.workload == "mc_uncapped") return run_mc(mc_uncapped(), a);
    if (a.workload == "mc_random_capped") return run_mc(mc_random_capped(), a);
    if (a.workload == "shard_spill") return run_shard(shard_spill(), a);
    return run_serve(a);
}

/// Check the runner reported exactly the metrics the mode promises; fill
/// per-layer metrics of layers the workload does not exercise with 0.
levy::obs::json metrics_json(const run_args& a, run_report& report) {
    std::map<std::string, metric> got;
    for (const metric& m : report.metrics) {
        if (!got.emplace(m.name, m).second) report.fail("metric reported twice: " + m.name);
    }
    levy::obs::json out = levy::obs::json::object();
    std::set<std::string> expected;
    const auto emit = [&](const std::string& name, const std::string& unit, bool required) {
        expected.insert(name);
        double value = 0.0;
        if (const auto it = got.find(name); it != got.end()) {
            value = it->second.value;
            if (it->second.unit != unit) report.fail("metric " + name + " has the wrong unit");
        } else if (required) {
            report.fail("metric missing: " + name);
        }
        levy::obs::json m = levy::obs::json::object();
        m.set("value", value);
        m.set("unit", unit);
        out.set(name, std::move(m));
    };
    for (const auto& [name, unit] : a.trace ? per_layer_metrics() : kEndToEnd) {
        emit(name, unit, !a.trace);
    }
    for (const auto& [name, m] : got) {
        if (expected.count(name) == 0) report.fail("unexpected metric " + name);
    }
    return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    run_args args;
    try {
        args = parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    run_report report;
    try {
        report = dispatch(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    levy::obs::json metrics = metrics_json(args, report);
    for (const metric& m : report.metrics) {
        std::cerr << "perfbench: " << args.workload << " " << m.name << " = " << m.value << " "
                  << m.unit << "\n";
    }
    std::cerr << "perfbench: " << args.workload << " error_rate = "
              << (report.attempted == 0 ? 0.0
                                        : static_cast<double>(report.failed) /
                                              static_cast<double>(report.attempted))
              << " (" << report.failed << " of " << report.attempted << " ops failed)\n";
    for (const std::string& e : report.errors) std::cerr << "perfbench: FAIL " << e << "\n";
    levy::obs::json doc = levy::obs::json::object();
    doc.set("correct", report.correct());
    doc.set("attempted", report.attempted);
    doc.set("failed", report.failed);
    doc.set("metrics", std::move(metrics));
    std::cout << doc.dump() << std::endl;
    return report.correct() ? 0 : 1;
}
