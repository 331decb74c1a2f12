#include "perfbench/src/common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) noexcept {
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty() || !(q > 0.0 && q <= 100.0)) {
        throw std::invalid_argument("nearest_rank: need a sample and 0 < q <= 100");
    }
    return sorted[rank_of(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) noexcept {
    return n == 0 ? 0 : n - rank_of(n, q);
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void trial_digest::mix(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (word >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void trial_digest::add(std::uint64_t trial_index, const levy::parallel_result& r) noexcept {
    mix(trial_index);
    mix(r.hit ? 1 : 0);
    mix(r.time);
    mix(static_cast<std::uint64_t>(r.winner));
    mix(std::bit_cast<std::uint64_t>(r.winner_alpha));
}

std::string diff_results(const levy::parallel_result& got, const levy::parallel_result& want) {
    std::string out;
    const auto field = [&out](const char* name, const std::string& g, const std::string& w) {
        if (g == w) return;
        if (!out.empty()) out += ", ";
        out += std::string(name) + " " + g + " != expected " + w;
    };
    field("hit", std::to_string(got.hit), std::to_string(want.hit));
    field("time", std::to_string(got.time), std::to_string(want.time));
    field("winner", std::to_string(got.winner), std::to_string(want.winner));
    field("winner_alpha bits", std::to_string(std::bit_cast<std::uint64_t>(got.winner_alpha)),
          std::to_string(std::bit_cast<std::uint64_t>(want.winner_alpha)));
    return out;
}

void op_tally::count(const reply& r, const std::string& expected_body) noexcept {
    ++attempted;
    if (!r.body.has_value() || r.status == 0) {
        ++transport;
    } else if (r.status == 503) {
        ++shed;
    } else if (r.status != 200) {
        ++non_200;
    } else if (*r.body != expected_body) {
        ++wrong;
    } else {
        ++ok;
    }
}

void op_tally::merge(const op_tally& other) noexcept {
    attempted += other.attempted;
    ok += other.ok;
    wrong += other.wrong;
    shed += other.shed;
    non_200 += other.non_200;
    transport += other.transport;
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("no VmHWM line in /proc/self/status");
}

void add_end_to_end(run_report& report, const std::vector<double>& setup_seconds,
                    std::vector<op_sample> ops, double rss_mib, int tail_percentile) {
    std::sort(ops.begin(), ops.end(),
              [](const op_sample& a, const op_sample& b) { return a.end_s < b.end_s; });
    const std::pair<const char*, double> percentiles[] = {
        {"op_p50_ms", 50.0}, {"op_p90_ms", 90.0},
        {"op_tail_ms", static_cast<double>(tail_percentile)}};
    std::vector<double> rates;
    std::vector<double> window_values[std::size(percentiles)];
    const std::size_t n = ops.size();
    double window_start = 0.0;
    for (std::size_t w = 0; w < kWindows && n >= kWindows; ++w) {
        const std::size_t lo = w * n / kWindows;
        const std::size_t hi = (w + 1) * n / kWindows;
        const double window_end = ops[hi - 1].end_s;
        rates.push_back(static_cast<double>(hi - lo) / std::max(window_end - window_start, 1e-9));
        window_start = window_end;
        std::vector<double> ms;
        for (std::size_t i = lo; i < hi; ++i) ms.push_back(ops[i].ms);
        std::sort(ms.begin(), ms.end());
        for (std::size_t p = 0; p < std::size(percentiles); ++p) {
            if (percentile_supported(ms.size(), percentiles[p].second)) {
                window_values[p].push_back(nearest_rank(ms, percentiles[p].second));
            }
        }
    }
    report.add("setup_s", median(setup_seconds), "s");
    report.add("ops_per_s", median(rates), "ops/s");
    for (std::size_t p = 0; p < std::size(percentiles); ++p) {
        const char* name = percentiles[p].first;
        if (window_values[p].size() != kWindows) {
            report.fail(std::string(name) + ": " + std::to_string(n) + " ops in " +
                        std::to_string(kWindows) + " windows leave fewer than " +
                        std::to_string(kMinBeyond) + " samples beyond it in a window");
        }
        report.add(name, median(window_values[p]), "ms");
    }
    report.add("peak_rss_mib", rss_mib, "MiB");
    const double attempted = static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
    report.add("success_rate",
               1.0 - static_cast<double>(report.failed) / attempted, "fraction");
}

}  // namespace perfbench
