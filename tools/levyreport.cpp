// levyreport — cross-run summary and schema check for the structured bench
// results (BENCH_<id>.json, schema "levy-bench" v1) written by the
// experiment binaries under --json/--json-dir.
//
//   levyreport DIR              summary table: one line per experiment with
//                               trials/sec, utilization, censored count, and
//                               the worst paper-vs-fit drift in its rows
//   levyreport DIR BASELINE     adds trials/sec and drift deltas vs the same
//                               experiments loaded from BASELINE
//   levyreport --check DIR      validate every document against schema v1;
//                               exit 1 (listing the problems) on any failure
//   --fail-on-regression=PCT    with a BASELINE: exit 1 when any experiment's
//                               trials/s dropped more than PCT percent below
//                               its baseline (the CI bench-smoke gate)
//
// Paper drift is noise-aware: when a measured/fit cell carries a "± h" 95%
// interval (the benches' CI columns), only the part of |measured - paper|
// beyond h counts as drift — a value inside its own interval reports 0.
//
// Exit codes: 0 clean, 1 validation failure / regression / bad usage,
// 2 I/O error.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/report.h"
#include "src/sim/experiment.h"
#include "src/stats/table.h"

namespace {

namespace fs = std::filesystem;
using levy::obs::json;

struct loaded_doc {
    std::string file;
    json doc;
};

std::vector<loaded_doc> load_dir(const std::string& dir) {
    std::vector<loaded_doc> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (!entry.is_regular_file() || name.rfind("BENCH_", 0) != 0 ||
            entry.path().extension() != ".json") {
            continue;
        }
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        if (!in.good() && !in.eof()) {
            throw std::runtime_error("cannot read " + entry.path().string());
        }
        out.push_back({name, json::parse(ss.str())});
    }
    std::sort(out.begin(), out.end(),
              [](const loaded_doc& a, const loaded_doc& b) { return a.file < b.file; });
    return out;
}

/// Leading numeric value of a table cell ("-0.515", "2.50 (=-alpha)",
/// "0.1234 ± 0.01"); nullopt when the cell has no leading number.
std::optional<double> leading_number(const std::string& cell) {
    try {
        std::size_t used = 0;
        const double v = std::stod(cell, &used);
        return used > 0 ? std::optional<double>(v) : std::nullopt;
    } catch (...) {
        return std::nullopt;
    }
}

/// Half-width of a "value ± half" cell (stats::fmt_pm writes the UTF-8 ±);
/// nullopt when the cell carries no interval.
std::optional<double> pm_half_width(const std::string& cell) {
    const std::size_t pm = cell.find("\xc2\xb1");  // "±"
    if (pm == std::string::npos) return std::nullopt;
    return leading_number(cell.substr(pm + 2));
}

bool contains_ci(const std::string& haystack, const std::string& needle) {
    const auto it = std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                                [](char a, char b) {
                                    return std::tolower(static_cast<unsigned char>(a)) ==
                                           std::tolower(static_cast<unsigned char>(b));
                                });
    return it != haystack.end();
}

/// Worst |measured - paper| over the document's rows, pairing each "paper"
/// column with the row's measured/fit column. The benches label their
/// prediction columns with "paper" and the regression outputs with "fit" /
/// "measured"/"slope", so this needs no per-experiment schema knowledge.
/// A measured cell with a "± h" interval only contributes the part of the
/// gap beyond h: sampling noise inside the estimator's own 95% CI is not
/// drift.
std::optional<double> paper_drift(const json& doc) {
    std::optional<double> worst;
    for (const json& row : doc.at("rows").elements()) {
        const json& values = row.at("values");
        std::optional<double> paper;
        std::optional<double> measured;
        double half_width = 0.0;
        for (const auto& [column, cell] : values.members()) {
            if (!cell.is_string()) continue;
            const auto v = leading_number(cell.as_string());
            if (!v) continue;
            if (contains_ci(column, "paper")) {
                paper = v;
            } else if (contains_ci(column, "fit") || contains_ci(column, "measured") ||
                       contains_ci(column, "slope")) {
                measured = v;
                half_width = pm_half_width(cell.as_string()).value_or(0.0);
            }
        }
        if (paper && measured) {
            const double drift =
                std::max(0.0, std::fabs(*measured - *paper) - half_width);
            if (!worst || drift > *worst) worst = drift;
        }
    }
    return worst;
}

std::string fmt_opt(const std::optional<double>& v, int precision) {
    return v ? levy::stats::fmt(*v, precision) : "-";
}

int check(const std::vector<loaded_doc>& docs) {
    int failures = 0;
    for (const auto& [file, doc] : docs) {
        const std::vector<std::string> errors = levy::obs::validate_bench_json(doc);
        if (errors.empty()) {
            std::cout << file << ": ok\n";
        } else {
            ++failures;
            std::cout << file << ": INVALID\n";
            for (const std::string& e : errors) std::cout << "  - " << e << '\n';
        }
    }
    std::cout << docs.size() << " document(s), " << failures << " invalid\n";
    return failures == 0 ? 0 : 1;
}

struct summary {
    double trials = 0.0;
    double trials_per_sec = 0.0;
    std::optional<double> utilization;
    double censored = 0.0;
    std::optional<double> drift;
};

summary summarize(const json& doc) {
    const json& m = doc.at("metrics");
    summary s;
    s.trials = m.at("trials").as_number();
    s.trials_per_sec = m.at("trials_per_sec").as_number();
    if (m.at("utilization").is_number()) s.utilization = m.at("utilization").as_number();
    s.censored = m.at("censored").as_number();
    s.drift = paper_drift(doc);
    return s;
}

int report(const std::vector<loaded_doc>& docs,
           const std::map<std::string, summary>& baseline,
           std::optional<double> fail_on_regression_pct) {
    std::vector<std::string> header = {"experiment", "trials", "trials/s", "util", "censored",
                                       "paper drift"};
    const bool compare = !baseline.empty();
    if (compare) {
        header.push_back("delta trials/s");
        header.push_back("delta drift");
    }
    levy::stats::text_table table(std::move(header));
    std::vector<std::string> regressions;
    for (const auto& [file, doc] : docs) {
        std::string id = doc.at("experiment").as_string();
        const json* interrupted = doc.find("interrupted");
        if (interrupted != nullptr && interrupted->is_bool() && interrupted->as_bool()) {
            id += " (interrupted)";
        }
        const summary s = summarize(doc);
        std::vector<std::string> row = {
            id,
            levy::stats::fmt(s.trials, 0),
            levy::stats::fmt(s.trials_per_sec, 0),
            s.utilization ? levy::stats::fmt(*s.utilization * 100.0, 0) + "%" : "n/a",
            levy::stats::fmt(s.censored, 0),
            fmt_opt(s.drift, 4),
        };
        if (compare) {
            const auto base = baseline.find(id);
            if (base == baseline.end()) {
                row.push_back("new");
                row.push_back("new");
            } else {
                const double base_rate = base->second.trials_per_sec;
                const double delta_pct =
                    base_rate > 0.0 ? (s.trials_per_sec / base_rate - 1.0) * 100.0 : 0.0;
                row.push_back(base_rate > 0.0 ? levy::stats::fmt(delta_pct, 1) + "%" : "-");
                row.push_back(s.drift && base->second.drift
                                  ? levy::stats::fmt(*s.drift - *base->second.drift, 4)
                                  : "-");
                if (fail_on_regression_pct && -delta_pct > *fail_on_regression_pct) {
                    regressions.push_back(id + ": " + levy::stats::fmt(-delta_pct, 1) +
                                          "% slower than baseline (tolerance " +
                                          levy::stats::fmt(*fail_on_regression_pct, 1) +
                                          "%)");
                }
            }
        }
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    for (const std::string& r : regressions) {
        std::cerr << "levyreport: throughput regression — " << r << '\n';
    }
    return regressions.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool check_mode = false;
    std::optional<double> fail_on_regression_pct;
    std::vector<std::string> dirs;
    try {
        levy::cli::args args(argc, argv);
        check_mode = args.has("check", "validate every document against schema v1");
        const double pct = args.get("fail-on-regression", 0.0,
                                    "exit 1 if trials/s fell > PCT% below BASELINE_DIR (off "
                                    "unless given)");
        if (args.has("fail-on-regression")) fail_on_regression_pct = pct;
        dirs = args.positional("DIR [BASELINE_DIR]");
        args.finish();
        if (pct < 0.0) throw std::invalid_argument("--fail-on-regression needs a percentage >= 0");
        if (dirs.empty() || dirs.size() > 2 || (check_mode && dirs.size() != 1)) {
            throw std::invalid_argument("need DIR [BASELINE_DIR] (--check takes one DIR)");
        }
        if (fail_on_regression_pct && dirs.size() != 2) {
            throw std::invalid_argument("--fail-on-regression requires a BASELINE_DIR");
        }
    } catch (const std::exception& e) {
        return levy::cli::exit_status("levyreport", e);
    }
    try {
        const std::vector<loaded_doc> docs = load_dir(dirs[0]);
        if (docs.empty()) {
            std::cerr << "levyreport: no BENCH_*.json in " << dirs[0] << '\n';
            return check_mode ? 1 : 0;
        }
        if (check_mode) return check(docs);
        std::map<std::string, summary> baseline;
        if (dirs.size() == 2) {
            for (const auto& [file, doc] : load_dir(dirs[1])) {
                baseline.emplace(doc.at("experiment").as_string(), summarize(doc));
            }
        }
        return report(docs, baseline, fail_on_regression_pct);
    } catch (const std::exception& e) {
        std::cerr << "levyreport: " << e.what() << '\n';
        return 2;
    }
}
