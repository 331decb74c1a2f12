#include "src/sim/experiment.h"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define LEVY_HAVE_FSYNC 1
#else
#define LEVY_HAVE_FSYNC 0
#endif

#include "src/core/contracts.h"
#include "src/obs/metrics.h"
#include "src/rng/splitmix64.h"
#include "src/sim/fault.h"

namespace levy::cli {

args::args(int argc, char** argv) {
    if (argc > 0) program_ = std::filesystem::path(argv[0]).filename().string();
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            continue;
        }
        if (arg.substr(0, 2) != "--" || arg.size() == 2) {
            positional_.emplace_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        given_flag flag{std::string(arg.substr(2, eq - 2)), {}, eq == std::string_view::npos};
        if (!flag.bare) {
            flag.value = std::string(arg.substr(eq + 1));
            if (flag.value.empty()) throw std::invalid_argument("empty value for --" + flag.key);
        }
        if (find(flag.key) != nullptr) {
            throw std::invalid_argument("duplicate flag: --" + flag.key);
        }
        given_.push_back(std::move(flag));
    }
}

const args::given_flag* args::find(std::string_view key) const {
    for (const given_flag& f : given_) {
        if (f.key == key) return &f;
    }
    return nullptr;
}

std::string args::show(double v) {
    std::ostringstream out;
    out << v;
    return out.str();
}

std::string args::show(std::size_t n) {
    return n == sim::fault_plan::kNever ? "never" : std::to_string(n);
}

std::optional<std::string> args::read(std::string_view key, std::string fallback,
                                      std::string_view help, bool is_switch,
                                      std::optional<std::string> bare) {
    const bool known = std::any_of(declared_.begin(), declared_.end(),
                                   [&](const declared_flag& d) { return d.key == key; });
    if (!known) {
        declared_.push_back(
            {std::string(key), std::move(fallback), std::string(help), is_switch, bare});
    }
    const given_flag* flag = find(key);
    if (flag == nullptr) return std::nullopt;
    if (flag->bare && !is_switch && !bare.has_value()) {
        throw std::invalid_argument("--" + flag->key + " needs a value");
    }
    return flag->value;
}

std::string args::text(std::string_view key, std::string fallback, std::string_view help) {
    return read(key, fallback, help, false, std::nullopt).value_or(fallback);
}

bool args::has(std::string_view key, std::string_view help) {
    return read(key, "false", help, true, std::nullopt).has_value();
}

const std::vector<std::string>& args::positional(std::string_view synopsis) {
    synopsis_ = synopsis;
    positional_read_ = true;
    return positional_;
}

void args::finish() const {
    if (help_) throw help_requested(usage());
    for (const given_flag& flag : given_) {
        const auto d = std::find_if(declared_.begin(), declared_.end(),
                                    [&](const declared_flag& x) { return x.key == flag.key; });
        if (d == declared_.end()) throw std::invalid_argument("unknown argument --" + flag.key);
        if (d->is_switch && !flag.bare) {
            throw std::invalid_argument("--" + flag.key + " takes no value");
        }
    }
    if (!positional_read_ && !positional_.empty()) {
        throw std::invalid_argument("unexpected argument " + positional_.front());
    }
    obs::get_counter("cli.flags_parsed").add(given_.size());
}

std::vector<std::pair<std::string, std::string>> args::describe() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const declared_flag& d : declared_) {
        const given_flag* f = find(d.key);
        out.emplace_back(d.key, f == nullptr ? d.fallback
                                : d.is_switch ? std::string("true")
                                : f->bare     ? d.bare.value_or("")
                                              : f->value);
    }
    return out;
}

std::string args::usage() const {
    std::ostringstream out;
    out << "usage: " << program_;
    if (!synopsis_.empty()) out << ' ' << synopsis_;
    out << (declared_.empty() ? "\n" : " [--flag=value ...]\nflags, shown with their defaults:\n");
    for (const declared_flag& d : declared_) {
        std::string flag = "--" + d.key;
        if (!d.is_switch) flag += "=" + (d.fallback.empty() ? std::string("\"\"") : d.fallback);
        out << "  " << flag << std::string(flag.size() < 28 ? 28 - flag.size() : 1, ' ')
            << d.help << '\n';
    }
    return out.str();
}

int exit_status(std::string_view prog, const std::exception& e) {
    if (dynamic_cast<const help_requested*>(&e) != nullptr) {
        std::cout << e.what();
        return 0;
    }
    std::cerr << prog << ": " << e.what() << '\n';
    return 1;
}

}  // namespace levy::cli

namespace levy::sim {
namespace {

/// fsync every this many rows: bounded loss on kill without a syscall per row.
constexpr std::size_t kCsvSyncBatch = 64;

/// Byte count with an optional binary-multiple suffix: "64M", "2G", "4096".
std::uint64_t parse_bytes(std::string_view text, std::string_view flag) {
    std::uint64_t multiplier = 1;
    const char last = text.back();  // callers guarantee non-empty
    switch (last) {
        case 'K': case 'k': multiplier = 1ULL << 10; break;
        case 'M': case 'm': multiplier = 1ULL << 20; break;
        case 'G': case 'g': multiplier = 1ULL << 30; break;
        case 'T': case 't': multiplier = 1ULL << 40; break;
        default: break;
    }
    if (multiplier != 1) text.remove_suffix(1);
    const auto value = cli::parse<std::uint64_t>(text, flag);
    if (value != 0 && value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
        throw std::invalid_argument("value overflows for --" + std::string(flag));
    }
    return value * multiplier;
}

std::string hex64(std::uint64_t v) {
    std::ostringstream out;
    out << std::hex << v;
    return out.str();
}

extern "C" void levy_sim_sigterm_handler(int) { request_cancel(); }

}  // namespace

void cancel_on_sigterm() noexcept {
    clear_cancel();
    std::signal(SIGTERM, levy_sim_sigterm_handler);
}

mc_options run_options::mc(std::size_t default_trials, std::uint64_t salt) const {
    mc_options opts;
    opts.trials = trials != 0 ? trials : default_trials;
    opts.threads = threads;
    opts.seed = salt == 0 ? seed : mix64(seed, salt);
    if (!checkpoint_dir.empty()) {
        // One journal per Monte-Carlo phase, keyed by its (salted) seed and
        // trial count — exactly the identity the journal header validates.
        opts.checkpoint_path = checkpoint_dir + "/mc-" + hex64(opts.seed) + "-" +
                               std::to_string(opts.trials) + ".ckpt";
        opts.checkpoint_interval = checkpoint_interval;
    }
    return opts;
}

std::string format_throughput(const run_metrics& m) {
    if (m.trials == 0) return {};
    std::ostringstream out;
    out.precision(3);
    out << "throughput: " << m.trials << " trials in " << m.wall_seconds << " s ("
        << static_cast<std::uint64_t>(m.trials_per_sec()) << " trials/s, " << m.max_workers
        << (m.max_workers == 1 ? " worker" : " workers") << ", ";
    if (m.wall_seconds * static_cast<double>(m.max_workers) > 0.0) {
        out << static_cast<int>(m.utilization() * 100.0 + 0.5) << "% utilization)";
    } else {
        out << "utilization n/a)";
    }
    if (m.censored > 0) {
        out << " [" << m.censored << " censored by --max-steps-per-trial]";
    }
    return out.str();
}

run_options parse_run_options(cli::args& args, unsigned groups) {
    run_options opts;
    if ((groups & group::monte_carlo) != 0) {
        opts.trials = args.get<std::size_t>("trials", 0, "trials per row (0 = built-in default)");
        opts.scale = args.get("scale", 1.0, "multiplies problem sizes (ell grids, budgets)");
        opts.threads = args.get("threads", 0U, "worker threads (0 = hardware concurrency)");
        opts.seed = args.get("seed", kDefaultSeed, "master seed");
        if (!(opts.scale > 0.0)) throw std::invalid_argument("--scale must be positive");
    }
    if ((groups & group::csv) != 0) {
        opts.csv_path = args.text("csv", "", "also write the rows as CSV to PATH (crash-safe)");
    }
    if ((groups & group::checkpoint) != 0) {
        opts.checkpoint_dir = args.text("checkpoint", "", "journal trials into DIR; reruns resume");
        opts.checkpoint_interval =
            args.get<std::size_t>("checkpoint-interval", 256, "flush the journal every K trials");
        if (opts.checkpoint_interval == 0) {
            throw std::invalid_argument("--checkpoint-interval must be >= 1");
        }
    }
    if ((groups & group::watchdog) != 0) {
        opts.max_trial_steps = args.get<std::uint64_t>(
            "max-steps-per-trial", 0, "per-trial step cap, truncations censored (0 = off)");
    }
    if ((groups & group::engine) != 0) {
        const std::string engine = args.text("engine", "batch", "batch or scalar (same results)");
        if (engine != "batch" && engine != "scalar") {
            throw std::invalid_argument("--engine must be scalar or batch, got: " + engine);
        }
        opts.engine = engine == "scalar" ? engine_kind::scalar : engine_kind::batch;
        const auto cap = args.get<std::uint64_t>("cap", 0, "jump-length cap (0 = uncapped)");
        opts.cap = cap == 0 ? kNoCap : cap;
    }
    if ((groups & group::sharding) != 0) {
        shard_options& s = opts.sharding;
        s.shards = args.get("shards", s.shards, "walker-id shards spilled to disk (<= 1 = off)");
        s.memory_budget = parse_bytes(
            args.text("memory-budget", "0", "resident bytes, suffix K/M/G/T (0 = unlimited)"),
            "memory-budget");
        s.spill_dir = args.text("spill-dir", "", "spill/resume directory (empty = temp dir)");
        s.sync_rounds = args.get("sync-rounds", s.sync_rounds, "sync shards every R rounds");
    }
    if ((groups & group::serving) != 0) {
        // Parsed signed so "-5" reaches the precondition (an unsigned parse
        // would report it as a malformed number instead).
        const auto deadline = args.get<std::int64_t>("deadline-ms", 50, "per-request deadline");
        LEVY_PRECONDITION(deadline > 0, "--deadline-ms must be > 0");
        const auto capacity = args.get<std::int64_t>("queue-capacity", 8, "admission queue size");
        LEVY_PRECONDITION(capacity > 0, "--queue-capacity must be > 0");
        opts.deadline_ms = static_cast<std::uint64_t>(deadline);
        opts.queue_capacity = static_cast<std::size_t>(capacity);
    }
    if ((groups & group::report) != 0) {
        opts.json_path = args.text("json", "", "write the result document to PATH (- = off)");
        opts.json_dir = args.text("json-dir", "", "like --json, as DIR/BENCH_<id>.json");
        opts.trace_path = args.text("trace", "", "write spans as a Chrome trace to PATH");
    }
    if ((groups & group::telemetry) != 0) {
        opts.progress_seconds =
            args.get("progress", 0.0, "stderr progress line every SECS (bare: 2)", 2.0);
        if (args.has("progress") && !(opts.progress_seconds > 0.0)) {
            throw std::invalid_argument("--progress interval must be positive");
        }
        opts.metrics_port =
            args.get("metrics-port", -1, "serve /metrics on port P (0 = any, -1 = off)");
        if (opts.metrics_port < -1 || opts.metrics_port > 65535) {
            throw std::invalid_argument("--metrics-port must be in [0, 65535]");
        }
    }
    args.finish();
    return opts;
}

run_options parse_run_options(int argc, char** argv, unsigned groups) {
    cli::args args(argc, argv);
    return parse_run_options(args, groups);
}

std::string default_json_path(const run_options& opts, const std::string& id) {
    if (opts.json_path == "-") return {};
    if (!opts.json_path.empty()) return opts.json_path;
    if (!opts.json_dir.empty()) return opts.json_dir + "/BENCH_" + id + ".json";
    return {};
}

csv_writer::csv_writer(const std::string& path) : path_(path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    LEVY_PRECONDITION(parent.empty() || std::filesystem::is_directory(parent),
                      "csv_writer: parent directory of --csv path does not exist: " + path);
    const std::string tmp = path_ + ".tmp";
    out_ = std::fopen(tmp.c_str(), "wb");
    if (out_ == nullptr) throw std::runtime_error("csv_writer: cannot open " + tmp);
}

csv_writer::csv_writer(csv_writer&& other) noexcept
    : path_(std::move(other.path_)),
      out_(other.out_),
      rows_since_sync_(other.rows_since_sync_) {
    other.out_ = nullptr;
}

csv_writer& csv_writer::operator=(csv_writer&& other) noexcept {
    if (this != &other) {
        try {
            close();
        } catch (...) {
        }
        path_ = std::move(other.path_);
        out_ = other.out_;
        rows_since_sync_ = other.rows_since_sync_;
        other.out_ = nullptr;
    }
    return *this;
}

csv_writer::~csv_writer() {
    try {
        close();
    } catch (...) {
        // Destructor commit is best effort; call close() for loud failures.
    }
}

void csv_writer::close() {
    if (!active()) return;
    std::FILE* f = out_;
    out_ = nullptr;
    bool ok = std::fflush(f) == 0;
#if LEVY_HAVE_FSYNC
    ok = ::fsync(::fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    const std::string tmp = path_ + ".tmp";
    if (!ok) {
        std::remove(tmp.c_str());
        throw std::runtime_error("csv_writer: failed writing " + tmp);
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("csv_writer: cannot rename " + tmp + " -> " + path_);
    }
}

void csv_writer::header(const std::vector<std::string>& cells) { line(cells); }
void csv_writer::row(const std::vector<std::string>& cells) { line(cells); }

void csv_writer::line(const std::vector<std::string>& cells) {
    if (!active()) return;
    std::string buf;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i != 0) buf += ',';
        const std::string& cell = cells[i];
        if (cell.find_first_of(",\"\n") != std::string::npos) {
            buf += '"';
            for (char ch : cell) {
                if (ch == '"') buf += '"';
                buf += ch;
            }
            buf += '"';
        } else {
            buf += cell;
        }
    }
    buf += '\n';
    if (std::fwrite(buf.data(), 1, buf.size(), out_) != buf.size()) {
        throw std::runtime_error("csv_writer: short write to " + path_ + ".tmp");
    }
    if (++rows_since_sync_ >= kCsvSyncBatch) {
        rows_since_sync_ = 0;
        bool ok = std::fflush(out_) == 0;
#if LEVY_HAVE_FSYNC
        ok = ::fsync(::fileno(out_)) == 0 && ok;
#endif
        if (!ok) throw std::runtime_error("csv_writer: flush failed for " + path_ + ".tmp");
    }
}

}  // namespace levy::sim
