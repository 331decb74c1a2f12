#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/monte_carlo.h"
#include "src/sim/shard_engine.h"
#include "src/sim/trial.h"

namespace levy::cli {

/// Thrown by args::finish() when --help (or -h) was given; what() is the
/// usage text generated from the flags the binary declared.
class help_requested : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// `text` parsed as T by std::from_chars (the whole string, or it throws
/// std::invalid_argument naming --flag).
template <class T>
[[nodiscard]] T parse(std::string_view text, std::string_view flag) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
        throw std::invalid_argument("invalid value for --" + std::string(flag) + ": " +
                                    std::string(text));
    }
    return value;
}

/// The one command-line parser of every binary. Arguments are `--key=value`,
/// bare `--key`, or positionals (anything not starting with "--").
/// Duplicate flags and empty values (`--key=`) throw at construction;
/// malformed numbers throw when read, naming the flag.
///
/// Reading a key is what declares it: every get/text/has call records the
/// key, its default and a one-line help. finish() then rejects any flag no
/// read declared ("unknown argument --x"), and --help prints exactly the
/// declared flags. Callers read every key they honour, then call finish(),
/// then start work.
class args {
public:
    /// argv[0] names the program (its basename heads the usage text).
    args(int argc, char** argv);

    /// --key parsed as T, or `fallback` when absent. A bare `--key` stands
    /// for `bare` when one is given, else it is an error.
    template <class T>
    [[nodiscard]] T get(std::string_view key, T fallback, std::string_view help,
                        std::type_identity_t<std::optional<T>> bare = std::nullopt) {
        const std::optional<std::string> raw =
            read(key, show(fallback), help, false,
                 bare.has_value() ? std::optional<std::string>(show(*bare)) : std::nullopt);
        if (!raw.has_value()) return fallback;
        return raw->empty() ? *bare : parse<T>(*raw, key);  // "" = bare, vetted by read()
    }

    /// --key's text, or `fallback` when absent.
    [[nodiscard]] std::string text(std::string_view key, std::string fallback,
                                   std::string_view help);

    /// Whether --key was given. Declares a bare switch unless the key was
    /// already read as a value; a declared switch given a value is rejected.
    [[nodiscard]] bool has(std::string_view key, std::string_view help = {});

    /// The positional arguments; `synopsis` names them in the usage line.
    /// Positionals given to a binary that never reads them are rejected.
    [[nodiscard]] const std::vector<std::string>& positional(std::string_view synopsis);

    /// Throws help_requested on --help, else std::invalid_argument naming
    /// the first undeclared flag, misused switch or unread positional.
    void finish() const;

    /// Every declared flag with its effective value (as typed, or the
    /// default), in declaration order: the self-describing "options" record
    /// of a structured result document.
    [[nodiscard]] std::vector<std::pair<std::string, std::string>> describe() const;

private:
    struct given_flag {
        std::string key;
        std::string value;
        bool bare = false;
    };
    struct declared_flag {
        std::string key;
        std::string fallback;  ///< default as shown by --help
        std::string help;
        bool is_switch = false;
        std::optional<std::string> bare;  ///< value a bare flag stands for
    };

    /// Declare `key` (first read wins) and return its raw value: nullopt
    /// when absent, "" for a bare flag (an error unless `bare` is set).
    std::optional<std::string> read(std::string_view key, std::string fallback,
                                    std::string_view help, bool is_switch,
                                    std::optional<std::string> bare);
    [[nodiscard]] const given_flag* find(std::string_view key) const;
    /// "usage: <prog> ..." plus one line per declared flag with its default.
    [[nodiscard]] std::string usage() const;

    static std::string show(double v);
    /// "never" for sim::fault_plan::kNever, the drills' "does not fire".
    static std::string show(std::size_t n);
    template <class T>
    static std::string show(T v) {
        return std::to_string(v);
    }

    std::string program_;
    std::string synopsis_;
    bool positional_read_ = false;
    bool help_ = false;
    std::vector<given_flag> given_;
    std::vector<std::string> positional_;
    std::vector<declared_flag> declared_;
};

/// Exit status for an exception escaping a binary's main: help text to
/// stdout and 0 for help_requested, else "<prog>: <what>" on stderr and 1.
[[nodiscard]] int exit_status(std::string_view prog, const std::exception& e);

}  // namespace levy::cli

namespace levy::sim {

/// Flag groups a binary honours; parse_run_options declares (and so
/// accepts) exactly the flags of the groups it is given. A binary names a
/// group exactly when its body reads that group's run_options fields;
/// bench::run_main always adds report and telemetry.
namespace group {
inline constexpr unsigned monte_carlo = 1U << 0;  ///< --trials --scale --threads --seed
inline constexpr unsigned csv = 1U << 1;          ///< --csv
inline constexpr unsigned checkpoint = 1U << 2;   ///< --checkpoint[-interval], via mc()
inline constexpr unsigned watchdog = 1U << 3;     ///< --max-steps-per-trial
inline constexpr unsigned engine = 1U << 4;       ///< --engine --cap
inline constexpr unsigned sharding = 1U << 5;     ///< --shards --memory-budget --spill-dir...
inline constexpr unsigned serving = 1U << 6;      ///< --deadline-ms --queue-capacity
inline constexpr unsigned report = 1U << 7;       ///< --json --json-dir --trace
inline constexpr unsigned telemetry = 1U << 8;    ///< --progress --metrics-port
}  // namespace group

/// Parsed command-line options of a bench/example binary; run `<binary>
/// --help` for the flags, defaults and meanings a binary accepts.
struct run_options {
    std::size_t trials = 0;  ///< 0 = keep the binary's default
    double scale = 1.0;
    unsigned threads = 0;
    std::uint64_t seed = kDefaultSeed;
    std::string csv_path;
    std::string checkpoint_dir;            ///< empty = no checkpointing
    std::size_t checkpoint_interval = 256; ///< journal flush cadence (trials)
    std::uint64_t max_trial_steps = 0;     ///< watchdog step cap (0 = off)
    std::string json_path;                 ///< --json ("-" = explicitly off)
    std::string json_dir;                  ///< --json-dir (empty = off)
    std::string trace_path;                ///< --trace (empty = off)
    double progress_seconds = 0.0;         ///< --progress interval (0 = off)
    int metrics_port = -1;                 ///< --metrics-port (-1 = off, 0 = ephemeral)
    engine_kind engine = engine_kind::batch;
    std::uint64_t cap = kNoCap;
    std::uint64_t deadline_ms = 50;        ///< per-request deadline (E23's server)
    std::size_t queue_capacity = 8;        ///< admission queue (E23's server)
    shard_options sharding;                ///< out-of-core mode when shards > 1 or a budget

    /// mc_options with this run's trials (or `default_trials` when the user
    /// didn't override) and a per-use salt so distinct experiment phases in
    /// one binary don't share streams. With --checkpoint set, each phase
    /// journals to its own file inside the directory, keyed by the salted
    /// seed and trial count — so give every phase a distinct salt (the
    /// benches already do, to keep streams independent).
    [[nodiscard]] mc_options mc(std::size_t default_trials, std::uint64_t salt = 0) const;
};

/// Read the flags of `groups` from `args`, validate them, then finish()
/// (so undeclared flags and --help throw; see cli::args).
[[nodiscard]] run_options parse_run_options(cli::args& args, unsigned groups);
[[nodiscard]] run_options parse_run_options(int argc, char** argv, unsigned groups);

/// Where the structured JSON for experiment `id` should land, resolving
/// --json against --json-dir: an explicit --json wins ("-" disables);
/// otherwise --json-dir gives DIR/BENCH_<id>.json; empty means no JSON.
[[nodiscard]] std::string default_json_path(const run_options& opts, const std::string& id);

/// Route SIGTERM into cooperative cancellation (request_cancel): the driver
/// stops at the next trial boundary, flushes the checkpoint journal, and
/// run_main exits with status 130. Installed by run_main when --checkpoint
/// is in effect; without a checkpoint SIGTERM keeps its default (fatal)
/// disposition, matching prior behavior.
void cancel_on_sigterm() noexcept;

/// One-line throughput report for the process's accumulated Monte-Carlo
/// work, e.g. "throughput: 12800 trials in 1.92 s (6657 trials/s, 4 workers,
/// 93% utilization)". Censored trials, if any, are appended so watchdog
/// truncation is always visible. Empty when no trials ran.
[[nodiscard]] std::string format_throughput(const run_metrics& m);

/// Minimal CSV writer for experiment rows (RFC-4180 quoting for cells that
/// need it). A default-constructed writer is inert, so benches can
/// unconditionally call `row()` whether or not --csv was given.
///
/// Crash-safe: rows stream to `<path>.tmp` (flushed and fsync'd every few
/// rows), and the file is atomically renamed to `path` on close()/
/// destruction — a reader never observes a torn CSV, and a killed run
/// leaves any previous complete CSV untouched.
class csv_writer {
public:
    csv_writer() = default;
    /// Requires the parent directory of `path` to exist (precondition — a
    /// doomed writer fails at open, not at exit); throws std::runtime_error
    /// when the temp file cannot be created.
    explicit csv_writer(const std::string& path);
    csv_writer(csv_writer&& other) noexcept;
    csv_writer& operator=(csv_writer&& other) noexcept;
    /// Commits via close(), swallowing errors (report them by calling
    /// close() yourself).
    ~csv_writer();

    [[nodiscard]] bool active() const noexcept { return out_ != nullptr; }

    void header(const std::vector<std::string>& cells);
    void row(const std::vector<std::string>& cells);

    /// Flush, fsync, and atomically rename the temp file into place.
    /// Throws std::runtime_error on I/O failure. No-op when inactive.
    void close();

private:
    void line(const std::vector<std::string>& cells);

    std::string path_;          ///< final path (temp is path_ + ".tmp")
    std::FILE* out_ = nullptr;  ///< open on the temp file while active
    std::size_t rows_since_sync_ = 0;
};

}  // namespace levy::sim
