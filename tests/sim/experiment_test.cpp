#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/contracts.h"
#include "src/sim/experiment.h"

namespace levy::sim {
namespace {

constexpr unsigned kAllGroups = group::monte_carlo | group::csv | group::checkpoint |
                                group::watchdog | group::engine | group::sharding |
                                group::serving | group::report | group::telemetry;

/// parse_run_options over `args` (the program-name slot is filled in).
run_options parse(std::vector<std::string> args, unsigned groups = kAllGroups) {
    std::string prog = "test";
    std::vector<char*> argv = {prog.data()};
    for (auto& a : args) argv.push_back(a.data());
    return parse_run_options(static_cast<int>(argv.size()), argv.data(), groups);
}

/// The std::invalid_argument message parse() throws (empty if none).
std::string rejection(std::vector<std::string> args, unsigned groups = kAllGroups) {
    try {
        (void)parse(std::move(args), groups);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(RunOptions, DefaultsWhenNoArgs) {
    const auto opts = parse({});
    EXPECT_EQ(opts.trials, 0u);
    EXPECT_DOUBLE_EQ(opts.scale, 1.0);
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_EQ(opts.seed, kDefaultSeed);
    EXPECT_TRUE(opts.csv_path.empty());
    EXPECT_EQ(opts.sharding.shards, 1u);
    EXPECT_EQ(opts.sharding.memory_budget, 0u);
}

TEST(RunOptions, ParsesAllFlags) {
    const auto opts = parse({"--trials=500", "--scale=2.5", "--threads=3", "--seed=777",
                             "--csv=/tmp/out.csv", "--checkpoint=/tmp/ckpt",
                             "--checkpoint-interval=17", "--max-steps-per-trial=4096",
                             "--engine=scalar", "--cap=64", "--shards=4",
                             "--memory-budget=64K", "--spill-dir=/tmp/spill",
                             "--sync-rounds=0"});
    EXPECT_EQ(opts.trials, 500u);
    EXPECT_DOUBLE_EQ(opts.scale, 2.5);
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_EQ(opts.seed, 777u);
    EXPECT_EQ(opts.csv_path, "/tmp/out.csv");
    EXPECT_EQ(opts.checkpoint_dir, "/tmp/ckpt");
    EXPECT_EQ(opts.checkpoint_interval, 17u);
    EXPECT_EQ(opts.max_trial_steps, 4096u);
    EXPECT_EQ(opts.engine, engine_kind::scalar);
    EXPECT_EQ(opts.cap, 64u);
    EXPECT_EQ(opts.sharding.shards, 4u);
    EXPECT_EQ(opts.sharding.memory_budget, 64u * 1024u);
    EXPECT_EQ(opts.sharding.spill_dir, "/tmp/spill");
    EXPECT_EQ(opts.sharding.sync_rounds, 0u);
}

TEST(RunOptions, ParsesProgressAndMetricsPort) {
    const auto opts = parse({"--progress", "--metrics-port=9464"});
    EXPECT_DOUBLE_EQ(opts.progress_seconds, 2.0);  // bare flag: default cadence
    EXPECT_EQ(opts.metrics_port, 9464);

    const auto opts2 = parse({"--progress=0.5", "--metrics-port=0"});
    EXPECT_DOUBLE_EQ(opts2.progress_seconds, 0.5);
    EXPECT_EQ(opts2.metrics_port, 0);  // 0 = ephemeral port

    const auto opts3 = parse({});
    EXPECT_DOUBLE_EQ(opts3.progress_seconds, 0.0);  // off by default
    EXPECT_EQ(opts3.metrics_port, -1);
}

TEST(RunOptions, RejectsBadProgressAndMetricsPort) {
    for (const char* bad : {"--progress=0", "--progress=-1", "--metrics-port=65536",
                            "--metrics-port=-2", "--metrics-port=x"}) {
        EXPECT_FALSE(rejection({bad}).empty()) << bad;
    }
    EXPECT_FALSE(rejection({"--progress", "--progress=3"}).empty());
}

TEST(RunOptions, McLeavesChunkAuto) {
    // The work-queue chunk is an mc_options knob for library callers; no
    // binary exposes it, so every run takes the automatic chunk.
    EXPECT_EQ(parse({"--trials=10"}).mc(10).chunk, 0u);
}

TEST(FormatThroughput, EmptyWithoutTrials) {
    EXPECT_TRUE(format_throughput(run_metrics{}).empty());
}

TEST(FormatThroughput, MentionsTrialsAndWorkers) {
    run_metrics m;
    m.trials = 1000;
    m.wall_seconds = 2.0;
    m.busy_seconds = 3.0;
    m.max_workers = 2;
    const std::string line = format_throughput(m);
    EXPECT_NE(line.find("1000 trials"), std::string::npos);
    EXPECT_NE(line.find("500 trials/s"), std::string::npos);
    EXPECT_NE(line.find("2 workers"), std::string::npos);
    EXPECT_NE(line.find("75% utilization"), std::string::npos);
}

TEST(RunOptions, RejectsUnknownFlagNamingIt) {
    EXPECT_EQ(rejection({"--bogus=1"}), "unknown argument --bogus");
}

// A binary accepts exactly the groups it declares: a flag from any other
// group is unknown to it, even though another binary honours it.
TEST(RunOptions, RejectsFlagsOfUndeclaredGroups) {
    EXPECT_EQ(rejection({"--shards=2"}, group::monte_carlo | group::engine),
              "unknown argument --shards");
    EXPECT_EQ(rejection({"--csv=x"}, 0), "unknown argument --csv");
    EXPECT_EQ(rejection({"--checkpoint=d"}, group::monte_carlo),
              "unknown argument --checkpoint");
    EXPECT_EQ(rejection({"--trials=5"}, 0), "unknown argument --trials");
    EXPECT_EQ(rejection({"--deadline-ms=5"}, group::monte_carlo),
              "unknown argument --deadline-ms");
    EXPECT_EQ(parse({"--shards=2"}, group::sharding).sharding.shards, 2u);
}

TEST(RunOptions, RejectsMalformedNumbersNamingTheFlag) {
    EXPECT_EQ(rejection({"--trials=abc"}), "invalid value for --trials: abc");
    EXPECT_EQ(rejection({"--trials=12x"}), "invalid value for --trials: 12x");
    EXPECT_FALSE(rejection({"--memory-budget=12Q"}).empty());
}

TEST(RunOptions, RejectsNonPositiveScale) {
    for (const char* bad : {"--scale=0", "--scale=-1.5"}) {
        EXPECT_FALSE(rejection({bad}).empty()) << bad;
    }
}

TEST(RunOptions, RejectsDuplicateFlags) {
    EXPECT_EQ(rejection({"--trials=10", "--trials=20"}), "duplicate flag: --trials");
    // Duplicates are rejected even for a flag the binary does not declare.
    EXPECT_EQ(rejection({"--bogus=1", "--bogus=2"}, 0), "duplicate flag: --bogus");
}

TEST(RunOptions, RejectsEmptyAndMissingValues) {
    EXPECT_EQ(rejection({"--seed="}), "empty value for --seed");
    EXPECT_NE(rejection({"--seed"}).find("--seed needs a value"), std::string::npos);
}

TEST(RunOptions, RejectsZeroCheckpointInterval) {
    EXPECT_FALSE(rejection({"--checkpoint-interval=0"}).empty());
}

TEST(RunOptions, RejectsUnreadPositionals) {
    EXPECT_EQ(rejection({"stray"}), "unexpected argument stray");
}

TEST(RunOptions, ParsesServeFlags) {
    const auto opts = parse({"--deadline-ms=250", "--queue-capacity=32"});
    EXPECT_EQ(opts.deadline_ms, 250u);
    EXPECT_EQ(opts.queue_capacity, 32u);

    const auto defaults = parse({});
    EXPECT_EQ(defaults.deadline_ms, 50u);  // E23's server defaults
    EXPECT_EQ(defaults.queue_capacity, 8u);
}

// Each rejection must name the offending flag — a 2 a.m. operator staring
// at a failed service start should not have to guess which knob was wrong.
TEST(RunOptions, RejectsNonPositiveDeadlineMsNamingTheFlag) {
    for (const char* bad : {"--deadline-ms=0", "--deadline-ms=-5"}) {
        EXPECT_NE(rejection({bad}).find("--deadline-ms"), std::string::npos) << bad;
    }
}

TEST(RunOptions, RejectsNonPositiveQueueCapacityNamingTheFlag) {
    for (const char* bad : {"--queue-capacity=0", "--queue-capacity=-5"}) {
        EXPECT_NE(rejection({bad}).find("--queue-capacity"), std::string::npos) << bad;
    }
}

TEST(CliArgs, DescribeRecordsEveryDeclaredFlagWithItsEffectiveValue) {
    std::string prog = "test";
    std::string trials = "--trials=7";
    std::string progress = "--progress";
    std::vector<char*> argv = {prog.data(), trials.data(), progress.data()};
    cli::args args(static_cast<int>(argv.size()), argv.data());
    (void)parse_run_options(args, group::monte_carlo | group::telemetry);
    const auto described = args.describe();
    const std::vector<std::pair<std::string, std::string>> want = {
        {"trials", "7"},
        {"scale", "1"},
        {"threads", "0"},
        {"seed", std::to_string(kDefaultSeed)},
        {"progress", "2"},
        {"metrics-port", "-1"}};
    EXPECT_EQ(described, want);
}

TEST(CliArgs, HelpListsExactlyTheDeclaredFlags) {
    std::string prog = "/some/dir/bench_x";
    std::string help = "--help";
    std::vector<char*> argv = {prog.data(), help.data()};
    cli::args args(static_cast<int>(argv.size()), argv.data());
    try {
        (void)parse_run_options(args, group::engine);
        FAIL() << "--help did not throw";
    } catch (const cli::help_requested& e) {
        const std::string usage = e.what();
        EXPECT_EQ(usage.rfind("usage: bench_x ", 0), 0u) << usage;
        EXPECT_NE(usage.find("  --engine=batch "), std::string::npos) << usage;
        EXPECT_NE(usage.find("  --cap=0 "), std::string::npos) << usage;
        EXPECT_EQ(usage.find("--trials"), std::string::npos) << usage;
    }
}

TEST(CliArgs, SwitchesAndPositionals) {
    std::string prog = "test";
    std::vector<std::string> raw = {"--once", "dir1", "--fail=5", "dir2"};
    std::vector<char*> argv = {prog.data()};
    for (auto& a : raw) argv.push_back(a.data());
    cli::args args(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(args.has("once", "one shot"));
    EXPECT_FALSE(args.has("raw", "raw output"));
    EXPECT_EQ(args.get("fail", 0.0, "tolerance"), 5.0);
    EXPECT_EQ(args.positional("DIR..."), (std::vector<std::string>{"dir1", "dir2"}));
    EXPECT_NO_THROW(args.finish());

    std::string valued = "--once=1";
    std::vector<char*> argv2 = {prog.data(), valued.data()};
    cli::args misuse(static_cast<int>(argv2.size()), argv2.data());
    EXPECT_TRUE(misuse.has("once", "one shot"));
    EXPECT_THROW(misuse.finish(), std::invalid_argument);
}

TEST(RunOptions, McUsesDefaultTrialsUnlessOverridden) {
    run_options opts;
    EXPECT_EQ(opts.mc(1234).trials, 1234u);
    opts.trials = 99;
    EXPECT_EQ(opts.mc(1234).trials, 99u);
}

TEST(RunOptions, McSaltChangesSeed) {
    run_options opts;
    EXPECT_NE(opts.mc(10, 1).seed, opts.mc(10, 2).seed);
    EXPECT_EQ(opts.mc(10, 0).seed, opts.seed);
}

TEST(RunOptions, McDerivesPerPhaseCheckpointPath) {
    run_options opts;
    EXPECT_TRUE(opts.mc(10).checkpoint_path.empty());
    opts.checkpoint_dir = "/tmp/ckpts";
    opts.checkpoint_interval = 11;
    const auto a = opts.mc(10, /*salt=*/1);
    EXPECT_EQ(a.checkpoint_path.rfind("/tmp/ckpts/mc-", 0), 0u);
    EXPECT_EQ(a.checkpoint_interval, 11u);
    // Distinct phases (salt or trial count) journal to distinct files.
    EXPECT_NE(a.checkpoint_path, opts.mc(10, /*salt=*/2).checkpoint_path);
    EXPECT_NE(a.checkpoint_path, opts.mc(20, /*salt=*/1).checkpoint_path);
    // The same phase maps to the same file on a rerun.
    EXPECT_EQ(a.checkpoint_path, opts.mc(10, /*salt=*/1).checkpoint_path);
}

TEST(CsvWriter, InactiveByDefault) {
    csv_writer w;
    EXPECT_FALSE(w.active());
    w.row({"never", "written"});  // must not crash
}

TEST(CsvWriter, WritesQuotedCells) {
    const std::string path = "/tmp/levy_csv_test.csv";
    {
        csv_writer w(path);
        EXPECT_TRUE(w.active());
        w.header({"a", "b"});
        w.row({"1", "with,comma"});
        w.row({"quote\"inside", "plain"});
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "a,b\n1,\"with,comma\"\n\"quote\"\"inside\",plain\n");
    std::remove(path.c_str());
}

TEST(CsvWriter, MissingParentDirectoryViolatesPrecondition) {
    EXPECT_THROW(csv_writer("/nonexistent_dir_xyz/file.csv"), contract_violation);
}

TEST(CsvWriter, StreamsToTempAndRenamesOnClose) {
    const std::string path = "/tmp/levy_csv_atomic_test.csv";
    std::remove(path.c_str());
    {
        csv_writer w(path);
        w.header({"a"});
        w.row({"1"});
        // Mid-run: only the temp file exists; the final path appears atomically.
        EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
        EXPECT_FALSE(std::filesystem::exists(path));
        w.close();
        EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
        EXPECT_TRUE(std::filesystem::exists(path));
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "a\n1\n");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace levy::sim
