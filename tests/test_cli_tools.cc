/**
 * @file
 * End-to-end tests for the production CLI binaries, driven as real
 * subprocesses: acdse-jobs trains and persists an artifact,
 * acdse-serve serves it and acdse-explore searches with it, and each
 * emits acdse-stats-v2 stats through --stats-out. acdse-serve's
 * tenant routing and hot-swap watch run here too. Also covers the
 * bad-flag and corrupt-artifact error paths (exit codes 2 and 1
 * respectively).
 *
 * Binary paths arrive as compile definitions (ACDSE_TOOL_*) from
 * tests/CMakeLists.txt, so the tests always run the binaries of the
 * same build tree. Runs are pinned to ACDSE_THREADS=1 and a tiny
 * campaign so one end-to-end pass stays in CI budget; single-threaded
 * runs also make the "self times sum to <= wall time" stage-tree
 * invariant exact. The thread-count comparisons add a run at
 * ACDSE_THREADS=2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_reader.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;

struct RunResult
{
    int exitCode = -1;
    double wallSeconds = 0.0;
    std::string output; //!< merged stdout+stderr
};

/** Run @p command under `sh -c`, capturing exit code and output. */
RunResult
run(const fs::path &dir, const std::string &command)
{
    const fs::path log = dir / "run.log";
    const std::string wrapped =
        "cd '" + dir.string() + "' && { " + command + " ; } > '" +
        log.string() + "' 2>&1";
    const auto start = std::chrono::steady_clock::now();
    const int status = std::system(wrapped.c_str());
    RunResult result;
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    result.output = text.str();
    return result;
}

/** A new empty directory, unique to this process (tests/temp_dir.hh). */
fs::path
freshDir(const std::string &name)
{
    return testdir::uniqueTempDir(name);
}

testjson::Value
parseFile(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return testjson::parse(text.str());
}

/**
 * Train the small artifact the serve and explore tests share into
 * @p dir as @p name: an acdse-jobs run over two training programs
 * (@p programs) plus a target, a short synthetic trace, one thread.
 * ~seconds, not minutes.
 */
RunResult
trainModel(const fs::path &dir, const std::string &name = "model.acdse",
           const std::string &programs = "gzip,crafty")
{
    const fs::path work = dir / (name + ".d");
    fs::create_directories(work);
    const RunResult result =
        run(work, std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=56 "
                              "ACDSE_TRACE_LEN=2000 ACDSE_WARMUP=400 ") +
                      ACDSE_TOOL_JOBS +
                      " run --dir . --programs " + programs +
                      " --target vpr --train 24 --responses 16");
    for (const auto &entry : fs::directory_iterator(work)) {
        if (entry.path().extension() == ".acdse")
            fs::rename(entry.path(), dir / name);
    }
    return result;
}

/**
 * Query row @p i: 13 legal Table-1 values, cycled per parameter so
 * that consecutive rows differ.
 */
std::string
queryRow(std::size_t i)
{
    const int width[] = {2, 4, 6, 8};
    const int bpred[] = {1, 2, 4, 8, 16, 32};
    const int btb[] = {1, 2, 4};
    const int branches[] = {8, 16, 24, 32};
    const int cache[] = {8, 16, 32, 64, 128};
    const int l2[] = {256, 512, 1024, 2048, 4096};
    const auto n = [&](std::size_t period, std::size_t div = 1) {
        return static_cast<int>((i / div) % period);
    };
    std::ostringstream row;
    row << width[n(4)] << ',' << 32 + 8 * n(17) << ',' << 8 + 8 * n(10)
        << ',' << 8 + 8 * n(10, 3) << ',' << 40 + 8 * n(16) << ','
        << 2 + 2 * n(8) << ',' << 1 + n(8) << ',' << bpred[n(6)] << ','
        << btb[n(3)] << ',' << branches[n(4, 2)] << ',' << cache[n(5)]
        << ',' << cache[n(5, 2)] << ',' << l2[n(5, 5)];
    return row.str();
}

/** The lines of @p path, empty ones dropped. */
std::vector<std::string>
readLines(const fs::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** The whole of @p path as one string. */
std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(CliServe, ServesQueriesAndWritesStats)
{
    const fs::path dir = freshDir("acdse_cli_serve");
    const RunResult trained =
        trainModel(dir);
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // A header row, a comment and two valid Table-1 query rows.
    {
        std::ofstream queries(dir / "queries.csv");
        queries << "width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,il1,"
                   "dl1,l2\n";
        queries << "# comment line\n";
        queries << "4,96,32,24,80,8,4,16,4,16,32,32,2048\n";
        queries << "8,160,64,48,128,16,8,32,2,24,64,64,4096\n";
    }
    const RunResult served = run(
        dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE +
                 " --model model.acdse --input queries.csv --stats"
                 " --stats-out serve_stats.json > out.csv");
    ASSERT_EQ(served.exitCode, 0) << served.output;
    // --stats reads the service's snapshot: both queries in one batch.
    EXPECT_NE(served.output.find("stats: 1 batches, 2 points"),
              std::string::npos)
        << served.output;

    // Output CSV: one header plus one row per query.
    std::ifstream out(dir / "out.csv");
    std::string line;
    std::size_t rows = 0;
    while (std::getline(out, line)) {
        if (!line.empty())
            ++rows;
    }
    EXPECT_EQ(rows, 3u);

    const testjson::Value doc = parseFile(dir / "serve_stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v2");
    EXPECT_GE(
        doc.at("stages").at("serve/batch").at("count").asNumber(),
        1.0);
    EXPECT_EQ(doc.at("counters").at("serve/points").asNumber(),
              2.0);
    EXPECT_EQ(
        doc.at("histograms").at("serve/batch-points").at("count")
            .asNumber(),
        1.0);

    // --batch 5 over 20 rows: four predict() batches.
    {
        std::ofstream many(dir / "twenty.csv");
        for (std::size_t i = 0; i < 20; ++i)
            many << queryRow(i) << "\n";
    }
    const RunResult batched = run(
        dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE +
                 " --model model.acdse --input twenty.csv --batch 5"
                 " --stats > twenty.out");
    ASSERT_EQ(batched.exitCode, 0) << batched.output;
    EXPECT_NE(batched.output.find("stats: 4 batches, 20 points"),
              std::string::npos)
        << batched.output;

    // A 256-row batch at two threads runs on the service's pool (over
    // 128 rows); its output is byte-identical to the one-thread run.
    {
        std::ofstream wide(dir / "wide.csv");
        for (std::size_t i = 0; i < 300; ++i)
            wide << queryRow(i) << "\n";
    }
    const std::string wide = std::string(ACDSE_TOOL_SERVE) +
                             " --model model.acdse --input wide.csv";
    const RunResult one =
        run(dir, "ACDSE_THREADS=1 " + wide + " > wide1.csv");
    ASSERT_EQ(one.exitCode, 0) << one.output;
    const RunResult two =
        run(dir, "ACDSE_THREADS=2 " + wide + " > wide2.csv");
    ASSERT_EQ(two.exitCode, 0) << two.output;
    EXPECT_NE(two.output.find("pool of 2 threads"), std::string::npos)
        << two.output;
    EXPECT_EQ(readLines(dir / "wide1.csv").size(), 301u);
    EXPECT_EQ(slurp(dir / "wide1.csv"), slurp(dir / "wide2.csv"));

    // The same rows, header and comment with CRLF line endings serve
    // byte-identically to their LF form.
    {
        std::ofstream lf(dir / "lf.csv", std::ios::binary);
        std::ofstream crlf(dir / "crlf.csv", std::ios::binary);
        for (const std::string &line :
             {std::string("width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,"
                          "il1,dl1,l2"),
              std::string("# comment line"), queryRow(0), queryRow(1),
              queryRow(2)}) {
            lf << line << "\n";
            crlf << line << "\r\n";
        }
    }
    const std::string serve = std::string("ACDSE_THREADS=1 ") +
                              ACDSE_TOOL_SERVE + " --model model.acdse";
    const RunResult lfRun = run(dir, serve + " --input lf.csv > lf.out");
    ASSERT_EQ(lfRun.exitCode, 0) << lfRun.output;
    const RunResult crlfRun =
        run(dir, serve + " --input crlf.csv > crlf.out");
    ASSERT_EQ(crlfRun.exitCode, 0) << crlfRun.output;
    EXPECT_EQ(readLines(dir / "lf.out").size(), 4u);
    EXPECT_EQ(slurp(dir / "crlf.out"), slurp(dir / "lf.out"));
}

TEST(CliServe, StatsEveryDumpsFromTheInputLoop)
{
    // --stats-every N rewrites --stats-out after every N-th input
    // batch. Feed 3 batches of 2 rows through a pipe that stays open:
    // the tool then waits for input, and its stats file must show
    // exactly the 2 batches the one periodic dump covered. Closing the
    // pipe ends the run, and the exit dump covers all 3.
    const fs::path dir = freshDir("acdse_cli_serve_every");
    const RunResult trained = trainModel(dir);
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    const fs::path stats = dir / "stats.json";
    const std::string command =
        "cd '" + dir.string() + "' && ACDSE_THREADS=1 " +
        ACDSE_TOOL_SERVE +
        " --model model.acdse --batch 2 --stats-out stats.json"
        " --stats-every 2 > out.csv 2> serve.log";
    FILE *input = ::popen(command.c_str(), "w");
    ASSERT_NE(input, nullptr);
    for (int row = 0; row < 6; ++row)
        std::fputs("4,96,32,24,80,8,4,16,4,16,32,32,2048\n", input);
    std::fflush(input);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!fs::exists(stats) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(stats)) << "no periodic dump";
    const testjson::Value periodic = parseFile(stats);
    EXPECT_EQ(periodic.at("counters").at("serve/points").asNumber(),
              4.0);
    EXPECT_EQ(
        periodic.at("stages").at("serve/batch").at("count").asNumber(),
        2.0);

    const int status = ::pclose(input);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "acdse-serve exit status " << status;
    const testjson::Value atExit = parseFile(stats);
    EXPECT_EQ(atExit.at("counters").at("serve/points").asNumber(), 6.0);
    EXPECT_EQ(
        atExit.at("stages").at("serve/batch").at("count").asNumber(),
        3.0);
}

/** @p line split at every comma. */
std::vector<std::string>
cells(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        out.push_back(cell);
    return out;
}

/** Cells [begin, end) of @p row joined by commas. */
std::string
join(const std::vector<std::string> &row, std::size_t begin,
     std::size_t end)
{
    std::string out;
    for (std::size_t i = begin; i < end; ++i)
        out += (i > begin ? "," : "") + row[i];
    return out;
}

TEST(CliServe, TenantsRouteRowsAndStampVersions)
{
    // Two tenants on different artifacts, rows interleaved so that
    // every 3-row batch mixes them. Each row must carry exactly the
    // metrics `--model` gives for its tenant's artifact alone.
    const fs::path dir = freshDir("acdse_cli_serve_tenants");
    ASSERT_EQ(trainModel(dir, "a.acdse", "gzip,crafty").exitCode, 0);
    ASSERT_EQ(trainModel(dir, "b.acdse", "gzip,mcf").exitCode, 0);

    const std::string tenantOf = "abbabaabab";
    {
        std::ofstream plain(dir / "plain.csv");
        std::ofstream routed(dir / "tenants.csv");
        routed << "tenant,width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,"
                  "il1,dl1,l2\n";
        for (std::size_t i = 0; i < tenantOf.size(); ++i) {
            plain << queryRow(i) << "\n";
            routed << tenantOf[i] << ',' << queryRow(i) << "\n";
        }
    }
    const std::string serve =
        std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE;
    for (const char *name : {"a", "b"}) {
        const RunResult alone =
            run(dir, serve + " --model " + name +
                         ".acdse --input plain.csv > " + name + ".out");
        ASSERT_EQ(alone.exitCode, 0) << alone.output;
    }
    const RunResult routed =
        run(dir, serve + " --tenants a=a.acdse,b=b.acdse"
                         " --input tenants.csv --batch 3 > routed.out");
    ASSERT_EQ(routed.exitCode, 0) << routed.output;

    const auto lines = readLines(dir / "routed.out");
    const auto aLines = readLines(dir / "a.out");
    const auto bLines = readLines(dir / "b.out");
    ASSERT_EQ(lines.size(), tenantOf.size() + 1);
    ASSERT_EQ(aLines.size(), lines.size());
    ASSERT_EQ(bLines.size(), lines.size());

    // The header gains a leading tenant column and a version column
    // between the parameters and the metrics.
    const auto plainHeader = cells(aLines[0]);
    EXPECT_EQ(lines[0],
              "tenant," + join(plainHeader, 0, 13) + ",version," +
                  join(plainHeader, 13, plainHeader.size()));

    // Version 1 is the default tenant (the first --tenants file);
    // tenants a and b are published next, as versions 2 and 3.
    for (std::size_t i = 0; i < tenantOf.size(); ++i) {
        const auto row = cells(lines[i + 1]);
        const bool isA = tenantOf[i] == 'a';
        const auto alone = cells((isA ? aLines : bLines)[i + 1]);
        ASSERT_EQ(row.size(), alone.size() + 2) << lines[i + 1];
        EXPECT_EQ(row[0], std::string(1, tenantOf[i]));
        EXPECT_EQ(join(row, 1, 14), queryRow(i));
        EXPECT_EQ(row[14], isA ? "2" : "3") << lines[i + 1];
        EXPECT_EQ(join(row, 15, row.size()),
                  join(alone, 13, alone.size()))
            << "row " << i;
    }
    // The two artifacts differ, so the routing check has teeth.
    EXPECT_NE(aLines[1], bLines[1]);

    // Four tenants over two files, 300 rows in --batch 256: one
    // predict() per input batch, pooled at width 4. The output is the
    // same bytes at widths 1 and 4, and every row is its file's row.
    const std::string four = "abcd";
    {
        std::ofstream plain(dir / "plain300.csv");
        std::ofstream routed(dir / "four.csv");
        for (std::size_t i = 0; i < 300; ++i) {
            plain << queryRow(i) << "\n";
            routed << four[i % 4] << ',' << queryRow(i) << "\n";
        }
    }
    for (const char *name : {"a", "b"}) {
        const RunResult alone =
            run(dir, serve + " --model " + name +
                         ".acdse --input plain300.csv > " + name +
                         "300.out");
        ASSERT_EQ(alone.exitCode, 0) << alone.output;
    }
    for (const char *threads : {"1", "4"}) {
        const RunResult routedFour = run(
            dir, std::string("ACDSE_THREADS=") + threads + " " +
                     ACDSE_TOOL_SERVE +
                     " --tenants a=a.acdse,b=b.acdse,c=a.acdse,d=b.acdse"
                     " --input four.csv --batch 256 --stats > four" +
                     threads + ".out");
        ASSERT_EQ(routedFour.exitCode, 0) << routedFour.output;
        // 300 rows at --batch 256 are two predict() calls.
        EXPECT_NE(routedFour.output.find("stats: 2 batches, 300 points"),
                  std::string::npos)
            << routedFour.output;
    }
    EXPECT_EQ(slurp(dir / "four1.out"), slurp(dir / "four4.out"));
    const auto fourLines = readLines(dir / "four1.out");
    const auto a300 = readLines(dir / "a300.out");
    const auto b300 = readLines(dir / "b300.out");
    ASSERT_EQ(fourLines.size(), 301u);
    ASSERT_EQ(a300.size(), 301u);
    ASSERT_EQ(b300.size(), 301u);
    // Versions: default 1 (a.acdse), then a, b, c, d as 2..5.
    for (std::size_t i = 0; i < 300; ++i) {
        const auto row = cells(fourLines[i + 1]);
        const bool fromA = i % 2 == 0;
        const auto alone = cells((fromA ? a300 : b300)[i + 1]);
        ASSERT_EQ(row.size(), alone.size() + 2) << fourLines[i + 1];
        EXPECT_EQ(row[0], std::string(1, four[i % 4]));
        EXPECT_EQ(row[14], std::to_string(2 + i % 4)) << fourLines[i + 1];
        EXPECT_EQ(join(row, 15, row.size()), join(alone, 13, alone.size()))
            << "row " << i;
    }

    // Line 1 with an unknown tenant is a header; after it, bad routing.
    {
        std::ofstream bad(dir / "unknown.csv");
        bad << "a," << queryRow(0) << "\nc," << queryRow(1) << "\n";
    }
    const RunResult unknown =
        run(dir, serve + " --tenants a=a.acdse,b=b.acdse"
                         " --input unknown.csv > /dev/null");
    EXPECT_EQ(unknown.exitCode, 1) << unknown.output;
    EXPECT_NE(unknown.output.find("line 2: unknown tenant 'c'"),
              std::string::npos)
        << unknown.output;
}

TEST(CliServe, HotSwapWatchRepublishesBetweenBatches)
{
    // Stdin is a pipeline that writes two rows, waits until the server
    // has loaded the watched file, replaces it, then writes two more.
    // The watch polls after each one-row batch, so the first row is
    // served by the old version and the last by the new one.
    const fs::path dir = freshDir("acdse_cli_serve_hotswap");
    ASSERT_EQ(trainModel(dir, "a.acdse", "gzip,crafty").exitCode, 0);
    ASSERT_EQ(trainModel(dir, "b.acdse", "gzip,mcf").exitCode, 0);
    fs::copy_file(dir / "a.acdse", dir / "m.acdse");
    // An old stamp, so the replacement's stamp differs at any
    // file-system timestamp granularity.
    fs::last_write_time(dir / "m.acdse",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(1));

    const std::string rows = "printf 'a," + queryRow(0) + "\\na," +
                             queryRow(1) + "\\n'";
    const std::string moreRows = "printf 'a," + queryRow(2) + "\\na," +
                                 queryRow(3) + "\\n'";
    const RunResult swapped = run(
        dir, "{ " + rows +
                 "; i=0; until grep -q serving serve.log 2>/dev/null ||"
                 " [ $i -ge 6000 ]; do sleep 0.01; i=$((i+1)); done;"
                 " cp b.acdse m.tmp && mv m.tmp m.acdse; " +
                 moreRows + "; } | ACDSE_THREADS=1 " + ACDSE_TOOL_SERVE +
                 " --tenants a=m.acdse --hot-swap-watch --batch 1"
                 " > out.csv 2> serve.log");
    ASSERT_EQ(swapped.exitCode, 0)
        << swapped.output << slurp(dir / "serve.log");
    EXPECT_NE(slurp(dir / "serve.log")
                  .find("hot-swapped 'm.acdse' as version 3"),
              std::string::npos)
        << slurp(dir / "serve.log");

    const auto lines = readLines(dir / "out.csv");
    ASSERT_EQ(lines.size(), 5u);
    std::vector<unsigned long> versions;
    for (std::size_t i = 1; i < lines.size(); ++i)
        versions.push_back(std::stoul(cells(lines[i])[14]));
    EXPECT_EQ(versions.front(), 2u);
    EXPECT_EQ(versions.back(), 3u);
    EXPECT_TRUE(std::is_sorted(versions.begin(), versions.end()));

    // The last row's metrics are the replacement artifact's.
    {
        std::ofstream last(dir / "last.csv");
        last << queryRow(3) << "\n";
    }
    const RunResult alone =
        run(dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE +
                     " --model b.acdse --input last.csv > last.out");
    ASSERT_EQ(alone.exitCode, 0) << alone.output;
    const auto aloneRow = cells(readLines(dir / "last.out").back());
    const auto lastRow = cells(lines.back());
    EXPECT_EQ(join(lastRow, 15, lastRow.size()),
              join(aloneRow, 13, aloneRow.size()));
}

TEST(CliServe, RejectsUnknownFlagAndMissingModel)
{
    const fs::path dir = freshDir("acdse_cli_serve_badflag");
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE) + " --bogus")
                  .exitCode,
              2);
    // --model is required.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE)).exitCode, 2);
    // --stats-every without --stats-out is a user error.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE) +
                           " --model x.acdse --stats-every 2")
                  .exitCode,
              1);
}

TEST(CliServe, RejectsBadValues)
{
    // A --batch beyond its bound is refused by name before any buffer
    // is sized for it.
    const fs::path dir = freshDir("acdse_cli_serve_badvalue");
    const std::string base =
        std::string(ACDSE_TOOL_SERVE) + " --model x.acdse";
    for (const char *batch : {"0", "65537", "4294967296", "5000000000"}) {
        const RunResult result = run(dir, base + " --batch " + batch);
        EXPECT_EQ(result.exitCode, 1) << batch;
        EXPECT_NE(result.output.find("--batch must be in 1..65536"),
                  std::string::npos)
            << batch << ": " << result.output;
    }
    // A --tenants entry that repeats a name, or names the default
    // tenant that --model serves, is refused by entry.
    for (const auto &[spec, message] :
         {std::pair<std::string, std::string>{
              "a=x.acdse,a=y.acdse",
              "entry 'a=y.acdse' repeats tenant 'a'"},
          {"default=y.acdse",
           "entry 'default=y.acdse' repeats tenant 'default' (--model "
           "serves 'default')"}}) {
        const RunResult result = run(dir, base + " --tenants " + spec);
        EXPECT_EQ(result.exitCode, 1) << spec;
        EXPECT_NE(result.output.find("fatal"), std::string::npos)
            << result.output;
        EXPECT_NE(result.output.find(message), std::string::npos)
            << spec << ": " << result.output;
    }
    // The width comes from ACDSE_THREADS alone and there is no ring
    // mode: --threads and --max-queue are unknown flags.
    EXPECT_EQ(run(dir, base + " --threads 2").exitCode, 2);
    EXPECT_EQ(run(dir, base + " --max-queue 99999999999999").exitCode, 2);
}

TEST(CliExplore, ExploresArtifactAndWritesCsv)
{
    const fs::path dir = freshDir("acdse_cli_explore");
    const RunResult trained = trainModel(dir);
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // A small sampled exploration; results must not depend on the
    // thread count, so run it at 1 and 2 threads and compare bytes.
    const std::string explore_cmd =
        std::string(ACDSE_TOOL_EXPLORE) +
        " --model model.acdse --samples 3000 --topk 4 --seed 9";
    const RunResult explored = run(
        dir, "ACDSE_THREADS=1 " + explore_cmd + " --stats-out stats.json");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    const RunResult explored2 =
        run(dir, "ACDSE_THREADS=2 " + explore_cmd +
                     " --frontier-out f2.csv --topk-out t2.csv");
    ASSERT_EQ(explored2.exitCode, 0) << explored2.output;

    const std::string frontier = slurp(dir / "frontier.csv");
    EXPECT_TRUE(frontier.starts_with(
        "width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,il1,dl1,l2,"
        "cycles,energy"))
        << frontier.substr(0, 120);
    EXPECT_EQ(frontier, slurp(dir / "f2.csv"));
    const std::string topk = slurp(dir / "topk.csv");
    EXPECT_TRUE(topk.starts_with("metric,rank,width"))
        << topk.substr(0, 120);
    EXPECT_EQ(topk, slurp(dir / "t2.csv"));
    // Default --metrics cycles,energy at --topk 4: header + 8 rows.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(topk.begin(), topk.end(), '\n')),
              9u);

    const testjson::Value doc = parseFile(dir / "stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v2");
    EXPECT_EQ(doc.at("counters")
                  .at("explore/points-predicted")
                  .asNumber(),
              3000.0);
    EXPECT_GE(doc.at("stages").at("explore/tile").at("count")
                  .asNumber(),
              1.0);
    EXPECT_GE(doc.at("stages").at("explore/reduce").at("count")
                  .asNumber(),
              1.0);
}

TEST(CliExplore, RefinedEnumerationOfReducedGrid)
{
    const fs::path dir = freshDir("acdse_cli_explore_enum");
    const RunResult trained = trainModel(dir);
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // Stride 4 + pins keeps the grid tiny; --refine rewrites top-k.
    const RunResult explored = run(
        dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_EXPLORE +
                 " --model model.acdse --mode enumerate --stride 4"
                 " --fix width=4 --fix l2=1024 --metrics cycles,energy"
                 " --pareto cycles,energy --topk 3 --refine");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    EXPECT_TRUE(fs::exists(dir / "frontier.csv"));
    EXPECT_TRUE(fs::exists(dir / "topk.csv"));
    EXPECT_NE(explored.output.find("(refined)"), std::string::npos)
        << explored.output;
}

TEST(CliExplore, RejectsBadFlagsAndValues)
{
    const fs::path dir = freshDir("acdse_cli_explore_badflag");
    // usage() paths exit 2: unknown flag, missing --model.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_EXPLORE) + " --bogus")
                  .exitCode,
              2);
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_EXPLORE)).exitCode, 2);
    // fatal() paths exit 1: bad mode, bad metric, illegal --fix value,
    // Pareto objective not among the scored metrics.
    const std::string base =
        std::string(ACDSE_TOOL_EXPLORE) + " --model x.acdse";
    EXPECT_EQ(run(dir, base + " --mode sideways").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --metrics watts").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --fix width=5").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --metrics ed,edd").exitCode, 1);
    // A repeated metric would write its top-k rows twice.
    const RunResult repeated =
        run(dir, base + " --metrics cycles,cycles --pareto cycles,cycles");
    EXPECT_EQ(repeated.exitCode, 1);
    EXPECT_NE(repeated.output.find("fatal: --metrics 'cycles,cycles' "
                                   "repeats metric 'cycles'"),
              std::string::npos)
        << repeated.output;
    // Values the engine cannot run are refused by flag before the
    // model is read: no samples, a zero stride, a top-k list too long
    // to buffer, and a sampled sub-space with no valid point.
    const std::pair<const char *, const char *> refused[] = {
        {" --samples 0", "--samples must be positive"},
        {" --stride 0", "--stride must be positive"},
        {" --topk 20000000000", "--topk must be at most 65536"},
        {" --fix rob=32 --fix iq=80", "--stride/--fix has no valid point"},
        // Contradictory or degenerate repeats: the last --fix would
        // win, and one metric against itself is a one-point frontier.
        {" --fix rob=32 --fix rob=64", "fatal: --fix repeats parameter 'rob'"},
        {" --pareto cycles,cycles",
         "fatal: --pareto 'cycles,cycles' repeats metric 'cycles'"},
    };
    for (const auto &[flags, message] : refused) {
        const RunResult result = run(dir, base + flags);
        EXPECT_EQ(result.exitCode, 1) << flags;
        EXPECT_NE(result.output.find(message), std::string::npos)
            << flags << ": " << result.output;
    }
    // The width comes from ACDSE_THREADS, and the tile size is fixed.
    EXPECT_EQ(run(dir, base + " --threads 2").exitCode, 2);
    EXPECT_EQ(run(dir, base + " --tile 1024").exitCode, 2);
    // A --fix value outside int is refused as such, before the model
    // is read, not truncated: 2^32 + 2 would wrap to width 2.
    for (const char *value : {"4294967298", "-4294967294"}) {
        const RunResult wide =
            run(dir, base + " --fix width=" + value);
        EXPECT_EQ(wide.exitCode, 1) << value;
        EXPECT_NE(wide.output.find("is not a legal value for Width"),
                  std::string::npos)
            << value << ": " << wide.output;
    }
}

TEST(CliExplore, RejectsCorruptArtifact)
{
    const fs::path dir = freshDir("acdse_cli_explore_corrupt");
    {
        std::ofstream bad(dir / "corrupt.acdse");
        bad << "this is not an artifact";
    }
    const RunResult result =
        run(dir, std::string(ACDSE_TOOL_EXPLORE) +
                     " --model corrupt.acdse --samples 10");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("fatal"), std::string::npos);
}

TEST(CliServe, RejectsCorruptArtifact)
{
    const fs::path dir = freshDir("acdse_cli_serve_corrupt");
    {
        std::ofstream bad(dir / "corrupt.acdse");
        bad << "this is not an artifact";
    }
    const RunResult result =
        run(dir, std::string(ACDSE_TOOL_SERVE) +
                     " --model corrupt.acdse --input /dev/null");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("fatal"), std::string::npos);
}

/**
 * The pinned tiny acdse-jobs invocation (4 jobs: 3 simulate jobs, one
 * per program, and 1 job that trains and fits).
 * Deeper fault-injection coverage -- kill matrices, damaged outputs,
 * bit-identity against a reference run --
 * lives in test_jobs_crash.cc; this suite covers the CLI surface:
 * exit codes, artifacts and the status schema.
 */
std::string
jobsCmd(const std::string &subcommand)
{
    return std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=24 "
                       "ACDSE_TRACE_LEN=1200 ACDSE_WARMUP=200 ") +
           ACDSE_TOOL_JOBS + " " + subcommand;
}

constexpr const char *kJobsRunArgs =
    "run --dir . --programs gzip,mcf --target vpr --train 12"
    " --responses 8";

/** sh's exit status for a command that SIGKILL ended. */
constexpr int kKilledExit = 128 + SIGKILL;

TEST(CliJobServer, RunProducesArtifactsAndStats)
{
    const fs::path dir = freshDir("acdse_cli_jobs_run");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs) +
                         " --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;

    std::size_t plans = 0, locks = 0, blocks = 0, artifacts = 0;
    std::size_t models = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        plans += name.ends_with(".plan.csv");
        locks += name.ends_with(".lock");
        blocks += name.starts_with("acdse_campaign_") &&
                  name.ends_with(".cells");
        artifacts += name.ends_with(".acdse");
        models += name.find(".model_") != std::string::npos;
    }
    EXPECT_EQ(plans, 1u);
    EXPECT_EQ(locks, 4u); // one per job
    EXPECT_EQ(blocks, 3u);
    EXPECT_EQ(artifacts, 1u);
    EXPECT_EQ(models, 0u); // no per-program model files

    // The run writes one acdse-stats-v2 file, and it covers the whole
    // run: the campaign fill, each training program's models and every
    // computed job.
    std::size_t statsFiles = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        statsFiles += entry.path().filename().string().starts_with("stats");
    EXPECT_EQ(statsFiles, 1u);
    const testjson::Value doc = parseFile(dir / "stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v2");
    const testjson::Value &stages = doc.at("stages");
    EXPECT_GT(stages.at("campaign/fill").at("total_ms").asNumber(), 0.0);
    EXPECT_TRUE(stages.has("train/program/0"));
    EXPECT_TRUE(stages.has("train/program/1"));
    EXPECT_EQ(doc.at("counters").at("jobs/dispatch").asNumber(), 4.0);
}

TEST(CliJobServer, TrainingRunReportsHeldOutAndStats)
{
    // A training run ends with every metric's response training error
    // and the target's error over the held-out configurations
    // [T+R, N) = [20, 24). Single-threaded, the stage self times sum
    // to at most the run's wall time.
    const fs::path dir = freshDir("acdse_cli_jobs_report");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs) +
                         " --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    for (const char *metric : {"cycles ", "energy ", "ED ", "EDD "}) {
        EXPECT_NE(result.output.find(std::string("trained ") + metric),
                  std::string::npos)
            << metric << result.output;
    }
    EXPECT_NE(result.output.find("response training error"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("held-out 4 points: cycles rmae"),
              std::string::npos)
        << result.output;

    ASSERT_TRUE(fs::exists(dir / "stats.json"));
    const testjson::Value doc = parseFile(dir / "stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v2");
    const testjson::Value &stages = doc.at("stages");
    EXPECT_GE(stages.at("jobs/execute").at("count").asNumber(), 4.0);
    double selfSumMs = 0.0;
    for (const auto &[path, stage] : stages.object) {
        const double self = stage.at("self_ms").asNumber();
        EXPECT_GE(self, 0.0) << path;
        EXPECT_LE(self, stage.at("total_ms").asNumber() + 1e-9) << path;
        selfSumMs += self;
    }
    EXPECT_LE(selfSumMs, result.wallSeconds * 1000.0);
    // The run simulated, trained and fitted; its stats say so: one
    // train/program/<i> stage per training program, spanned once per
    // metric, and one fit per metric.
    EXPECT_GT(stages.at("campaign/fill").at("total_ms").asNumber(), 0.0);
    std::size_t trainProgramStages = 0;
    for (const auto &[path, stage] : stages.object) {
        if (path.starts_with("train/program/")) {
            ++trainProgramStages;
            EXPECT_EQ(stage.at("count").asNumber(), 4.0) << path;
            EXPECT_GT(stage.at("total_ms").asNumber(), 0.0) << path;
        }
    }
    EXPECT_EQ(trainProgramStages, 2u);
    EXPECT_EQ(stages.at("fit/responses").at("count").asNumber(), 4.0);
}

TEST(CliJobServer, ArtifactServesAndExplores)
{
    // The job server's end product is an ordinary model artifact:
    // acdse-serve and acdse-explore load it as is. A campaign block is
    // framed under another magic, so handing one to acdse-serve is a
    // clean "bad magic" error, not a misparse.
    const fs::path dir = freshDir("acdse_cli_jobs_serve");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs)));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    std::string artifact, block;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.ends_with(".acdse"))
            artifact = name;
        if (name.ends_with(".gzip.cells"))
            block = name;
    }
    ASSERT_FALSE(artifact.empty());
    ASSERT_FALSE(block.empty());
    EXPECT_NE(result.output.find(artifact), std::string::npos)
        << result.output;

    {
        std::ofstream queries(dir / "queries.csv");
        queries << "4,96,32,24,80,8,4,16,4,16,32,32,2048\n";
        queries << "8,160,64,48,128,16,8,32,2,24,64,64,4096\n";
    }
    const std::string serve = std::string("ACDSE_THREADS=1 ") +
                              ACDSE_TOOL_SERVE + " --input queries.csv";
    const RunResult served =
        run(dir, serve + " --model " + artifact + " > out.csv");
    ASSERT_EQ(served.exitCode, 0) << served.output;
    std::ifstream out(dir / "out.csv");
    std::string header;
    std::getline(out, header);
    EXPECT_TRUE(header.ends_with(",cycles,energy,ED,EDD")) << header;

    const RunResult explored =
        run(dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_EXPLORE +
                     " --model " + artifact + " --samples 500 --topk 2");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    EXPECT_TRUE(fs::exists(dir / "frontier.csv"));

    const RunResult refused =
        run(dir, serve + " --model " + block + " > /dev/null");
    EXPECT_EQ(refused.exitCode, 1);
    EXPECT_NE(refused.output.find("bad magic"), std::string::npos)
        << refused.output;
}

TEST(CliJobServer, StatusSchemaAndResumeAfterKill)
{
    const fs::path dir = freshDir("acdse_cli_jobs_resume");
    RunResult result = run(
        dir, "ACDSE_JOBS_KILL_AFTER=2 " + jobsCmd(kJobsRunArgs));
    ASSERT_EQ(result.exitCode, kKilledExit) << result.output;

    result = run(dir, jobsCmd("status --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const testjson::Value doc = testjson::parse(result.output);
    EXPECT_EQ(doc.at("schema").asString(), "acdse-jobs-status-v3");
    EXPECT_EQ(doc.at("jobs").at("total").asNumber(), 4.0);
    EXPECT_EQ(doc.at("jobs").at("done").asNumber(), 2.0);
    EXPECT_EQ(doc.at("jobs").at("pending").asNumber(), 2.0);
    EXPECT_EQ(doc.at("jobs").at("running").asNumber(), 0.0);
    EXPECT_FALSE(doc.at("drained").boolean);
    // The state comes from the files alone: no journal generation,
    // attempt count or stuck flag.
    for (const char *gone : {"generation", "failed", "stuck"}) {
        EXPECT_FALSE(doc.has(gone)) << gone;
        EXPECT_FALSE(doc.at("jobs").has(gone)) << gone;
    }
    // The kinds are the plan's: 3 simulate jobs (2 done) and the
    // one job that trains and fits.
    const testjson::Value &kinds = doc.at("kinds");
    EXPECT_EQ(kinds.object.size(), 2u);
    EXPECT_EQ(kinds.at("simulate-shard").at("total").asNumber(), 3.0);
    EXPECT_EQ(kinds.at("simulate-shard").at("done").asNumber(), 2.0);
    EXPECT_EQ(kinds.at("train-and-fit").at("total").asNumber(), 1.0);
    EXPECT_EQ(kinds.at("train-and-fit").at("done").asNumber(), 0.0);
    EXPECT_EQ(doc.at("states").array.size(), 4u);

    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    result = run(dir, jobsCmd("status --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_TRUE(testjson::parse(result.output).at("drained").boolean);
}

TEST(CliJobServer, ResumeTakesVerbosityFromItsFlag)
{
    // A run killed before its first job leaves every simulation to
    // the resumes. A quiet resume (killed after gzip's job) reports no
    // campaign progress, and `resume --verbose` reports it for the
    // jobs it runs, whatever the first run's verbosity was.
    const fs::path dir = freshDir("acdse_cli_jobs_verbose");
    RunResult result = run(
        dir, "ACDSE_JOBS_KILL_AFTER=0 " +
                 jobsCmd(std::string(kJobsRunArgs) + " --verbose"));
    ASSERT_EQ(result.exitCode, kKilledExit) << result.output;

    result = run(dir, "ACDSE_JOBS_KILL_AFTER=1 " +
                          jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, kKilledExit) << result.output;
    EXPECT_EQ(result.output.find("simulations done"), std::string::npos)
        << result.output;

    result = run(dir, jobsCmd("resume --dir . --verbose"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("info: campaign: 24/24 simulations done"),
              std::string::npos)
        << result.output;
}

TEST(CliJobServer, VerboseProgressCountsUp)
{
    // Pool threads reach their progress lines in any order, the more
    // so with more threads than cores and a pipe reader competing for
    // them; the lines of a simulate job must still count up, and the
    // last one reports every cell.
    const fs::path dir = freshDir("acdse_cli_jobs_progress");
    const RunResult result =
        run(dir, std::string("ACDSE_THREADS=8 ACDSE_CONFIGS=400 "
                             "ACDSE_TRACE_LEN=300 ACDSE_WARMUP=50 ") +
                     ACDSE_TOOL_JOBS +
                     " run --dir . --sim-only --programs gzip"
                     " --verbose 2>&1 | cat");
    // The exit code is cat's; the final 400/400 line shows the run
    // finished.
    ASSERT_EQ(result.exitCode, 0) << result.output;
    std::istringstream log(result.output);
    const std::string prefix = "info: campaign: ";
    std::vector<std::size_t> counts;
    for (std::string line; std::getline(log, line);) {
        if (line.starts_with(prefix) &&
            line.ends_with("/400 simulations done"))
            counts.push_back(std::stoul(line.substr(prefix.size())));
    }
    ASSERT_FALSE(counts.empty()) << result.output;
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_LT(counts[i - 1], counts[i]) << result.output;
    EXPECT_EQ(counts.back(), 400u) << result.output;
}

TEST(CliJobServer, RejectsBadFlags)
{
    const fs::path dir = freshDir("acdse_cli_jobs_badflag");
    const std::string tool = ACDSE_TOOL_JOBS;
    EXPECT_EQ(run(dir, tool).exitCode, 2);
    EXPECT_EQ(run(dir, tool + " frobnicate").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " run --bogus").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " run --train").exitCode, 2);
    // One process drains the plan: there is no worker count to pick.
    EXPECT_EQ(run(dir, tool + " run --workers").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " run --workers 2").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " resume --workers 2").exitCode, 2);
    // fatal() paths exit 1: unparsable count, unknown benchmark
    // program.
    EXPECT_EQ(run(dir, tool + " run --train nope").exitCode, 1);
    EXPECT_EQ(
        run(dir, jobsCmd("run --dir . --programs not-a-benchmark"))
            .exitCode,
        1);
    // resume/status with no plan in the directory: typed error.
    const RunResult result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("no job plan"), std::string::npos);
}

TEST(CliJobServer, RejectsUnknownFlag)
{
    // An unknown flag of any subcommand exits 2 with the usage text.
    const fs::path dir = freshDir("acdse_cli_jobs_unknownflag");
    const std::string tool = ACDSE_TOOL_JOBS;
    for (const char *subcommand : {"run", "resume", "status"}) {
        const RunResult result =
            run(dir, tool + " " + subcommand + " --no-such-flag");
        EXPECT_EQ(result.exitCode, 2) << subcommand;
        EXPECT_NE(result.output.find("usage:"), std::string::npos)
            << subcommand << result.output;
    }
}

TEST(CliJobServer, RejectsBadValues)
{
    // fatal() paths exit 1: an unparsable R, zero T, and T+R beyond
    // the campaign's N = 24 configurations.
    const fs::path dir = freshDir("acdse_cli_jobs_badvalue");
    const std::string tool = ACDSE_TOOL_JOBS;
    EXPECT_EQ(run(dir, tool + " run --responses nope").exitCode, 1);
    EXPECT_EQ(run(dir, jobsCmd("run --dir . --train 0")).exitCode, 1);
    EXPECT_EQ(run(dir, jobsCmd("run --dir . --train 20 --responses 8"))
                  .exitCode,
              1);
    // A T+R that wraps past 2^64 is refused by flag before anything
    // is simulated, with N from ACDSE_CONFIGS and with the default
    // N = T+R+64 alike.
    for (const char *env : {"ACDSE_CONFIGS=40 ", ""}) {
        for (const char *flags :
             {" --train 18446744073709551615 --responses 2",
              " --train 2 --responses 18446744073709551615",
              " --train 18446744073709551552 --responses 1"}) {
            const RunResult result = run(
                dir, std::string(env) + "ACDSE_THREADS=1 " + tool +
                         " run --dir wrap --programs gzip" + flags);
            EXPECT_EQ(result.exitCode, 1) << env << flags;
            EXPECT_NE(result.output.find("fatal: "), std::string::npos)
                << env << flags << ": " << result.output;
            EXPECT_NE(result.output.find("--train"), std::string::npos)
                << env << flags << ": " << result.output;
            EXPECT_NE(result.output.find("--responses"),
                      std::string::npos)
                << env << flags << ": " << result.output;
            EXPECT_FALSE(fs::exists(dir / "wrap")) << env << flags;
        }
    }
    // A plan the job server rejects leaves no --dir behind.
    const RunResult duplicate = run(
        dir, jobsCmd("run --dir dup --programs gzip,gzip --train 8"
                     " --responses 4"));
    EXPECT_EQ(duplicate.exitCode, 1) << duplicate.output;
    EXPECT_NE(duplicate.output.find("duplicate program 'gzip'"),
              std::string::npos)
        << duplicate.output;
    EXPECT_FALSE(fs::exists(dir / "dup"));
}

TEST(CliJobServer, RunCreatesItsDirectory)
{
    // `run --dir` creates a missing directory, parents included; a
    // --dir that names a regular file is a fatal error that names it.
    const fs::path dir = freshDir("acdse_cli_jobs_mkdir");
    const RunResult created = run(
        dir, jobsCmd("run --dir new/run --sim-only --programs gzip"));
    ASSERT_EQ(created.exitCode, 0) << created.output;
    std::size_t blocks = 0;
    for (const auto &entry : fs::directory_iterator(dir / "new" / "run"))
        blocks += entry.path().extension() == ".cells";
    EXPECT_EQ(blocks, 1u);

    {
        std::ofstream file(dir / "plain");
        file << "not a directory\n";
    }
    const RunResult refused = run(
        dir, jobsCmd("run --dir plain --sim-only --programs gzip"));
    EXPECT_EQ(refused.exitCode, 1) << refused.output;
    EXPECT_NE(refused.output.find("fatal: --dir 'plain'"),
              std::string::npos)
        << refused.output;
    EXPECT_EQ(refused.output.find("panic"), std::string::npos)
        << refused.output;
}

} // namespace
} // namespace acdse
