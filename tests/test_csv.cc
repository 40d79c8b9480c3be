/**
 * @file
 * Unit tests for CSV reading/writing (the campaign cache format).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/csv.hh"
#include "base/json.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

/** @p name inside a new directory unique to this process. */
std::string
tempPath(const std::string &name)
{
    return (testdir::uniqueTempDir("acdse_csv") / name).string();
}

TEST(Csv, SplitsLine)
{
    const auto cells = splitCsvLine("a,b,,d");
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0], "a");
    EXPECT_EQ(cells[2], "");
    EXPECT_EQ(cells[3], "d");
}

TEST(Csv, TrailingComma)
{
    const auto cells = splitCsvLine("a,b,");
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[2], "");
}

TEST(Csv, RoundTrip)
{
    const std::string path = tempPath("acdse_csv_roundtrip.csv");
    CsvFile out;
    out.header = {"program", "value"};
    out.rows = {{"gzip", "1.5"}, {"mcf", "2.25"}};
    writeCsv(path, out);

    CsvFile in;
    ASSERT_TRUE(readCsv(path, in));
    EXPECT_EQ(in.header, out.header);
    ASSERT_EQ(in.rows.size(), 2u);
    EXPECT_EQ(in.rows[1][0], "mcf");
    EXPECT_EQ(in.rows[1][1], "2.25");
    std::remove(path.c_str());
}

TEST(Csv, MissingFileFails)
{
    CsvFile in;
    EXPECT_FALSE(readCsv("/nonexistent/path/nothing.csv", in));
}

TEST(Csv, RejectsRaggedRows)
{
    const std::string path = tempPath("acdse_csv_ragged.csv");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("a,b\n1,2\n3\n", f);
        std::fclose(f);
    }
    CsvFile in;
    EXPECT_FALSE(readCsv(path, in));
    std::remove(path.c_str());
}

TEST(Csv, SkipsBlankLines)
{
    const std::string path = tempPath("acdse_csv_blank.csv");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("a,b\n1,2\n\n3,4\n", f);
        std::fclose(f);
    }
    CsvFile in;
    ASSERT_TRUE(readCsv(path, in));
    EXPECT_EQ(in.rows.size(), 2u);
    std::remove(path.c_str());
}

/** The CSV one racing write publishes: a header and 200 tagged rows. */
CsvFile
taggedCsv(const std::string &tag)
{
    CsvFile file;
    file.header = {"w", tag};
    file.rows.assign(200, {"x", tag});
    return file;
}

/** taggedCsv(@p tag) as the text writeCsvAtomic() writes. */
std::string
taggedText(const std::string &tag)
{
    std::string text = "w," + tag + "\n";
    for (int i = 0; i < 200; ++i)
        text += "x," + tag + "\n";
    return text;
}

TEST(AtomicWrite, ConcurrentWritersOfOnePathPublishWholeFiles)
{
    // Eight threads of one process, fifty writes each, all to one
    // path: half through writeTextAtomic(), half through
    // writeCsvAtomic(). Every write needs its own temporary, or one
    // thread's rename() steals another's file and the loser panics.
    const std::filesystem::path dir =
        testdir::uniqueTempDir("acdse_atomic_write");
    const std::string path = (dir / "shared.csv").string();
    constexpr int kThreads = 8;
    constexpr int kWrites = 50;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([t, &path] {
            for (int j = 0; j < kWrites; ++j) {
                const std::string tag =
                    "t" + std::to_string(t) + "j" + std::to_string(j);
                if (t % 2 == 0)
                    writeTextAtomic(path, taggedText(tag));
                else
                    writeCsvAtomic(path, taggedCsv(tag));
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();

    // The survivor is exactly one write, whole, and every temporary
    // was renamed away.
    std::ifstream in(path, std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    const std::size_t firstLine = text.find('\n');
    ASSERT_NE(firstLine, std::string::npos);
    ASSERT_EQ(text.rfind("w,", 0), 0u);
    EXPECT_EQ(text, taggedText(text.substr(2, firstLine - 2)));
    std::size_t files = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, 1u);
}

} // namespace
} // namespace acdse
