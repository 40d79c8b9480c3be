/**
 * @file
 * Minimal JSON emission for the machine-readable benchmark trajectory
 * (BENCH_*.json, checked by tools/ci/check_bench_regression.py).
 *
 * This is a writer only -- the repo never parses JSON in C++ -- and it
 * supports exactly what the bench format needs: objects, arrays,
 * strings, bools and finite numbers. Files land atomically
 * (temp + rename) like every other artifact the project writes.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace acdse
{

/**
 * Streaming JSON writer with automatic comma placement.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject().key("bench").value("train").key("metrics");
 *   w.beginObject().key("x").value(1.5).endObject();
 *   w.endObject();
 *   writeTextAtomic(path, w.str());
 *
 * Misuse (value without a key inside an object, unbalanced begin/end,
 * non-finite numbers) is a programming error and fails a check.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next call must produce its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);
    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);

    /** The finished document; checks that all scopes are closed. */
    const std::string &str() const;

  private:
    /** Comma/colon bookkeeping before emitting a key or value. */
    void separate();

    void appendEscaped(std::string_view text);

    std::string out_;
    std::vector<bool> firstInScope_; //!< per open scope
    bool afterKey_ = false;
};

/**
 * Write @p content to @p path atomically (temp file + rename), so a
 * concurrent reader or a crash can never observe a truncated file.
 * The bytes are written unchanged. Every call gets its own temporary
 * in @p path's directory, named with the process id and a
 * process-wide sequence number, so concurrent writers of one path
 * (threads or processes) each publish one complete file and the last
 * rename wins. This is the one atomic-write primitive:
 * writeCsvAtomic() and saveArtifact() go through it.
 */
void writeTextAtomic(const std::string &path, std::string_view content);

} // namespace acdse
