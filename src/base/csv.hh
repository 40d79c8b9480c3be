/**
 * @file
 * Minimal CSV reading/writing, used for the on-disk simulation-campaign
 * cache. Values are plain (no quoting) since we only store identifiers
 * and numbers.
 */

#pragma once

#include <string>
#include <vector>

namespace acdse
{

/** One parsed CSV file: a header row plus data rows of strings. */
struct CsvFile
{
    std::vector<std::string> header;              //!< column names
    std::vector<std::vector<std::string>> rows;   //!< data cells
};

/**
 * Read a CSV file from disk.
 * @return true and fills @p out on success; false if the file does not
 *         exist or cannot be parsed.
 */
bool readCsv(const std::string &path, CsvFile &out);

/** Write a CSV file to disk; panics on I/O failure. */
void writeCsv(const std::string &path, const CsvFile &file);

/**
 * Write a CSV file atomically through writeTextAtomic() (base/json.hh):
 * the content goes to a temporary file unique to this call that is
 * rename()d over @p path, so concurrent readers (and racing writers
 * sharing one cache file) see either the old file or one complete new
 * one, never a truncated in-between state. The temporary lives in the
 * same directory as @p path, as rename() is only atomic within a
 * filesystem.
 */
void writeCsvAtomic(const std::string &path, const CsvFile &file);

/** Split one CSV line on commas (no quoting support). */
std::vector<std::string> splitCsvLine(const std::string &line);

} // namespace acdse

