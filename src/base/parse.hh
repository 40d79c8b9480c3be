/**
 * @file
 * Checked numeric parsing for everything that crosses a text boundary:
 * CLI flags, environment variables, CSV cells.
 *
 * The C ato* family silently returns 0 on garbage and has
 * undefined behaviour on overflow; strtoull accepts "-1" by wrapping
 * it to 2^64-1. Both bug classes have shipped in this repo's CLIs, so
 * the project lint (tools/lint/acdse_lint.py) bans those functions
 * outside this file and routes all parsing through here.
 *
 * The strict core functions return std::nullopt unless the *entire*
 * string is a valid in-range number: no leading/trailing whitespace or
 * garbage, no overflow, no '-' for unsigned. The *OrDie wrappers are
 * for CLI/environment parsing where a bad value should stop the
 * process with a message naming the offending input. splitList() cuts
 * a list-valued flag or field into its items.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace acdse
{

/** Parse a full string as u64; nullopt on garbage/overflow/sign. */
std::optional<std::uint64_t> parseU64(std::string_view text);

/** Parse a full string as i64; nullopt on garbage or overflow. */
std::optional<std::int64_t> parseI64(std::string_view text);

/**
 * The items of a @p sep separated list, in order. Empty items are
 * skipped, so "a,,b," gives {"a", "b"} and "" gives {}.
 */
std::vector<std::string> splitList(std::string_view text, char sep);

/**
 * @name Fatal-on-error wrappers.
 * @p what names the input's source ("--batch", "ACDSE_THREADS") in the
 * error message. fatal(), not panic(): bad flags and environment are
 * user errors, not library bugs.
 */
/** @{ */
std::uint64_t parseU64OrDie(std::string_view what, std::string_view text);
std::int64_t parseI64OrDie(std::string_view what, std::string_view text);
/** @} */

} // namespace acdse
