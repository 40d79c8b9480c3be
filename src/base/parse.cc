#include "base/parse.hh"

#include <algorithm>
#include <charconv>
#include <string>

#include "base/logging.hh"

namespace acdse
{

namespace
{

template <typename T>
std::optional<T>
parseIntegral(std::string_view text)
{
    // std::from_chars accepts a leading '-' for signed types only and
    // never skips whitespace, which is exactly the strictness we want;
    // a '+' prefix is rejected like any other non-digit.
    T value{};
    const char *first = text.data();
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, 10);
    if (ec != std::errc{} || ptr != last || text.empty())
        return std::nullopt;
    return value;
}

} // namespace

std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    return parseIntegral<std::uint64_t>(text);
}

std::optional<std::int64_t>
parseI64(std::string_view text)
{
    return parseIntegral<std::int64_t>(text);
}

std::vector<std::string>
splitList(std::string_view text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = std::min(text.find(sep, start), text.size());
        if (end > start)
            out.emplace_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::uint64_t
parseU64OrDie(std::string_view what, std::string_view text)
{
    const auto value = parseU64(text);
    if (!value) {
        fatal(what, " expects an unsigned integer, got '",
              std::string(text), "'");
    }
    return *value;
}

std::int64_t
parseI64OrDie(std::string_view what, std::string_view text)
{
    const auto value = parseI64(text);
    if (!value) {
        fatal(what, " expects an integer, got '", std::string(text),
              "'");
    }
    return *value;
}

} // namespace acdse
