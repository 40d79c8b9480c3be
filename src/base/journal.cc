#include "base/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

namespace
{

/** The line prefix naming the record format version. */
constexpr std::string_view kMagic = "J1";

/** Hex digits in the per-line checksum field. */
constexpr std::size_t kCrcDigits = 16;

std::string
crcHex(std::string_view content)
{
    char buf[kCrcDigits + 1];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(content)));
    return buf;
}

/** Parse exactly 16 lowercase hex digits; false on anything else. */
bool
parseCrc(std::string_view text, std::uint64_t &out)
{
    if (text.size() != kCrcDigits)
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        value = (value << 4) | digit;
    }
    out = value;
    return true;
}

} // namespace

bool
Journal::exists() const
{
    std::error_code ec;
    return std::filesystem::exists(path_, ec);
}

JournalReplay
Journal::replay() const
{
    const std::optional<std::string> bytes = readFileBytes(path_);
    if (!bytes) {
        if (!exists())
            return {}; // never written: a valid empty journal
        throw JournalError("cannot read journal '" + path_ + "'");
    }
    return decode(*bytes);
}

JournalReplay
Journal::decode(std::string_view bytes)
{
    JournalReplay out;
    std::size_t start = 0;
    while (start < bytes.size()) {
        const std::size_t nl = bytes.find('\n', start);
        if (nl == std::string_view::npos) {
            // Torn tail: an append that never completed (or a
            // truncated copy). Dropping it is safe -- see the header.
            out.tornTail = true;
            break;
        }
        const std::string_view line = bytes.substr(start, nl - start);
        const std::size_t recordIndex = out.records.size();
        auto malformed = [&](const char *why) -> JournalError {
            return JournalError("journal record " +
                                std::to_string(recordIndex) + " at byte " +
                                std::to_string(start) + ": " + why);
        };

        const std::size_t lastComma = line.rfind(',');
        if (lastComma == std::string_view::npos)
            throw malformed("no checksum field");
        const std::string_view content = line.substr(0, lastComma);
        std::uint64_t stored = 0;
        if (!parseCrc(line.substr(lastComma + 1), stored))
            throw malformed("bad checksum field");
        if (fnv1a64(content) != stored)
            throw malformed("checksum mismatch");

        // Split the verified content into fields.
        std::vector<std::string> fields;
        std::size_t fieldStart = 0;
        for (std::size_t i = 0; i <= content.size(); ++i) {
            if (i == content.size() || content[i] == ',') {
                fields.emplace_back(
                    content.substr(fieldStart, i - fieldStart));
                fieldStart = i + 1;
            }
        }
        if (fields.size() < 2 || fields.front() != kMagic)
            throw malformed("bad record magic");
        for (const auto &field : fields) {
            if (field.empty())
                throw malformed("empty field");
        }
        fields.erase(fields.begin()); // drop the magic
        out.records.push_back(std::move(fields));
        start = nl + 1;
        out.validBytes = start;
    }
    return out;
}

void
Journal::repair(const JournalReplay &state) const
{
    if (!state.tornTail)
        return;
    if (::truncate(path_.c_str(),
                   static_cast<off_t>(state.validBytes)) != 0) {
        panic("cannot repair journal '", path_,
              "': ", std::strerror(errno));
    }
}

std::string
Journal::formatRecord(const std::vector<std::string> &fields)
{
    ACDSE_CHECK(!fields.empty(), "journal record needs fields");
    std::string content(kMagic);
    for (const auto &field : fields) {
        ACDSE_CHECK(!field.empty() &&
                        field.find_first_of(",\n\r") == std::string::npos,
                    "journal field must be non-empty and free of "
                    "commas/newlines: '", field, "'");
        content += ',';
        content += field;
    }
    return content + ',' + crcHex(content) + '\n';
}

void
Journal::append(const std::vector<std::string> &fields) const
{
    const std::string line = formatRecord(fields);
    const int fd = ::open(path_.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        panic("cannot open journal '", path_,
              "' for append: ", std::strerror(errno));
    }
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n = ::write(fd, line.data() + written,
                                  line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            panic("journal append to '", path_,
                  "' failed: ", std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    ::close(fd);
}

} // namespace acdse
