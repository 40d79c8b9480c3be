#include "base/json.hh"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return; // the colon was already written by key()
    }
    if (!firstInScope_.empty()) {
        if (!firstInScope_.back())
            out_ += ',';
        firstInScope_.back() = false;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    ACDSE_CHECK(!firstInScope_.empty() && !afterKey_,
                "endObject without a matching beginObject");
    firstInScope_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    ACDSE_CHECK(!firstInScope_.empty() && !afterKey_,
                "endArray without a matching beginArray");
    firstInScope_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    ACDSE_CHECK(!firstInScope_.empty() && !afterKey_,
                "key() outside an object");
    separate();
    out_ += '"';
    appendEscaped(name);
    out_ += "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    ACDSE_CHECK(std::isfinite(number),
                "JSON cannot represent a non-finite number");
    separate();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    out_ += '"';
    appendEscaped(text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

void
JsonWriter::appendEscaped(std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\t':
            out_ += "\\t";
            break;
          case '\r':
            out_ += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
}

const std::string &
JsonWriter::str() const
{
    ACDSE_CHECK(firstInScope_.empty() && !afterKey_,
                "JSON document has unclosed scopes");
    return out_;
}

namespace
{

/**
 * `<path>.tmp.<pid>.<n>`, where n counts every call in this process:
 * two processes, or two threads of one process, writing the same path
 * never share a temporary, so each rename() publishes one whole write.
 */
std::string
uniqueTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> sequence{0};
    std::ostringstream name;
    name << path << ".tmp." << ::getpid() << '.'
         << sequence.fetch_add(1, std::memory_order_relaxed);
    return name.str();
}

} // namespace

void
writeTextAtomic(const std::string &path, std::string_view content)
{
    const std::string tmp = uniqueTempPath(path);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            panic("cannot open '", tmp, "' for writing");
        os.write(content.data(),
                 static_cast<std::streamsize>(content.size()));
        os.flush();
        if (!os)
            panic("failed while writing '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        panic("cannot rename '", tmp, "' to '", path, "'");
    }
}

} // namespace acdse
