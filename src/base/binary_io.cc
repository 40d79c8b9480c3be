#include "base/binary_io.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "base/check.hh"

namespace acdse
{

namespace
{

/** Hard cap on length prefixes: a corrupt length must not OOM us. */
constexpr std::uint64_t kMaxLength = 1ull << 32;

/** Bytes of a sealed image before its payload. */
constexpr std::size_t kSealMagicBytes = 8;
constexpr std::size_t kSealHeaderBytes = kSealMagicBytes + 4 + 8 + 8;

} // namespace

void
BinaryWriter::u8(std::uint8_t value)
{
    buffer_.push_back(static_cast<char>(value));
}

void
BinaryWriter::u32(std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void
BinaryWriter::u64(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void
BinaryWriter::f64(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
BinaryWriter::str(const std::string &value)
{
    u64(value.size());
    buffer_.append(value);
}

void
BinaryWriter::f64vec(const std::vector<double> &values)
{
    u64(values.size());
    for (double v : values)
        f64(v);
}

const char *
BinaryReader::take(std::size_t count)
{
    if (count > remaining())
        throw SerializationError("truncated input: wanted " +
                                 std::to_string(count) + " bytes, have " +
                                 std::to_string(remaining()));
    const char *out = data_.data() + pos_;
    pos_ += count;
    return out;
}

std::uint8_t
BinaryReader::u8()
{
    return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t
BinaryReader::u32()
{
    const char *bytes = take(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    return value;
}

std::uint64_t
BinaryReader::u64()
{
    const char *bytes = take(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    return value;
}

double
BinaryReader::f64()
{
    const std::uint64_t bits = u64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
BinaryReader::str()
{
    const std::uint64_t size = u64();
    if (size > kMaxLength)
        throw SerializationError("implausible string length");
    return std::string(take(static_cast<std::size_t>(size)),
                       static_cast<std::size_t>(size));
}

std::vector<double>
BinaryReader::f64vec()
{
    const std::uint64_t size = u64();
    if (size > kMaxLength / sizeof(double))
        throw SerializationError("implausible vector length");
    std::vector<double> values(static_cast<std::size_t>(size));
    for (auto &v : values)
        v = f64();
    return values;
}

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
sealBytes(std::string_view magic, std::uint32_t version,
          std::string_view payload)
{
    ACDSE_CHECK(magic.size() == kSealMagicBytes,
                "a sealed image's magic is 8 bytes");
    std::string bytes(magic);
    BinaryWriter header;
    header.u32(version);
    header.u64(payload.size());
    header.u64(fnv1a64(payload));
    bytes += header.buffer();
    bytes += payload;
    return bytes;
}

std::string_view
unsealBytes(std::string_view bytes, std::string_view magic,
            std::uint32_t version, std::string_view what)
{
    ACDSE_CHECK(magic.size() == kSealMagicBytes,
                "a sealed image's magic is 8 bytes");
    const std::string name(what);
    if (bytes.size() < kSealHeaderBytes)
        throw SerializationError(name + " too small to hold a header");
    if (bytes.substr(0, kSealMagicBytes) != magic)
        throw SerializationError("bad magic: not an " + name);

    BinaryReader header(bytes.substr(kSealMagicBytes));
    const std::uint32_t found = header.u32();
    if (found != version)
        throw SerializationError(
            "unsupported " + name + " version " + std::to_string(found) +
            " (this build reads version " + std::to_string(version) +
            ")");
    const std::uint64_t size = header.u64();
    const std::uint64_t checksum = header.u64();

    const std::string_view payload = bytes.substr(kSealHeaderBytes);
    if (payload.size() != size)
        throw SerializationError(
            name + " payload size mismatch (truncated or padded file)");
    if (fnv1a64(payload) != checksum)
        throw SerializationError(name +
                                 " checksum mismatch (corrupt file)");
    return payload;
}

std::optional<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace acdse
