/**
 * @file
 * Little-endian binary encoding for model persistence.
 *
 * BinaryWriter serialises into an in-memory buffer; BinaryReader
 * decodes from one. Fixed-width integers and raw IEEE-754 doubles give
 * bit-exact round trips, which the serving subsystem relies on: a
 * predictor loaded from an artifact must produce predictions identical
 * to the freshly-trained one.
 *
 * sealBytes()/unsealBytes() frame an encoded payload as a file: the
 * model store's artifacts and the campaign store's blocks both go
 * through that one pair.
 *
 * Errors while *decoding* (truncated buffer, absurd lengths, a failed
 * checksum) throw SerializationError rather than panic(): corrupt input
 * files are a caller problem, and a long-running prediction server must
 * be able to reject a bad artifact without dying.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace acdse
{

/** Thrown by BinaryReader (and the artifact store) on malformed input. */
class SerializationError : public std::runtime_error
{
  public:
    explicit SerializationError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Appends little-endian encoded values to a growable byte buffer. */
class BinaryWriter
{
  public:
    /** @name Scalar encoders. */
    /** @{ */
    void u8(std::uint8_t value);
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);
    /** Raw IEEE-754 bits; round-trips every finite and non-finite value. */
    void f64(double value);
    /** @} */

    /** Length-prefixed (u64) byte string. */
    void str(const std::string &value);

    /** Length-prefixed (u64) vector of f64. */
    void f64vec(const std::vector<double> &values);

    /** The encoded bytes so far. */
    const std::string &buffer() const { return buffer_; }

  private:
    std::string buffer_;
};

/**
 * Decodes values from a byte buffer in the order they were written.
 * The reader does not own the bytes; the underlying buffer must outlive
 * it.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::string_view data) : data_(data) {}

    /** @name Scalar decoders (throw SerializationError on underflow). */
    /** @{ */
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    /** @} */

    /** Length-prefixed byte string. */
    std::string str();

    /** Length-prefixed vector of f64. */
    std::vector<double> f64vec();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data_.size() - pos_; }

    /** Whether every byte has been consumed. */
    bool exhausted() const { return remaining() == 0; }

  private:
    /** Take @p count raw bytes or throw. */
    const char *take(std::size_t count);

    std::string_view data_;
    std::size_t pos_ = 0;
};

/**
 * FNV-1a 64-bit hash -- the artifact store's content checksum. Not
 * cryptographic; detects truncation and bit rot, which is all an
 * integrity check on a local model file needs.
 */
std::uint64_t fnv1a64(std::string_view data);

/**
 * Frame @p payload as a sealed file image (all integers little-endian):
 *
 *   offset  size  field
 *        0     8  magic, naming what the payload holds
 *        8     4  format version
 *       12     8  payload size in bytes
 *       20     8  FNV-1a 64 checksum of the payload
 *       28     n  payload
 *
 * @p magic must be exactly 8 bytes.
 */
std::string sealBytes(std::string_view magic, std::uint32_t version,
                      std::string_view payload);

/**
 * The payload of a sealBytes() image, viewed inside @p bytes.
 * @p what names the expected content in error messages ("ACDSE model
 * artifact").
 * @throws SerializationError on another magic, another version, a size
 *         mismatch (truncated or padded) or a checksum mismatch.
 */
std::string_view unsealBytes(std::string_view bytes,
                             std::string_view magic,
                             std::uint32_t version,
                             std::string_view what);

/** A whole file's bytes; nullopt when it cannot be opened. */
std::optional<std::string> readFileBytes(const std::string &path);

} // namespace acdse

