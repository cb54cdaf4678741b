/**
 * @file
 * Binary serialization helpers for the on-disk curve store.
 *
 * The store's entries must survive process restarts and host moves,
 * so the codec is explicit about layout: little-endian fixed-width
 * integers, length-prefixed strings and vectors, nothing
 * implementation-defined (no raw struct dumps). ByteWriter appends to
 * a growable buffer; ByteReader walks a byte span with bounds checks
 * and latches a failure flag instead of throwing — a truncated or
 * corrupt file must parse to "reject this entry", never to UB or an
 * abort (see curve_store.hpp for the file format built on top).
 *
 * fnv1a64() provides the content hash used both for the store's
 * content-addressed file names and for the end-of-file checksum.
 *
 * The file-level primitives the store's tier 2 is built on live here
 * too: whole-file reads, atomic replace-by-rename writes, and an
 * advisory whole-file lock (flock). They are plain
 * syscall wrappers with no store knowledge, so the concurrency tests
 * can exercise them directly.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace kb {

/** FNV-1a 64-bit hash of @p bytes (checksums, content addressing). */
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/** @p v as exactly 16 lowercase hex digits (store file names, shard
 *  signatures, bit-exact doubles in fragments). */
std::string toHex16(std::uint64_t v);

/** Inverse of toHex16: false unless @p hex is exactly 16 lowercase
 *  hex digits. */
bool fromHex16(const std::string &hex, std::uint64_t &out);

/** Whole-file read into @p out; false on a missing file or any I/O
 *  error (the two are indistinguishable on purpose: both mean "no
 *  usable entry"). */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out);

/**
 * Atomically publish @p bytes at @p path: write a temp file in the
 * same directory and rename it over @p path (last writer wins,
 * readers never see a torn file). False on any I/O failure (ENOSPC,
 * EACCES, torn temp, ...).
 *
 * Honors the `delay-write-ms` and `enospc-at-write` fault points
 * (util/faultpoint.hpp), so full-disk recovery paths are testable.
 */
bool writeFileAtomic(const std::string &path,
                     std::span<const std::uint8_t> bytes);

/**
 * RAII advisory exclusive lock on @p path (flock(2), auto-created,
 * auto-released on destruction or process death — a crashed holder
 * never wedges the lock). Used to make tier-2 read-merge-write
 * sequences atomic across processes. held() is false when the lock
 * file could not be opened; callers degrade to lock-free behavior.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path);
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/** Appends little-endian primitives to a byte buffer. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);

    /** Length-prefixed (u64) raw string bytes. */
    void str(const std::string &s);

    /** Length-prefixed (u64) vector of u64. */
    void vecU64(const std::vector<std::uint64_t> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a byte span. Every read past the end (or
 * any failed sanity check via require()) latches ok() to false and
 * returns a zero value; callers check ok() once at the end instead of
 * per field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::string str();
    std::vector<std::uint64_t> vecU64();

    /** Latch a failure from a caller-side sanity check. */
    void
    require(bool cond)
    {
        ok_ = ok_ && cond;
    }

    bool ok() const { return ok_; }
    /** True iff every byte was consumed (and no read failed). */
    bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
    std::size_t position() const { return pos_; }

  private:
    /// Sanity cap on length prefixes: a corrupt length must fail the
    /// read, not attempt a multi-gigabyte allocation.
    static constexpr std::uint64_t kMaxLength = 1ull << 32;

    bool take(std::size_t n);

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace kb
