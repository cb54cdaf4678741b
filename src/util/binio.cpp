#include "util/binio.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "util/faultpoint.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace kb {

std::uint64_t
fnv1a64(std::span<const std::uint8_t> bytes)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull; // FNV prime
    }
    return h;
}

std::string
toHex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
fromHex16(const std::string &hex, std::uint64_t &out)
{
    if (hex.size() != 16)
        return false;
    std::uint64_t bits = 0;
    for (const char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    out = bits;
    return true;
}

void
ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
ByteWriter::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (const auto x : v)
        u64(x);
}

bool
ByteReader::take(std::size_t n)
{
    if (!ok_ || bytes_.size() - pos_ < n) {
        ok_ = false;
        return false;
    }
    return true;
}

std::uint8_t
ByteReader::u8()
{
    if (!take(1))
        return 0;
    return bytes_[pos_++];
}

std::uint32_t
ByteReader::u32()
{
    if (!take(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    if (!take(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint64_t n = u64();
    require(n <= kMaxLength);
    if (!take(static_cast<std::size_t>(ok_ ? n : 0)) || !ok_)
        return {};
    std::string s(reinterpret_cast<const char *>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

std::vector<std::uint64_t>
ByteReader::vecU64()
{
    const std::uint64_t n = u64();
    require(n <= kMaxLength / 8);
    if (!ok_ || !take(static_cast<std::size_t>(n) * 8))
        return {};
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return in.good() || in.eof();
}

bool
writeFileAtomic(const std::string &path, std::span<const std::uint8_t> bytes)
{
    namespace fs = std::filesystem;
    if (faultArmed("delay-write-ms")) {
        const std::uint64_t ms = faultValue("delay-write-ms", 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    if (faultFireFrom("enospc-at-write")) {
        errno = ENOSPC;
        return false;
    }
    // The temp name carries the pid so concurrent writers (shards,
    // parallel invocations) never collide on it.
    const std::string tmp =
        path + ".tmp" +
        std::to_string(static_cast<unsigned long>(::getpid()));
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out.good()) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

FileLock::FileLock(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0)
        return;
    if (::flock(fd_, LOCK_EX) != 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

FileLock::~FileLock()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

} // namespace kb
