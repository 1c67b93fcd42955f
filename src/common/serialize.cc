/**
 * @file
 * Checkpoint container format implementation.  See serialize.hh for
 * the on-disk layout; everything here is strict-on-load.
 *
 * atomicWriteFile is the common layer's durable-write primitive, so
 * this file (like serve/io) legitimately owns raw EINTR loops and
 * errno save/restore around open/write/fsync/rename:
 * mopac-lint: allow-file(io-errno)
 *
 * The serve supervisor reaches atomicWriteFile/readFileBytes when it
 * persists snapshots and result-store entries.  That is deliberate:
 * these are bounded local-disk transfers with structured error
 * reporting, the exact discipline serve/io enforces for its own
 * descriptors -- not an unbounded socket/pipe wait the serve-reach
 * closure exists to catch:
 * mopac-lint: allow-file(serve-reach)
 */

#include "serialize.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <mutex>

#include "common/format.hh"

namespace mopac
{

namespace
{

constexpr std::array<std::uint8_t, 8> kMagic = {'M', 'O', 'P', 'A',
                                               'C', 'S', 'E', 'R'};

/** Header: magic + version + kind + config hash + payload size. */
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

/** Trailer: CRC32 over header + payload. */
constexpr std::size_t kTrailerSize = 4;

void
appendLe(std::vector<std::uint8_t> &buf, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint64_t
readLe(const std::uint8_t *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

[[noreturn]] void
corrupt(const std::string &what)
{
    throw SerializeError("corrupt checkpoint data: " + what);
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    // Table-less bitwise CRC32 (reflected 0xEDB88320); checkpoint
    // files are small enough that throughput is irrelevant next to
    // the simulation itself.
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b) {
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
        }
    }
    return ~crc;
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// Serializer

void
Serializer::begin(std::uint32_t tag)
{
    appendLe(buf_, tag, 4);
    open_.push_back(buf_.size());
    appendLe(buf_, 0, 4); // Length placeholder, patched by end().
}

void
Serializer::end()
{
    if (open_.empty()) {
        throw SerializeError("Serializer::end with no open section");
    }
    const std::size_t at = open_.back();
    open_.pop_back();
    const std::size_t len = buf_.size() - (at + 4);
    if (len > 0xFFFFFFFFull) {
        throw SerializeError("checkpoint section exceeds 4 GiB");
    }
    for (unsigned i = 0; i < 4; ++i) {
        buf_[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
}

void
Serializer::putU8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
Serializer::putU32(std::uint32_t v)
{
    appendLe(buf_, v, 4);
}

void
Serializer::putU64(std::uint64_t v)
{
    appendLe(buf_, v, 8);
}

void
Serializer::putF64(double v)
{
    appendLe(buf_, std::bit_cast<std::uint64_t>(v), 8);
}

void
Serializer::putStr(const std::string &s)
{
    if (s.size() > 0xFFFFFFFFull) {
        throw SerializeError("checkpoint string exceeds 4 GiB");
    }
    putU32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
Serializer::putVecU8(const std::vector<std::uint8_t> &v)
{
    putU64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
Serializer::putVecU32(const std::vector<std::uint32_t> &v)
{
    putU64(v.size());
    for (const std::uint32_t x : v) {
        putU32(x);
    }
}

void
Serializer::putVecU64(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    for (const std::uint64_t x : v) {
        putU64(x);
    }
}

std::vector<std::uint8_t>
Serializer::finish(FileKind kind, std::uint64_t config_hash) const
{
    if (!open_.empty()) {
        throw SerializeError("Serializer::finish with open sections");
    }
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + buf_.size() + kTrailerSize);
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    appendLe(out, kSerializeVersion, 4);
    appendLe(out, static_cast<std::uint32_t>(kind), 4);
    appendLe(out, config_hash, 8);
    appendLe(out, buf_.size(), 8);
    out.insert(out.end(), buf_.begin(), buf_.end());
    appendLe(out, crc32(out.data(), out.size()), 4);
    return out;
}

// ---------------------------------------------------------------------
// Deserializer

Deserializer::Deserializer(std::vector<std::uint8_t> image,
                           FileKind kind,
                           std::uint64_t expected_config_hash)
    : image_(std::move(image))
{
    if (image_.size() < kHeaderSize + kTrailerSize) {
        corrupt(format("file too small ({} bytes)", image_.size()));
    }
    if (!std::equal(kMagic.begin(), kMagic.end(), image_.begin())) {
        corrupt("bad magic (not a MOPAC checkpoint file)");
    }
    const std::uint8_t *hdr = image_.data() + kMagic.size();
    const auto version = static_cast<std::uint32_t>(readLe(hdr, 4));
    if (version != kSerializeVersion) {
        corrupt(format("format version {} (this build reads {})",
                       version, kSerializeVersion));
    }
    const auto file_kind = static_cast<std::uint32_t>(readLe(hdr + 4, 4));
    if (file_kind != static_cast<std::uint32_t>(kind)) {
        corrupt(format("file kind {} where {} expected", file_kind,
                       static_cast<std::uint32_t>(kind)));
    }
    config_hash_ = readLe(hdr + 8, 8);
    const std::uint64_t payload_size = readLe(hdr + 16, 8);
    if (payload_size != image_.size() - kHeaderSize - kTrailerSize) {
        corrupt(format("declared payload {} bytes, file carries {}",
                       payload_size,
                       image_.size() - kHeaderSize - kTrailerSize));
    }
    const std::uint32_t stored = static_cast<std::uint32_t>(
        readLe(image_.data() + image_.size() - kTrailerSize, 4));
    const std::uint32_t actual =
        crc32(image_.data(), image_.size() - kTrailerSize);
    if (stored != actual) {
        corrupt(format("CRC32 mismatch (stored 0x{:x}, computed 0x{:x})",
                       stored, actual));
    }
    if (expected_config_hash != kAnyConfigHash &&
        config_hash_ != expected_config_hash) {
        corrupt(format("config hash 0x{:x} does not match the current "
                       "configuration (0x{:x}); the file was produced "
                       "by a different config",
                       config_hash_, expected_config_hash));
    }
    pos_ = kHeaderSize;
    payload_end_ = image_.size() - kTrailerSize;
}

void
Deserializer::need(std::size_t n) const
{
    const std::size_t limit =
        limits_.empty() ? payload_end_ : limits_.back();
    if (pos_ + n > limit) {
        corrupt(format("truncated field (need {} bytes at offset {}, "
                       "section ends at {})",
                       n, pos_, limit));
    }
}

void
Deserializer::begin(std::uint32_t tag)
{
    need(8);
    const auto got =
        static_cast<std::uint32_t>(readLe(image_.data() + pos_, 4));
    if (got != tag) {
        corrupt(format("section tag 0x{:x} where 0x{:x} expected", got,
                       tag));
    }
    const auto len =
        static_cast<std::uint32_t>(readLe(image_.data() + pos_ + 4, 4));
    pos_ += 8;
    need(len);
    limits_.push_back(pos_ + len);
}

void
Deserializer::end()
{
    if (limits_.empty()) {
        corrupt("section end with no open section");
    }
    if (pos_ != limits_.back()) {
        corrupt(format("section has {} unconsumed bytes",
                       limits_.back() - pos_));
    }
    limits_.pop_back();
}

std::uint8_t
Deserializer::getU8()
{
    need(1);
    return image_[pos_++];
}

std::uint32_t
Deserializer::getU32()
{
    need(4);
    const auto v =
        static_cast<std::uint32_t>(readLe(image_.data() + pos_, 4));
    pos_ += 4;
    return v;
}

std::uint64_t
Deserializer::getU64()
{
    need(8);
    const std::uint64_t v = readLe(image_.data() + pos_, 8);
    pos_ += 8;
    return v;
}

double
Deserializer::getF64()
{
    return std::bit_cast<double>(getU64());
}

std::string
Deserializer::getStr()
{
    const std::uint32_t len = getU32();
    need(len);
    // uint8_t -> char is value-preserving modulo 2^8, so the iterator
    // range constructor sidesteps the reinterpret_cast an in-place
    // pointer view would need.
    const auto begin =
        image_.begin() + static_cast<std::ptrdiff_t>(pos_);
    std::string s(begin, begin + len);
    pos_ += len;
    return s;
}

std::vector<std::uint8_t>
Deserializer::getVecU8()
{
    const std::uint64_t n = getU64();
    if (n > image_.size()) {
        corrupt(format("vector length {} exceeds file size", n));
    }
    need(n);
    std::vector<std::uint8_t> v(image_.begin() + pos_,
                                image_.begin() + pos_ + n);
    pos_ += n;
    return v;
}

std::vector<std::uint32_t>
Deserializer::getVecU32()
{
    const std::uint64_t n = getU64();
    if (n > image_.size() / 4) { // Overflow-safe bound before need().
        corrupt(format("vector length {} exceeds file size", n));
    }
    need(n * 4);
    std::vector<std::uint32_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(getU32());
    }
    return v;
}

std::vector<std::uint64_t>
Deserializer::getVecU64()
{
    const std::uint64_t n = getU64();
    if (n > image_.size() / 8) {
        corrupt(format("vector length {} exceeds file size", n));
    }
    need(n * 8);
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(getU64());
    }
    return v;
}

void
Deserializer::finish() const
{
    if (!limits_.empty()) {
        corrupt("finish with open sections");
    }
    if (pos_ != payload_end_) {
        corrupt(format("{} trailing payload bytes",
                       payload_end_ - pos_));
    }
}

// ---------------------------------------------------------------------
// File I/O

namespace
{

[[noreturn]] void
ioError(const std::string &op, const std::string &path)
{
    throw SerializeError(
        format("{} '{}': {}", op, path, std::strerror(errno)));
}

/** fsync the directory containing @p path (durability of rename). */
void
syncDirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
        ioError("cannot open directory of", path);
    }
    if (::fsync(dfd) != 0) {
        const int e = errno;
        ::close(dfd);
        errno = e;
        ioError("cannot fsync directory of", path);
    }
    ::close(dfd);
}

std::mutex write_fault_mutex;
std::function<void(const std::string &)> write_fault_hook;

} // namespace

void
setWriteFaultHook(std::function<void(const std::string &)> hook)
{
    const std::lock_guard<std::mutex> lock(write_fault_mutex);
    write_fault_hook = std::move(hook);
}

void
atomicWriteFile(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    // Fault-injection drill first: a hook that throws here simulates
    // ENOSPC before a single byte lands, so callers exercise their
    // write-failure paths against a disk that is actually fine.
    std::function<void(const std::string &)> hook;
    {
        const std::lock_guard<std::mutex> lock(write_fault_mutex);
        hook = write_fault_hook;
    }
    if (hook) {
        hook(path);
    }
    // The temporary lives in the target directory (rename must not
    // cross filesystems) and carries the pid so concurrent writers of
    // *different* targets never collide on scratch names.
    const std::string tmp =
        format("{}.tmp.{}", path, static_cast<long>(::getpid()));
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        ioError("cannot create", tmp);
    }
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            const int e = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            errno = e;
            ioError("cannot write", tmp);
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int e = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        errno = e;
        ioError("cannot fsync", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        ioError("cannot close", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int e = errno;
        ::unlink(tmp.c_str());
        errno = e;
        ioError("cannot rename into place", path);
    }
    syncDirOf(path);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        ioError("cannot open", path);
    }
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, 65536> chunk;
    for (;;) {
        const ssize_t n = ::read(fd, chunk.data(), chunk.size());
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            const int e = errno;
            ::close(fd);
            errno = e;
            ioError("cannot read", path);
        }
        if (n == 0) {
            break;
        }
        bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + n);
    }
    ::close(fd);
    return bytes;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

} // namespace mopac
