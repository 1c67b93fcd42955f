/**
 * @file
 * Versioned, checksummed binary serialization for checkpoint files.
 *
 * Every on-disk artifact of the crash-recovery subsystem (System
 * snapshots and result-store entries) shares one container format:
 *
 *   +------------------------------------------------------------+
 *   | magic "MOPACSER" (8 bytes)                                 |
 *   | u32 format version                                         |
 *   | u32 file kind (snapshot / store entry)                     |
 *   | u64 config hash (FNV-1a of the producing configuration)    |
 *   | u64 payload size in bytes                                  |
 *   | payload: nested tagged sections of little-endian fields    |
 *   | u32 CRC32 over everything above                            |
 *   +------------------------------------------------------------+
 *
 * The payload is a tree of sections; each section is a u32 tag plus a
 * u32 byte length, so a reader can verify it is consuming exactly the
 * fields the writer produced.  Loading is strict: any size mismatch,
 * tag mismatch, truncation, trailing garbage, foreign magic/kind,
 * version skew, config-hash skew, or CRC failure raises a structured
 * SerializeError -- never undefined behaviour, never silently partial
 * state.  All reads are bounds-checked against the declared payload
 * size before touching memory.
 *
 * A class describes its snapshot state once, in one body that both
 * archives run:
 *
 *   template <class Self, class Ar>
 *   static void transfer(Self &self, Ar &ar);
 *
 * The Serializer runs it with Self = const T and reads each field;
 * the Deserializer runs it with Self = T and assigns each field.
 * Field order, widths and section tags are then written down once and
 * the two directions cannot drift apart.  Load-only work (validation,
 * rebuilding derived state) sits behind `if constexpr (Ar::kLoading)`
 * or a plain `if (Ar::kLoading && ...)`.
 */

#ifndef MOPAC_COMMON_SERIALIZE_HH
#define MOPAC_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mopac
{

/** An integer or enum converted to or from a field no narrower. */
template <class To, class From>
constexpr To
fieldCast(From v)
{
    static_assert(std::is_integral_v<To> || std::is_enum_v<To>);
    static_assert(std::is_integral_v<From> || std::is_enum_v<From>);
    static_assert(sizeof(From) <= sizeof(To), "narrowing field");
    return static_cast<To>(v);
}

/** Current checkpoint container format version. */
constexpr std::uint32_t kSerializeVersion = 1;

/** What a checkpoint container holds (header `kind` field). */
enum class FileKind : std::uint32_t
{
    kSnapshot = 1,       //!< Full sim::System state snapshot.
    kCacheEntry = 5,     //!< One ResultStore entry (finished point).
};

/**
 * Structured load/store failure: corrupt, truncated, foreign, or
 * mismatched checkpoint data, or an I/O error while reading/writing
 * it.  Deliberately NOT a SimError: serialization problems must be
 * distinguishable from simulator faults even inside an ErrorTrap.
 */
class SerializeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of @p data. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** FNV-1a 64-bit hash of a string (config fingerprinting). */
std::uint64_t fnv1a64(const std::string &text);

/**
 * Accumulates a payload of tagged sections and little-endian fields,
 * then seals it into a complete container file image.
 */
class Serializer
{
  public:
    Serializer() = default;

    /** Open a nested section with the given tag. */
    void begin(std::uint32_t tag);

    /** Close the innermost open section (patches its byte length). */
    void end();

    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);

    /** Doubles round-trip bit-exactly via their IEEE-754 image. */
    void putF64(double v);

    /** Length-prefixed UTF-8/byte string. */
    void putStr(const std::string &s);

    void putVecU8(const std::vector<std::uint8_t> &v);
    void putVecU32(const std::vector<std::uint32_t> &v);
    void putVecU64(const std::vector<std::uint64_t> &v);

    // The transfer surface: each method writes its argument.
    static constexpr bool kLoading = false;

    template <class T> void u8(const T &v) { putU8(fieldCast<std::uint8_t>(v)); }
    template <class T> void u32(const T &v) { putU32(fieldCast<std::uint32_t>(v)); }
    template <class T> void u64(const T &v) { putU64(fieldCast<std::uint64_t>(v)); }
    void f64(const double &v) { putF64(v); }
    void flag(const bool &v) { putU8(v ? 1 : 0); }
    void str(const std::string &v) { putStr(v); }
    void vecU8(const std::vector<std::uint8_t> &v) { putVecU8(v); }
    void vecU32(const std::vector<std::uint32_t> &v) { putVecU32(v); }
    void vecU64(const std::vector<std::uint64_t> &v) { putVecU64(v); }

    /**
     * Seal the payload into a full container image (header + payload
     * + CRC trailer).  All sections must be closed.
     */
    std::vector<std::uint8_t> finish(FileKind kind,
                                     std::uint64_t config_hash) const;

  private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_; //!< Offsets of unpatched lengths.
};

/**
 * Strict reader over a container image.  The constructor validates
 * the envelope (magic, version, kind, config hash, payload size,
 * CRC32) before any field access; every field read is bounds-checked.
 */
class Deserializer
{
  public:
    /**
     * Parse and validate @p image.
     *
     * @param image Complete file bytes.
     * @param kind Expected file kind; mismatch throws.
     * @param expected_config_hash Producing config's hash; a mismatch
     *        throws (pass kAnyConfigHash to skip, e.g. when probing).
     */
    Deserializer(std::vector<std::uint8_t> image, FileKind kind,
                 std::uint64_t expected_config_hash);

    /** Sentinel: accept any config hash (inspection/probing). */
    static constexpr std::uint64_t kAnyConfigHash = ~0ull;

    /** Config hash stored in the header. */
    std::uint64_t configHash() const { return config_hash_; }

    /** Enter a section; throws unless the next tag is @p tag. */
    void begin(std::uint32_t tag);

    /**
     * Leave the innermost section; throws if it was not consumed
     * exactly (trailing bytes mean writer/reader disagree).
     */
    void end();

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    double getF64();
    std::string getStr();

    std::vector<std::uint8_t> getVecU8();
    std::vector<std::uint32_t> getVecU32();
    std::vector<std::uint64_t> getVecU64();

    // The transfer surface: each method assigns its argument.
    static constexpr bool kLoading = true;

    template <class T> void u8(T &v) { v = fieldCast<T>(getU8()); }
    template <class T> void u32(T &v) { v = fieldCast<T>(getU32()); }
    template <class T> void u64(T &v) { v = fieldCast<T>(getU64()); }
    void f64(double &v) { v = getF64(); }
    void flag(bool &v) { v = getU8() != 0; }
    void str(std::string &v) { v = getStr(); }
    void vecU8(std::vector<std::uint8_t> &v) { v = getVecU8(); }
    void vecU32(std::vector<std::uint32_t> &v) { v = getVecU32(); }
    void vecU64(std::vector<std::uint64_t> &v) { v = getVecU64(); }

    /** Throws unless every payload byte has been consumed. */
    void finish() const;

  private:
    void need(std::size_t n) const;

    std::vector<std::uint8_t> image_;
    std::size_t pos_ = 0;        //!< Cursor within the payload.
    std::size_t payload_end_ = 0;
    std::uint64_t config_hash_ = 0;
    std::vector<std::size_t> limits_; //!< End offsets of open sections.
};

/**
 * Transfer @p obj through its virtual saveState/loadState pair (a
 * polymorphic member: a mitigation engine, a trace source).
 */
template <class T, class Ar>
void
transferVirtual(T &obj, Ar &ar)
{
    if constexpr (Ar::kLoading) {
        obj.loadState(ar);
    } else {
        obj.saveState(ar);
    }
}

/**
 * A u32 written from the live object that a load must find unchanged:
 * a differing saved value throws "@p what mismatch (saved N, live M)".
 */
template <class Ar>
void
matchU32(Ar &ar, std::uint32_t live, const char *what)
{
    std::uint32_t saved = live;
    ar.u32(saved);
    if (Ar::kLoading && saved != live) {
        throw SerializeError(std::string(what) + " mismatch (saved " +
                             std::to_string(saved) + ", live " +
                             std::to_string(live) + ")");
    }
}

/**
 * A u32 element count, then every element of @p v through @p each.
 * A load rejects a count above @p cap ("@p what occupancy N exceeds
 * capacity C") and resizes @p v to the count first.
 */
template <class Ar, class V, class Fn>
void
transferBounded(Ar &ar, V &v, std::size_t cap, const char *what,
                Fn &&each)
{
    auto n = static_cast<std::uint32_t>(v.size());
    ar.u32(n);
    if constexpr (Ar::kLoading) {
        if (n > cap) {
            throw SerializeError(std::string(what) + " occupancy " +
                                 std::to_string(n) +
                                 " exceeds capacity " +
                                 std::to_string(cap));
        }
        v.resize(n);
    }
    for (auto &e : v) {
        each(e);
    }
}

/**
 * Explicitly instantiate @p Cls::transfer for both archives, in the
 * .cc file that defines it.
 */
#define MOPAC_TRANSFER_INSTANTIATE(Cls)                                  \
    template void Cls::transfer(const Cls &, ::mopac::Serializer &);    \
    template void Cls::transfer(Cls &, ::mopac::Deserializer &)

/**
 * Crash-safe file write: the bytes are written to a temporary sibling,
 * fsync()ed, atomically rename()d over @p path, and the containing
 * directory is fsync()ed so the rename itself is durable.  A reader
 * (or a crash at any instant) sees either the old file or the new one,
 * never a torn write.  Throws SerializeError on any I/O failure.
 */
void atomicWriteFile(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/**
 * Fault-injection hook for tests and chaos drills: invoked with the
 * destination path at the top of every atomicWriteFile, before any
 * byte reaches the disk.  A hook that throws SerializeError simulates
 * a full disk (ENOSPC) without real pressure (the brownout tests and
 * chaos_soak's full-disk drill install exactly that).  Pass an empty
 * function to uninstall.  Thread-safe.
 */
void setWriteFaultHook(
    std::function<void(const std::string &path)> hook);

/** Read a whole file; throws SerializeError on I/O failure. */
std::vector<std::uint8_t> readFileBytes(const std::string &path);

/** True if @p path exists and is a regular file. */
bool fileExists(const std::string &path);

} // namespace mopac

#endif // MOPAC_COMMON_SERIALIZE_HH
