/**
 * @file
 * Minimal little-endian binary serialization for checkpoint snapshots.
 *
 * Deliberately tiny and explicit: every field of simulator state is
 * written with a fixed width and read back with a bounds check, so a
 * truncated or overrun snapshot surfaces as a typed CkptTruncatedError
 * instead of reading garbage.  Floating-point values travel as their
 * IEEE-754 bit patterns, which makes round-trips bit-exact — the
 * resume tests compare RunMetrics doubles with operator== on purpose.
 *
 * Each serialized type writes its wire format down once, in a
 * direction-agnostic body (DESIGN.md §7, "Serde convention"):
 *
 *     template <class Self, class Ar>
 *     static void serde(Self &self, Ar &ar);
 *
 * Saving instantiates it with Self = const T and Ar = Serializer;
 * loading with Self = T and Ar = Deserializer.  Both archives spell
 * every primitive the same way (`ar.u64(self._field)`), and
 * `Ar::kLoading` gates load-only validation and the rebuild of
 * derived state.
 */

#ifndef SBORAM_CKPT_SERDE_HH
#define SBORAM_CKPT_SERDE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/Errors.hh"

namespace sboram {
namespace ckpt {

/** FNV-1a over a byte range; used for config/point fingerprints. */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len,
      std::uint64_t seed = 0xcbf29ce484222325ULL)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Appends fixed-width little-endian fields to a byte buffer. */
class Serializer
{
  public:
    static constexpr bool kLoading = false;

    void u8(std::uint8_t v) { _bytes.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            _bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            _bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        _bytes.insert(_bytes.end(), s.begin(), s.end());
    }

    void
    bytes(const std::uint8_t *data, std::size_t len)
    {
        _bytes.insert(_bytes.end(), data, data + len);
    }

    void
    vecU8(const std::vector<std::uint8_t> &v)
    {
        u64(v.size());
        _bytes.insert(_bytes.end(), v.begin(), v.end());
    }

    void
    vecU32(const std::vector<std::uint32_t> &v)
    {
        u64(v.size());
        for (std::uint32_t x : v)
            u32(x);
    }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    /** A bool or enum field that travels as one byte. */
    template <class T>
    void
    u8As(const T &v)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    /** Count-prefixed sequence; @p fn writes one element. */
    template <class C, class Fn>
    void
    seq(const C &c, Fn &&fn)
    {
        u64(c.size());
        for (const auto &e : c)
            fn(e);
    }

    /** A member object with its own saveState/loadState pair. */
    template <class T>
    void
    nested(const T &obj)
    {
        obj.saveState(*this);
    }

    const std::vector<std::uint8_t> &buffer() const { return _bytes; }
    std::vector<std::uint8_t> take() { return std::move(_bytes); }

  private:
    std::vector<std::uint8_t> _bytes;
};

/**
 * Bounds-checked reader over a serialized byte range.  Does not own
 * the bytes; the snapshot payload must outlive it.
 */
class Deserializer
{
  public:
    static constexpr bool kLoading = true;

    Deserializer(const std::uint8_t *data, std::size_t len)
        : _data(data), _len(len) {}

    // By-reference spellings, matching the Serializer's, for the
    // shared serde bodies.  The value-returning reads below stay for
    // callers that decode a field without a destination object.
    void u8(std::uint8_t &v) { v = u8(); }
    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &v) { v = str(); }
    void vecU8(std::vector<std::uint8_t> &v) { v = vecU8(); }
    void vecU32(std::vector<std::uint32_t> &v) { v = vecU32(); }
    void vecU64(std::vector<std::uint64_t> &v) { v = vecU64(); }

    /** A bool or enum field that travels as one byte. */
    template <class T>
    void
    u8As(T &v)
    {
        v = static_cast<T>(u8());
    }

    /**
     * Count-prefixed sequence: resizes @p c to the stored count, then
     * @p fn reads each element in place.  Every element occupies at
     * least one byte, so a count beyond the bytes left is a truncated
     * snapshot, rejected before the resize.
     */
    template <class C, class Fn>
    void
    seq(C &c, Fn &&fn)
    {
        const std::uint64_t n = u64();
        if (n > remaining())
            need(_len);  // Guaranteed to throw CkptTruncatedError.
        c.clear();
        c.resize(static_cast<std::size_t>(n));
        for (auto &e : c)
            fn(e);
    }

    /** A member object with its own saveState/loadState pair. */
    template <class T>
    void
    nested(T &obj)
    {
        obj.loadState(*this);
    }

    std::uint8_t
    u8()
    {
        need(1);
        return _data[_pos++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(_data[_pos + i]) << (8 * i);
        _pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(_data[_pos + i]) << (8 * i);
        _pos += 8;
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(_data + _pos),
                      static_cast<std::size_t>(n));
        _pos += static_cast<std::size_t>(n);
        return s;
    }

    void
    bytes(std::uint8_t *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, _data + _pos, len);
        _pos += len;
    }

    std::vector<std::uint8_t>
    vecU8()
    {
        std::uint64_t n = u64();
        need(n);
        std::vector<std::uint8_t> v(_data + _pos, _data + _pos + n);
        _pos += static_cast<std::size_t>(n);
        return v;
    }

    std::vector<std::uint32_t>
    vecU32()
    {
        // Divide rather than multiply: a hostile length must not
        // wrap the bounds check or reach reserve().
        std::uint64_t n = u64();
        if (n > (_len - _pos) / 4)
            need(_len);  // Guaranteed to throw CkptTruncatedError.
        std::vector<std::uint32_t> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(u32());
        return v;
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::uint64_t n = u64();
        if (n > (_len - _pos) / 8)
            need(_len);  // Guaranteed to throw CkptTruncatedError.
        std::vector<std::uint64_t> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(u64());
        return v;
    }

    /**
     * Advance past @p n bytes without decoding them.  The explicit
     * alternative to calling a read helper and discarding the result,
     * which sblint's `unchecked-serde` rule rejects: a skip states
     * the intent (and the width) in the code.
     */
    void
    skip(std::size_t n)
    {
        need(n);
        _pos += n;
    }

    std::size_t remaining() const { return _len - _pos; }
    bool atEnd() const { return _pos == _len; }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > _len - _pos)
            throw CkptTruncatedError(
                "serialized field overruns its section (need " +
                std::to_string(n) + " bytes, " +
                std::to_string(_len - _pos) + " left)");
    }

    const std::uint8_t *_data;
    std::size_t _len;
    std::size_t _pos = 0;
};

/**
 * A table length the configuration fixes (geometry): written as a
 * u64, and on load a snapshot whose length differs is rejected with
 * CkptMismatchError(@p what) before any element is read.
 */
template <class Ar>
void
fixedLength(Ar &ar, std::uint64_t expected, const char *what)
{
    std::uint64_t n = expected;
    ar.u64(n);
    if constexpr (Ar::kLoading)
        if (n != expected)
            throw CkptMismatchError(what);
}

} // namespace ckpt
} // namespace sboram

#endif // SBORAM_CKPT_SERDE_HH
