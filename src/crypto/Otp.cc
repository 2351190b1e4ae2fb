#include "Otp.hh"

#include <algorithm>

namespace sboram {

SB_HOT void
OtpCodec::encryptBatch(const std::uint64_t *const *plains,
                       const CipherRef *outs, std::size_t count,
                       std::uint64_t words, std::uint64_t *ksScratch)
{
    // Pass 1: nonce assignment, in array order.  This is the exact
    // sequence count successive encryptRef calls would draw, which
    // keeps the ciphertext bitstream — and everything downstream of
    // it (fault schedules, snapshot images) — unchanged.
    for (std::size_t s = 0; s < count; ++s)
        *outs[s].nonce = ++_nonceCounter;

    // Pass 2: the whole path's keystream in one sweep.  Each slot's
    // per-nonce PRF state is hoisted once; the inner loop is three
    // mixes per lane with no per-slot setup beyond that.
    for (std::size_t s = 0; s < count; ++s)
        PrfStream(_key, *outs[s].nonce)
            .fill(ksScratch + s * words, words);

    // Pass 3: XOR the pads in, then chain the tags over the fresh
    // ciphertext lanes, kTagChains slots in lock-step.
    for (std::size_t s = 0; s < count; ++s) {
        const std::uint64_t *plain = plains[s];
        const std::uint64_t *ks = ksScratch + s * words;
        for (std::uint64_t i = 0; i < words; ++i)
            outs[s].lanes[i] = plain[i] ^ ks[i];
    }
    for (std::size_t g = 0; g < count; g += kTagChains) {
        const std::size_t n = std::min(kTagChains, count - g);
        std::uint64_t tags[kTagChains] = {};
        tagChains<kTagChains>(outs + g, n, words, tags);
        for (std::size_t k = 0; k < n; ++k)
            *outs[g + k].tag = tags[k];
    }
}

SB_HOT void
OtpCodec::verifyDecryptBatch(const CipherView *views, std::size_t count,
                             std::uint64_t words, std::uint64_t *plains,
                             std::uint8_t *ok) const
{
    for (std::size_t g = 0; g < count; g += kTagChains) {
        const std::size_t n = std::min(kTagChains, count - g);
        std::uint64_t tags[kTagChains] = {};
        tagChains<kTagChains>(views + g, n, words, tags);
        for (std::size_t k = 0; k < n; ++k) {
            const CipherView &v = views[g + k];
            ok[g + k] = constTimeEq64(*v.tag, tags[k]) ? 1 : 0;
            // Decrypt unconditionally: the caller reads the plaintext
            // only behind a passing verdict.
            const PrfStream ks(_key, *v.nonce);
            std::uint64_t *plain = plains + (g + k) * words;
            for (std::uint64_t i = 0; i < words; ++i)
                plain[i] = v.lanes[i] ^ ks.lane(i);
        }
    }
}

} // namespace sboram
