/**
 * @file
 * One-time-pad block cipher for ORAM blocks.
 *
 * Every path write re-encrypts each slot under a fresh nonce, so two
 * ciphertexts of the same plaintext are different — this is what makes
 * shadow blocks indistinguishable from ordinary dummy blocks (paper
 * Section IV-A).  The payload is encrypted in 64-bit lanes.
 *
 * Two storage shapes share one codec:
 *
 *   - CipherText owns its lanes (tests, standalone use).
 *   - CipherRef/CipherView point into an externally owned slab (the
 *     OramTree's geometry-indexed ciphertext arrays).  A CipherText
 *     converts implicitly to either view, so view-taking codec
 *     methods serve both shapes.
 *
 * Two batch entry points work a whole path at a time:
 *
 *   - encryptBatch() re-encrypts every pending slot of a path write:
 *     nonces are assigned in call order (identical to the sequence
 *     that per-slot encryptInto calls would have drawn — the nonce
 *     sequence is a determinism contract), the whole keystream is
 *     generated into one scratch buffer via PrfStream, then lanes are
 *     XORed and the tags computed.
 *   - verifyDecryptBatch() authenticates and decrypts every slot a
 *     path read takes, with one verdict per slot.
 *
 * The tag MAC is a chain of dependent PRF calls, so one slot's tag is
 * pure latency.  The slots of a path are independent, though: both
 * batch entry points run kTagChains slots' chains in lock-step
 * (tagChains), which overlaps their latencies.  Every tag and every
 * verdict is bit-identical to the per-slot computation.
 */

#ifndef SBORAM_CRYPTO_OTP_HH
#define SBORAM_CRYPTO_OTP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "CtEq.hh"
#include "Prf.hh"
#include "common/Types.hh"

namespace sboram {

/** Ciphertext for one slot: nonce in the clear plus padded lanes and
 *  an authentication tag (Tiny ORAM's baseline includes integrity
 *  verification [18]). */
struct CipherText
{
    std::uint64_t nonce = 0;
    std::uint64_t tag = 0;
    std::vector<std::uint64_t> lanes;
};

/** Mutable view of one slot's ciphertext storage inside a slab. */
struct CipherRef
{
    std::uint64_t *nonce = nullptr;
    std::uint64_t *tag = nullptr;
    std::uint64_t *lanes = nullptr;
    std::uint64_t words = 0;

    CipherRef() = default;
    CipherRef(std::uint64_t *n, std::uint64_t *t, std::uint64_t *l,
              std::uint64_t w)
        : nonce(n), tag(t), lanes(l), words(w) {}
    /** An owning CipherText is itself a one-slot slab. */
    CipherRef(CipherText &ct)
        : nonce(&ct.nonce), tag(&ct.tag), lanes(ct.lanes.data()),
          words(ct.lanes.size()) {}
};

/** Read-only view of one slot's ciphertext storage. */
struct CipherView
{
    const std::uint64_t *nonce = nullptr;
    const std::uint64_t *tag = nullptr;
    const std::uint64_t *lanes = nullptr;
    std::uint64_t words = 0;

    CipherView() = default;
    CipherView(const std::uint64_t *n, const std::uint64_t *t,
               const std::uint64_t *l, std::uint64_t w)
        : nonce(n), tag(t), lanes(l), words(w) {}
    CipherView(const CipherText &ct)
        : nonce(&ct.nonce), tag(&ct.tag), lanes(ct.lanes.data()),
          words(ct.lanes.size()) {}
    CipherView(const CipherRef &r)
        : nonce(r.nonce), tag(r.tag), lanes(r.lanes), words(r.words) {}
};

/**
 * One-time-pad codec.  Stateless apart from the key and a running
 * nonce counter (the nonce must never repeat under one key).
 */
class OtpCodec
{
  public:
    /** Slots whose tag chains the batch entry points run in
     *  lock-step.  4 chains already saturate instruction throughput;
     *  8 measured slower on x86-64, where their accumulators and lane
     *  pointers no longer fit in registers. */
    static constexpr std::size_t kTagChains = 4;

    explicit OtpCodec(PrfKey key = PrfKey{}) : _key(key) {}

    /** Encrypt lanes under a fresh nonce and authenticate them. */
    CipherText
    encrypt(const std::vector<std::uint64_t> &plain)
    {
        CipherText ct;
        encryptInto(plain, ct);
        return ct;
    }

    /**
     * Encrypt into an existing ciphertext, reusing its lane storage
     * (the path-write hot path re-encrypts every slot; this keeps it
     * allocation-free once buffers exist).
     */
    SB_HOT void
    encryptInto(const std::vector<std::uint64_t> &plain, CipherText &ct)
    {
        ct.lanes.resize(plain.size());
        encryptRef(plain.data(), CipherRef(ct));
    }

    /**
     * Encrypt @p out.words plaintext lanes straight into slab
     * storage.  Allocation-free; the nonce is drawn from the same
     * counter as every other encrypt entry point.
     */
    SB_HOT void
    encryptRef(const std::uint64_t *plain, CipherRef out)
    {
        *out.nonce = ++_nonceCounter;
        const PrfStream ks(_key, *out.nonce);
        for (std::uint64_t i = 0; i < out.words; ++i)
            out.lanes[i] = plain[i] ^ ks.lane(i);
        *out.tag = computeTag(out);
    }

    /**
     * Batch-encrypt @p count slots of @p words lanes each: assigns
     * nonces in array order, generates the keystream for all slots in
     * one pass into @p ksScratch (caller-pooled, >= count*words
     * words), then XORs each slot and runs the tag chains
     * kTagChains slots at a time.  Nonce sequence and ciphertext bits
     * are identical to count successive encryptRef calls.
     */
    SB_HOT void encryptBatch(const std::uint64_t *const *plains,
                             const CipherRef *outs, std::size_t count,
                             std::uint64_t words,
                             std::uint64_t *ksScratch);

    /** Decrypt a ciphertext produced by this codec's key. */
    std::vector<std::uint64_t>
    decrypt(const CipherText &ct) const
    {
        std::vector<std::uint64_t> plain;
        decryptInto(ct, plain);
        return plain;
    }

    /** Decrypt into @p plain, reusing its capacity (no verification:
     *  the caller has already authenticated or does not care). */
    void
    decryptInto(CipherView ct, std::vector<std::uint64_t> &plain) const
    {
        plain.resize(ct.words);
        const PrfStream ks(_key, *ct.nonce);
        for (std::uint64_t i = 0; i < ct.words; ++i)
            plain[i] = ct.lanes[i] ^ ks.lane(i);
    }

    /** True when the ciphertext's tag authenticates. */
    bool
    verify(CipherView ct) const
    {
        return constTimeEq64(*ct.tag, computeTag(ct));
    }

    /** Decrypt with integrity verification; fatal-free: the caller
     *  decides how to react to tampering.  Decrypts in place so
     *  @p plain's capacity is reused (path-read hot path). */
    SB_HOT bool
    verifyDecrypt(CipherView ct,
                  std::vector<std::uint64_t> &plain) const
    {
        if (!verify(ct))
            return false;
        plain.resize(ct.words);
        const PrfStream ks(_key, *ct.nonce);
        for (std::uint64_t i = 0; i < ct.words; ++i)
            plain[i] = ct.lanes[i] ^ ks.lane(i);
        return true;
    }

    /**
     * Batch verifyDecrypt over @p count slots of @p words lanes each.
     * Sets ok[s] to 1 when slot s authenticates (exactly
     * verifyDecrypt's verdict), else 0, and writes slot s's
     * plaintext to plains[s*words, (s+1)*words); that plaintext is
     * meaningful only when ok[s] is 1.  The tag chains run
     * kTagChains slots in lock-step.  Allocation-free: @p plains and
     * @p ok are caller-owned.
     */
    SB_HOT void verifyDecryptBatch(const CipherView *views,
                                   std::size_t count,
                                   std::uint64_t words,
                                   std::uint64_t *plains,
                                   std::uint8_t *ok) const;

    std::uint64_t noncesIssued() const { return _nonceCounter; }

    /**
     * Restore the nonce counter from a checkpoint.  Only valid with
     * the counter a snapshot of this codec reported; rewinding it
     * would reuse nonces and break the one-time-pad contract.
     */
    void restoreNonceCounter(std::uint64_t n) { _nonceCounter = n; }

  private:
    /** Keyed MAC over (nonce, lanes): a PRF chain.  Not
     *  cryptographically strong (see Prf.hh) but structurally
     *  faithful: any bit flip in nonce or lanes breaks the tag.  Each
     *  link keys the next, so one chain is sequential; batches
     *  overlap several chains through tagChains instead. */
    std::uint64_t
    computeTag(CipherView ct) const
    {
        std::uint64_t tag = 0;
        tagChains<1>(&ct, 1, ct.words, &tag);
        return tag;
    }

    /**
     * The tag MAC of @p n <= N slots, their N chains advanced in
     * lock-step so the independent PRF calls overlap.  Chains past
     * @p n repeat slot 0, so a short group costs the same latency as
     * a full one; @p tags holds N entries and only the first @p n are
     * meaningful.  @p View is CipherView or CipherRef.  Every loop
     * over the chains has the fixed trip count N and is unrolled, so
     * the accumulators stay in registers.  Marked SB_HOT itself
     * because sblint's call graph does not follow calls written with
     * explicit template arguments.
     */
    template <std::size_t N, class View>
    SB_HOT void
    tagChains(const View *views, std::size_t n, std::uint64_t words,
              std::uint64_t *tags) const
    {
        std::uint64_t acc[N];
        const std::uint64_t *lanes[N];
#pragma GCC unroll 16
        for (std::size_t k = 0; k < N; ++k) {
            const View &v = views[k < n ? k : 0];
            acc[k] = prf64(_key, *v.nonce, 0x7461675fULL);
            lanes[k] = v.lanes;
        }
        for (std::uint64_t i = 0; i < words; ++i) {
#pragma GCC unroll 16
            for (std::size_t k = 0; k < N; ++k)
                acc[k] = prf64(_key, acc[k] ^ lanes[k][i], i + 1);
        }
#pragma GCC unroll 16
        for (std::size_t k = 0; k < N; ++k)
            tags[k] = acc[k];
    }

    PrfKey _key;
    std::uint64_t _nonceCounter = 0;
};

} // namespace sboram

#endif // SBORAM_CRYPTO_OTP_HH
