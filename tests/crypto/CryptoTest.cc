#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "crypto/Otp.hh"
#include "crypto/Prf.hh"

using namespace sboram;

TEST(Prf, Deterministic)
{
    PrfKey key;
    EXPECT_EQ(prf64(key, 1, 2), prf64(key, 1, 2));
}

TEST(Prf, SensitiveToEveryInput)
{
    PrfKey k1;
    PrfKey k2{k1.lo + 1, k1.hi};
    EXPECT_NE(prf64(k1, 5, 7), prf64(k2, 5, 7));
    EXPECT_NE(prf64(k1, 5, 7), prf64(k1, 6, 7));
    EXPECT_NE(prf64(k1, 5, 7), prf64(k1, 5, 8));
}

TEST(Prf, AvalancheOnNonce)
{
    PrfKey key;
    int totalBits = 0;
    for (std::uint64_t n = 0; n < 256; ++n) {
        std::uint64_t diff =
            prf64(key, n, 0) ^ prf64(key, n + 1, 0);
        totalBits += __builtin_popcountll(diff);
    }
    // Expect ~32 flipped bits on average; allow broad tolerance.
    EXPECT_GT(totalBits, 256 * 24);
    EXPECT_LT(totalBits, 256 * 40);
}

TEST(Prf, OutputsLookDistinct)
{
    PrfKey key;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(prf64(key, i, i % 8));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Prf, StreamMatchesDirectCalls)
{
    // PrfStream hoists the per-nonce state out of the lane loop; it
    // must stay bit-identical to prf64 — the keystream is a
    // determinism contract (checkpoint resume re-derives it).
    PrfKey key{0x1234, 0x5678};
    for (std::uint64_t nonce : {1ULL, 2ULL, 0xdeadULL, ~0ULL}) {
        PrfStream ks(key, nonce);
        for (std::uint64_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(ks.lane(lane), prf64(key, nonce, lane))
                << "nonce=" << nonce << " lane=" << lane;
    }
}

TEST(Prf, StreamFillMatchesLaneByLane)
{
    PrfKey key;
    PrfStream ks(key, 42);
    std::uint64_t buf[16];
    ks.fill(buf, 16);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(buf[i], ks.lane(i));
}

TEST(Otp, RoundTrip)
{
    OtpCodec codec;
    std::vector<std::uint64_t> plain{1, 2, 3, 0xdeadbeef};
    CipherText ct = codec.encrypt(plain);
    EXPECT_EQ(codec.decrypt(ct), plain);
}

TEST(Otp, FreshNoncePerEncryption)
{
    OtpCodec codec;
    std::vector<std::uint64_t> plain{42, 42, 42, 42};
    CipherText a = codec.encrypt(plain);
    CipherText b = codec.encrypt(plain);
    EXPECT_NE(a.nonce, b.nonce);
    // Same plaintext, different ciphertext — probabilistic
    // encryption is what makes shadow blocks indistinguishable from
    // dummies (paper Section IV-A).
    EXPECT_NE(a.lanes, b.lanes);
}

TEST(Otp, CiphertextHidesPlaintext)
{
    OtpCodec codec;
    std::vector<std::uint64_t> zeros(8, 0);
    CipherText ct = codec.encrypt(zeros);
    int zeroLanes = 0;
    for (std::uint64_t lane : ct.lanes)
        if (lane == 0)
            ++zeroLanes;
    EXPECT_EQ(zeroLanes, 0);
}

TEST(Otp, EmptyPayload)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({});
    EXPECT_TRUE(codec.decrypt(ct).empty());
}

namespace {

/** Batch sizes covering every full-group and tail split of the
 *  lock-step tag chains, and lane widths around a payload's 8. */
constexpr std::size_t kMaxBatch = 2 * OtpCodec::kTagChains + 1;
constexpr std::uint64_t kBatchWords[] = {0, 1, 6, 8};

std::vector<std::vector<std::uint64_t>>
batchPlains(std::size_t count, std::uint64_t words)
{
    std::vector<std::vector<std::uint64_t>> plains(count);
    for (std::size_t s = 0; s < count; ++s)
        for (std::uint64_t w = 0; w < words; ++w)
            plains[s].push_back(s * 1000 + w * 7 + 3);
    return plains;
}

} // namespace

TEST(Otp, BatchMatchesSequentialEncrypts)
{
    // encryptBatch must be indistinguishable from successive
    // encryptRef calls: same nonce sequence, same ciphertext bits,
    // same tags.  Two codecs under one key, same starting counter.
    const PrfKey key{11, 22};
    for (std::uint64_t words : kBatchWords) {
        for (std::size_t count = 0; count <= kMaxBatch; ++count) {
            SCOPED_TRACE("words " + std::to_string(words) + " count " +
                         std::to_string(count));
            OtpCodec seq(key);
            OtpCodec batch(key);
            const auto plains = batchPlains(count, words);

            std::vector<CipherText> seqOut(count);
            for (std::size_t s = 0; s < count; ++s)
                seq.encryptInto(plains[s], seqOut[s]);

            std::vector<CipherText> batchOut(count);
            std::vector<const std::uint64_t *> plainPtrs;
            std::vector<CipherRef> refs;
            for (std::size_t s = 0; s < count; ++s) {
                batchOut[s].lanes.resize(words);
                plainPtrs.push_back(plains[s].data());
                refs.push_back(CipherRef(batchOut[s]));
            }
            std::vector<std::uint64_t> scratch(count * words + 1);
            batch.encryptBatch(plainPtrs.data(), refs.data(), count,
                               words, scratch.data());

            EXPECT_EQ(seq.noncesIssued(), batch.noncesIssued());
            for (std::size_t s = 0; s < count; ++s) {
                EXPECT_EQ(batchOut[s].nonce, seqOut[s].nonce)
                    << "slot " << s;
                EXPECT_EQ(batchOut[s].tag, seqOut[s].tag) << "slot " << s;
                EXPECT_EQ(batchOut[s].lanes, seqOut[s].lanes)
                    << "slot " << s;
                EXPECT_TRUE(batch.verify(batchOut[s]));
                EXPECT_EQ(batch.decrypt(batchOut[s]), plains[s]);
            }
        }
    }
}

TEST(Otp, BatchVerifyMatchesPerSlot)
{
    // verifyDecryptBatch must return verifyDecrypt's verdict for every
    // slot, and its plaintext wherever that verdict passes, whichever
    // single word of the batch (a lane, a nonce or a tag) is
    // corrupted.
    OtpCodec codec(PrfKey{3, 5});
    for (std::uint64_t words : kBatchWords) {
        for (std::size_t count = 0; count <= kMaxBatch; ++count) {
            std::vector<CipherText> clean;
            for (const auto &plain : batchPlains(count, words))
                clean.push_back(codec.encrypt(plain));

            // Position -1 is the uncorrupted batch; otherwise slot
            // `victim`'s word `pos`: lanes first, then nonce, then tag.
            const std::size_t victims = std::max<std::size_t>(count, 1);
            for (std::size_t victim = 0; victim < victims; ++victim) {
                for (long pos = -1; pos < static_cast<long>(words) + 2;
                     ++pos) {
                    if (count == 0 && pos >= 0)
                        break;
                    SCOPED_TRACE("words " + std::to_string(words) +
                                 " count " + std::to_string(count) +
                                 " slot " + std::to_string(victim) +
                                 " pos " + std::to_string(pos));
                    std::vector<CipherText> cts = clean;
                    if (pos >= 0) {
                        CipherText &ct = cts[victim];
                        const auto p = static_cast<std::uint64_t>(pos);
                        if (p < words)
                            ct.lanes[p] ^= 1ULL << (p * 13 % 64);
                        else if (p == words)
                            ct.nonce ^= 1;
                        else
                            ct.tag ^= 1ULL << 40;
                    }
                    const std::vector<CipherView> views(cts.begin(),
                                                        cts.end());
                    std::vector<std::uint64_t> plains(count * words + 1);
                    std::vector<std::uint8_t> ok(count + 1, 7);
                    codec.verifyDecryptBatch(views.data(), count, words,
                                             plains.data(), ok.data());
                    for (std::size_t s = 0; s < count; ++s) {
                        std::vector<std::uint64_t> want;
                        const bool pass =
                            codec.verifyDecrypt(cts[s], want);
                        EXPECT_EQ(ok[s], pass ? 1 : 0) << "slot " << s;
                        EXPECT_EQ(pass, pos < 0 || s != victim)
                            << "slot " << s;
                        if (!pass)
                            continue;
                        const std::vector<std::uint64_t> got(
                            plains.begin() + s * words,
                            plains.begin() + (s + 1) * words);
                        EXPECT_EQ(got, want) << "slot " << s;
                    }
                    EXPECT_EQ(ok[count], 7) << "wrote past count";
                }
            }
        }
    }
}

TEST(Otp, BatchOfOneMatchesEncryptRef)
{
    const PrfKey key{5, 9};
    OtpCodec a(key);
    OtpCodec b(key);
    std::vector<std::uint64_t> plain{1, 2, 3};

    CipherText viaRef;
    a.encryptInto(plain, viaRef);

    CipherText viaBatch;
    viaBatch.lanes.resize(plain.size());
    const std::uint64_t *pp = plain.data();
    CipherRef ref(viaBatch);
    std::vector<std::uint64_t> scratch(plain.size());
    b.encryptBatch(&pp, &ref, 1, plain.size(), scratch.data());

    EXPECT_EQ(viaBatch.nonce, viaRef.nonce);
    EXPECT_EQ(viaBatch.tag, viaRef.tag);
    EXPECT_EQ(viaBatch.lanes, viaRef.lanes);
}

TEST(Otp, WrongKeyFailsToDecrypt)
{
    OtpCodec codec(PrfKey{1, 2});
    OtpCodec other(PrfKey{3, 4});
    std::vector<std::uint64_t> plain{7, 8, 9};
    CipherText ct = codec.encrypt(plain);
    EXPECT_NE(other.decrypt(ct), plain);
}
