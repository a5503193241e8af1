/**
 * @file
 * Tests for the kernel layer (sim/kernels.h).
 *
 * Two shapes.  The kernels with an AVX2 body (aliasResolve,
 * gaussianPairs) are differential: the dispatched body must be
 * *bit-identical* to kernels::reference:: on every input.  Every
 * kernel is also pinned against its documented definition, restated
 * independently here, so the definition itself cannot drift.
 *
 * Inputs deliberately include the awkward cases: n = 0 and 1, lengths
 * around every lane-count multiple, NaN/Inf payloads, heavy-tailed
 * alias tables, and raw words at the integer extremes.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/alias_sampler.h"
#include "sim/kernels.h"
#include "sim/rng.h"

namespace kernels = smartconf::sim::kernels;
using smartconf::sim::AliasTable;
using smartconf::sim::Rng;
using smartconf::sim::ZipfianGenerator;

namespace {

/** Lengths that straddle every lane-multiple boundary up to 4 lanes. */
const std::size_t kAwkwardLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,
                                       9,  12, 15, 16, 17, 31, 32, 33,
                                       63, 64, 100, 255, 1024, 1027};

std::vector<std::uint64_t>
randomWords(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> w(n);
    for (auto &x : w)
        x = rng.next();
    // Salt in the integer extremes so compares/rotates see them.
    if (n > 0)
        w[0] = 0;
    if (n > 1)
        w[1] = ~0ULL;
    if (n > 2)
        w[2] = 0x8000000000000000ULL;
    if (n > 3)
        w[3] = 0x00000000ffffffffULL;
    return w;
}

/** Bitwise equality for doubles (distinguishes NaN payloads, -0.0). */
bool
sameBits(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, 8);
    std::memcpy(&ub, &b, 8);
    return ua == ub;
}

} // namespace

// ---------------------------------------------------------------------------
// Dispatch

TEST(Kernels, HasAvx2MatchesCpuid)
{
#ifdef __x86_64__
    EXPECT_EQ(kernels::hasAvx2(), __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_FALSE(kernels::hasAvx2());
#endif
}

// ---------------------------------------------------------------------------
// rngOutputMap / fillRaw

TEST(Kernels, RngOutputMapMatchesScalarAtEveryLevel)
{
    // The documented map, one word at a time, at every length.
    for (std::size_t n : kAwkwardLengths) {
        const auto input = randomWords(n, 0x1234 + n);
        std::vector<std::uint64_t> expect(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t x = input[i] * 5;
            expect[i] = ((x << 7) | (x >> 57)) * 9;
        }
        auto words = input;
        kernels::rngOutputMap(words.data(), words.size());
        EXPECT_EQ(words, expect) << "n=" << n;
    }
}

TEST(Kernels, FillRawReproducesTheSerialStreamWordForWord)
{
    for (std::size_t n : kAwkwardLengths) {
        Rng serial(0xfeed + n);
        Rng batched(0xfeed + n);
        std::vector<std::uint64_t> expect(n), got(n);
        for (auto &w : expect)
            w = serial.next();
        batched.fillRaw(got.data(), n);
        EXPECT_EQ(got, expect) << "n=" << n;
        // The generators must also land in the same state.
        EXPECT_EQ(batched.next(), serial.next()) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// aliasResolve / sampleBatch

TEST(Kernels, AliasResolveMatchesScalarOnHeavyTailedTables)
{
    // The dispatched body against reference::aliasResolve.  Zipf
    // (theta=0.99) concentrates ~10% of mass on rank 0: slots are
    // wildly unequal, so accept and alias both fire constantly.
    const std::uint64_t kPopulations[] = {1, 2, 3, 100, 4096, 100000};
    for (std::uint64_t pop : kPopulations) {
        const auto table = AliasTable::zipfian(pop, 0.99);
        for (std::size_t n : kAwkwardLengths) {
            const auto input = randomWords(n, pop * 31 + n);
            auto expect = input;
            kernels::reference::aliasResolve(table->entries(), pop,
                                             expect.data(), n);
            auto got = input;
            kernels::aliasResolve(table->entries(), pop, got.data(), n);
            EXPECT_EQ(got, expect) << "pop=" << pop << " n=" << n;
        }
    }
}

TEST(Kernels, AliasResolveMatchesReferenceOnRandomEntries)
{
    // Arbitrary packed words: thresholds and aliases at the integer
    // extremes (threshold 0 never accepts, 0xffffffff almost always).
    const std::uint64_t kSlots = 777;
    auto entries = randomWords(kSlots, 0xa11a5);
    for (auto &e : entries)
        e = (e & 0xffffffff00000000ULL) | (e % kSlots);
    entries[4] = 0;                     // never accept, alias 0
    entries[5] = 0xffffffff00000000ULL; // threshold max, alias 0
    for (std::size_t n : kAwkwardLengths) {
        const auto input = randomWords(n, 0x5107 + n);
        auto expect = input;
        kernels::reference::aliasResolve(entries.data(), kSlots,
                                         expect.data(), n);
        auto got = input;
        kernels::aliasResolve(entries.data(), kSlots, got.data(), n);
        EXPECT_EQ(got, expect) << "n=" << n;
    }
}

TEST(Kernels, SampleBatchEqualsSerialSampleCalls)
{
    const auto table = AliasTable::zipfian(100000, 0.99);
    Rng serial(42), batched(42);
    std::vector<std::uint64_t> got(257);
    table->sampleBatch(batched, got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], table->sample(serial)) << "i=" << i;
    EXPECT_EQ(batched.next(), serial.next());
}

TEST(Kernels, ZipfianGeneratorBatchMatchesSerialAcrossLevels)
{
    ZipfianGenerator zipf(5000, 0.8);
    Rng serial(7), batched(7);
    std::uint64_t got[97];
    zipf.sampleBatch(batched, got, 97);
    for (std::size_t i = 0; i < 97; ++i)
        EXPECT_EQ(got[i], zipf.sample(serial)) << "i=" << i;
}

// ---------------------------------------------------------------------------
// reduceSum / reduceMinMax

namespace {

std::vector<double>
randomDoubles(std::size_t n, std::uint64_t seed, bool adversarial)
{
    Rng rng(seed);
    std::vector<double> x(n);
    for (auto &v : x)
        v = rng.uniform(-1e6, 1e6);
    if (adversarial && n > 0) {
        // NaN / ±Inf / ±0 / denormal sprinkled at fixed positions.
        x[0] = std::numeric_limits<double>::quiet_NaN();
        if (n > 1)
            x[1] = std::numeric_limits<double>::infinity();
        if (n > 2)
            x[2] = -std::numeric_limits<double>::infinity();
        if (n > 3)
            x[3] = -0.0;
        if (n > 4)
            x[4] = std::numeric_limits<double>::denorm_min();
        if (n > 7)
            x[7] = std::numeric_limits<double>::quiet_NaN();
    }
    return x;
}

/**
 * The pinned order, restated: element i folds into lane i % 4 by
 * @p step(acc, x), lanes combine as (L0 op L2) op (L1 op L3) with
 * @p op(a, b), and the tail folds serially afterwards by @p step.
 */
template <typename Step, typename Op>
double
pinnedLaneFold(const std::vector<double> &x, double identity, Step step,
               Op op)
{
    double lane[4] = {identity, identity, identity, identity};
    std::size_t i = 0;
    for (; i + 4 <= x.size(); i += 4)
        for (std::size_t j = 0; j < 4; ++j)
            lane[j] = step(lane[j], x[i + j]);
    double r = op(op(lane[0], lane[2]), op(lane[1], lane[3]));
    for (; i < x.size(); ++i)
        r = step(r, x[i]);
    return r;
}

} // namespace

TEST(Kernels, ReduceSumBitIdenticalAcrossLevels)
{
    // Against the restated lane order at every length, NaN/Inf/-0 and
    // denormals included.
    const auto add = [](double a, double b) { return a + b; };
    for (bool adversarial : {false, true}) {
        for (std::size_t n : kAwkwardLengths) {
            const auto x = randomDoubles(n, 0xabc + n, adversarial);
            const double want = pinnedLaneFold(x, 0.0, add, add);
            const double got = kernels::reduceSum(x.data(), n);
            EXPECT_TRUE(sameBits(got, want))
                << "n=" << n << " adversarial=" << adversarial
                << " got=" << got << " want=" << want;
        }
    }
}

TEST(Kernels, ReduceSumEmptyIsZeroAndSingleIsIdentity)
{
    EXPECT_EQ(kernels::reduceSum(nullptr, 0), 0.0);
    const double v = 3.25;
    EXPECT_EQ(kernels::reduceSum(&v, 1), 3.25);
}

TEST(Kernels, ReduceMinMaxBitIdenticalAcrossLevels)
{
    // Against the restated lane order with the documented element rule
    // (m = x < m ? x : m), at every length.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto mn = [](double a, double b) { return a < b ? a : b; };
    const auto mx = [](double a, double b) { return a > b ? a : b; };
    const auto mn_step = [&](double acc, double x) { return mn(x, acc); };
    const auto mx_step = [&](double acc, double x) { return mx(x, acc); };
    for (bool adversarial : {false, true}) {
        for (std::size_t n : kAwkwardLengths) {
            const auto x = randomDoubles(n, 0xdef + n, adversarial);
            const kernels::MinMax got = kernels::reduceMinMax(x.data(), n);
            EXPECT_TRUE(
                sameBits(got.min, pinnedLaneFold(x, kInf, mn_step, mn)))
                << "n=" << n << " adversarial=" << adversarial;
            EXPECT_TRUE(
                sameBits(got.max, pinnedLaneFold(x, -kInf, mx_step, mx)))
                << "n=" << n << " adversarial=" << adversarial;
        }
    }
}

TEST(Kernels, ReduceMinMaxIdentitiesAndNanRule)
{
    const kernels::MinMax empty = kernels::reduceMinMax(nullptr, 0);
    EXPECT_EQ(empty.min, std::numeric_limits<double>::infinity());
    EXPECT_EQ(empty.max, -std::numeric_limits<double>::infinity());

    // minpd/maxpd semantics: a NaN *observation* keeps the
    // accumulator, so an all-NaN input returns the identities...
    std::vector<double> nans(13, std::numeric_limits<double>::quiet_NaN());
    const kernels::MinMax all_nan =
        kernels::reduceMinMax(nans.data(), nans.size());
    EXPECT_EQ(all_nan.min, std::numeric_limits<double>::infinity());
    EXPECT_EQ(all_nan.max, -std::numeric_limits<double>::infinity());

    // ...and NaNs mixed into real data are transparent.
    std::vector<double> mixed = {std::nan(""), 2.0,  std::nan(""), -5.0,
                                 std::nan(""), 9.0, std::nan("")};
    const kernels::MinMax m =
        kernels::reduceMinMax(mixed.data(), mixed.size());
    EXPECT_EQ(m.min, -5.0);
    EXPECT_EQ(m.max, 9.0);
}

TEST(Kernels, ReduceSumUsesThePinnedLaneOrder)
{
    // Pin the documented order on a hand-picked input where any other
    // order rounds differently: lanes accumulate x[i] into lane i%4,
    // combined as
    // (L0 + L2) + (L1 + L3), tail folded serially after the combine.
    const std::vector<double> x = {0.1, 1e16, -1e16, 0.25,
                                   0.5, 3.0,  7.0,   11.0,
                                   13.0}; // 9 = 2 blocks + 1 tail
    double lane[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i + 4 <= x.size(); i += 4)
        for (std::size_t j = 0; j < 4; ++j)
            lane[j] += x[i + j];
    double expect = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (std::size_t i = (x.size() / 4) * 4; i < x.size(); ++i)
        expect += x[i];

    EXPECT_TRUE(sameBits(kernels::reduceSum(x.data(), x.size()), expect));
}

// ---------------------------------------------------------------------------
// checksum

TEST(Kernels, ChecksumBitIdenticalAcrossLevels)
{
    // The checksum reads words through memcpy, so it must not depend
    // on where the bytes sit: the same bytes at every misalignment
    // hash to the same value.
    for (std::size_t n : kAwkwardLengths) {
        std::vector<unsigned char> data(n);
        Rng rng(0x5eed + n);
        for (auto &b : data)
            b = static_cast<unsigned char>(rng.next());
        const std::uint64_t aligned = kernels::checksum(data.data(), n);

        std::vector<unsigned char> shifted(n + 8);
        for (std::size_t off = 1; off < 8; ++off) {
            std::copy(data.begin(), data.end(), shifted.begin() + off);
            EXPECT_EQ(kernels::checksum(shifted.data() + off, n), aligned)
                << "n=" << n << " offset=" << off;
        }
    }
}

TEST(Kernels, ChecksumMatchesTheDocumentedDefinition)
{
    // Independent re-derivation of the spec in kernels.h, so the
    // on-disk format can't silently drift with the implementation.
    const auto spec = [](const unsigned char *p, std::size_t len) {
        constexpr std::uint64_t P = 0x100000001b3ULL;
        constexpr std::uint64_t B = 0xcbf29ce484222325ULL;
        std::uint64_t lane[4];
        for (std::uint64_t j = 0; j < 4; ++j)
            lane[j] = B ^ (j * 0x9e3779b97f4a7c15ULL);
        std::size_t i = 0;
        for (; i + 32 <= len; i += 32)
            for (std::size_t j = 0; j < 4; ++j) {
                std::uint64_t w = 0;
                std::memcpy(&w, p + i + 8 * j, 8);
                lane[j] = (lane[j] ^ w) * P;
            }
        std::uint64_t h = B;
        for (std::size_t j = 0; j < 4; ++j)
            h = (h ^ lane[j]) * P;
        for (; i + 8 <= len; i += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, p + i, 8);
            h = (h ^ w) * P;
        }
        for (; i < len; ++i)
            h = (h ^ p[i]) * P;
        return h;
    };

    for (std::size_t n : kAwkwardLengths) {
        std::vector<unsigned char> data(n);
        Rng rng(0xc0de + n);
        for (auto &b : data)
            b = static_cast<unsigned char>(rng.next());
        EXPECT_EQ(kernels::checksum(data.data(), n), spec(data.data(), n))
            << "n=" << n;
    }
}

TEST(Kernels, ChecksumDetectsSingleBitFlips)
{
    std::vector<unsigned char> data(257);
    Rng rng(99);
    for (auto &b : data)
        b = static_cast<unsigned char>(rng.next());
    const std::uint64_t clean =
        kernels::checksum(data.data(), data.size());
    for (std::size_t pos : {std::size_t{0}, std::size_t{31},
                            std::size_t{32}, std::size_t{255},
                            std::size_t{256}}) {
        data[pos] ^= 0x10;
        EXPECT_NE(kernels::checksum(data.data(), data.size()), clean)
            << "flip at " << pos;
        data[pos] ^= 0x10;
    }
}

// ---------------------------------------------------------------------------
// coinThreshold (the batch coin-flip contract)

TEST(Kernels, CoinThresholdMatchesUniformCompareExactly)
{
    // chance(p) must equal (word >> 11) < coinThreshold(p) for the
    // same word, for any p — including p exactly representable at the
    // 2^-53 grid (where ceil() ties matter) and the clamped edges.
    Rng prng(0xb0b);
    std::vector<double> ps = {0.0,   1.0,  0.5,    0.25, 1e-17,
                              1.0 - 1e-16, 0.1,    0.99, 0x1.0p-53,
                              3 * 0x1.0p-53, 0.7 - 0x1.0p-54};
    for (int i = 0; i < 100; ++i)
        ps.push_back(prng.uniform());

    Rng words(0x3333);
    for (double p : ps) {
        const std::uint64_t bound = Rng::coinThreshold(p);
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t w = words.next();
            const bool via_double =
                static_cast<double>(w >> 11) * 0x1.0p-53 < p;
            EXPECT_EQ((w >> 11) < bound, via_double)
                << "p=" << p << " w=" << w;
        }
        // Boundary words: exactly at and adjacent to the threshold.
        if (bound > 0 && bound < (1ULL << 53)) {
            for (std::uint64_t hi : {bound - 1, bound, bound + 1}) {
                const std::uint64_t w = hi << 11;
                const bool via_double =
                    static_cast<double>(w >> 11) * 0x1.0p-53 < p;
                EXPECT_EQ((w >> 11) < bound, via_double)
                    << "p=" << p << " hi=" << hi;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// gaussianPairs (the polynomial Box-Muller kernel)

TEST(Kernels, GaussianPairsBitIdenticalAcrossLevels)
{
    // FP polynomial kernel: the dispatched body must equal
    // reference::gaussianPairs bit for bit (-ffp-contract=off + one
    // shared op sequence), on random words salted with the extremes.
    for (std::size_t pairs : kAwkwardLengths) {
        const auto words = randomWords(2 * pairs, 0x6a0 + pairs);
        std::vector<double> ref(2 * pairs, 0.0);
        kernels::reference::gaussianPairs(words.data(), ref.data(), pairs);
        std::vector<double> z(2 * pairs, -1.0);
        kernels::gaussianPairs(words.data(), z.data(), pairs);
        for (std::size_t i = 0; i < 2 * pairs; ++i)
            ASSERT_TRUE(sameBits(z[i], ref[i]))
                << "pairs=" << pairs << " i=" << i << " got " << z[i]
                << " want " << ref[i];
    }
}

TEST(Kernels, GaussianPairsTracksTheLibmReference)
{
    // The kernel's polynomials replace libm, so it can't be *equal* to
    // std::log/sin/cos — but it must sit within ~1e-12 of the same
    // Box-Muller math evaluated through them, across random words and
    // the salted extremes (w0=0 drives u1 to its floor, mag to its
    // ceiling ~8.5; w0=~0 drives mag toward 0; w1 extremes push the
    // angle reduction through every quadrant boundary).
    const auto words = randomWords(2 * 4096, 0x11b3);
    std::vector<double> z(words.size());
    kernels::gaussianPairs(words.data(), z.data(), words.size() / 2);
    for (std::size_t i = 0; i + 2 <= words.size(); i += 2) {
        const double u1 =
            (static_cast<double>(words[i] >> 12) + 0.5) * 0x1.0p-52;
        const double u2 =
            static_cast<double>(words[i + 1] >> 12) * 0x1.0p-52;
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double ang = 2.0 * 3.14159265358979323846 * u2;
        EXPECT_NEAR(z[i], mag * std::cos(ang), 1e-12) << "i=" << i;
        EXPECT_NEAR(z[i + 1], mag * std::sin(ang), 1e-12) << "i=" << i;
    }
}

TEST(Kernels, GaussianBatchEqualsSerialGaussianCalls)
{
    // gaussianBatch must be stream- and value-identical to n serial
    // gaussian() calls, including the spare normal carried across the
    // batch boundary (odd n leaves one cached).
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{17},
                          std::size_t{256}, std::size_t{257},
                          std::size_t{300}}) {
        Rng serial(0xabba), batch(0xabba);
        // Desynchronize the spare state deliberately: an initial odd
        // draw leaves both generators holding a cached normal.
        ASSERT_TRUE(sameBits(serial.gaussian(), batch.gaussian()));

        std::vector<double> got(n, -1.0);
        batch.gaussianBatch(2.0, 3.0, got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameBits(got[i], serial.gaussian(2.0, 3.0)))
                << "n=" << n << " i=" << i;
        // Generators must land in the same state (words and spare).
        EXPECT_EQ(serial.next(), batch.next()) << "n=" << n;
        EXPECT_TRUE(sameBits(serial.gaussian(), batch.gaussian()))
            << "n=" << n;
    }
}
