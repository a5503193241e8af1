#include "sim/kernels.h"

#include <cstring>

/*
 * Layout.  The reference namespace holds the scalar definitions of the
 * two kernels that also have an AVX2 body; the other kernels are
 * defined directly in kernels::.  The AVX2 bodies are compiled only on
 * x86-64, and each carries a gcc/clang `target("avx2")` attribute
 * instead of the whole TU being built with -mavx2, so no AVX2
 * instruction can leak into code that runs on narrower hosts.
 */
#ifdef __x86_64__
#include <immintrin.h>
#endif

namespace smartconf::sim::kernels {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kLaneGamma = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
rngOutputMap(std::uint64_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        words[i] = rotl64(words[i] * 5, 7) * 9;
}

// The reductions spell out the four-lane accumulation literally: these
// loops *are* the pinned order the header documents.

double
reduceSum(const double *x, std::size_t n)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        l0 += x[i];
        l1 += x[i + 1];
        l2 += x[i + 2];
        l3 += x[i + 3];
    }
    double total = (l0 + l2) + (l1 + l3);
    for (; i < n; ++i)
        total += x[i];
    return total;
}

MinMax
reduceMinMax(const double *x, std::size_t n)
{
    constexpr double kInf = __builtin_inf();
    double mn0 = kInf, mn1 = kInf, mn2 = kInf, mn3 = kInf;
    double mx0 = -kInf, mx1 = -kInf, mx2 = -kInf, mx3 = -kInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // Exactly minpd/maxpd(x, acc): a NaN element keeps the
        // accumulator.
        mn0 = x[i] < mn0 ? x[i] : mn0;
        mn1 = x[i + 1] < mn1 ? x[i + 1] : mn1;
        mn2 = x[i + 2] < mn2 ? x[i + 2] : mn2;
        mn3 = x[i + 3] < mn3 ? x[i + 3] : mn3;
        mx0 = x[i] > mx0 ? x[i] : mx0;
        mx1 = x[i + 1] > mx1 ? x[i + 1] : mx1;
        mx2 = x[i + 2] > mx2 ? x[i + 2] : mx2;
        mx3 = x[i + 3] > mx3 ? x[i + 3] : mx3;
    }
    const double cn0 = mn0 < mn2 ? mn0 : mn2;
    const double cn1 = mn1 < mn3 ? mn1 : mn3;
    const double cx0 = mx0 > mx2 ? mx0 : mx2;
    const double cx1 = mx1 > mx3 ? mx1 : mx3;
    MinMax r;
    r.min = cn0 < cn1 ? cn0 : cn1;
    r.max = cx0 > cx1 ? cx0 : cx1;
    for (; i < n; ++i) {
        r.min = x[i] < r.min ? x[i] : r.min;
        r.max = x[i] > r.max ? x[i] : r.max;
    }
    return r;
}

std::uint64_t
checksum(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t lane[4];
    for (std::uint64_t j = 0; j < 4; ++j)
        lane[j] = kFnvBasis ^ (j * kLaneGamma);
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        std::uint64_t w[4];
        std::memcpy(w, p + i, 32);
        for (int j = 0; j < 4; ++j)
            lane[j] = (lane[j] ^ w[j]) * kFnvPrime;
    }
    std::uint64_t h = kFnvBasis;
    for (int j = 0; j < 4; ++j)
        h = (h ^ lane[j]) * kFnvPrime;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * kFnvPrime;
    }
    for (; i < len; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

namespace reference {

void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = words[i];
        const auto slot =
            static_cast<std::uint32_t>(((w >> 32) * n_slots) >> 32);
        const std::uint64_t entry = entries[slot];
        words[i] = static_cast<std::uint32_t>(w) <
                           static_cast<std::uint32_t>(entry >> 32)
                       ? slot
                       : static_cast<std::uint32_t>(entry);
    }
}

// Gaussian-pair body (kernels_gauss.inc) on plain doubles.  The ops
// all lower to bare IEEE scalar instructions, so this reference is
// what the AVX2 body's lanes must match bit-for-bit.
#define GK_FN static inline
#define GK_D double
#define GK_I std::uint64_t
#define GK_SETD(c) (c)
#define GK_SETI(c) (c)
#define GK_ADD(a, b) ((a) + (b))
#define GK_SUB(a, b) ((a) - (b))
#define GK_MUL(a, b) ((a) * (b))
#define GK_DIV(a, b) ((a) / (b))
#define GK_SQRT(a) __builtin_sqrt(a)
#define GK_CASTDI(d) __builtin_bit_cast(std::uint64_t, (d))
#define GK_CASTID(i) __builtin_bit_cast(double, (i))
#define GK_ANDI(a, b) ((a) & (b))
#define GK_ORI(a, b) ((a) | (b))
#define GK_XORI(a, b) ((a) ^ (b))
#define GK_ADDI(a, b) ((a) + (b))
#define GK_SUBI(a, b) ((a) - (b))
#define GK_SHRI(v, k) ((v) >> (k))
#define GK_SHLI(v, k) ((v) << (k))
#define GK_CMPGT(a, b) ((a) > (b) ? ~0ULL : 0ULL)
#define GK_SEL(m, a, b) \
    GK_CASTID(((m) & GK_CASTDI(a)) | (~(m) & GK_CASTDI(b)))
#include "sim/kernels_gauss.inc"
#undef GK_FN
#undef GK_D
#undef GK_I
#undef GK_SETD
#undef GK_SETI
#undef GK_ADD
#undef GK_SUB
#undef GK_MUL
#undef GK_DIV
#undef GK_SQRT
#undef GK_CASTDI
#undef GK_CASTID
#undef GK_ANDI
#undef GK_ORI
#undef GK_XORI
#undef GK_ADDI
#undef GK_SUBI
#undef GK_SHRI
#undef GK_SHLI
#undef GK_CMPGT
#undef GK_SEL

void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
    for (std::size_t i = 0; i < pairs; ++i) {
        double z0, z1;
        gkGaussPair(words[2 * i], words[2 * i + 1], &z0, &z1);
        z[2 * i] = z0;
        z[2 * i + 1] = z1;
    }
}

} // namespace reference

#ifdef __x86_64__

// 256-bit bodies: one register holds four lanes, and the alias kernel
// uses hardware gathers.  Every function carries the avx2 target
// attribute (the TU itself is compiled for the baseline ISA).

namespace {

namespace avx2 {

__attribute__((target("avx2"))) void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
    const __m256i nvec =
        _mm256_set1_epi64x(static_cast<long long>(n_slots));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        const __m256i hi = _mm256_srli_epi64(w, 32);
        const __m256i slot =
            _mm256_srli_epi64(_mm256_mul_epu32(hi, nvec), 32);
        const __m256i entry = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(entries), slot, 8);
        const __m256i coin = _mm256_and_si256(w, lo32);
        const __m256i thresh = _mm256_srli_epi64(entry, 32);
        // coin < thresh; both fit in 32 bits, so the signed 64-bit
        // compare is exact.
        const __m256i take = _mm256_cmpgt_epi64(thresh, coin);
        const __m256i alias = _mm256_and_si256(entry, lo32);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(words + i),
                            _mm256_blendv_epi8(alias, slot, take));
    }
    if (i < n)
        reference::aliasResolve(entries, n_slots, words + i, n - i);
}

// Gaussian-pair body on 256-bit lanes.  GK_FN carries the target
// attribute so the include's helpers may use AVX2 instructions.
#define GK_FN __attribute__((target("avx2"))) static inline
#define GK_D __m256d
#define GK_I __m256i
#define GK_SETD(c) _mm256_set1_pd(c)
#define GK_SETI(c) _mm256_set1_epi64x(static_cast<long long>(c))
#define GK_ADD(a, b) _mm256_add_pd((a), (b))
#define GK_SUB(a, b) _mm256_sub_pd((a), (b))
#define GK_MUL(a, b) _mm256_mul_pd((a), (b))
#define GK_DIV(a, b) _mm256_div_pd((a), (b))
#define GK_SQRT(a) _mm256_sqrt_pd(a)
#define GK_CASTDI(d) _mm256_castpd_si256(d)
#define GK_CASTID(i) _mm256_castsi256_pd(i)
#define GK_ANDI(a, b) _mm256_and_si256((a), (b))
#define GK_ORI(a, b) _mm256_or_si256((a), (b))
#define GK_XORI(a, b) _mm256_xor_si256((a), (b))
#define GK_ADDI(a, b) _mm256_add_epi64((a), (b))
#define GK_SUBI(a, b) _mm256_sub_epi64((a), (b))
#define GK_SHRI(v, k) _mm256_srli_epi64((v), (k))
#define GK_SHLI(v, k) _mm256_slli_epi64((v), (k))
#define GK_CMPGT(a, b) \
    _mm256_castpd_si256(_mm256_cmp_pd((a), (b), _CMP_GT_OQ))
#define GK_SEL(m, a, b)                                \
    _mm256_castsi256_pd(_mm256_or_si256(               \
        _mm256_and_si256((m), _mm256_castpd_si256(a)), \
        _mm256_andnot_si256((m), _mm256_castpd_si256(b))))
#include "sim/kernels_gauss.inc"
#undef GK_FN
#undef GK_D
#undef GK_I
#undef GK_SETD
#undef GK_SETI
#undef GK_ADD
#undef GK_SUB
#undef GK_MUL
#undef GK_DIV
#undef GK_SQRT
#undef GK_CASTDI
#undef GK_CASTID
#undef GK_ANDI
#undef GK_ORI
#undef GK_XORI
#undef GK_ADDI
#undef GK_SUBI
#undef GK_SHRI
#undef GK_SHLI
#undef GK_CMPGT
#undef GK_SEL

__attribute__((target("avx2"))) void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
    std::size_t i = 0;
    for (; i + 4 <= pairs; i += 4) {
        // a = {p0.w0, p0.w1, p1.w0, p1.w1}, b = same for p2/p3.
        // unpack*_epi64 works per 128-bit half, so the deinterleaved
        // pair order is {p0, p2, p1, p3} — the matching unpack*_pd on
        // the way out restores memory order without a permute.
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + 2 * i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + 2 * i + 4));
        __m256d z0, z1;
        gkGaussPair(_mm256_unpacklo_epi64(a, b),
                    _mm256_unpackhi_epi64(a, b), &z0, &z1);
        _mm256_storeu_pd(z + 2 * i, _mm256_unpacklo_pd(z0, z1));
        _mm256_storeu_pd(z + 2 * i + 4, _mm256_unpackhi_pd(z0, z1));
    }
    if (i < pairs)
        reference::gaussianPairs(words + 2 * i, z + 2 * i, pairs - i);
}

} // namespace avx2

} // namespace

#endif // __x86_64__

bool
hasAvx2()
{
#ifdef __x86_64__
    static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
    return avx2;
#else
    return false;
#endif
}

void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
#ifdef __x86_64__
    if (hasAvx2()) {
        avx2::aliasResolve(entries, n_slots, words, n);
        return;
    }
#endif
    reference::aliasResolve(entries, n_slots, words, n);
}

void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
#ifdef __x86_64__
    if (hasAvx2()) {
        avx2::gaussianPairs(words, z, pairs);
        return;
    }
#endif
    reference::gaussianPairs(words, z, pairs);
}

} // namespace smartconf::sim::kernels
