#ifndef SMARTCONF_SIM_KERNELS_H_
#define SMARTCONF_SIM_KERNELS_H_

/**
 * @file
 * Kernel layer for the data-plane hot loops.
 *
 * Every kernel has one scalar reference implementation, and that
 * reference is the *canonical definition* of its output.  Two kernels,
 * aliasResolve() and gaussianPairs(), also carry an AVX2 body (gathers
 * and 4-wide Box-Muller); on an x86-64 host whose CPU reports AVX2 they
 * run it, everywhere else they run the reference.  The choice is one
 * branch on hasAvx2(), fixed for the life of the process.  The AVX2
 * bodies are bit-identical to the reference: aliasResolve is pure
 * integer math, and gaussianPairs runs the same sequence of correctly
 * rounded IEEE ops on wider registers (kernels_gauss.inc, built with
 * -ffp-contract=off).  The other kernels measured no faster with
 * vector bodies (EXPERIMENTS.md), so they are plain functions.
 *
 * Floating-point reductions pin one accumulation order — four virtual
 * lanes, element i feeding lane i % 4, combined as
 * (L0 op L2) op (L1 op L3), tail elements folded serially afterwards —
 * so their results do not depend on how the compiler vectorizes them.
 *
 * All kernels are safe for concurrent callers: they touch only their
 * arguments.
 */

#include <cstddef>
#include <cstdint>

namespace smartconf::sim::kernels {

/**
 * xoshiro256** output map, elementwise in place:
 * x -> rotl64(x * 5, 7) * 9.
 *
 * Rng::fillRaw() records the pre-transition s[1] state words (the
 * serial dependency) and applies the starstar output function to the
 * whole buffer afterwards in one dependency-free loop; the result is
 * the serial stream word-for-word.
 */
void rngOutputMap(std::uint64_t *words, std::size_t n);

/**
 * Alias-table draw resolution, in place: words[i] (one raw PRNG word
 * per draw) -> sampled index.  Packed-entry layout and the slot /
 * accept / alias math are exactly AliasTable::sample():
 *   slot  = ((w >> 32) * n_slots) >> 32
 *   entry = entries[slot]
 *   out   = low32(w) < high32(entry) ? slot : low32(entry)
 * The AVX2 body gathers four entries per step.
 */
void aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
                  std::uint64_t *words, std::size_t n);

/**
 * Sum with the pinned lane-then-combine order described above.
 * Returns 0.0 for n == 0.  NaN/Inf propagate as IEEE addition does.
 */
double reduceSum(const double *x, std::size_t n);

/** reduceMinMax() result; identities (+inf, -inf) when n == 0. */
struct MinMax
{
    double min;
    double max;
};

/**
 * Min and max with the pinned lane order.  The element rule is
 *   min: m = (x < m) ? x : m      max: M = (x > M) ? x : M
 * — literally minpd/maxpd(x, acc) semantics, so a NaN observation
 * never replaces the accumulator (matching the pre-kernel scalar
 * std::max fold).
 */
MinMax reduceMinMax(const double *x, std::size_t n);

/**
 * Payload checksum: four interleaved FNV-1a-style lanes over 8-byte
 * words.  Definition (P = 0x100000001b3, B = 0xcbf29ce484222325):
 *   lane[j]   = B ^ (j * 0x9e3779b97f4a7c15),        j in [0, 4)
 *   per 32-byte block: lane[j] = (lane[j] ^ w[j]) * P
 *   h = B; for j in 0..3: h = (h ^ lane[j]) * P
 *   remaining full words:  h = (h ^ w) * P
 *   trailing bytes:        h = (h ^ byte) * P
 * Interleaving breaks the serial multiply dependency FNV-1a has, so
 * the four lane multiplies overlap in the pipeline.  NOT the same
 * value as the old word-serial checksum64, which is why
 * DiskRunCache's format version moved.
 */
std::uint64_t checksum(const void *data, std::size_t len);

/**
 * Box-Muller: 2*pairs raw PRNG words -> 2*pairs standard normals.
 * For each pair (w0 = words[2i], w1 = words[2i+1]):
 *   u1  = ((w0 >> 12) + 0.5) * 2^-52          in (0, 1)
 *   u2  =  (w1 >> 12)        * 2^-52          in [0, 1)
 *   mag = sqrt(-2 ln u1)
 *   z[2i] = mag * cos(2 pi u2),  z[2i+1] = mag * sin(2 pi u2)
 * ln and sin/cos are evaluated from fixed polynomials inside the
 * kernel (see sim/kernels_gauss.inc) rather than libm, so the kernel —
 * not the host's math library — defines the stream, and the AVX2 body
 * is bit-identical to the reference (the TU is built with
 * -ffp-contract=off and uses only correctly-rounded IEEE ops).
 * Accuracy vs. libm is ~1e-15
 * relative, far below the noise this kernel generates.  This is the
 * engine behind Rng::gaussian()/gaussianBatch().
 */
void gaussianPairs(const std::uint64_t *words, double *z,
                   std::size_t pairs);

/**
 * True when this process runs the AVX2 bodies of aliasResolve() and
 * gaussianPairs(): an x86-64 build on a CPU that reports AVX2.
 * Detected once, on first call.
 */
bool hasAvx2();

/**
 * The scalar references of the two kernels with an AVX2 body, callable
 * directly so tests and benches can compare the dispatched body with
 * the definition.
 */
namespace reference {

void aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
                  std::uint64_t *words, std::size_t n);

void gaussianPairs(const std::uint64_t *words, double *z,
                   std::size_t pairs);

} // namespace reference

} // namespace smartconf::sim::kernels

#endif // SMARTCONF_SIM_KERNELS_H_
