/**
 * @file
 * Per-kernel microbenchmark for the kernel layer (sim/kernels.h):
 * ns/element for every kernel as the simulation calls it, so a kernel
 * regressing is a number the regression gate can hold on to
 * (`bench_micro_kernels --json`, floors recorded in BENCH_kernels.json
 * via bench/check_regression --update).  The two kernels with an AVX2
 * body (alias_sample, gaussian) also time kernels::reference:: on the
 * same input, so the vector body's advantage stays measured.
 *
 * "Element" is one uint64 word for the RNG/alias kernels, one double
 * for the reductions, one normal for gaussian and one byte for the
 * checksum.  Batch sizes use a hot size (4096) large enough that call
 * overhead amortizes out — the point is kernel body throughput, not
 * call cost (bench_sweep carries the end-to-end number).
 *
 * Timing is best-of-reps over a fixed iteration budget per kernel; the
 * whole binary stays well under a second so the regression gate can
 * afford to run it every time.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/alias_sampler.h"
#include "sim/kernels.h"
#include "sim/rng.h"

namespace kernels = smartconf::sim::kernels;
using smartconf::sim::AliasTable;
using smartconf::sim::Rng;

namespace {

constexpr std::size_t kWords = 4096;  ///< uint64 elements per batch
constexpr std::size_t kBytes = 65536; ///< checksum payload

/** Best-of-reps ns/element for @p body run @p iters times per rep. */
template <typename Body>
double
nsPerElement(std::size_t elements, int iters, Body &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            body();
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            (static_cast<double>(iters) *
             static_cast<double>(elements));
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

struct Row
{
    const char *name;
    double ns = 0.0;
    double reference_ns = 0.0; ///< 0 when the kernel has one body
};

/** volatile sink so reductions/checksums cannot be optimized away. */
volatile std::uint64_t g_sink;

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json")
            json = true;

    // Inputs are built once and reused; every kernel reads fresh from
    // L1/L2, which is how the hot loops use them (scratch buffers).
    std::vector<std::uint64_t> scratch(kWords);
    std::vector<double> doubles(kWords);
    std::vector<double> normals(kWords);
    std::vector<unsigned char> bytes(kBytes);
    Rng seedr(0xbe7c4);
    for (auto &d : doubles)
        d = seedr.uniform(-1e6, 1e6);
    for (auto &b : bytes)
        b = static_cast<unsigned char>(seedr.next());
    const auto table = AliasTable::zipfian(100000, 0.99);
    Rng rng(1);

    using AliasFn = void (*)(const std::uint64_t *, std::uint64_t,
                             std::uint64_t *, std::size_t);
    using GaussFn = void (*)(const std::uint64_t *, double *, std::size_t);
    // End-to-end Zipfian draw (fillRaw + aliasResolve), the shape the
    // workload generators use per tick.
    const auto alias = [&](AliasFn resolve) {
        return nsPerElement(kWords, 400, [&] {
            rng.fillRaw(scratch.data(), kWords);
            resolve(table->entries(), table->size(), scratch.data(),
                    kWords);
        });
    };
    // End-to-end normal draw (fillRaw + polynomial Box-Muller), the
    // YCSB size-jitter path; element = one normal.
    const auto gaussian = [&](GaussFn pairs) {
        return nsPerElement(kWords, 400, [&] {
            rng.fillRaw(scratch.data(), kWords);
            pairs(scratch.data(), normals.data(), kWords / 2);
        });
    };

    const Row rows[] = {
        {"rng_fill", nsPerElement(kWords, 400, [&] {
             rng.fillRaw(scratch.data(), kWords);
         })},
        {"alias_sample", alias(kernels::aliasResolve),
         alias(kernels::reference::aliasResolve)},
        {"reduce_sum", nsPerElement(kWords, 400, [&] {
             g_sink = static_cast<std::uint64_t>(
                 kernels::reduceSum(doubles.data(), doubles.size()));
         })},
        {"reduce_minmax", nsPerElement(kWords, 400, [&] {
             const kernels::MinMax m =
                 kernels::reduceMinMax(doubles.data(), doubles.size());
             g_sink = static_cast<std::uint64_t>(m.min + m.max);
         })},
        {"checksum", nsPerElement(kBytes, 100, [&] {
             g_sink = kernels::checksum(bytes.data(), kBytes);
         })},
        {"gaussian", gaussian(kernels::gaussianPairs),
         gaussian(kernels::reference::gaussianPairs)},
    };
    const char *isa = kernels::hasAvx2() ? "avx2" : "scalar";

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"bench_micro_kernels\",\n");
        std::printf("  \"isa_detected\": \"%s\",\n", isa);
        std::printf("  \"isa_active\": \"%s\",\n", isa);
        std::printf("  \"kernels\": [\n");
        const std::size_t n = sizeof rows / sizeof rows[0];
        for (std::size_t i = 0; i < n; ++i) {
            const Row &row = rows[i];
            std::printf("    {\"name\": \"%s\", \"ns_per_element\": %.4f",
                        row.name, row.ns);
            if (row.reference_ns > 0.0)
                std::printf(", \"reference_ns_per_element\": %.4f, "
                            "\"speedup_vs_reference\": %.2f",
                            row.reference_ns, row.reference_ns / row.ns);
            std::printf("}%s\n", i + 1 < n ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("Kernel microbenchmarks (isa: %s; scalar reference in "
                "parens for the AVX2 kernels)\n\n",
                isa);
    for (const Row &row : rows) {
        std::printf("%-14s %8.3f ns/elem", row.name, row.ns);
        if (row.reference_ns > 0.0)
            std::printf("  (reference %8.3f, %.2fx)", row.reference_ns,
                        row.reference_ns / row.ns);
        std::printf("\n");
    }
    return 0;
}
