/**
 * @file
 * The perfbench binary.  run.py builds it and calls
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--span-file PATH] [--setup-only]
 *
 * and reads the JSON object on its last stdout line: setup_s,
 * attempted, failed, the payload digest and the metrics by name.
 * Human-readable notes go to stderr.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep-cold|replay-warm|fleet --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--span-file PATH] "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    startSetup();
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-only") {
            opts.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage((a + " needs a value").c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = parseUint(v, "--seed");
        else if (a == "--seconds")
            opts.seconds = static_cast<double>(parseUint(v, "--seconds"));
        else if (a == "--trace")
            opts.trace = parseUint(v, "--trace") != 0;
        else if (a == "--work-dir")
            opts.work_dir = v;
        else if (a == "--span-file")
            opts.span_file = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opts.work_dir.empty())
        usage("--work-dir is required");
    if (opts.seconds < 1.0)
        usage("--seconds must be at least 1");
    std::filesystem::create_directories(opts.work_dir);

    std::fprintf(stderr,
                 "perfbench: host cpus=%u compiler=%s workers=%zu "
                 "workload=%s seed=%llu trace=%d\n",
                 std::thread::hardware_concurrency(), __VERSION__,
                 kWorkers, opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 opts.trace ? 1 : 0);

    Report rep;
    int rc = 0;
    if (opts.workload == "sweep-cold")
        rc = runSweepCold(opts, rep);
    else if (opts.workload == "replay-warm")
        rc = runReplayWarm(opts, rep);
    else if (opts.workload == "fleet")
        rc = runFleetWorkload(opts, rep);
    else
        usage(("unknown workload '" + opts.workload + "'").c_str());
    removeTree(opts.work_dir);
    if (rc != 0)
        return rc;

    std::printf("{\"setup_s\": %.9g, \"attempted\": %llu, \"failed\": "
                "%llu, \"payload\": \"%016llx\", \"metrics\": {",
                rep.setup_s, static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.payload));
    bool first = true;
    for (const auto &[name, value] : rep.metrics) {
        std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                    std::isfinite(value) ? value : 0.0);
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
