/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload batch-rd|batch-hd|svc-ladder --seed N
 *             --seconds S --trace 0|1 [--spans-out FILE]
 *
 * Prints notes, then one JSON result line (correct, attempted, failed,
 * metrics).  --trace 0 reports the end-to-end metrics; --trace 1 the
 * per-layer ones.  Exits 1 when a correctness check failed, 2 on bad
 * arguments, 3 when the build cannot produce meaningful timings.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "BuildGuard.hh"
#include "Workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s\nusage: %s --workload batch-rd|batch-hd|svc-ladder "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
                 why.c_str(), argv0);
    return 2;
}

bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end != nullptr && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0], "missing value for " + arg);
        const std::string val = argv[++i];
        double num = 0.0;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            if (!parseNumber(val, num) || num < 0)
                return usage(argv[0], "bad --seed " + val);
            opt.seed = static_cast<std::uint64_t>(num);
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!parseNumber(val, num) || num <= 0)
                return usage(argv[0], "bad --seconds " + val);
            opt.seconds = num;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage(argv[0], "bad --trace " + val);
            opt.trace = val == "1";
        } else if (arg == "--spans-out") {
            opt.spansOut = val;
        } else {
            return usage(argv[0], "unknown argument " + arg);
        }
    }
    if (!haveSeed)
        return usage(argv[0], "--seed is required");
    const bool batch =
        opt.workload == "batch-rd" || opt.workload == "batch-hd";
    if (!batch && opt.workload != "svc-ladder")
        return usage(argv[0], "unknown workload '" + opt.workload + "'");

    if (const char *why = timingRefusal()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings: %s\n",
                     why);
        return 3;
    }

    const RunResult r = batch ? runBatch(opt) : runSvcLadder(opt);
    for (const std::string &note : r.notes)
        std::printf("# %s %s\n", opt.workload.c_str(), note.c_str());
    std::printf("%s\n", resultJson(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
