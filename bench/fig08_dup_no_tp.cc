/**
 * @file
 * Fig. 8 — normalized data access time and data request interval
 * (DRI) for RD-Dup and HD-Dup vs Tiny ORAM, without timing
 * protection.  Each workload's bars are normalized to Tiny ORAM's
 * total execution time (Tiny-Data + Tiny-Interval = 1.0).
 */

#include "DupBreakdown.hh"

static int
runBench()
{
    return sboram::bench::runDupBreakdown(false);
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
