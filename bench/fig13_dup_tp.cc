/**
 * @file
 * Fig. 13 — normalized data access time and DRI for RD-Dup and
 * HD-Dup vs Tiny ORAM, WITH timing protection (constant-rate ORAM
 * requests).  The DRI share grows because dummy requests fill idle
 * slots; RD-Dup's early forwarding lets following requests catch
 * earlier slots, suppressing dummies.
 */

#include "DupBreakdown.hh"

static int
runBench()
{
    return sboram::bench::runDupBreakdown(true);
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
