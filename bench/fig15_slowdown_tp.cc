/**
 * @file
 * Fig. 15 — slowdown over the insecure system WITH timing
 * protection: Tiny ORAM, static-4 and dynamic-3.  The paper's
 * headline: static partitioning cuts 30% and dynamic partitioning
 * 32% of the execution time vs Tiny ORAM.
 */

#include "SlowdownSweep.hh"

static int
runBench()
{
    return sboram::bench::runSlowdownSweep(true);
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
