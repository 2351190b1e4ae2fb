/**
 * @file
 * Fig. 11 — slowdown over the insecure system, without timing
 * protection: Tiny ORAM, static-7 and dynamic-3 shadow block
 * designs.  Paper: Tiny ~2.8x, static-7 2.35x, dynamic-3 2.21x
 * on average; mcf/libquantum/omnetpp stand out (memory intensity).
 */

#include "SlowdownSweep.hh"

static int
runBench()
{
    return sboram::bench::runSlowdownSweep(false);
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
