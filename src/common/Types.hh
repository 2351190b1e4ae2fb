/**
 * @file
 * Fundamental scalar types shared by every module of the Shadow Block
 * ORAM simulator.
 */

#ifndef SBORAM_COMMON_TYPES_HH
#define SBORAM_COMMON_TYPES_HH

#include <cstdint>

/**
 * Marks a function as being on the per-access hot path.  Expands to
 * nothing at compile time; it is a machine-checked annotation for
 * sblint's `hot-path-alloc` rule, which rejects heap allocation and
 * hash-table use inside any function body carrying this marker.
 */
#define SB_HOT

/**
 * Declassifies an expression for sblint's taint engine: atoms inside
 * the parens neither seed nor extend a secret flow, so branching or
 * indexing on the result is not a finding.  Expands to the expression
 * unchanged.  Use it only where secret data legitimately exits the
 * oblivious domain (e.g. handing decrypted payload words back to the
 * simulated LLC, or a test oracle comparing plaintexts) and say why
 * in a comment at the use site — every occurrence is an audited hole
 * in the obliviousness contract.
 */
#define SB_DECLASSIFY(x) (x)

namespace sboram {

/** Program (block-granularity) address as seen by the LLC. */
using Addr = std::uint64_t;

/** Leaf label of the ORAM tree, in [0, 2^L). */
using LeafLabel = std::uint64_t;

/** Index of a bucket in the heap-ordered ORAM tree array. */
using BucketIndex = std::uint64_t;

/** Simulated time in CPU cycles. */
using Cycles = std::uint64_t;

/** Simulated energy in picojoules. */
using PicoJoules = double;

/** Size of one ORAM block, and of one cache line (Table I). */
inline constexpr std::uint64_t kBlockBytes = 64;

/** Sentinel for "no address". */
inline constexpr Addr kInvalidAddr = ~static_cast<Addr>(0);

/** Sentinel for "no cycle time yet". */
inline constexpr Cycles kNoCycles = ~static_cast<Cycles>(0);

/** Operation type of an LLC request reaching the ORAM controller. */
enum class Op : std::uint8_t { Read, Write };

} // namespace sboram

#endif // SBORAM_COMMON_TYPES_HH
