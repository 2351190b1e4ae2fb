/**
 * @file
 * sblint — the repo-specific static analyzer.
 *
 * A whole-program analyzer (no libclang) that mechanically enforces
 * the contracts every result in this repo rests on.  Version 2 grew
 * a real dataflow core: a lexer feeds a per-TU function index and a
 * cross-file call graph (Program.hh), over which a forward taint
 * pass seeded from SB_SECRET annotations runs to a fixed point
 * (Taint.hh).  Secret-dependent branches, indexing, loop bounds, and
 * variable-length operations are findings that carry the full
 * propagation chain; SB_DECLASSIFY(expr) is the audited sanitizer.
 * The same call graph makes hot-path-alloc transitive.  The v1
 * token/line rules (deterministic iteration, ambient randomness,
 * checked serde, pooled allocation, constant-time compares, lock
 * discipline, ...) still run unchanged.
 *
 * Violations that are intentional carry a per-line suppression with a
 * mandatory written justification, as a `//` line comment:
 *
 *     code();  // sblint:allow(rule-name): why this is sound
 *     // sblint:allow-next-line(rule-name): why the next line is sound
 *     code();
 *
 * A suppression naming an unknown rule, or carrying no justification
 * text, is itself a finding (`bad-suppression`), and a suppression
 * that matches no raw finding on its target line is dead
 * (`dead-suppression`) — the analyzer never silently ignores a typo
 * or a stale allow.
 *
 * The scanner is deliberately a library (sb_lint) with a thin CLI on
 * top so the unit tests can lint in-memory fixture snippets without
 * touching the filesystem.
 */

#ifndef SBORAM_TOOLS_SBLINT_LINT_HH
#define SBORAM_TOOLS_SBLINT_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sboram {
namespace lint {

/** Every rule the analyzer knows.  Order is the report order. */
enum class Rule : std::uint8_t
{
    UnorderedIteration,   ///< unordered-iteration
    AmbientNondeterminism,///< ambient-nondeterminism
    TaintedBranch,        ///< tainted-branch
    TaintedIndex,         ///< tainted-index
    TaintedLoopBound,     ///< tainted-loop-bound
    TaintedLength,        ///< tainted-length
    UncheckedSerde,       ///< unchecked-serde
    RawNewDelete,         ///< raw-new-delete
    BannedFn,             ///< banned-fn
    FloatAccum,           ///< float-accum
    MissingStatsLock,     ///< missing-stats-lock
    UntrackedMetric,      ///< untracked-metric
    HotPathAlloc,         ///< hot-path-alloc
    SwallowedException,   ///< swallowed-exception
    UnboundedWait,        ///< unbounded-wait
    DeadSuppression,      ///< dead-suppression (meta rule; never allowed)
    BadSuppression,       ///< bad-suppression (meta rule; never allowed)
};

/** Registry row: stable name + one-line contract description. */
struct RuleInfo
{
    Rule rule;
    const char *name;
    const char *description;
};

/** All registered rules, in report order. */
const std::vector<RuleInfo> &ruleRegistry();

/** Rule for a stable name; false when the name is unknown. */
bool ruleFromName(const std::string &name, Rule &out);

/** Stable name of @p rule. */
const char *ruleName(Rule rule);

/** One diagnostic. */
struct Finding
{
    std::string file;    ///< Repo-relative path as given to the linter.
    std::uint32_t line = 0;  ///< 1-based.
    Rule rule = Rule::BadSuppression;
    std::string message;

    bool operator==(const Finding &) const = default;
};

/** A source file handed to the linter (path decides rule scoping). */
struct SourceFile
{
    std::string path;     ///< Repo-relative, '/'-separated.
    std::string content;
};

/**
 * Lint a set of sources as one unit.  Cross-file state (the SB_SECRET
 * annotation set) is collected over *all* inputs first, then every
 * file is scanned; findings come back ordered by (file, line, rule).
 * Suppressed findings are dropped; defective suppressions surface as
 * `bad-suppression` findings.
 */
std::vector<Finding> lintSources(const std::vector<SourceFile> &sources);

/** Human-readable one-line rendering: `file:line: [rule] message`. */
std::string formatHuman(const Finding &f);

/** Append @p s to @p out with JSON string escaping (no quotes). */
void jsonEscape(std::string &out, const std::string &s);

/** Serialize findings as a JSON array (stable field order). */
std::string findingsToJson(const std::vector<Finding> &findings);

/**
 * Parse findingsToJson output back.  Returns false on malformed
 * input or an unknown rule name.  Only consumes the exact schema the
 * serializer emits — this is a round-trip check, not a JSON library.
 */
bool findingsFromJson(const std::string &json,
                      std::vector<Finding> &out);

} // namespace lint
} // namespace sboram

#endif // SBORAM_TOOLS_SBLINT_LINT_HH
