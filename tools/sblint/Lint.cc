#include "Lint.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "Lex.hh"
#include "Program.hh"
#include "Taint.hh"

namespace sboram {
namespace lint {

namespace {

// ---------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------

const std::vector<RuleInfo> kRegistry = {
    {Rule::UnorderedIteration, "unordered-iteration",
     "iteration over std::unordered_map/set in a sequence-sensitive "
     "module (src/oram, src/shadow, src/ckpt, src/sim, src/fault) — "
     "order is not deterministic across processes; iterate a sorted "
     "view or justify why order cannot matter"},
    {Rule::AmbientNondeterminism, "ambient-nondeterminism",
     "ambient randomness or clock/environment read outside "
     "src/common/Rng.hh and bench/BenchUtil.hh — all simulator "
     "randomness must flow through the seeded Rng/PRF"},
    {Rule::TaintedBranch, "tainted-branch",
     "if/switch/ternary/short-circuit condition on data that the "
     "taint engine traces back to an SB_SECRET source (src/oram, "
     "src/shadow, src/svc) — the modelled hardware must not branch "
     "on block plaintext; restructure, or wrap a justified exit in "
     "SB_DECLASSIFY"},
    {Rule::TaintedIndex, "tainted-index",
     "array/pointer subscript whose index is secret-tainted — "
     "secret-dependent addressing leaks through the access trace"},
    {Rule::TaintedLoopBound, "tainted-loop-bound",
     "while/for condition on secret-tainted data — a "
     "secret-dependent iteration count leaks through trace length"},
    {Rule::TaintedLength, "tainted-length",
     "resize/reserve/substr/pool-acquire size or "
     "memcpy/memmove/memset byte count that is secret-tainted — "
     "variable-length operations leak through sizes"},
    {Rule::UncheckedSerde, "unchecked-serde",
     "Serde read helper called for its side effect with the typed "
     "result discarded — use Deserializer::skip() to skip bytes, or "
     "consume the value"},
    {Rule::RawNewDelete, "raw-new-delete",
     "raw new/delete outside the pool/arena files — use the owning "
     "containers or VectorPool"},
    {Rule::BannedFn, "banned-fn",
     "banned libc call: memcmp on MAC/tag buffers must use the "
     "constant-time compare (crypto/CtEq.hh); strcpy/sprintf/strcat/"
     "gets are always out"},
    {Rule::FloatAccum, "float-accum",
     "floating-point accumulation in a Stats/metrics counter that "
     "feeds byte-identical sweep output — accumulation order must be "
     "fixed and justified"},
    {Rule::MissingStatsLock, "missing-stats-lock",
     "shared-state write on an ExperimentRunner worker path without "
     "the owning-thread seam: no by-reference captures in worker "
     "tasks; g_* state in src/sim needs a lock_guard in scope"},
    {Rule::UntrackedMetric, "untracked-metric",
     "MetricRegistry counter/gauge/histogramLog2 or a "
     "timeline stage() registered under a name that is not a "
     "kMetric*/kStage* constant from src/obs/MetricNames.hh — ad-hoc "
     "names fragment the time-series and stage schema; declare the "
     "name once and reference the constant"},
    {Rule::HotPathAlloc, "hot-path-alloc",
     "allocation or hash-container traffic inside a function "
     "annotated SB_HOT (the per-access hot path): raw new, "
     "make_unique/make_shared, constructing a std::vector, or "
     "touching a std::unordered_map/set — hot paths must be "
     "allocation-free; use the VectorPool or per-object scratch"},
    {Rule::SwallowedException, "swallowed-exception",
     "catch body that neither rethrows, returns, exits, nor records "
     "the error (current_exception / test-failure macro) — a silently "
     "swallowed exception hides real failures; handle it or carry an "
     "sblint:allow justification"},
    {Rule::UnboundedWait, "unbounded-wait",
     "condition-variable wait() or future get() with no deadline or "
     "stop condition in src/ — a lost notification hangs the process "
     "instead of failing; use wait_for/wait_until with a stop "
     "predicate, or justify why the wakeup is guaranteed"},
    {Rule::DeadSuppression, "dead-suppression",
     "sblint:allow directive whose target line has no finding of the "
     "named rule — a stale allow hides nothing today and masks a "
     "future regression; remove it or fix the rule name"},
    {Rule::BadSuppression, "bad-suppression",
     "malformed sblint suppression: unknown rule name or missing "
     "justification text"},
};

// ---------------------------------------------------------------------
// Small helpers over paths
// ---------------------------------------------------------------------

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
pathContains(const std::string &path, const std::string &needle)
{
    return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

struct Suppressions
{
    /** line (1-based) -> rules allowed on that line. */
    std::map<std::uint32_t, std::set<Rule>> allow;
    std::vector<Finding> defects;  ///< bad-suppression findings.
};

void
parseDirective(const std::string &file, std::uint32_t lineNo,
               const std::string &text, std::size_t at, bool nextLine,
               Suppressions &out)
{
    const std::size_t open = text.find('(', at);
    if (open == std::string::npos) {
        out.defects.push_back(
            {file, lineNo, Rule::BadSuppression,
             "sblint:allow directive without a rule list"});
        return;
    }
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) {
        out.defects.push_back(
            {file, lineNo, Rule::BadSuppression,
             "unterminated sblint:allow rule list"});
        return;
    }

    // Mandatory justification: "): <non-empty text>".
    std::size_t p = close + 1;
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p])))
        ++p;
    bool justified = p < text.size() && text[p] == ':';
    if (justified) {
        ++p;
        while (p < text.size() &&
               std::isspace(static_cast<unsigned char>(text[p])))
            ++p;
        justified = p < text.size();
    }
    if (!justified) {
        out.defects.push_back(
            {file, lineNo, Rule::BadSuppression,
             "suppression lacks a justification (expected "
             "\"sblint:allow(rule): why this is sound\")"});
        return;
    }

    std::set<Rule> rules;
    std::string name;
    std::istringstream list(text.substr(open + 1, close - open - 1));
    while (std::getline(list, name, ',')) {
        // Trim.
        const auto b = name.find_first_not_of(" \t");
        const auto e = name.find_last_not_of(" \t");
        name = b == std::string::npos
                   ? std::string()
                   : name.substr(b, e - b + 1);
        Rule r;
        if (!ruleFromName(name, r) || r == Rule::BadSuppression ||
            r == Rule::DeadSuppression) {
            out.defects.push_back(
                {file, lineNo, Rule::BadSuppression,
                 "suppression names unknown rule '" + name + "'"});
            return;
        }
        rules.insert(r);
    }
    if (rules.empty()) {
        out.defects.push_back(
            {file, lineNo, Rule::BadSuppression,
             "empty sblint:allow rule list"});
        return;
    }
    const std::uint32_t target = nextLine ? lineNo + 1 : lineNo;
    out.allow[target].insert(rules.begin(), rules.end());
}

Suppressions
collectSuppressions(const std::string &file, const StrippedFile &sf)
{
    Suppressions out;
    for (std::size_t ln = 0; ln < sf.comment.size(); ++ln) {
        const std::string &c = sf.comment[ln];
        const std::uint32_t lineNo = static_cast<std::uint32_t>(ln + 1);
        std::size_t pos = 0;
        while ((pos = c.find("sblint:allow", pos)) !=
               std::string::npos) {
            const bool nextLine =
                c.compare(pos, 22, "sblint:allow-next-line") == 0;
            parseDirective(file, lineNo, c, pos, nextLine, out);
            pos += nextLine ? 22 : 12;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Declaration collection
// ---------------------------------------------------------------------

/** Variable names declared as std::unordered_map/unordered_set. */
std::set<std::string>
collectUnorderedVars(const std::vector<Tok> &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text != "unordered_map" &&
            t[i].text != "unordered_set")
            continue;
        if (i + 1 >= t.size() || t[i + 1].text != "<")
            continue;
        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == std::string::npos)
            continue;
        // Skip ref/pointer/cv tokens between the type and the name.
        std::size_t j = close + 1;
        while (j < t.size() &&
               (t[j].text == "&" || t[j].text == "*" ||
                t[j].text == "const"))
            ++j;
        if (j < t.size() && isIdent(t[j].text)) {
            // An identifier followed by '(' is a function name.
            if (j + 1 >= t.size() || t[j + 1].text != "(")
                names.insert(t[j].text);
        }
    }
    return names;
}

/**
 * Variable names declared as std::future/std::shared_future (or the
 * ExperimentRunner's Future) — the receivers whose .get() blocks
 * without a deadline.  Collected per file: future-typed locals are
 * short-lived, and a cross-file union would let an unrelated `f`
 * elsewhere turn every `f.get()` into a finding.
 */
std::set<std::string>
collectFutureVars(const std::vector<Tok> &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text != "future" && t[i].text != "shared_future" &&
            t[i].text != "Future")
            continue;
        if (i + 1 >= t.size() || t[i + 1].text != "<")
            continue;
        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == std::string::npos)
            continue;
        std::size_t j = close + 1;
        while (j < t.size() &&
               (t[j].text == "&" || t[j].text == "*" ||
                t[j].text == "const"))
            ++j;
        if (j < t.size() && isIdent(t[j].text)) {
            // An identifier followed by '(' is a function name.
            if (j + 1 >= t.size() || t[j + 1].text != "(")
                names.insert(t[j].text);
        }
    }
    return names;
}

/**
 * Identifiers beginning with "kMetric" declared in MetricNames.hh —
 * the canonical metric-name vocabulary for the untracked-metric rule.
 */
void
collectMetricNames(const std::vector<Tok> &t,
                   std::set<std::string> &out)
{
    for (const Tok &tok : t)
        if (startsWith(tok.text, "kMetric") ||
            startsWith(tok.text, "kStage"))
            out.insert(tok.text);
}

/** Variable names declared double (incl. the PicoJoules alias). */
std::set<std::string>
collectDoubleVars(const std::vector<Tok> &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].text != "double" && t[i].text != "PicoJoules")
            continue;
        std::size_t j = i + 1;
        while (j < t.size() &&
               (t[j].text == "&" || t[j].text == "*" ||
                t[j].text == "const"))
            ++j;
        if (j < t.size() && isIdent(t[j].text) &&
            (j + 1 >= t.size() || t[j + 1].text != "("))
            names.insert(t[j].text);
    }
    return names;
}

// ---------------------------------------------------------------------
// Per-rule scanners
// ---------------------------------------------------------------------

bool
inSeqSensitiveModule(const std::string &path)
{
    return startsWith(path, "src/oram/") ||
           startsWith(path, "src/shadow/") ||
           startsWith(path, "src/ckpt/") ||
           startsWith(path, "src/sim/") ||
           startsWith(path, "src/fault/");
}

void
scanUnorderedIteration(const std::string &path,
                       const std::vector<Tok> &t,
                       const std::set<std::string> &vars,
                       std::vector<Finding> &out)
{
    if (!inSeqSensitiveModule(path))
        return;
    if (vars.empty())
        return;

    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for over an unordered container.
        if (t[i].text == "for" && i + 1 < t.size() &&
            t[i + 1].text == "(") {
            const std::size_t close =
                matchForward(t, i + 1, "(", ")");
            if (close == std::string::npos)
                continue;
            std::size_t colon = std::string::npos;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (t[j].text == ":") {
                    colon = j;
                    break;
                }
            }
            if (colon == std::string::npos)
                continue;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (isIdent(t[j].text) && vars.count(t[j].text)) {
                    out.push_back(
                        {path, t[i].line, Rule::UnorderedIteration,
                         "range-for over unordered container '" +
                             t[j].text +
                             "' — iteration order is not "
                             "deterministic; iterate sorted keys"});
                    break;
                }
            }
        }
        // Explicit iterator walk: var.begin() / var.cbegin().
        if ((t[i].text == "begin" || t[i].text == "cbegin") &&
            i >= 2 && i + 1 < t.size() && t[i + 1].text == "(" &&
            (t[i - 1].text == "." || t[i - 1].text == "->") &&
            vars.count(t[i - 2].text)) {
            out.push_back(
                {path, t[i].line, Rule::UnorderedIteration,
                 "iterator walk over unordered container '" +
                     t[i - 2].text +
                     "' — iteration order is not deterministic"});
        }
    }
}

void
scanAmbientNondeterminism(const std::string &path,
                          const std::vector<Tok> &t,
                          std::vector<Finding> &out)
{
    if (path == "src/common/Rng.hh" || path == "bench/BenchUtil.hh")
        return;
    static const std::set<std::string> kCallBanned = {
        "rand", "srand", "time", "clock", "gettimeofday", "getenv",
        "random"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text == "random_device") {
            out.push_back({path, t[i].line,
                           Rule::AmbientNondeterminism,
                           "std::random_device draws entropy outside "
                           "the seeded Rng — runs become "
                           "irreproducible"});
            continue;
        }
        if (!kCallBanned.count(t[i].text))
            continue;
        if (i + 1 >= t.size() || t[i + 1].text != "(")
            continue;
        // A member call obj.time(...) is not libc time().
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))
            continue;
        out.push_back({path, t[i].line, Rule::AmbientNondeterminism,
                       "'" + t[i].text +
                           "()' is ambient nondeterminism — thread "
                           "all randomness/config through the seeded "
                           "Rng or a constructor parameter"});
    }
}

void
scanUncheckedSerde(const std::string &path, const std::vector<Tok> &t,
                   std::vector<Finding> &out)
{
    static const std::set<std::string> kReaders = {
        "u8", "u32", "u64", "f64", "str",
        "vecU8", "vecU32", "vecU64"};
    for (std::size_t i = 0; i + 5 < t.size(); ++i) {
        // Statement start: beginning of file or after ; { }.
        if (i > 0 && t[i - 1].text != ";" && t[i - 1].text != "{" &&
            t[i - 1].text != "}")
            continue;
        std::size_t j = i;
        // Optional explicit discard "(void)" still wastes the typed
        // result; the sanctioned spelling is Deserializer::skip().
        if (t[j].text == "(" && j + 2 < t.size() &&
            t[j + 1].text == "void" && t[j + 2].text == ")")
            j += 3;
        if (j + 4 >= t.size() || !isIdent(t[j].text))
            continue;
        if (t[j + 1].text != "." && t[j + 1].text != "->")
            continue;
        if (!kReaders.count(t[j + 2].text))
            continue;
        if (t[j + 3].text == "(" && t[j + 4].text == ")" &&
            j + 5 < t.size() && t[j + 5].text == ";") {
            out.push_back(
                {path, t[j].line, Rule::UncheckedSerde,
                 "result of '" + t[j + 2].text +
                     "()' discarded — use Deserializer::skip() or "
                     "consume the value"});
        }
    }
}

void
scanRawNewDelete(const std::string &path, const std::vector<Tok> &t,
                 std::vector<Finding> &out)
{
    if (path == "src/common/VectorPool.hh")
        return;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &x = t[i].text;
        if (x != "new" && x != "delete")
            continue;
        const std::string prev = i > 0 ? t[i - 1].text : "";
        if (x == "delete" && (prev == "=" || prev == "operator"))
            continue;  // Deleted function / operator overload.
        if (x == "new" && prev == "operator")
            continue;
        out.push_back({path, t[i].line, Rule::RawNewDelete,
                       "raw '" + x +
                           "' — use std::make_unique/containers or "
                           "the VectorPool arena"});
    }
}

void
scanBannedFn(const std::string &path, const std::vector<Tok> &t,
             std::vector<Finding> &out)
{
    static const std::set<std::string> kBanned = {
        "memcmp", "strcpy", "strcat", "sprintf", "vsprintf", "gets"};
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!kBanned.count(t[i].text) || t[i + 1].text != "(")
            continue;
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))
            continue;
        const bool isMemcmp = t[i].text == "memcmp";
        out.push_back(
            {path, t[i].line, Rule::BannedFn,
             isMemcmp
                 ? std::string(
                       "memcmp is not constant-time — compare "
                       "MAC/tag bytes with constTimeEq "
                       "(crypto/CtEq.hh), or justify public data")
                 : "'" + t[i].text + "' is banned (unbounded/unsafe)"});
    }
}

void
scanFloatAccum(const std::string &path, const std::vector<Tok> &t,
               std::vector<Finding> &out)
{
    const bool inScope = pathContains(path, "src/common/Stats") ||
                         startsWith(path, "src/sim/") ||
                         pathContains(path, "src/mem/EnergyModel");
    if (!inScope)
        return;
    const std::set<std::string> doubles = collectDoubleVars(t);
    if (doubles.empty())
        return;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i + 1].text != "+=" && t[i + 1].text != "-=")
            continue;
        if (isIdent(t[i].text) && doubles.count(t[i].text)) {
            out.push_back(
                {path, t[i].line, Rule::FloatAccum,
                 "floating-point accumulation into '" + t[i].text +
                     "' — rounding depends on accumulation order; "
                     "justify the fixed order or use integers"});
        }
    }
}

void
scanMissingStatsLock(const std::string &path,
                     const std::vector<Tok> &t,
                     std::vector<Finding> &out)
{
    // (a) Worker tasks must be self-contained: a by-reference capture
    // lets the task write state shared with other tasks, bypassing
    // the future (the owning-thread seam).  Applies everywhere.
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].text != "defer" && t[i].text != "deferRetry")
            continue;
        if (t[i + 1].text != "(" || t[i + 2].text != "[")
            continue;
        const std::size_t close = matchForward(t, i + 2, "[", "]");
        if (close == std::string::npos)
            continue;
        for (std::size_t j = i + 3; j < close; ++j) {
            if (t[j].text == "&" || t[j].text == "&&") {
                out.push_back(
                    {path, t[j].line, Rule::MissingStatsLock,
                     "worker task captures by reference — results "
                     "must flow back through the future (the "
                     "owning-thread seam); capture by value"});
                break;
            }
        }
    }

    // (b) Lock discipline around process-shared g_* state in src/sim:
    // any mutation must have a lock_guard/unique_lock declared in an
    // enclosing block.
    if (!startsWith(path, "src/sim/"))
        return;
    static const std::set<std::string> kMutators = {
        "emplace", "emplace_back", "insert", "erase", "clear",
        "push_back", "push_front", "pop_back", "pop_front", "resize",
        "assign", "reserve"};
    int depth = 0;
    std::vector<int> lockDepths;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &x = t[i].text;
        if (x == "{") {
            ++depth;
        } else if (x == "}") {
            --depth;
            while (!lockDepths.empty() && lockDepths.back() > depth)
                lockDepths.pop_back();
        } else if (x == "lock_guard" || x == "unique_lock" ||
                   x == "scoped_lock") {
            lockDepths.push_back(depth);
        } else if (isIdent(x) && startsWith(x, "g_")) {
            bool write = false;
            if (i + 1 < t.size()) {
                const std::string &nx = t[i + 1].text;
                write = nx == "=" || nx == "+=" || nx == "-=" ||
                        nx == "++" || nx == "--" || nx == "[";
                if ((nx == "." || nx == "->") && i + 2 < t.size() &&
                    kMutators.count(t[i + 2].text))
                    write = true;
            }
            if (i > 0 &&
                (t[i - 1].text == "++" || t[i - 1].text == "--"))
                write = true;
            if (write && lockDepths.empty()) {
                out.push_back(
                    {path, t[i].line, Rule::MissingStatsLock,
                     "write to shared '" + x +
                         "' without a lock_guard/unique_lock in "
                         "scope"});
            }
        }
    }
}

/**
 * hot-path-alloc: inside any function annotated SB_HOT, flag the
 * allocation idioms the annotation outlaws — raw `new`,
 * make_unique/make_shared, constructing a std::vector object (a
 * reference or pointer binding `std::vector<T> &v = ...` is fine),
 * and any touch of a variable declared as std::unordered_map/set
 * (hashing and node churn off the access path).  The annotation is
 * machine-checked rather than advisory: the functions it marks are
 * the per-access ORAM hot path, whose allocation-freedom the
 * throughput results depend on.
 */
void
scanHotPathAlloc(const std::string &path, const std::vector<Tok> &t,
                 const std::set<std::string> &unorderedVars,
                 std::vector<Finding> &out)
{
    static const std::set<std::string> kMapOps = {
        "find", "count", "at", "emplace", "insert", "erase",
        "contains"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text != "SB_HOT")
            continue;
        // The macro's own definition is not an annotated function.
        if (i > 0 && t[i - 1].text == "define")
            continue;
        // Locate the function body: the first '{' after the
        // annotation outside the parameter parens; hitting ';' first
        // means this is a declaration with the body elsewhere.
        std::size_t open = std::string::npos;
        int parens = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            const std::string &x = t[j].text;
            if (x == "(") {
                ++parens;
            } else if (x == ")") {
                --parens;
            } else if (parens == 0 && x == ";") {
                break;
            } else if (parens == 0 && x == "{") {
                open = j;
                break;
            }
        }
        if (open == std::string::npos)
            continue;
        const std::size_t close = matchForward(t, open, "{", "}");
        if (close == std::string::npos)
            continue;
        for (std::size_t j = open + 1; j < close; ++j) {
            const std::string &x = t[j].text;
            const std::string &prev = t[j - 1].text;
            if (x == "new" && prev != "operator") {
                out.push_back(
                    {path, t[j].line, Rule::HotPathAlloc,
                     "raw 'new' inside an SB_HOT function — the hot "
                     "path must be allocation-free; use pooled or "
                     "per-object scratch storage"});
            } else if ((x == "make_unique" || x == "make_shared") &&
                       j + 1 < close &&
                       (t[j + 1].text == "<" || t[j + 1].text == "(")) {
                out.push_back(
                    {path, t[j].line, Rule::HotPathAlloc,
                     "'" + x +
                         "' allocates inside an SB_HOT function — the "
                         "hot path must be allocation-free"});
            } else if (x == "unordered_map" || x == "unordered_set") {
                out.push_back(
                    {path, t[j].line, Rule::HotPathAlloc,
                     "std::" + x +
                         " in an SB_HOT function — node churn and "
                         "hashing do not belong on the hot path; use "
                         "a flat indexed scratch structure"});
            } else if (x == "vector" && j + 1 < close &&
                       t[j + 1].text == "<") {
                const std::size_t gt = matchForward(t, j + 1, "<", ">");
                if (gt == std::string::npos || gt + 1 >= close)
                    continue;
                const std::string &after = t[gt + 1].text;
                if (after == "&" || after == "*")
                    continue;  // Reference/pointer binding: no alloc.
                if (isIdent(after)) {
                    out.push_back(
                        {path, t[j].line, Rule::HotPathAlloc,
                         "std::vector constructed in an SB_HOT "
                         "function — acquire a pooled buffer or "
                         "reuse a member scratch vector"});
                }
            } else if (isIdent(x) && unorderedVars.count(x) &&
                       j + 1 < close) {
                const std::string &nx = t[j + 1].text;
                const bool touch =
                    nx == "[" ||
                    ((nx == "." || nx == "->") && j + 2 < close &&
                     kMapOps.count(t[j + 2].text));
                if (touch) {
                    out.push_back(
                        {path, t[j].line, Rule::HotPathAlloc,
                         "unordered container '" + x +
                             "' touched in an SB_HOT function — "
                             "hashing on the per-access hot path; "
                             "use a geometry-indexed slab"});
                }
            }
        }
        i = close;
    }
}

/**
 * swallowed-exception: a catch body must do *something* visible with
 * the error — rethrow it, return/propagate, terminate, stash it via
 * current_exception (the ExperimentRunner's future seam), escalate
 * through SB_FATAL/SB_PANIC, or (in tests) fail/skip the test.  A
 * body with none of those silently converts a real failure into
 * nothing; intentional swallows (e.g. the checkpoint recovery tiers,
 * where a bad snapshot legitimately falls through to the next tier)
 * carry a written sblint:allow justification.
 */
void
scanSwallowedException(const std::string &path,
                       const std::vector<Tok> &t,
                       std::vector<Finding> &out)
{
    static const std::set<std::string> kHandled = {
        "throw", "return", "exit", "_exit", "abort", "goto",
        "current_exception", "rethrow_exception", "SB_FATAL",
        "SB_PANIC", "FAIL", "ADD_FAILURE", "SUCCEED", "GTEST_SKIP"};
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].text != "catch" || t[i + 1].text != "(")
            continue;
        const std::size_t closeParen =
            matchForward(t, i + 1, "(", ")");
        if (closeParen == std::string::npos ||
            closeParen + 1 >= t.size() ||
            t[closeParen + 1].text != "{")
            continue;
        const std::size_t open = closeParen + 1;
        const std::size_t close = matchForward(t, open, "{", "}");
        if (close == std::string::npos)
            continue;
        bool handled = false;
        for (std::size_t j = open + 1; j < close && !handled; ++j) {
            const std::string &x = t[j].text;
            handled = kHandled.count(x) != 0 ||
                      startsWith(x, "EXPECT_") ||
                      startsWith(x, "ASSERT_");
        }
        if (!handled) {
            out.push_back(
                {path, t[i].line, Rule::SwallowedException,
                 "catch body neither rethrows, returns, exits, nor "
                 "records the error — a swallowed exception hides "
                 "real failures; handle it or justify with "
                 "sblint:allow"});
        }
        i = close;
    }
}

/**
 * unbounded-wait: a condition-variable wait() or a future get() in
 * src/ blocks with no deadline and no stop condition the scanner can
 * see — if the producer dies or the notify is lost, the process hangs
 * instead of failing.  wait_for/wait_until are distinct tokens and
 * pass; non-future get() calls (unique_ptr::get, Deserializer getters)
 * are excluded by requiring a future-typed receiver.  The service
 * layer exists precisely so stalls surface as ServiceStallError, so
 * every surviving blocking wait needs a written justification.
 */
void
scanUnboundedWait(const std::string &path, const std::vector<Tok> &t,
                  const std::set<std::string> &futureVars,
                  std::vector<Finding> &out)
{
    if (!startsWith(path, "src/"))
        return;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        if (t[i - 1].text != "." && t[i - 1].text != "->")
            continue;
        if (t[i + 1].text != "(")
            continue;
        if (t[i].text == "wait") {
            out.push_back(
                {path, t[i].line, Rule::UnboundedWait,
                 "wait() with no deadline — a lost notification "
                 "blocks forever; use wait_for/wait_until with a stop "
                 "condition, or justify why the wakeup is guaranteed"});
        } else if (t[i].text == "get" && i >= 2 &&
                   isIdent(t[i - 2].text) &&
                   futureVars.count(t[i - 2].text) != 0) {
            out.push_back(
                {path, t[i].line, Rule::UnboundedWait,
                 "future '" + t[i - 2].text +
                     "'.get() blocks with no deadline — a dead "
                     "producer hangs the caller; bound the wait or "
                     "justify why completion is guaranteed"});
        }
    }
}

bool
pathEndsWith(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

void
scanUntrackedMetric(const std::string &path, const std::vector<Tok> &t,
                    const std::set<std::string> &metricNames,
                    std::vector<Finding> &out)
{
    // Without the vocabulary file in the lint unit there is nothing to
    // check against (e.g. a single-file invocation).
    if (metricNames.empty())
        return;
    if (pathEndsWith(path, "obs/MetricNames.hh"))
        return;
    if (!startsWith(path, "src/") && !startsWith(path, "bench/"))
        return;

    static const std::set<std::string> kRegistrars = {
        "counter", "gauge", "histogramLog2", "stage"};
    for (std::size_t i = 1; i + 2 < t.size(); ++i) {
        if (!kRegistrars.count(t[i].text))
            continue;
        if (t[i - 1].text != "." && t[i - 1].text != "->")
            continue;
        if (t[i + 1].text != "(")
            continue;
        // First argument, skipping any namespace qualification
        // (obs::kMetricFoo, sboram::obs::kMetricFoo).
        std::size_t j = i + 2;
        while (j + 1 < t.size() && isIdent(t[j].text) &&
               t[j + 1].text == "::")
            j += 2;
        if (j >= t.size())
            continue;
        const Tok &arg = t[j];
        if (arg.text == "\"") {
            out.push_back(
                {path, arg.line, Rule::UntrackedMetric,
                 "metric or stage registered under a string literal "
                 "— declare the name as a kMetric*/kStage* constant "
                 "in src/obs/MetricNames.hh and reference it"});
        } else if (isIdent(arg.text) && !metricNames.count(arg.text)) {
            out.push_back(
                {path, arg.line, Rule::UntrackedMetric,
                 "metric name '" + arg.text +
                     "' is not declared in src/obs/MetricNames.hh"});
        }
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/** Parse one JSON string starting at s[i] == '"'. */
bool
jsonString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        if (s[i] == '\\') {
            if (i + 1 >= s.size())
                return false;
            const char e = s[i + 1];
            if (e == '"') out += '"';
            else if (e == '\\') out += '\\';
            else if (e == 'n') out += '\n';
            else if (e == 't') out += '\t';
            else if (e == 'u') {
                if (i + 5 >= s.size())
                    return false;
                out += static_cast<char>(
                    std::stoi(s.substr(i + 2, 4), nullptr, 16));
                i += 4;
            } else
                return false;
            i += 2;
        } else {
            out += s[i++];
        }
    }
    if (i >= s.size())
        return false;
    ++i;  // Closing quote.
    return true;
}

void
skipWs(const std::string &s, std::size_t &i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
}

} // namespace

void
jsonEscape(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

const std::vector<RuleInfo> &
ruleRegistry()
{
    return kRegistry;
}

bool
ruleFromName(const std::string &name, Rule &out)
{
    for (const RuleInfo &r : kRegistry) {
        if (name == r.name) {
            out = r.rule;
            return true;
        }
    }
    return false;
}

const char *
ruleName(Rule rule)
{
    for (const RuleInfo &r : kRegistry)
        if (r.rule == rule)
            return r.name;
    return "?";
}

std::vector<Finding>
lintSources(const std::vector<SourceFile> &sources)
{
    // Cross-file pre-pass: lex every input once; the token streams
    // feed both the per-line scanners and the whole-program model.
    std::set<std::string> unorderedVars;
    std::set<std::string> metricNames;
    std::vector<std::string> paths;
    std::vector<StrippedFile> stripped;
    std::vector<std::vector<Tok>> tokens;
    paths.reserve(sources.size());
    stripped.reserve(sources.size());
    tokens.reserve(sources.size());
    for (const SourceFile &src : sources) {
        paths.push_back(src.path);
        stripped.push_back(stripSource(src.content));
        tokens.push_back(tokenize(stripped.back().code));
        const auto vars = collectUnorderedVars(tokens.back());
        unorderedVars.insert(vars.begin(), vars.end());
        if (pathEndsWith(src.path, "obs/MetricNames.hh"))
            collectMetricNames(tokens.back(), metricNames);
    }

    // Whole-program passes: taint-to-fixed-point over the call graph
    // plus transitive hot-path-alloc.  Findings come back raw (no
    // suppression applied) and are bucketed per file so the per-file
    // suppression/dead-suppression logic below sees them.
    const Program program = buildProgram(tokens);
    std::map<std::string, std::vector<Finding>> flowByFile;
    for (Finding &fd : runDataflow(program, paths, tokens))
        flowByFile[fd.file].push_back(std::move(fd));

    std::vector<Finding> all;
    for (std::size_t f = 0; f < sources.size(); ++f) {
        const std::string &path = sources[f].path;
        const std::vector<Tok> &t = tokens[f];

        std::vector<Finding> raw;
        scanUnorderedIteration(path, t, unorderedVars, raw);
        scanAmbientNondeterminism(path, t, raw);
        scanUncheckedSerde(path, t, raw);
        scanRawNewDelete(path, t, raw);
        scanBannedFn(path, t, raw);
        scanFloatAccum(path, t, raw);
        scanMissingStatsLock(path, t, raw);
        scanUntrackedMetric(path, t, metricNames, raw);
        scanHotPathAlloc(path, t, unorderedVars, raw);
        scanSwallowedException(path, t, raw);
        scanUnboundedWait(path, t, collectFutureVars(t), raw);
        const auto fb = flowByFile.find(path);
        if (fb != flowByFile.end())
            raw.insert(raw.end(), fb->second.begin(),
                       fb->second.end());

        const Suppressions sup =
            collectSuppressions(path, stripped[f]);
        for (const Finding &fd : raw) {
            const auto it = sup.allow.find(fd.line);
            if (it != sup.allow.end() && it->second.count(fd.rule))
                continue;
            all.push_back(fd);
        }
        // Dead suppressions: an allow that matched nothing on its
        // target line is itself a finding — it documents a violation
        // that no longer exists (or a rule-name typo the grammar
        // check cannot catch).
        for (const auto &entry : sup.allow) {
            for (const Rule r : entry.second) {
                bool hit = false;
                for (const Finding &fd : raw) {
                    if (fd.line == entry.first && fd.rule == r) {
                        hit = true;
                        break;
                    }
                }
                if (!hit) {
                    all.push_back(
                        {path, entry.first, Rule::DeadSuppression,
                         std::string("suppression of '") +
                             ruleName(r) +
                             "' matches no finding on this line — "
                             "remove the stale allow"});
                }
            }
        }
        all.insert(all.end(), sup.defects.begin(),
                   sup.defects.end());
    }

    std::sort(all.begin(), all.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
}

std::string
formatHuman(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" +
           ruleName(f.rule) + "] " + f.message;
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    std::string out = "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            out += ",";
        out += "\n  {\"file\": \"";
        jsonEscape(out, f.file);
        out += "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"";
        out += ruleName(f.rule);
        out += "\", \"message\": \"";
        jsonEscape(out, f.message);
        out += "\"}";
    }
    out += findings.empty() ? "]\n" : "\n]\n";
    return out;
}

bool
findingsFromJson(const std::string &json, std::vector<Finding> &out)
{
    out.clear();
    std::size_t i = 0;
    skipWs(json, i);
    if (i >= json.size() || json[i] != '[')
        return false;
    ++i;
    skipWs(json, i);
    if (i < json.size() && json[i] == ']')
        return true;
    for (;;) {
        skipWs(json, i);
        if (i >= json.size() || json[i] != '{')
            return false;
        ++i;
        Finding f;
        for (int field = 0; field < 4; ++field) {
            skipWs(json, i);
            std::string key;
            if (!jsonString(json, i, key))
                return false;
            skipWs(json, i);
            if (i >= json.size() || json[i] != ':')
                return false;
            ++i;
            skipWs(json, i);
            if (key == "line") {
                std::size_t start = i;
                while (i < json.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(json[i])))
                    ++i;
                if (i == start)
                    return false;
                f.line = static_cast<std::uint32_t>(
                    std::stoul(json.substr(start, i - start)));
            } else {
                std::string val;
                if (!jsonString(json, i, val))
                    return false;
                if (key == "file")
                    f.file = val;
                else if (key == "rule") {
                    if (!ruleFromName(val, f.rule))
                        return false;
                } else if (key == "message")
                    f.message = val;
                else
                    return false;
            }
            skipWs(json, i);
            if (field < 3) {
                if (i >= json.size() || json[i] != ',')
                    return false;
                ++i;
            }
        }
        skipWs(json, i);
        if (i >= json.size() || json[i] != '}')
            return false;
        ++i;
        out.push_back(std::move(f));
        skipWs(json, i);
        if (i < json.size() && json[i] == ',') {
            ++i;
            continue;
        }
        break;
    }
    skipWs(json, i);
    if (i >= json.size() || json[i] != ']')
        return false;
    return true;
}

} // namespace lint
} // namespace sboram
