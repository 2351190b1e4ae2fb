/**
 * @file
 * Unit tests for the sblint analyzer library: every rule fires on a
 * minimal fixture, the taint engine propagates through assignments /
 * calls / returns / out-params to a fixed point, SB_DECLASSIFY
 * sanitizes, findings carry their propagation chain, path scoping
 * works, suppressions (same-line and next-line) drop findings exactly
 * when justified, defective or stale suppressions surface as
 * `bad-suppression` / `dead-suppression`, and the JSON/SARIF outputs
 * hold up under their respective parsers.
 *
 * Fixtures are in-memory SourceFile snippets — the linter is a
 * library precisely so these tests never touch the filesystem.
 */

#include <gtest/gtest.h>

#include "DiffFilter.hh"
#include "Lint.hh"
#include "Sarif.hh"
#include "obs/Json.hh"

using namespace sboram::lint;

namespace {

/** Lint one snippet at @p path; return the surviving findings. */
std::vector<Finding>
lintOne(const std::string &path, const std::string &content)
{
    return lintSources({{path, content}});
}

/** True when some finding matches @p rule. */
bool
fired(const std::vector<Finding> &fs, Rule rule)
{
    for (const Finding &f : fs)
        if (f.rule == rule)
            return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(SbLintRegistry, NamesRoundTripThroughLookup)
{
    const auto &reg = ruleRegistry();
    ASSERT_FALSE(reg.empty());
    for (const RuleInfo &info : reg) {
        Rule r;
        ASSERT_TRUE(ruleFromName(info.name, r)) << info.name;
        EXPECT_EQ(r, info.rule);
        EXPECT_STREQ(ruleName(info.rule), info.name);
        EXPECT_NE(info.description[0], '\0');
    }
}

TEST(SbLintRegistry, UnknownNameIsRejected)
{
    Rule r;
    EXPECT_FALSE(ruleFromName("no-such-rule", r));
    EXPECT_FALSE(ruleFromName("", r));
}

// ---------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------

TEST(SbLintRules, UnorderedIterationFiresOnRangeFor)
{
    const auto fs = lintOne("src/oram/X.cc",
                            "#include <unordered_map>\n"
                            "std::unordered_map<int, int> _m;\n"
                            "void f() {\n"
                            "    for (const auto &kv : _m) { (void)kv; }\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::UnorderedIteration);
    EXPECT_EQ(fs[0].line, 4u);
}

TEST(SbLintRules, UnorderedIterationFiresOnIteratorWalk)
{
    const auto fs = lintOne("src/ckpt/X.cc",
                            "std::unordered_set<int> _s;\n"
                            "void f() {\n"
                            "    for (auto it = _s.begin(); it != _s.end(); ++it) {}\n"
                            "}\n");
    EXPECT_TRUE(fired(fs, Rule::UnorderedIteration));
}

TEST(SbLintRules, UnorderedIterationScopedToSeqSensitiveModules)
{
    const std::string body =
        "std::unordered_map<int, int> _m;\n"
        "void f() { for (const auto &kv : _m) { (void)kv; } }\n";
    EXPECT_TRUE(fired(lintOne("src/shadow/X.cc", body),
                      Rule::UnorderedIteration));
    // Outside the sequence-sensitive modules the same code is fine.
    EXPECT_FALSE(fired(lintOne("src/mem/X.cc", body),
                       Rule::UnorderedIteration));
    EXPECT_FALSE(fired(lintOne("tests/oram/X.cc", body),
                       Rule::UnorderedIteration));
}

TEST(SbLintRules, UnorderedVarsAreCollectedAcrossFiles)
{
    // Declaration in a header, iteration in a .cc: the variable set
    // must be the union over all linted sources.
    const auto fs = lintSources(
        {{"src/oram/X.hh",
          "struct X { std::unordered_map<int, int> _m; };\n"},
         {"src/oram/X.cc",
          "void f(X &x) {\n"
          "    for (const auto &kv : x._m) { (void)kv; }\n"
          "}\n"}});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].file, "src/oram/X.cc");
    EXPECT_EQ(fs[0].rule, Rule::UnorderedIteration);
}

TEST(SbLintRules, OrderedMapIterationIsClean)
{
    const auto fs = lintOne("src/oram/X.cc",
                            "std::map<int, int> _m;\n"
                            "void f() { for (const auto &kv : _m) { (void)kv; } }\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// ambient-nondeterminism
// ---------------------------------------------------------------------

TEST(SbLintRules, AmbientNondeterminismFiresOnBannedCalls)
{
    EXPECT_TRUE(fired(lintOne("src/sim/X.cc",
                              "int f() { return rand(); }\n"),
                      Rule::AmbientNondeterminism));
    EXPECT_TRUE(fired(lintOne("src/common/X.cc",
                              "long f() { return time(nullptr); }\n"),
                      Rule::AmbientNondeterminism));
    EXPECT_TRUE(
        fired(lintOne("bench/x.cc",
                      "const char *f() { return getenv(\"X\"); }\n"),
              Rule::AmbientNondeterminism));
    EXPECT_TRUE(fired(lintOne("src/oram/X.cc",
                              "std::random_device rd;\n"),
                      Rule::AmbientNondeterminism));
}

TEST(SbLintRules, AmbientNondeterminismExemptsTheRngWell)
{
    // The one sanctioned entropy/config well is exempt by path.
    EXPECT_FALSE(fired(lintOne("src/common/Rng.hh",
                               "int f() { return rand(); }\n"),
                       Rule::AmbientNondeterminism));
    EXPECT_FALSE(
        fired(lintOne("bench/BenchUtil.hh",
                      "const char *f() { return getenv(\"X\"); }\n"),
              Rule::AmbientNondeterminism));
}

TEST(SbLintRules, MemberCallNamedTimeIsNotFlagged)
{
    EXPECT_FALSE(fired(lintOne("src/sim/X.cc",
                               "void f(Clock &c) { c.time(); }\n"),
                       Rule::AmbientNondeterminism));
}

// ---------------------------------------------------------------------
// The taint engine: tainted-branch / -index / -loop-bound / -length
// ---------------------------------------------------------------------

TEST(SbLintTaint, BranchOnSecretFieldFires)
{
    const auto fs = lintSources(
        {{"src/oram/X.hh",
          "struct E { SB_SECRET std::vector<int> payload; };\n"},
         {"src/oram/X.cc",
          "void f(E &e) {\n"
          "    if (e.payload.empty()) { return; }\n"
          "}\n"}});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedBranch);
    EXPECT_EQ(fs[0].file, "src/oram/X.cc");
    EXPECT_EQ(fs[0].line, 2u);
}

TEST(SbLintTaint, TernaryAndShortCircuitFire)
{
    const std::string hdr = "struct S { SB_SECRET int secretWord; };\n";
    EXPECT_TRUE(fired(
        lintSources({{"src/shadow/X.hh", hdr},
                     {"src/shadow/X.cc",
                      "int f(S &s) { return s.secretWord ? 1 : 0; }\n"}}),
        Rule::TaintedBranch));
    EXPECT_TRUE(fired(
        lintSources({{"src/shadow/X.hh", hdr},
                     {"src/shadow/X.cc",
                      "bool f(S &s, bool a)\n"
                      "{ return a && s.secretWord != 0; }\n"}}),
        Rule::TaintedBranch));
}

TEST(SbLintTaint, PropagatesThroughAssignmentsAndCarriesChain)
{
    // payload -> tmp -> idx -> (return) -> w -> subscript sink.  The
    // finding lands where the secret-derived value indexes an array,
    // and its message walks the whole flow for the reviewer.
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET std::vector<int> payload; };\n"
        "int pick(E &e) {\n"
        "    auto tmp = e.payload;\n"
        "    int idx = tmp[0];\n"
        "    return idx;\n"
        "}\n"
        "void scatter(E &e, std::vector<int> &arr) {\n"
        "    const int w = pick(e);\n"
        "    arr[w] = 1;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedIndex);
    EXPECT_EQ(fs[0].line, 9u);
    EXPECT_NE(fs[0].message.find("payload"), std::string::npos);
    EXPECT_NE(fs[0].message.find("tmp at src/oram/X.cc:3"),
              std::string::npos);
    EXPECT_NE(fs[0].message.find("-> w at"), std::string::npos);
}

TEST(SbLintTaint, PropagatesIntoCalleeParameters)
{
    // The branch is inside the callee; the taint arrives through the
    // call argument (context-insensitive parameter summary).
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET int word; };\n"
        "void sink(int v) {\n"
        "    if (v != 0) { return; }\n"
        "}\n"
        "void drive(E &e) { sink(e.word); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedBranch);
    EXPECT_EQ(fs[0].line, 3u);
    EXPECT_NE(fs[0].message.find("word"), std::string::npos);
}

TEST(SbLintTaint, PropagatesBackThroughReferenceOutParams)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET std::vector<int> payload; };\n"
        "void extract(E &e, std::vector<int> &out)\n"
        "{ out = e.payload; }\n"
        "void f(E &e) {\n"
        "    std::vector<int> buf;\n"
        "    extract(e, buf);\n"
        "    if (buf.empty()) { return; }\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedBranch);
    EXPECT_EQ(fs[0].line, 7u);
}

TEST(SbLintTaint, LoopBoundsFire)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET int n; };\n"
        "int f(E &e) {\n"
        "    int i = 0;\n"
        "    while (i < e.n) { ++i; }\n"
        "    for (int j = 0; j < e.n; ++j) { ++i; }\n"
        "    return i;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedLoopBound);
    EXPECT_EQ(fs[0].line, 4u);
    EXPECT_EQ(fs[1].rule, Rule::TaintedLoopBound);
    EXPECT_EQ(fs[1].line, 5u);
}

TEST(SbLintTaint, LengthOperationsFire)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct B { SB_SECRET std::vector<int> payload; };\n"
        "void f(B &b, std::vector<int> &out, char *d, char *s) {\n"
        "    const std::size_t n = b.payload.size();\n"
        "    out.resize(n);\n"
        "    memcpy(d, s, n);\n"
        "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::TaintedLength);
    EXPECT_EQ(fs[0].line, 4u);
    EXPECT_EQ(fs[1].rule, Rule::TaintedLength);
    EXPECT_EQ(fs[1].line, 5u);
}

TEST(SbLintTaint, DeclassifySanitizesTheFlow)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET int word; };\n"
        "int f(E &e) {\n"
        "    if (SB_DECLASSIFY(e.word) != 0) { return 1; }\n"
        "    return 0;\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintTaint, CleanCallResultOverTaintedArgIsNotABranchOnSecret)
{
    // The verifyDecrypt pattern: the branch consumes the *verdict* of
    // a function whose return carries no taint, even though a secret
    // buffer goes in as an argument.  (A return derived from v — even
    // v.size() — would rightly taint the verdict; the MAC check is
    // modelled as a data-independent outcome.)
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET std::vector<int> payload; };\n"
        "bool verify(const std::vector<int> &v) { (void)v; return true; }\n"
        "void f(E &e) {\n"
        "    if (verify(e.payload)) { return; }\n"
        "}\n");
    EXPECT_FALSE(fired(fs, Rule::TaintedBranch));
}

TEST(SbLintTaint, RecursionReachesAFixedPoint)
{
    // Self-recursive callee: the parameter summary feeds itself.  The
    // monotone lattice must converge, taint the recursive branch, and
    // carry the taint out through the return value.
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET int w; };\n"
        "int dec(int x) {\n"
        "    if (x > 0) { return dec(x - 1); }\n"
        "    return x;\n"
        "}\n"
        "void f(E &e) {\n"
        "    int v = dec(e.w);\n"
        "    if (v != 0) { return; }\n"
        "}\n");
    unsigned branches = 0;
    for (const Finding &f : fs)
        if (f.rule == Rule::TaintedBranch)
            ++branches;
    EXPECT_EQ(branches, 2u);  // Inside dec() and on v in f().
}

TEST(SbLintTaint, IgnoresUnannotatedMetadata)
{
    const auto fs = lintSources(
        {{"src/oram/X.hh",
          "struct E { SB_SECRET std::vector<int> payload; int addr; };\n"},
         {"src/oram/X.cc",
          "void f(E &e) { if (e.addr == 0) { return; } }\n"}});
    EXPECT_FALSE(fired(fs, Rule::TaintedBranch));
}

TEST(SbLintTaint, SinksScopedToModelledHardware)
{
    // Tests may branch on payloads freely (they check contents), and
    // so may modules outside the oram/shadow/svc boundary.
    const std::string hdr =
        "struct E { SB_SECRET std::vector<int> payload; };\n";
    const std::string body =
        "void f(E &e) { if (e.payload.empty()) { return; } }\n";
    EXPECT_FALSE(fired(
        lintSources({{"src/oram/X.hh", hdr}, {"tests/oram/X.cc", body}}),
        Rule::TaintedBranch));
    EXPECT_FALSE(fired(
        lintSources({{"src/oram/X.hh", hdr}, {"src/mem/X.cc", body}}),
        Rule::TaintedBranch));
}

TEST(SbLintTaint, StructuralOpsOnAssociativeContainersAreShapeReads)
{
    // A map *holding* secret payloads may be probed for membership /
    // size — those are trace-visible bookkeeping reads, not element
    // reads.  (Vectors get no such exemption: their size tracks the
    // secret-dependent content length.)
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET std::vector<int> payload; };\n"
        "std::map<int, std::vector<int>> _spare;\n"
        "void park(E &e, int slot) {\n"
        "    _spare[slot] = e.payload;\n"
        "    if (_spare.find(slot) != _spare.end()) { return; }\n"
        "}\n");
    EXPECT_FALSE(fired(fs, Rule::TaintedBranch));
}

TEST(SbLintTaint, AssociativeExemptionDoesNotLeakAcrossFiles)
{
    // Another TU declaring `std::set<...> &out` (a parameter) must
    // not grant the structural-op exemption to a same-named secret
    // vector here — plain local names are exempted per file, only
    // `_`/`g_` shared names use the program-wide union.
    const auto fs = lintSources(
        {{"src/common/Util.hh",
          "void collect(std::set<std::string> &out);\n"},
         {"src/oram/X.cc",
          "struct E { SB_SECRET std::vector<int> payload; };\n"
          "void f(E &e) {\n"
          "    std::vector<int> out = e.payload;\n"
          "    for (std::size_t i = 0; i < out.size(); ++i) { g(i); }\n"
          "}\n"}});
    EXPECT_TRUE(fired(fs, Rule::TaintedLoopBound));
}

TEST(SbLintSuppress, TaintedBranchSuppressionWorks)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "struct E { SB_SECRET int word; };\n"
        "int f(E &e) {\n"
        "    // sblint:allow-next-line(tainted-branch): test oracle\n"
        "    if (e.word != 0) { return 1; }\n"
        "    return 0;\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// Transitive hot-path-alloc (over the call graph)
// ---------------------------------------------------------------------

TEST(SbLintTaint, HotPathAllocIsTransitiveOverTheCallGraph)
{
    // hot() itself allocates nothing; the allocation sits two calls
    // down.  The finding lands at hot()'s call site and names both
    // the callee and the underlying allocation.
    const auto fs = lintOne(
        "src/oram/X.cc",
        "void helper() {\n"
        "    std::vector<int> tmp;\n"
        "    tmp.push_back(1);\n"
        "}\n"
        "void middle() { helper(); }\n"
        "SB_HOT void hot() { middle(); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::HotPathAlloc);
    EXPECT_EQ(fs[0].line, 6u);
    EXPECT_NE(fs[0].message.find("middle"), std::string::npos);
    EXPECT_NE(fs[0].message.find("src/oram/X.cc:2"),
              std::string::npos);
}

TEST(SbLintTaint, TransitiveHotPathAllocSuppressibleAtCallSite)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "void helper() {\n"
        "    std::vector<int> tmp;\n"
        "    tmp.push_back(1);\n"
        "}\n"
        "SB_HOT void hot() {\n"
        "    // sblint:allow-next-line(hot-path-alloc): cold start only\n"
        "    helper();\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintTaint, AllocationFreeCallChainIsClean)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "int helper(int x) { return x + 1; }\n"
        "SB_HOT int hot(int x) { return helper(x); }\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// unchecked-serde
// ---------------------------------------------------------------------

TEST(SbLintRules, UncheckedSerdeFiresOnDiscardedRead)
{
    const auto fs = lintOne("src/ckpt/X.cc",
                            "void f(ckpt::Deserializer &in) {\n"
                            "    in.u64();\n"
                            "    (void)in.u32();\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::UncheckedSerde);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_EQ(fs[1].rule, Rule::UncheckedSerde);
    EXPECT_EQ(fs[1].line, 3u);
}

TEST(SbLintRules, ConsumedSerdeReadIsClean)
{
    const auto fs = lintOne("src/ckpt/X.cc",
                            "std::uint64_t f(ckpt::Deserializer &in) {\n"
                            "    const std::uint64_t v = in.u64();\n"
                            "    in.skip(8);\n"
                            "    return v;\n"
                            "}\n");
    EXPECT_TRUE(fs.empty());

    // The by-reference form of the shared serde bodies reads into its
    // argument, so nothing is discarded.
    const auto serde = lintOne("src/ckpt/X.cc",
                               "template <class Self, class Ar>\n"
                               "void serde(Self &self, Ar &ar) {\n"
                               "    ar.u64(self.x);\n"
                               "    ar.u64(x);\n"
                               "}\n");
    EXPECT_TRUE(serde.empty());
}

// ---------------------------------------------------------------------
// raw-new-delete
// ---------------------------------------------------------------------

TEST(SbLintRules, RawNewDeleteFires)
{
    const auto fs = lintOne("src/mem/X.cc",
                            "int *f() { return new int(3); }\n"
                            "void g(int *p) { delete p; }\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::RawNewDelete);
    EXPECT_EQ(fs[1].rule, Rule::RawNewDelete);
}

TEST(SbLintRules, DeletedFunctionsAndMakeUniqueAreClean)
{
    const auto fs = lintOne(
        "src/mem/X.cc",
        "struct X { X(const X &) = delete; };\n"
        "auto f() { return std::make_unique<int>(3); }\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// banned-fn
// ---------------------------------------------------------------------

TEST(SbLintRules, BannedFnFiresOnMemcmpAndStrcpy)
{
    const auto fs = lintOne(
        "src/crypto/X.cc",
        "bool eq(const void *a, const void *b) {\n"
        "    return memcmp(a, b, 8) == 0;\n"
        "}\n"
        "void cp(char *d, const char *s) { strcpy(d, s); }\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::BannedFn);
    EXPECT_EQ(fs[1].rule, Rule::BannedFn);
}

// ---------------------------------------------------------------------
// float-accum
// ---------------------------------------------------------------------

TEST(SbLintRules, FloatAccumFiresInStats)
{
    const auto fs = lintOne("src/common/Stats.hh",
                            "void f() {\n"
                            "    double sum = 0.0;\n"
                            "    sum += 1.5;\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::FloatAccum);
    EXPECT_EQ(fs[0].line, 3u);
}

TEST(SbLintRules, IntegerAccumulationIsClean)
{
    const auto fs = lintOne("src/common/Stats.hh",
                            "void f() {\n"
                            "    std::uint64_t n = 0;\n"
                            "    n += 2;\n"
                            "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// missing-stats-lock
// ---------------------------------------------------------------------

TEST(SbLintRules, MissingStatsLockFiresOnByRefCapture)
{
    const auto fs = lintOne(
        "bench/x.cc",
        "void f(ExperimentRunner &pool, int &n) {\n"
        "    auto fut = pool.defer([&n] { return n; });\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::MissingStatsLock);
}

TEST(SbLintRules, ValueCaptureIsClean)
{
    const auto fs = lintOne(
        "bench/x.cc",
        "void f(ExperimentRunner &pool, int n) {\n"
        "    auto fut = pool.defer([n] { return n; });\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintRules, MissingStatsLockFiresOnUnlockedSharedWrite)
{
    const auto fs = lintOne("src/sim/X.cc",
                            "void f() {\n"
                            "    g_traceCache.clear();\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::MissingStatsLock);
}

TEST(SbLintRules, LockedSharedWriteIsClean)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "void f() {\n"
        "    std::lock_guard<std::mutex> lock(g_traceMutex);\n"
        "    g_traceCache.clear();\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// untracked-metric
// ---------------------------------------------------------------------

namespace {

/** The metric vocabulary fixture shared by the untracked-metric tests. */
const SourceFile kMetricNamesFixture = {
    "src/obs/MetricNames.hh",
    "inline constexpr char kMetricRequests[] = \"oram.requests\";\n"
    "inline constexpr char kStageQueueWait[] = "
    "\"svc.stage.queue_wait\";\n"};

} // namespace

TEST(SbLintRules, UntrackedMetricFiresOnUndeclaredConstant)
{
    const auto fs = lintSources(
        {kMetricNamesFixture,
         {"src/sim/X.cc",
          "void f(obs::MetricRegistry &reg) {\n"
          "    reg.counter(kMetricBogus);\n"
          "}\n"}});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::UntrackedMetric);
    EXPECT_EQ(fs[0].line, 2u);
}

TEST(SbLintRules, UntrackedMetricFiresOnStringLiteralName)
{
    const auto fs = lintSources(
        {kMetricNamesFixture,
         {"src/sim/X.cc",
          "void f(obs::MetricRegistry &reg) {\n"
          "    reg.gauge(\"adhoc.name\", [] { return 0.0; });\n"
          "}\n"}});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::UntrackedMetric);
}

TEST(SbLintRules, DeclaredMetricConstantIsClean)
{
    const auto fs = lintSources(
        {kMetricNamesFixture,
         {"src/sim/X.cc",
          "void f(obs::MetricRegistry &reg) {\n"
          "    reg.counter(obs::kMetricRequests);\n"
          "    reg.gauge(kMetricRequests, [] { return 0.0; });\n"
          "}\n"}});
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintRules, UntrackedMetricCoversStageAndLog2Registrars)
{
    // The rule grew with the request-observability layer: timeline
    // stage() appends and histogramLog2() registrations carry names
    // from the same vocabulary file.
    const auto fs = lintSources(
        {kMetricNamesFixture,
         {"src/svc/X.cc",
          "void f(obs::TimelineRecord &rec, "
          "obs::MetricRegistry &reg) {\n"
          "    rec.stage(\"adhoc.stage\", 0, 1);\n"
          "    reg.histogramLog2(kMetricBogus, 192);\n"
          "}\n"}});
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, Rule::UntrackedMetric);
    EXPECT_EQ(fs[1].rule, Rule::UntrackedMetric);
}

TEST(SbLintRules, DeclaredStageConstantIsClean)
{
    const auto fs = lintSources(
        {kMetricNamesFixture,
         {"src/svc/X.cc",
          "void f(obs::TimelineRecord &rec, "
          "obs::MetricRegistry &reg) {\n"
          "    rec.stage(obs::kStageQueueWait, 0, 1);\n"
          "    reg.histogramLog2(obs::kMetricRequests, 192);\n"
          "}\n"}});
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintRules, UntrackedMetricScopedToSrcAndBench)
{
    // Tests may register ad-hoc names; without the vocabulary file in
    // the lint unit the rule stays silent entirely.
    const std::string body =
        "void f(obs::MetricRegistry &reg) {\n"
        "    reg.counter(\"scratch\");\n"
        "}\n";
    EXPECT_FALSE(fired(
        lintSources({kMetricNamesFixture, {"tests/obs/X.cc", body}}),
        Rule::UntrackedMetric));
    EXPECT_FALSE(
        fired(lintOne("src/sim/X.cc", body), Rule::UntrackedMetric));
    EXPECT_TRUE(fired(
        lintSources({kMetricNamesFixture, {"bench/x.cc", body}}),
        Rule::UntrackedMetric));
}

// ---------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------

TEST(SbLintRules, HotPathAllocFiresOnVectorConstruction)
{
    const auto fs = lintOne("src/oram/X.cc",
                            "SB_HOT void f() {\n"
                            "    std::vector<std::uint64_t> scratch;\n"
                            "    scratch.push_back(1);\n"
                            "}\n");
    ASSERT_TRUE(fired(fs, Rule::HotPathAlloc));
    EXPECT_EQ(fs[0].line, 2u);
}

TEST(SbLintRules, HotPathAllocFiresOnNewAndMakeUnique)
{
    EXPECT_TRUE(fired(lintOne("src/oram/X.cc",
                              "SB_HOT void f() {\n"
                              "    auto *p = new int(3);\n"
                              "    (void)p;\n"
                              "}\n"),
                      Rule::HotPathAlloc));
    EXPECT_TRUE(fired(lintOne("src/oram/X.cc",
                              "SB_HOT void f() {\n"
                              "    auto p = std::make_unique<int>(3);\n"
                              "}\n"),
                      Rule::HotPathAlloc));
}

TEST(SbLintRules, HotPathAllocFiresOnUnorderedMapTouch)
{
    const auto fs = lintOne("src/oram/X.cc",
                            "std::unordered_map<int, int> _cache;\n"
                            "SB_HOT int f(int k) {\n"
                            "    auto it = _cache.find(k);\n"
                            "    return it == _cache.end() ? 0 : 1;\n"
                            "}\n"
                            "SB_HOT int g(int k) { return _cache[k]; }\n");
    ASSERT_TRUE(fired(fs, Rule::HotPathAlloc));
    // Both the .find() and the operator[] touch are flagged.
    unsigned hits = 0;
    for (const Finding &f : fs)
        if (f.rule == Rule::HotPathAlloc)
            ++hits;
    EXPECT_EQ(hits, 2u);
}

TEST(SbLintRules, HotPathAllocIgnoresReferenceBindingAndColdCode)
{
    // A reference binding to member scratch allocates nothing, and an
    // unannotated function may allocate freely.
    EXPECT_TRUE(lintOne("src/oram/X.cc",
                        "struct S { std::vector<int> _scratch; };\n"
                        "SB_HOT void f(S &s) {\n"
                        "    std::vector<int> &v = s._scratch;\n"
                        "    v.clear();\n"
                        "}\n")
                    .empty());
    EXPECT_FALSE(fired(lintOne("src/oram/X.cc",
                               "void cold() {\n"
                               "    std::vector<int> fine;\n"
                               "    fine.push_back(1);\n"
                               "}\n"),
                       Rule::HotPathAlloc));
}

TEST(SbLintRules, HotPathAllocSkipsBareDeclarations)
{
    // A declaration annotated SB_HOT has no body here; the definition
    // elsewhere is where the rule applies.
    EXPECT_TRUE(lintOne("src/oram/X.hh",
                        "SB_HOT void f(std::vector<int> &out);\n")
                    .empty());
}

TEST(SbLintSuppress, HotPathAllocSuppressionWorks)
{
    const auto fs = lintOne(
        "src/oram/X.cc",
        "SB_HOT void f() {\n"
        "    // sblint:allow-next-line(hot-path-alloc): pool-backed\n"
        "    std::vector<std::uint64_t> ks = pool.acquire(8);\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// swallowed-exception
// ---------------------------------------------------------------------

TEST(SbLintRules, SwallowedExceptionFiresOnEmptyCatch)
{
    const auto fs = lintOne("src/ckpt/X.cc",
                            "void f() {\n"
                            "    try { g(); }\n"
                            "    catch (const std::exception &) {}\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::SwallowedException);
    EXPECT_EQ(fs[0].line, 3u);
}

TEST(SbLintRules, SwallowedExceptionFiresOnLogOnlyCatch)
{
    // Logging alone does not surface the failure to the caller.
    EXPECT_TRUE(fired(lintOne("src/sim/X.cc",
                              "void f() {\n"
                              "    try { g(); }\n"
                              "    catch (const SimError &e) {\n"
                              "        SB_WARN(\"%s\", e.what());\n"
                              "    }\n"
                              "}\n"),
                      Rule::SwallowedException));
}

TEST(SbLintRules, SwallowedExceptionAcceptsRethrowAndReturn)
{
    EXPECT_FALSE(fired(lintOne("src/sim/X.cc",
                               "void f() {\n"
                               "    try { g(); }\n"
                               "    catch (const SimError &) {\n"
                               "        throw;\n"
                               "    }\n"
                               "}\n"),
                       Rule::SwallowedException));
    EXPECT_FALSE(fired(lintOne("src/sim/X.cc",
                               "int f() {\n"
                               "    try { return g(); }\n"
                               "    catch (const SimError &) {\n"
                               "        return -1;\n"
                               "    }\n"
                               "}\n"),
                       Rule::SwallowedException));
}

TEST(SbLintRules, SwallowedExceptionAcceptsCurrentException)
{
    // The ExperimentRunner future seam: the error is recorded and
    // rethrown later on the caller's thread.
    EXPECT_FALSE(fired(lintOne("src/sim/X.cc",
                               "void f(State &s) {\n"
                               "    try { run(); }\n"
                               "    catch (...) {\n"
                               "        s.error = "
                               "std::current_exception();\n"
                               "    }\n"
                               "}\n"),
                       Rule::SwallowedException));
}

TEST(SbLintRules, SwallowedExceptionAcceptsTestFailureMacros)
{
    EXPECT_FALSE(fired(lintOne("tests/ckpt/X.cc",
                               "void f() {\n"
                               "    try { g(); }\n"
                               "    catch (const SimError &e) {\n"
                               "        ADD_FAILURE() << e.what();\n"
                               "    }\n"
                               "    try { g(); }\n"
                               "    catch (const SimError &e) {\n"
                               "        EXPECT_EQ(1, 2);\n"
                               "    }\n"
                               "}\n"),
                       Rule::SwallowedException));
}

// ---------------------------------------------------------------------
// unbounded-wait
// ---------------------------------------------------------------------

TEST(SbLintRules, UnboundedWaitFiresOnCondvarWait)
{
    const auto fs = lintOne("src/svc/X.cc",
                            "void f(std::condition_variable &cv,\n"
                            "       std::unique_lock<std::mutex> &l) {\n"
                            "    cv.wait(l, [] { return ready; });\n"
                            "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::UnboundedWait);
    EXPECT_EQ(fs[0].line, 3u);
}

TEST(SbLintRules, UnboundedWaitFiresOnFutureGet)
{
    EXPECT_TRUE(fired(lintOne("src/sim/X.cc",
                              "int f() {\n"
                              "    std::future<int> fut = go();\n"
                              "    return fut.get();\n"
                              "}\n"),
                      Rule::UnboundedWait));
    // The repo's own Future template counts too.
    EXPECT_TRUE(fired(lintOne("src/sim/X.cc",
                              "int f() {\n"
                              "    Future<int> fut = submit();\n"
                              "    return fut.get();\n"
                              "}\n"),
                      Rule::UnboundedWait));
}

TEST(SbLintRules, UnboundedWaitAcceptsDeadlineVariants)
{
    // wait_for / wait_until carry a deadline — that is the fix the
    // rule is pushing toward, so they must not fire.
    EXPECT_FALSE(fired(lintOne("src/svc/X.cc",
                               "void f(std::condition_variable &cv,\n"
                               "       std::unique_lock<std::mutex> &l) {\n"
                               "    cv.wait_for(l, t, [] { return ready; });\n"
                               "    cv.wait_until(l, d, [] { return ready; });\n"
                               "}\n"),
                       Rule::UnboundedWait));
}

TEST(SbLintRules, UnboundedWaitIgnoresNonFutureGet)
{
    // .get() on anything not declared as a future in the same file
    // (smart pointers, optionals) is out of scope.
    EXPECT_FALSE(fired(lintOne("src/mem/X.cc",
                               "void f(std::shared_ptr<int> p,\n"
                               "       std::optional<int> o) {\n"
                               "    use(p.get());\n"
                               "    use(o.value());\n"
                               "}\n"),
                       Rule::UnboundedWait));
}

TEST(SbLintRules, UnboundedWaitScopedToSrc)
{
    // Tests and benches may block forever; ctest timeouts bound them.
    EXPECT_FALSE(fired(lintOne("tests/sim/X.cc",
                               "void f(std::future<int> &fut,\n"
                               "       std::condition_variable &cv,\n"
                               "       std::unique_lock<std::mutex> &l) {\n"
                               "    cv.wait(l, [] { return ready; });\n"
                               "    (void)fut.get();\n"
                               "}\n"),
                       Rule::UnboundedWait));
}

TEST(SbLintSuppress, UnboundedWaitSuppressionWorks)
{
    EXPECT_FALSE(fired(lintOne(
        "src/sim/X.cc",
        "void f(std::condition_variable &cv,\n"
        "       std::unique_lock<std::mutex> &l) {\n"
        "    // sblint:allow-next-line(unbounded-wait): dtor notifies\n"
        "    cv.wait(l, [] { return stop; });\n"
        "}\n"),
                       Rule::UnboundedWait));
}

TEST(SbLintSuppress, SwallowedExceptionSuppressionWorks)
{
    const auto fs = lintOne(
        "src/ckpt/X.cc",
        "void f() {\n"
        "    try { g(); }\n"
        "    // sblint:allow-next-line(swallowed-exception): "
        "recovery tier falls through to the next generation\n"
        "    catch (const CheckpointError &) {}\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

TEST(SbLintSuppress, SameLineSuppressionDropsTheFinding)
{
    const auto fs = lintOne(
        "src/crypto/X.cc",
        "bool eq(const void *a, const void *b) {\n"
        "    return memcmp(a, b, 8) == 0;"
        "  // sblint:allow(banned-fn): public test constants\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintSuppress, NextLineSuppressionDropsTheFinding)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "int f() {\n"
        "    // sblint:allow-next-line(ambient-nondeterminism): startup config read\n"
        "    return rand();\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintSuppress, NextLineSuppressionOnlyCoversTheNextLine)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "int f() {\n"
        "    // sblint:allow-next-line(ambient-nondeterminism): covers line 3 only\n"
        "    int a = rand();\n"
        "    int b = rand();\n"
        "    return a + b;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::AmbientNondeterminism);
    EXPECT_EQ(fs[0].line, 4u);
}

TEST(SbLintSuppress, SuppressionIsRuleSpecific)
{
    // An allow for a different rule does not mute the real finding —
    // and, matching nothing, it is itself flagged as dead.
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(banned-fn): wrong rule on purpose\n"
        "int f() { return rand(); }\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_TRUE(fired(fs, Rule::AmbientNondeterminism));
    EXPECT_TRUE(fired(fs, Rule::DeadSuppression));
}

TEST(SbLintSuppress, MultiRuleSuppressionCoversAllNamedRules)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "std::unordered_map<int, int> g_cache;\n"
        "void f() {\n"
        "    for (auto it = g_cache.begin(); it != g_cache.end(); ++it)"
        " { g_cache.erase(it); }"
        "  // sblint:allow(missing-stats-lock,unordered-iteration):"
        " init path runs before workers start\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintSuppress, UnknownRuleNameIsABadSuppression)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(no-such-rule): misspelled\n"
        "int f() { return 0; }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::BadSuppression);
    EXPECT_EQ(fs[0].line, 1u);
}

TEST(SbLintSuppress, MissingJustificationIsABadSuppression)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "int f() { return rand(); }"
        "  // sblint:allow(ambient-nondeterminism)\n");
    ASSERT_EQ(fs.size(), 2u);  // The defect AND the unmuted finding.
    EXPECT_TRUE(fired(fs, Rule::BadSuppression));
    EXPECT_TRUE(fired(fs, Rule::AmbientNondeterminism));
}

TEST(SbLintSuppress, BadSuppressionItselfCannotBeAllowed)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(bad-suppression): nice try\n"
        "int f() { return 0; }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::BadSuppression);
}

// ---------------------------------------------------------------------
// dead-suppression
// ---------------------------------------------------------------------

TEST(SbLintSuppress, StaleAllowIsADeadSuppression)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(ambient-nondeterminism): was rand()\n"
        "int f() { return 4; }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::DeadSuppression);
    EXPECT_EQ(fs[0].line, 2u);  // Reported at the target line.
    EXPECT_NE(fs[0].message.find("ambient-nondeterminism"),
              std::string::npos);
}

TEST(SbLintSuppress, LiveAllowIsNotDead)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(ambient-nondeterminism): config read\n"
        "int f() { return rand(); }\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SbLintSuppress, DeadSuppressionItselfCannotBeAllowed)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// sblint:allow-next-line(dead-suppression): nice try\n"
        "int f() { return 0; }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::BadSuppression);
}

TEST(SbLintSuppress, BlockCommentDirectivesAreInert)
{
    // Block comments are prose (docs can show directive examples);
    // only `//` line comments arm suppressions — so a block-comment
    // "allow" neither mutes the finding nor counts as dead.
    const auto fs = lintOne(
        "src/sim/X.cc",
        "/* sblint:allow-next-line(ambient-nondeterminism): prose */\n"
        "int f() { return rand(); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::AmbientNondeterminism);
}

// ---------------------------------------------------------------------
// Comments and strings are not code
// ---------------------------------------------------------------------

TEST(SbLintStrip, CommentedAndQuotedCodeNeverFires)
{
    const auto fs = lintOne(
        "src/sim/X.cc",
        "// int bad = rand();\n"
        "/* memcmp(a, b, 8); */\n"
        "const char *s = \"rand() time() memcmp(\";\n"
        "R\"(raw rand() string)\";\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------

TEST(SbLintOutput, HumanFormatIsStable)
{
    Finding f{"src/oram/X.cc", 12, Rule::BannedFn, "boom"};
    EXPECT_EQ(formatHuman(f), "src/oram/X.cc:12: [banned-fn] boom");
}

TEST(SbLintOutput, JsonRoundTripsLosslessly)
{
    std::vector<Finding> in = {
        {"src/oram/X.cc", 3, Rule::UnorderedIteration,
         "plain message"},
        {"src/sim/Y.cc", 99, Rule::MissingStatsLock,
         "quotes \" backslash \\ newline \n tab \t done"},
    };
    std::vector<Finding> out;
    ASSERT_TRUE(findingsFromJson(findingsToJson(in), out));
    EXPECT_EQ(in, out);
}

TEST(SbLintOutput, EmptyFindingsRoundTrip)
{
    std::vector<Finding> out;
    ASSERT_TRUE(findingsFromJson(findingsToJson({}), out));
    EXPECT_TRUE(out.empty());
}

TEST(SbLintOutput, MalformedJsonIsRejected)
{
    std::vector<Finding> out;
    EXPECT_FALSE(findingsFromJson("not json", out));
    EXPECT_FALSE(findingsFromJson("[{\"file\":\"x\"}", out));
    EXPECT_FALSE(findingsFromJson(
        "[{\"file\":\"x\",\"line\":1,"
        "\"rule\":\"no-such-rule\",\"message\":\"m\"}]",
        out));
}

// ---------------------------------------------------------------------
// SARIF export
// ---------------------------------------------------------------------

TEST(SbLintSarif, OutputSurvivesTheStrictJsonValidator)
{
    const std::vector<Finding> fs = {
        {"src/oram/X.cc", 3, Rule::TaintedBranch,
         "quotes \" backslash \\ newline \n tab \t done"},
        {"src/sim/Y.cc", 99, Rule::HotPathAlloc, "plain"},
    };
    const std::string sarif = findingsToSarif(fs);
    const auto v = sboram::obs::validateJson(sarif);
    EXPECT_TRUE(v.ok) << v.error << " at offset " << v.errorOffset;
}

TEST(SbLintSarif, CarriesRulesResultsAndLocations)
{
    const std::vector<Finding> fs = {
        {"src/oram/X.cc", 3, Rule::TaintedBranch, "boom"}};
    const std::string sarif = findingsToSarif(fs);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"sblint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"tainted-branch\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/oram/X.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
    // Every registered rule is in the driver's rule table.
    for (const RuleInfo &info : ruleRegistry())
        EXPECT_NE(sarif.find("\"id\": \"" + std::string(info.name) +
                             "\""),
                  std::string::npos)
            << info.name;
}

TEST(SbLintSarif, EmptyFindingsAreStillValid)
{
    const std::string sarif = findingsToSarif({});
    const auto v = sboram::obs::validateJson(sarif);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
}

// ---------------------------------------------------------------------
// Incremental lint (--diff-base plumbing)
// ---------------------------------------------------------------------

TEST(SbLintDiff, ParsesUnifiedDiffHunks)
{
    const ChangedLines ch = parseUnifiedDiff(
        "diff --git a/src/oram/X.cc b/src/oram/X.cc\n"
        "index 1111111..2222222 100644\n"
        "--- a/src/oram/X.cc\n"
        "+++ b/src/oram/X.cc\n"
        "@@ -10,2 +12,3 @@ void f()\n"
        "+a\n+b\n+c\n"
        "@@ -40 +50 @@\n"
        "+d\n"
        "--- a/gone.cc\n"
        "+++ /dev/null\n"
        "@@ -1,5 +0,0 @@\n"
        "--- a/untouched.cc\n"
        "+++ b/renamed/only.cc\n");
    ASSERT_EQ(ch.size(), 1u);
    const auto &lines = ch.at("src/oram/X.cc");
    EXPECT_EQ(lines, (std::set<std::uint32_t>{12, 13, 14, 50}));
}

TEST(SbLintDiff, PureDeletionContributesNothing)
{
    const ChangedLines ch = parseUnifiedDiff(
        "+++ b/src/oram/X.cc\n"
        "@@ -7,3 +6,0 @@\n");
    EXPECT_TRUE(ch.empty() || ch.at("src/oram/X.cc").empty());
}

TEST(SbLintDiff, FilterKeepsOnlyChangedLines)
{
    const std::vector<Finding> in = {
        {"src/oram/X.cc", 12, Rule::TaintedBranch, "kept"},
        {"src/oram/X.cc", 13, Rule::TaintedIndex, "kept too"},
        {"src/oram/X.cc", 90, Rule::TaintedBranch, "old debt"},
        {"src/oram/Y.cc", 12, Rule::TaintedBranch, "other file"},
    };
    ChangedLines ch;
    ch["src/oram/X.cc"] = {12, 13};
    const auto out = filterToDiff(in, ch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].message, "kept");
    EXPECT_EQ(out[1].message, "kept too");
}
