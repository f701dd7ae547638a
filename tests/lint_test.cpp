#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "json_check.hpp"
#include "lint/analyzer.hpp"
#include "lint/config.hpp"
#include "lint/lexer.hpp"
#include "lint/sarif.hpp"

namespace tsvpt::lint {
namespace {

// Three-layer demo DAG used by most fixtures: top -> mid -> base.
LayeringConfig demo_layering() {
  LayeringConfig config;
  std::string error;
  const bool ok = parse_layering(
      "[modules]\n"
      "order = [\"base\", \"mid\", \"top\"]\n"
      "[deps]\n"
      "base = []\n"
      "mid = [\"base\"]\n"
      "top = [\"base\", \"mid\"]\n",
      &config, &error);
  EXPECT_TRUE(ok) << error;
  return config;
}

// Flow-rule config: the demo DAG plus small must-consume / lock-order /
// hot-path registries, so fixtures can exercise the flow rules without
// dragging in the tree's full layering.toml.
LayeringConfig flow_layering() {
  LayeringConfig config;
  std::string error;
  const bool ok = parse_layering(
      "[modules]\n"
      "order = [\"base\", \"mid\", \"top\"]\n"
      "[deps]\n"
      "base = []\n"
      "mid = [\"base\"]\n"
      "top = [\"base\", \"mid\"]\n"
      "[must_consume]\n"
      "status_types = [\"DecodeStatus\"]\n"
      "bool_functions = [\"send_all\"]\n"
      "[lock_order]\n"
      "blocking = [\"send_all\", \"fsync\"]\n"
      "[hot_path]\n"
      "io = [\"send_all\", \"fsync\", \"read\"]\n",
      &config, &error);
  EXPECT_TRUE(ok) << error;
  return config;
}

Analyzer::Options only(std::initializer_list<const char*> rules) {
  Analyzer::Options options;
  options.enabled.clear();
  for (const char* rule : rules) options.enabled.insert(rule);
  return options;
}

using Fixture = std::vector<std::pair<std::string, std::string>>;

std::vector<Diagnostic> run(const Fixture& files,
                            Analyzer::Options options = {},
                            Stats* stats_out = nullptr,
                            LayeringConfig config = demo_layering()) {
  Analyzer analyzer{std::move(config), std::move(options)};
  for (const auto& [path, content] : files) {
    analyzer.add_file(path, content);
  }
  std::vector<Diagnostic> diags = analyzer.finish();
  if (stats_out != nullptr) *stats_out = analyzer.stats();
  return diags;
}

bool any_message_contains(const std::vector<Diagnostic>& diags,
                          const std::string& needle) {
  for (const Diagnostic& diag : diags) {
    if (diag.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer edge cases

TEST(LintLexer, RawStringHidesCommentAndQuoteMarkers) {
  const LexResult lex_result =
      lex("auto s = R\"(// not a comment */ \" still string)\";");
  EXPECT_TRUE(lex_result.comments.empty());
  bool found = false;
  for (const Token& tok : lex_result.tokens) {
    if (tok.kind == TokKind::kString) {
      found = true;
      EXPECT_NE(tok.text.find("// not a comment"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintLexer, RawStringCustomDelimiterSwallowsPlainCloser) {
  // The `)"` inside must not terminate an R"xy(...)xy" literal.
  const LexResult lex_result = lex("auto s = R\"xy(a )\" b)xy\"; int z;");
  ASSERT_FALSE(lex_result.tokens.empty());
  bool seen_z = false;
  for (const Token& tok : lex_result.tokens) {
    if (tok.kind == TokKind::kString) {
      EXPECT_NE(tok.text.find("a )\" b"), std::string::npos);
    }
    seen_z = seen_z || (tok.kind == TokKind::kIdentifier && tok.text == "z");
  }
  EXPECT_TRUE(seen_z);
}

TEST(LintLexer, LineContinuedCommentSpansLines) {
  const LexResult lex_result = lex(
      "// continued \\\n"
      "still comment\n"
      "int x;\n");
  ASSERT_EQ(lex_result.comments.size(), 1u);
  EXPECT_EQ(lex_result.comments[0].line, 1);
  EXPECT_EQ(lex_result.comments[0].end_line, 2);
  ASSERT_FALSE(lex_result.tokens.empty());
  EXPECT_EQ(lex_result.tokens[0].text, "int");
  EXPECT_EQ(lex_result.tokens[0].line, 3);
}

TEST(LintLexer, BlockCommentLineRange) {
  const LexResult lex_result = lex("/* a\nb\nc */ int y;");
  ASSERT_EQ(lex_result.comments.size(), 1u);
  EXPECT_EQ(lex_result.comments[0].line, 1);
  EXPECT_EQ(lex_result.comments[0].end_line, 3);
  EXPECT_EQ(lex_result.tokens[0].line, 3);
}

TEST(LintLexer, StringLiteralHidesCommentMarkers) {
  const LexResult lex_result = lex("const char* s = \"// /* */\";");
  EXPECT_TRUE(lex_result.comments.empty());
}

TEST(LintLexer, DirectiveTokensFlagged) {
  const LexResult lex_result = lex("#include \"a.hpp\"\nint x;\n");
  bool saw_directive = false;
  for (const Token& tok : lex_result.tokens) {
    if (tok.line == 1) {
      EXPECT_TRUE(tok.in_directive) << tok.text;
      saw_directive = true;
    } else {
      EXPECT_FALSE(tok.in_directive) << tok.text;
    }
  }
  EXPECT_TRUE(saw_directive);
}

// ---------------------------------------------------------------------------
// atomics-contract

TEST(LintAtomics, ImplicitSeqCstIsFlagged) {
  const auto diags = run({{"src/mid/a.cpp",
                           "#include <atomic>\n"
                           "std::atomic<bool> flag;\n"
                           "void f() { flag.store(true); }\n"}},
                         only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleAtomics);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("explicit std::memory_order"),
            std::string::npos);
}

TEST(LintAtomics, ExplicitRelaxedIsClean) {
  Stats stats;
  const auto diags =
      run({{"src/mid/a.cpp",
            "#include <atomic>\n"
            "std::atomic<int> n;\n"
            "void f() { n.fetch_add(1, std::memory_order_relaxed); }\n"}},
          only({kRuleAtomics}), &stats);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.atomic_sites, 1);
  EXPECT_EQ(stats.atomic_nonrelaxed, 0);
}

TEST(LintAtomics, NonRelaxedInSrcNeedsMoComment) {
  const auto diags =
      run({{"src/mid/a.cpp",
            "#include <atomic>\n"
            "std::atomic<bool> flag;\n"
            "void f() { flag.store(true, std::memory_order_release); }\n"}},
          only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("// mo:"), std::string::npos);
}

TEST(LintAtomics, SameLineMoCommentSatisfies) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <atomic>\n"
        "std::atomic<bool> flag;\n"
        "void f() { flag.store(true, std::memory_order_release); }"
        "  // mo: pairs with g()'s acquire load\n"}},
      only({kRuleAtomics}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintAtomics, MultiLineMoBlockAboveSatisfies) {
  // The `mo:` text sits on the first line of a two-line comment block; the
  // whole contiguous block must count as "immediately above".
  const auto diags =
      run({{"src/mid/a.cpp",
            "#include <atomic>\n"
            "std::atomic<bool> flag;\n"
            "void f() {\n"
            "  // mo: release publishes the payload written above;\n"
            "  // pairs with g()'s acquire load.\n"
            "  flag.store(true, std::memory_order_release);\n"
            "}\n"}},
          only({kRuleAtomics}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintAtomics, NonSrcNeedsNoMoComment) {
  const auto diags =
      run({{"tests/a_test.cpp",
            "#include <atomic>\n"
            "std::atomic<bool> flag;\n"
            "void f() { flag.store(true, std::memory_order_release); }\n"}},
          only({kRuleAtomics}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintAtomics, AtomicInMacroBodyIsStillChecked) {
  const auto diags = run({{"src/mid/a.cpp",
                           "#include <atomic>\n"
                           "std::atomic<bool> flag;\n"
                           "#define PUBLISH() flag.store(true)\n"}},
                         only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintAtomics, FenceCountsAsSite) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <atomic>\n"
        "void f() { std::atomic_thread_fence(std::memory_order_release); }\n"}},
      only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("atomic_thread_fence"), std::string::npos);
}

TEST(LintAtomics, SelfIdentifyingReceiverIsChecked) {
  // `ticket` is declared in another TU we have not seen, but the call names
  // a memory_order, which marks it as an atomic site on its own.
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f(Cell& c) { c.seq.load(std::memory_order_acquire); }\n"}},
          only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("non-relaxed"), std::string::npos);
}

TEST(LintAtomics, SubscriptedReceiverResolvesToDeclaredAtomic) {
  const auto diags = run({{"src/mid/a.cpp",
                           "#include <atomic>\n"
                           "std::atomic<int> seq;\n"
                           "void f() { cells[i & mask].seq.load(); }\n"}},
                         only({kRuleAtomics}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

// ---------------------------------------------------------------------------
// determinism-ban

TEST(LintDeterminism, RandCallIsFlaggedInSrc) {
  const auto diags = run({{"src/mid/a.cpp", "int f() { return rand(); }\n"}},
                         only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleDeterminism);
  EXPECT_NE(diags[0].message.find("ptsim::Rng"), std::string::npos);
}

TEST(LintDeterminism, FunctionDeclarationNamedRandomIsNotACall) {
  const auto diags =
      run({{"src/mid/a.hpp",
            "#pragma once\n"
            "struct W { static W random(int seed); };\n"
            "W* time(int);\n"}},
          only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, RandomDeviceBannedOutsideRng) {
  const auto outside = run({{"src/mid/a.cpp", "std::random_device rd;\n"}},
                           only({kRuleDeterminism}));
  ASSERT_EQ(outside.size(), 1u);
  EXPECT_NE(outside[0].message.find("random_device"), std::string::npos);

  const auto inside = run({{"src/ptsim/rng.cpp", "std::random_device rd;\n"}},
                          only({kRuleDeterminism}));
  EXPECT_TRUE(inside.empty());
}

TEST(LintDeterminism, SystemClockBannedInSrc) {
  const auto diags = run(
      {{"src/mid/a.cpp", "auto t = std::chrono::system_clock::now();\n"}},
      only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("system_clock"), std::string::npos);
}

TEST(LintDeterminism, TestsAreExempt) {
  const auto diags = run({{"tests/a_test.cpp", "int f() { return rand(); }\n"}},
                         only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, MutableGlobalInPhysicsModuleIsFlagged) {
  const auto diags = run({{"src/core/state.cpp",
                           "namespace tsvpt::core {\n"
                           "int call_count = 0;\n"
                           "}  // namespace tsvpt::core\n"}},
                         only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("call_count"), std::string::npos);
}

TEST(LintDeterminism, ConstexprAndLocalsAreNotGlobals) {
  const auto diags = run({{"src/core/state.cpp",
                           "namespace tsvpt::core {\n"
                           "constexpr int kLimit = 8;\n"
                           "const double kGain = 1.5;\n"
                           "int helper() { int local = 0; return local; }\n"
                           "}  // namespace tsvpt::core\n"}},
                         only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, NonPhysicsModuleMayHoldState) {
  // Mutable namespace-scope state is only banned in device/process/circuit/
  // core; the telemetry registry pattern stays legal.
  const auto diags = run({{"src/telemetry/reg.cpp",
                           "namespace tsvpt::telemetry {\n"
                           "int registry_epoch = 0;\n"
                           "}\n"}},
                         only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// header-hygiene

TEST(LintHygiene, MissingPragmaOnce) {
  const auto diags = run({{"src/mid/a.hpp", "int f();\n"}},
                         only({kRuleHygiene}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("#pragma once"), std::string::npos);
}

TEST(LintHygiene, UsingNamespaceInHeader) {
  const auto diags = run({{"src/mid/a.hpp",
                           "#pragma once\n"
                           "using namespace std;\n"}},
                         only({kRuleHygiene}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("using namespace"), std::string::npos);
}

TEST(LintHygiene, SelfIncludeMustComeFirst) {
  const Fixture wrong = {
      {"src/mid/widget.hpp", "#pragma once\nint f();\n"},
      {"src/mid/widget.cpp",
       "#include <vector>\n#include \"mid/widget.hpp\"\nint f() { return 1; }\n"},
  };
  const auto diags = run(wrong, only({kRuleHygiene}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("own header"), std::string::npos);

  const Fixture right = {
      {"src/mid/widget.hpp", "#pragma once\nint f();\n"},
      {"src/mid/widget.cpp",
       "#include \"mid/widget.hpp\"\n#include <vector>\nint f() { return 1; }\n"},
  };
  EXPECT_TRUE(run(right, only({kRuleHygiene})).empty());
}

TEST(LintHygiene, CppWithoutSiblingHeaderIsExempt) {
  const auto diags = run(
      {{"src/mid/main.cpp", "#include <vector>\nint main() { return 0; }\n"}},
      only({kRuleHygiene}));
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// metric-name

TEST(LintMetricName, MissingPrefixIsFlagged) {
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f() { obs::counter(\"frames_total\").add(1); }\n"}},
          only({kRuleMetricName}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleMetricName);
  EXPECT_NE(diags[0].message.find("tsvpt_[a-z0-9_]+"), std::string::npos);
}

TEST(LintMetricName, UppercaseAndDashesAreFlagged) {
  const auto diags = run({{"src/mid/a.cpp",
                           "void f() {\n"
                           "  obs::counter(\"tsvpt_Frames_total\").add(1);\n"
                           "  obs::gauge(\"tsvpt_ring-depth_frames\").set(1);\n"
                           "}\n"}},
                         only({kRuleMetricName}));
  EXPECT_EQ(diags.size(), 2u);
}

TEST(LintMetricName, EmptySegmentsAreFlagged) {
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f() {\n"
            "  obs::counter(\"tsvpt__frames_total\").add(1);\n"
            "  obs::counter(\"tsvpt_frames_total_\").add(1);\n"
            "}\n"}},
          only({kRuleMetricName}));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(any_message_contains(diags, "empty name segments"));
}

TEST(LintMetricName, CounterMustEndTotal) {
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f() { obs::counter(\"tsvpt_frames\").add(1); }\n"}},
          only({kRuleMetricName}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'_total'"), std::string::npos);
}

TEST(LintMetricName, HistogramMustEndUnitSuffix) {
  const auto bad =
      run({{"src/mid/a.cpp",
            "void f() { obs::histogram(\"tsvpt_latency\").observe(1.0); }\n"}},
          only({kRuleMetricName}));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_message_contains(bad, "unit suffix"));

  const auto good = run(
      {{"src/mid/a.cpp",
        "void f() {\n"
        "  obs::histogram(\"tsvpt_latency_seconds\").observe(1.0);\n"
        "  obs::histogram(\"tsvpt_batch_bytes\").observe(1.0);\n"
        "  obs::histogram(\"tsvpt_die_celsius\").observe(1.0);\n"
        "}\n"}},
      only({kRuleMetricName}));
  EXPECT_TRUE(good.empty());
}

TEST(LintMetricName, GaugeSuffixContract) {
  // `_total` is reserved for counters; a bare noun is missing its unit or
  // countable suffix; the countable set is accepted.
  const auto bad = run({{"src/mid/a.cpp",
                         "void f() {\n"
                         "  obs::gauge(\"tsvpt_spill_total\").set(1);\n"
                         "  obs::gauge(\"tsvpt_spill_depth\").set(1);\n"
                         "}\n"}},
                       only({kRuleMetricName}));
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_TRUE(any_message_contains(bad, "reserved for counters"));
  EXPECT_TRUE(any_message_contains(bad, "countable suffix"));

  const auto good =
      run({{"src/mid/a.cpp",
            "void f() {\n"
            "  obs::gauge(\"tsvpt_spill_depth_batches\").set(1);\n"
            "  obs::gauge(\"tsvpt_open_connections\").set(1);\n"
            "  obs::gauge(\"tsvpt_duty_ratio\").set(0.5);\n"
            "}\n"}},
          only({kRuleMetricName}));
  EXPECT_TRUE(good.empty());
}

TEST(LintMetricName, NonLiteralFirstArgumentIsExempt) {
  // A shared constant is named (and linted) at its defining literal; the
  // registration through the constant must not be double-flagged.
  Stats stats;
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f() { obs::histogram(kStageLatencyMetric, \"stage\", "
            "\"seal\").observe(1.0); }\n"}},
          only({kRuleMetricName}), &stats);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.metric_names_checked, 0);
}

TEST(LintMetricName, NonSrcIsExempt) {
  const auto diags =
      run({{"tests/a_test.cpp",
            "void f() { obs::counter(\"bad name\").add(1); }\n"}},
          only({kRuleMetricName}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintMetricName, CompliantRegistrationsCountAsChecked) {
  Stats stats;
  const auto diags =
      run({{"src/mid/a.cpp",
            "void f() {\n"
            "  obs::counter(\"tsvpt_ingest_frames_total\").add(1);\n"
            "  obs::histogram(\"tsvpt_stage_latency_seconds\").observe(1.0);\n"
            "  obs::gauge(\"tsvpt_ring_depth_frames\").set(3);\n"
            "}\n"}},
          only({kRuleMetricName}), &stats);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.metric_names_checked, 3);
}

TEST(LintMetricName, AllowWithReasonSuppresses) {
  Stats stats;
  const auto diags = run(
      {{"src/mid/a.cpp",
        "void f() { obs::counter(\"legacy_frames\").add(1); }  "
        "// lint:allow(metric-name): grandfathered dashboard key\n"}},
      only({kRuleMetricName}), &stats);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.suppressions_used, 1);
}

// ---------------------------------------------------------------------------
// layering-dag

TEST(LintLayering, UndeclaredEdgeIsFlagged) {
  const auto diags =
      run({{"src/base/a.cpp", "#include \"mid/b.hpp\"\n"}},
          only({kRuleLayering}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("undeclared edge base -> mid"),
            std::string::npos);
}

TEST(LintLayering, DeclaredEdgeAndLocalIncludesAreClean) {
  const auto diags = run({{"src/top/a.cpp",
                           "#include \"mid/b.hpp\"\n"
                           "#include \"top/detail.hpp\"\n"
                           "#include \"helper.hpp\"\n"
                           "#include <vector>\n"}},
                         only({kRuleLayering}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintLayering, UnknownModuleIsFlagged) {
  const auto diags = run({{"src/rogue/a.cpp", "int x;\n"}},
                         only({kRuleLayering}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("not declared"), std::string::npos);
}

TEST(LintLayering, DeclaredCycleYieldsBackEdgeDiagnostic) {
  LayeringConfig config;
  std::string error;
  ASSERT_TRUE(parse_layering(
      "[modules]\norder = [\"a\", \"b\"]\n[deps]\na = [\"b\"]\nb = [\"a\"]\n",
      &config, &error))
      << error;
  const auto diags = run({}, only({kRuleLayering}), nullptr, config);
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(any_message_contains(diags, "back-edge"));
  EXPECT_EQ(diags[0].file, "tools/lint/layering.toml");
}

TEST(LintLayering, SelfEdgeIsRejected) {
  LayeringConfig config;
  std::string error;
  ASSERT_TRUE(parse_layering(
      "[modules]\norder = [\"a\"]\n[deps]\na = [\"a\"]\n", &config, &error));
  const auto diags = run({}, only({kRuleLayering}), nullptr, config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(any_message_contains(diags, "back-edge"));
}

TEST(LintLayering, AuditFlagsDeclaredButUnusedEdges) {
  Analyzer::Options options = only({kRuleLayering});
  options.layering_audit = true;
  // top -> mid is exercised; mid -> base and top -> base are not.
  const auto diags =
      run({{"src/top/a.cpp", "#include \"mid/b.hpp\"\n"}}, options);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(any_message_contains(diags, "mid -> base"));
  EXPECT_TRUE(any_message_contains(diags, "top -> base"));
  EXPECT_TRUE(any_message_contains(diags, "not used by any include"));
}

// ---------------------------------------------------------------------------
// suppressions

TEST(LintSuppression, AllowWithReasonSuppresses) {
  Stats stats;
  const auto diags = run(
      {{"src/mid/a.cpp",
        "int f() { return rand(); }  "
        "// lint:allow(determinism-ban): fixture exercises legacy path\n"}},
      only({kRuleDeterminism}), &stats);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.suppressions_used, 1);
}

TEST(LintSuppression, OwnLineAllowCoversNextLine) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "// lint:allow(determinism-ban): fixture exercises legacy path\n"
        "int f() { return rand(); }\n"}},
      only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, ReasonIsMandatory) {
  const auto diags = run({{"src/mid/a.cpp",
                           "int f() { return rand(); }  "
                           "// lint:allow(determinism-ban)\n"}},
                         only({kRuleDeterminism}));
  // The original diagnostic survives AND the reason-less allow is diagnosed.
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(any_message_contains(diags, "must carry a reason"));
  EXPECT_TRUE(any_message_contains(diags, "banned in src/"));
}

TEST(LintSuppression, UnknownRuleNameIsDiagnosed) {
  const auto diags = run(
      {{"src/mid/a.cpp", "// lint:allow(no-such-rule): whatever\nint x;\n"}},
      only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleSuppression);
  EXPECT_TRUE(any_message_contains(diags, "unknown rule"));
}

TEST(LintSuppression, UnusedAllowIsDiagnosed) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "// lint:allow(determinism-ban): nothing here actually fires\n"
        "int f() { return 1; }\n"}},
      only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(any_message_contains(diags, "never matched"));
}

TEST(LintSuppression, ProseMentionIsNotADirective) {
  // A comment *talking about* lint:allow(rule) mid-sentence must not be
  // parsed as a suppression (and thus must not be flagged as unused).
  const auto diags = run(
      {{"src/mid/a.cpp",
        "// Suppress with lint:allow(determinism-ban): reason, like this.\n"
        "int f() { return 1; }\n"}},
      only({kRuleDeterminism}));
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// output formats

TEST(LintOutput, FormatDiagnostic) {
  Diagnostic diag;
  diag.file = "src/mid/a.cpp";
  diag.line = 12;
  diag.rule = kRuleDeterminism;
  diag.message = "msg";
  EXPECT_EQ(format_diagnostic(diag), "src/mid/a.cpp:12: [determinism-ban] msg");
}

TEST(LintOutput, JsonReportIsValidJson) {
  Stats stats;
  const auto diags = run({{"src/mid/a.cpp",
                           "int f() { return rand(); }\n"
                           "const char* s = \"quote \\\" and \\\\ inside\";\n"}},
                         only({kRuleDeterminism}), &stats);
  ASSERT_EQ(diags.size(), 1u);
  const std::string report = json_report(diags, stats);
  EXPECT_TRUE(tsvpt::testing::is_valid_json(report)) << report;
  EXPECT_NE(report.find("\"clean\": false"), std::string::npos);

  const std::string clean = json_report({}, stats);
  EXPECT_TRUE(tsvpt::testing::is_valid_json(clean)) << clean;
  EXPECT_NE(clean.find("\"clean\": true"), std::string::npos);
}

TEST(LintOutput, RuleCatalogIsStable) {
  const auto& rules = all_rules();
  ASSERT_EQ(rules.size(), 9u);
  for (const std::string& rule : rules) {
    EXPECT_FALSE(rule_description(rule).empty()) << rule;
  }
}

// ---------------------------------------------------------------------------
// layering config parser

TEST(LintConfig, MultiLineListsParse) {
  LayeringConfig config;
  std::string error;
  ASSERT_TRUE(parse_layering(
      "[modules]\n"
      "order = [\"a\",  # trailing comment\n"
      "         \"b\"]\n"
      "[deps]\na = []\nb = [\"a\"]\n",
      &config, &error))
      << error;
  ASSERT_EQ(config.modules.size(), 2u);
  EXPECT_EQ(config.modules[1], "b");
}

TEST(LintConfig, RejectsModuleWithoutDepsEntry) {
  LayeringConfig config;
  std::string error;
  EXPECT_FALSE(parse_layering("[modules]\norder = [\"a\"]\n[deps]\n", &config,
                              &error));
  EXPECT_NE(error.find("no [deps] entry"), std::string::npos);
}

TEST(LintConfig, RejectsUnknownDependency) {
  LayeringConfig config;
  std::string error;
  EXPECT_FALSE(parse_layering(
      "[modules]\norder = [\"a\"]\n[deps]\na = [\"ghost\"]\n", &config,
      &error));
  EXPECT_NE(error.find("unknown module"), std::string::npos);
}

// ---------------------------------------------------------------------------
// lock-order graph

TEST(LintLockOrder, ConsistentOrderAcrossFunctionsIsClean) {
  Stats stats;
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void first() {\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"
        "void second() {\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"}},
      only({kRuleLockOrder}), &stats, flow_layering());
  EXPECT_TRUE(diags.empty()) << diags.size();
  EXPECT_EQ(stats.lock_sites, 4);
  EXPECT_EQ(stats.lock_edges, 1);
}

TEST(LintLockOrder, DetectsSeededTwoMutexInversion) {
  // The seeded deadlock: one function takes a then b, the other b then a.
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void forward() {\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"},
       {"src/mid/b.cpp",
        "#include <mutex>\n"
        "extern std::mutex mu_a;\n"
        "extern std::mutex mu_b;\n"
        "void backward() {\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLockOrder);
  EXPECT_NE(diags[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'mu_a' -> 'mu_b'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("can deadlock"), std::string::npos);
}

TEST(LintLockOrder, MemberMutexesResolveToClassQualifiedKeysAcrossTus) {
  // The class body lives in one file, the inverted method in another: the
  // cycle only falls out if both TUs resolve `mu_` to `Store::mu_`.
  const auto diags = run(
      {{"src/mid/store.cpp",
        "#include <mutex>\n"
        "class Store {\n"
        " public:\n"
        "  void fill();\n"
        "  void drain();\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  std::mutex compact_;\n"
        "};\n"
        "void Store::fill() {\n"
        "  std::lock_guard<std::mutex> g1{mu_};\n"
        "  std::lock_guard<std::mutex> g2{compact_};\n"
        "}\n"},
       {"src/mid/compact.cpp",
        "#include <mutex>\n"
        "#include \"store.hpp\"\n"
        "void Store::drain() {\n"
        "  std::lock_guard<std::mutex> g1{compact_};\n"
        "  std::lock_guard<std::mutex> g2{mu_};\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'Store::compact_' -> 'Store::mu_'"),
            std::string::npos)
      << diags[0].message;
}

TEST(LintLockOrder, ScopedLockMultiArgGainsNoInternalEdges) {
  // std::scoped_lock's multi-arg form uses deadlock-avoiding std::lock, so
  // opposite argument orders in two functions must not read as an inversion.
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void forward() { std::scoped_lock g{mu_a, mu_b}; }\n"
        "void backward() { std::scoped_lock g{mu_b, mu_a}; }\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintLockOrder, DeferLockDoesNotAcquire) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void forward() {\n"
        "  std::unique_lock<std::mutex> ga{mu_a, std::defer_lock};\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"
        "void backward() {\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintLockOrder, ExplicitUnlockReleasesTheHold) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void forward() {\n"
        "  std::unique_lock<std::mutex> ga{mu_a};\n"
        "  ga.unlock();\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"
        "void backward() {\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintLockOrder, ScopeExitReleasesBeforeLaterAcquisition) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "std::mutex mu_b;\n"
        "void forward() {\n"
        "  { std::lock_guard<std::mutex> ga{mu_a}; }\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "}\n"
        "void backward() {\n"
        "  std::lock_guard<std::mutex> gb{mu_b};\n"
        "  std::lock_guard<std::mutex> ga{mu_a};\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintLockOrder, BlockingCallUnderLockIsDiagnosed) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "void hold_and_send(int fd) {\n"
        "  std::lock_guard<std::mutex> g{mu_a};\n"
        "  send_all(fd);\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("blocking call 'send_all' while holding"),
            std::string::npos);
  EXPECT_NE(diags[0].message.find("'mu_a'"), std::string::npos);
}

TEST(LintLockOrder, BlockingCallAfterGuardScopeIsClean) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "void send_unlocked(int fd) {\n"
        "  { std::lock_guard<std::mutex> g{mu_a}; }\n"
        "  send_all(fd);\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintLockOrder, SuppressionWithReasonIsHonoured) {
  const auto diags = run(
      {{"src/mid/a.cpp",
        "#include <mutex>\n"
        "std::mutex mu_a;\n"
        "void hold_and_send(int fd) {\n"
        "  std::lock_guard<std::mutex> g{mu_a};\n"
        "  // lint:allow(lock-order): peer is a localhost pipe, cannot stall\n"
        "  send_all(fd);\n"
        "}\n"}},
      only({kRuleLockOrder}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// must-consume statuses

TEST(LintMustConsume, DiscardedStatusCallIsDiagnosed) {
  const auto diags = run(
      {{"src/base/codec.hpp", "DecodeStatus decode(int frame);\n"},
       {"src/mid/a.cpp", "void f() { decode(1); }\n"}},
      only({kRuleMustConsume}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/mid/a.cpp");
  EXPECT_NE(
      diags[0].message.find("status result of 'decode' (returns "
                            "'DecodeStatus') is discarded"),
      std::string::npos);
}

TEST(LintMustConsume, ConsumedCallSitesAreClean) {
  Stats stats;
  const auto diags = run(
      {{"src/base/codec.hpp", "DecodeStatus decode(int frame);\n"},
       {"src/mid/a.cpp",
        "DecodeStatus keep() { return decode(1); }\n"
        "void assign() { DecodeStatus s = decode(2); (void)s; }\n"
        "bool compare() { return decode(3) == DecodeStatus::kOk; }\n"
        "void cast_away() { (void)decode(4); }\n"}},
      only({kRuleMustConsume}), &stats, flow_layering());
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.must_consume_sites, 4);
}

TEST(LintMustConsume, DeclarationIsNotACallSite) {
  const auto diags = run(
      {{"src/base/codec.hpp",
        "DecodeStatus decode(int frame);\n"
        "DecodeStatus decode(int frame, bool strict);\n"}},
      only({kRuleMustConsume}), nullptr, flow_layering());
  EXPECT_TRUE(diags.empty());
}

TEST(LintMustConsume, RegisteredBoolFunctionMustBeConsumed) {
  const auto diags = run(
      {{"src/mid/a.cpp", "void f(int fd) { send_all(fd); }\n"}},
      only({kRuleMustConsume}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'send_all' (registered bool status)"),
            std::string::npos);
}

TEST(LintMustConsume, UnbracedControlBodyStillDropsTheValue) {
  const auto diags = run(
      {{"src/base/codec.hpp", "DecodeStatus decode(int frame);\n"},
       {"src/mid/a.cpp", "void f(int fd) { if (fd) decode(fd); }\n"}},
      only({kRuleMustConsume}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("is discarded"), std::string::npos);
}

TEST(LintMustConsume, MemberChainReceiverCountsAsConsumption) {
  // `parser.decode(1);` discards too, but `log(parser.decode(1));` consumes.
  const auto diags = run(
      {{"src/base/codec.hpp", "DecodeStatus decode(int frame);\n"},
       {"src/mid/a.cpp",
        "void drop(Parser& parser) { parser.decode(1); }\n"
        "void feed(Parser& parser) { log(parser.decode(2)); }\n"}},
      only({kRuleMustConsume}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
}

// ---------------------------------------------------------------------------
// wire-layout contracts

TEST(LintWireLayout, ContiguousLayoutIsClean) {
  Stats stats;
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=8 crc=[0,4)\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"
        "inline constexpr std::size_t kBOffset = 4;  // field: b size=4\n"}},
      only({kRuleWireLayout}), &stats, flow_layering());
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.layouts_checked, 1);
  EXPECT_EQ(stats.layout_fields, 2);
}

TEST(LintWireLayout, DetectsSeededOffByOneOffset) {
  // The seeded header bug: field b starts one byte past the end of a.
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=9\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"
        "inline constexpr std::size_t kBOffset = 5;  // field: b size=4\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find(
                "1-byte gap between 'a' (ends 4) and 'b' (starts 5)"),
            std::string::npos);
}

TEST(LintWireLayout, DetectsOverlappingFields) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=7\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"
        "inline constexpr std::size_t kBOffset = 3;  // field: b size=4\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("overlaps 'a'"), std::string::npos);
}

TEST(LintWireLayout, FirstFieldMustStartAtZero) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=8\n"
        "inline constexpr std::size_t kAOffset = 2;  // field: a size=6\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("starts at offset 2, expected 0"),
            std::string::npos);
}

TEST(LintWireLayout, FieldsMustCoverTheDeclaredSize) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=8\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"
        "inline constexpr std::size_t kBOffset = 4;  // field: b size=2\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find(
                "fields cover [0,6) but the layout declares size=8"),
            std::string::npos);
}

TEST(LintWireLayout, CrcSpanMustLieInsideTheHeader) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=8 crc=[0,12)\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=8\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("crc span [0,12) must lie inside [0,8)"),
            std::string::npos);
}

TEST(LintWireLayout, CrcFieldInsideItsOwnCoverageIsDiagnosed) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=8 crc=[0,8)\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"
        "inline constexpr std::size_t kCrcOffset = 4;"
        "  // field: header_crc size=4\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("lies inside its own coverage span"),
            std::string::npos);
}

TEST(LintWireLayout, DanglingFieldDirectiveIsDiagnosed) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("no preceding layout directive"),
            std::string::npos);
}

TEST(LintWireLayout, DuplicateLayoutNameAcrossFilesIsDiagnosed) {
  const auto diags = run(
      {{"src/base/wire.hpp",
        "// layout: demo size=4\n"
        "inline constexpr std::size_t kAOffset = 0;  // field: a size=4\n"},
       {"src/mid/wire2.hpp",
        "// layout: demo size=4\n"
        "inline constexpr std::size_t kBOffset = 0;  // field: b size=4\n"}},
      only({kRuleWireLayout}), nullptr, flow_layering());
  // The rejected duplicate also orphans its field directive, so two
  // diagnostics: the redeclaration and the dangling field.
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(any_message_contains(diags, "already declared at"));
  EXPECT_TRUE(any_message_contains(diags, "no preceding layout directive"));
}

// ---------------------------------------------------------------------------
// hot-path bans

TEST(LintHotPath, CleanContractedFunctionPasses) {
  Stats stats;
  const auto diags = run(
      {{"src/base/fast.hpp",
        "// hot: per-frame conversion path\n"
        "int fast(int x) { return x + 1; }\n"}},
      only({kRuleHotPath}), &stats, flow_layering());
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(stats.hot_functions, 1);
}

TEST(LintHotPath, AllocationInHotFunctionIsDiagnosed) {
  const auto diags = run(
      {{"src/base/fast.cpp",
        "#include <vector>\n"
        "std::vector<int> sink;\n"
        "// hot: per-frame append path\n"
        "void record(int x) { sink.push_back(x); }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'push_back' allocates inside 'record'"),
            std::string::npos);
  EXPECT_NE(diags[0].message.find("bans alloc"), std::string::npos);
}

TEST(LintHotPath, SubsetContractBansOnlyListedCategories) {
  // A hot(alloc) contract tolerates the throw but not the vector growth.
  const auto diags = run(
      {{"src/base/fast.cpp",
        "// hot(alloc): bounds check may throw, that is fine\n"
        "int pick(int i) {\n"
        "  if (i < 0) throw 1;\n"
        "  return i;\n"
        "}\n"
        "// hot(alloc): no growth on this path\n"
        "void grow(std::vector<int>& v) { v.resize(8); }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'resize' allocates inside 'grow'"),
            std::string::npos);
}

TEST(LintHotPath, SizedContainerLocalsAllocate) {
  // Both spellings of a local built with storage: sized by a constructor
  // argument, and initialized from a call (the result is a fresh buffer).
  const auto diags = run(
      {{"src/base/fast.cpp",
        "#include <string>\n"
        "#include <vector>\n"
        "std::vector<double> flows(const std::vector<double>& t);\n"
        "// hot(alloc): one derivative per node\n"
        "void by_size(std::size_t n) { std::vector<double> deriv(n); }\n"
        "// hot(alloc): flows of the current state\n"
        "void by_init(const std::vector<double>& t) {\n"
        "  const std::vector<double> flow = flows(t);\n"
        "}\n"
        "// hot(alloc): a label per scan\n"
        "void by_text() { std::string label{\"scan\"}; }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_TRUE(any_message_contains(
      diags, "'std::vector deriv' allocates inside 'by_size'"));
  EXPECT_TRUE(any_message_contains(
      diags, "'std::vector flow' allocates inside 'by_init'"));
  EXPECT_TRUE(any_message_contains(
      diags, "'std::string label' allocates inside 'by_text'"));
}

TEST(LintHotPath, ReferencesAndEmptyContainersDoNotAllocate) {
  Stats stats;
  const auto diags = run(
      {{"src/base/fast.cpp",
        "#include <string>\n"
        "#include <vector>\n"
        "// hot(alloc): works in caller-owned buffers only\n"
        "double sum(std::vector<double>& buf, const std::string& name) {\n"
        "  std::vector<double>& flow = buf;\n"
        "  const std::string& label = name;\n"
        "  std::vector<std::pair<int, int>> none;\n"
        "  std::vector<double> empty{};\n"
        "  std::string blank = {};\n"
        "  if (label.find('x') == std::string::npos) return 0.0;\n"
        "  return flow[0];\n"
        "}\n"}},
      only({kRuleHotPath}), &stats, flow_layering());
  EXPECT_TRUE(diags.empty()) << diags[0].message;
  EXPECT_EQ(stats.hot_functions, 1);
}

TEST(LintHotPath, TransitiveCalleeViolationIsDiagnosed) {
  // The hot function itself is clean; its callee (defined in another file)
  // throws, and the ban is enforced one call level deep.
  const auto diags = run(
      {{"src/base/helper.cpp",
        "void validate(int x) { if (x < 0) throw 1; }\n"},
       {"src/mid/outer.cpp",
        "// hot: no exceptions on the scan path\n"
        "void outer(int x) { validate(x); }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("call to 'validate'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("which throws"), std::string::npos);
  EXPECT_NE(diags[0].message.find("(transitive, depth 1)"),
            std::string::npos);
}

TEST(LintHotPath, LockAcquisitionInHotFunctionIsDiagnosed) {
  const auto diags = run(
      {{"src/base/fast.cpp",
        "#include <mutex>\n"
        "std::mutex mu;\n"
        "// hot: wait-free by contract\n"
        "int locked_get(int x) {\n"
        "  std::lock_guard<std::mutex> g{mu};\n"
        "  return x;\n"
        "}\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("acquires a lock"), std::string::npos);
}

TEST(LintHotPath, FreeIoCallIsDiagnosedButMemberReadIsNot) {
  // `read` is in the io registry: the bare call is the syscall, while
  // `sensor.read(...)` is a method on a model object and must not count.
  const auto diags = run(
      {{"src/base/fast.cpp",
        "// hot: sensor conversion path\n"
        "int sample(Sensor& sensor) { return sensor.read(); }\n"
        "// hot: but this one really does io\n"
        "int slurp() { return read(); }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("performs blocking io"), std::string::npos);
}

TEST(LintHotPath, MalformedContractIsDiagnosed) {
  const auto diags = run(
      {{"src/base/fast.cpp",
        "// hot(bogus): not a category\n"
        "int f(int x) { return x; }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("unknown hot contract category 'bogus'"),
            std::string::npos);
}

TEST(LintHotPath, ContractWithoutReasonIsDiagnosed) {
  const auto diags = run(
      {{"src/base/fast.cpp",
        "// hot:\n"
        "int f(int x) { return x; }\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("must carry a reason"), std::string::npos);
}

TEST(LintHotPath, DanglingContractIsDiagnosed) {
  const auto diags = run(
      {{"src/base/fast.cpp",
        "// hot: floats free above a plain variable\n"
        "int x = 3;\n"}},
      only({kRuleHotPath}), nullptr, flow_layering());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("attaches to no function definition"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF output

TEST(LintSarif, ReportIsValidJsonWithRuleIds) {
  const auto diags = run({{"src/mid/a.cpp", "int f() { return rand(); }\n"}},
                         only({kRuleDeterminism}));
  ASSERT_EQ(diags.size(), 1u);
  const std::string report = sarif_report(diags);
  EXPECT_TRUE(tsvpt::testing::is_valid_json(report)) << report;
  EXPECT_NE(report.find("\"ruleId\": \"determinism-ban\""),
            std::string::npos);
  EXPECT_NE(report.find("src/mid/a.cpp"), std::string::npos);
  EXPECT_NE(report.find("\"version\": \"2.1.0\""), std::string::npos);
}

TEST(LintSarif, EmptyReportIsValidJson) {
  const std::string report = sarif_report({});
  EXPECT_TRUE(tsvpt::testing::is_valid_json(report)) << report;
  EXPECT_NE(report.find("\"results\": []"), std::string::npos);
}

TEST(LintConfig, FlowRegistrySectionsParse) {
  const LayeringConfig config = flow_layering();
  EXPECT_EQ(config.status_types.count("DecodeStatus"), 1u);
  EXPECT_EQ(config.consume_bool_functions.count("send_all"), 1u);
  EXPECT_EQ(config.blocking_calls.count("fsync"), 1u);
  EXPECT_EQ(config.hot_io_calls.count("read"), 1u);
}

}  // namespace
}  // namespace tsvpt::lint
