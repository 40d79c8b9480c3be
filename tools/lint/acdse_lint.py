#!/usr/bin/env python3
"""Project-specific lint rules that clang-tidy cannot express.

Run from anywhere:  python3 tools/lint/acdse_lint.py  [--root DIR]

Two engines implement the rules:

  ast     AST-grounded (tools/lint/ast_engine.py): parses every
          translation unit in build/compile_commands.json with
          libclang, so rules see real declarations, call targets,
          loop/lambda ancestry and macro expansions. Requires the
          python clang bindings + a loadable libclang + a configured
          build tree.

  regex   Line-oriented patterns, no dependencies beyond python.
          Weaker (substrings, lexical brace tracking) but always
          available; it covers the same legacy rules and a lexical
          approximation of acdse-raw-mutex.

--engine auto (the default) uses the AST engine when it can and falls
back to regex with a note; CI passes --require-ast so the stronger
engine cannot silently rot. The AST engine additionally implements
rules the regex engine cannot express at all (ref-capture writes in
parallelFor workers, mutable local statics).

Rules (suppress a single line with a trailing  // NOLINT(acdse-<rule>)):

  acdse-checked-parse    The C ato* family silently returns 0
                         on garbage; the strtol family wraps or needs
                         errno discipline nobody gets right. All text
                         -> number conversion goes through
                         src/base/parse.hh (parseU64/I64/F64[OrDie]).

  acdse-deterministic-rng
                         std::rand, srand and std::random_device (and
                         time()-derived seeds) make runs
                         unreproducible. Use acdse::Rng with an
                         explicit seed.

  acdse-atomic-writes    Artifact/cache files must appear atomically:
                         writes go through writeTextAtomic(),
                         writeCsvAtomic() or the model store's
                         saveArtifact(), not raw std::ofstream/fopen.
                         (Allowlisted: base/json.cc, which implements
                         the primitive, and base/csv.cc's non-atomic
                         writeCsv(); tests may write scratch files.)

  acdse-pragma-once      Every header uses #pragma once, not include
                         guards.

  acdse-no-assert-macro  ACDSE_ASSERT was replaced by ACDSE_CHECK /
                         ACDSE_DCHECK (base/check.hh); don't
                         reintroduce it.

  acdse-retired-build-switch
                         ACDSE_NO_SIMD, ACDSE_NO_FAST_TANH,
                         ACDSE_NO_SIM_BATCH, ACDSE_OBS_DISABLED and
                         ACDSE_SIMD_VECTOR name build switches that no
                         longer exist: the project has one production
                         build, so code under them is dead and still
                         compiles silently.

  acdse-test-temp-literal
                         std::filesystem::temp_directory_path() in
                         tests/ outside tests/temp_dir.hh. A fixed
                         name under the host's temp directory is shared
                         by every concurrent test process and every
                         checkout on the host, so a cache there can be
                         stale or rebuilt under a reader; take
                         directories from testdir::uniqueTempDir.

  acdse-one-sim-scratch
                         A SimScratch object declared in src/ outside
                         src/sim/core.cc (thread_local, static, local
                         or heap). Library code simulates on one
                         scratch per thread, threadSimScratch(); every
                         extra one adds its caches and pipeline
                         storage (about 750 KiB after the largest
                         design point) to the process's peak memory.
                         Take a SimScratch & from threadSimScratch()
                         instead. Tests and benches are exempt.

  acdse-one-block-tiler
                         A simd::transposeBlock call in src/ outside
                         src/ml/mlp.cc and
                         src/core/architecture_centric_predictor.cc.
                         Splitting feature rows into SIMD blocks (and
                         padding the tail) has one owner: score rows
                         with predictRows() (or an ensemble's
                         predictBatchFromFeatures) instead of tiling
                         them by hand.

  acdse-obs-span-in-hot-loop
                         obs::TraceSpan construction inside a
                         for/while body in src/. Spans belong at
                         stage granularity (around a whole batch,
                         fold, or training run); a span per loop
                         iteration times the instrumentation, not the
                         work, and shows up in serving throughput.
                         Instrument the loop once from outside, or
                         record into a Histogram instead. (Worker
                         lambdas passed to parallelFor are fine: the
                         lambda body is the per-task stage, not an
                         inner loop.) Tests are exempt -- they
                         construct spans in loops to test them.

  acdse-raw-mutex        std::mutex / std::shared_mutex /
                         std::condition_variable declared in src/
                         outside base/sync.hh. Locking through the
                         raw types is invisible to Clang's
                         -Wthread-safety analysis; use the annotated
                         wrappers (Mutex, SharedMutex, MutexLock,
                         ReaderLock, CondVar) so unguarded access is
                         a compile error.

  acdse-parallelfor-ref-capture   (AST engine only)
                         A by-reference capture written directly
                         (x = / x += / ++x) inside a lambda passed to
                         ThreadPool::parallelFor, in src/, bench/ or
                         tools/. Racy and order-dependent; write to an
                         index-addressed slot (out[i] = ...) or an
                         atomic, the project's deterministic-parallel
                         patterns. Tests are exempt (they provoke
                         these shapes on purpose).

  acdse-local-static     (AST engine only)
                         A mutable (non-const, non-atomic)
                         function-local static in src/: hidden shared
                         state that ACDSE_GUARDED_BY cannot see.
                         Hoist it behind a sync.hh-guarded class, make
                         it const/atomic, or NOLINT with a reason.

Exit status: 0 when clean, 1 when any finding is reported, 2 when
--require-ast (or --engine ast) is set and the AST engine is
unavailable. Run the embedded rule self-tests with  --self-test .
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_SUFFIXES = {".cc", ".cpp", ".hh", ".h"}

# Lint fixtures are deliberately rule-violating inputs for the AST
# engine's self-test; they are not project sources.
FIXTURE_DIR = Path("tools/lint/fixtures")

# Files allowed to do raw file writes: the atomic-write primitives
# themselves.
ATOMIC_WRITE_IMPLS = {
    Path("src/base/csv.cc"),
    Path("src/base/json.cc"),
}

# The one file allowed to name the raw standard synchronisation types:
# the annotated wrappers that everything else must use.
RAW_SYNC_IMPL = Path("src/base/sync.hh")

# The one test file allowed to touch the host temp directory: the
# helper that hands out unique directories under it.
TEST_TEMP_IMPL = Path("tests/temp_dir.hh")

# The one file allowed to declare a SimScratch object: the per-thread
# accessor every library simulation goes through.
SIM_SCRATCH_IMPL = Path("src/sim/core.cc")

# The files allowed to tile rows into SIMD blocks: the single-model
# batch path and the one ensemble batch scorer, predictRows().
BLOCK_TILER_IMPLS = {
    Path("src/ml/mlp.cc"),
    Path("src/core/architecture_centric_predictor.cc"),
}

NOLINT_RE = re.compile(r"NOLINT\(acdse-([a-z-]+)\)")

RETIRED_SWITCH_RE = re.compile(
    r"\bACDSE_(?:NO_SIMD|NO_FAST_TANH|NO_SIM_BATCH|OBS_DISABLED|"
    r"SIMD_VECTOR)\b"
)
TEST_TEMP_RE = re.compile(r"\btemp_directory_path\s*\(")
# A SimScratch object (not a reference or pointer): a declaration, a
# heap allocation or a container of them.
SIM_SCRATCH_RE = re.compile(
    r"\bSimScratch\s+[A-Za-z_]\w*\s*[;({=\[]"
    r"|\bnew\s+SimScratch\b"
    r"|\b(?:make_unique|make_shared|optional|vector|array|deque|"
    r"unique_ptr|shared_ptr)\s*<\s*SimScratch\s*[,>]"
)
# A call of the block transpose (not a mention of it in a comment).
BLOCK_TILER_RE = re.compile(r"\bsimd::transposeBlock\s*\(")

# (name, pattern, message, scope): scope is None (every scanned file)
# or a predicate on the repo-relative path.
RULES = [
    (
        "checked-parse",
        re.compile(
            r"\b(?:std::)?(?:ato(?:i|l|ll|f)|"
            r"strtol|strtoll|strtoul|strtoull|strtod|strtof|strtold)"
            r"\s*\("
        ),
        "use the checked parsers in base/parse.hh "
        "(parseU64/parseI64/parseF64 or their OrDie forms)",
        None,
    ),
    (
        "deterministic-rng",
        re.compile(
            r"\b(?:std::rand\b|srand\s*\(|std::random_device\b|"
            r"seed\s*\(\s*time\s*\(|time\s*\(\s*(?:NULL|nullptr|0)\s*\))"
        ),
        "non-deterministic randomness; use acdse::Rng with an explicit "
        "seed",
        None,
    ),
    (
        "no-assert-macro",
        re.compile(r"\bACDSE_ASSERT\b"),
        "ACDSE_ASSERT is retired; use ACDSE_CHECK or ACDSE_DCHECK from "
        "base/check.hh",
        None,
    ),
    (
        "retired-build-switch",
        RETIRED_SWITCH_RE,
        "this build switch was removed (there is one production build); "
        "code under it is dead",
        None,
    ),
    (
        "test-temp-literal",
        TEST_TEMP_RE,
        "fixed temp-dir names are shared by every test process and "
        "checkout on the host; use testdir::uniqueTempDir "
        "(tests/temp_dir.hh)",
        lambda rel: rel.parts[:1] == ("tests",) and rel != TEST_TEMP_IMPL,
    ),
    (
        "one-sim-scratch",
        SIM_SCRATCH_RE,
        "library code simulates on one scratch per thread; take "
        "threadSimScratch() (sim/core.hh) instead of declaring another",
        lambda rel: rel.parts[:1] == ("src",) and rel != SIM_SCRATCH_IMPL,
    ),
    (
        "one-block-tiler",
        BLOCK_TILER_RE,
        "batch scoring has one block tiler; call predictRows() "
        "(core/architecture_centric_predictor.hh) instead of "
        "transposing blocks by hand",
        lambda rel: rel.parts[:1] == ("src",)
        and rel not in BLOCK_TILER_IMPLS,
    ),
]

# Rules the AST engine re-implements exactly; the lexical versions are
# skipped while it is active so a line cannot double-report.
AST_REPLACES = {
    "deterministic-rng",
    "no-assert-macro",
    "obs-span-in-hot-loop",
    "raw-mutex",
}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\b"
)
RAW_MUTEX_MESSAGE = (
    "raw standard mutex/condition-variable type: locking through it is "
    "invisible to -Wthread-safety; use the annotated wrappers in "
    "base/sync.hh"
)


LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(")
SPAN_CTOR_RE = re.compile(r"\bTraceSpan\s+\w|\bTraceSpan\s*[({]")


def find_spans_in_loops(lines: list[str]) -> list[int]:
    """Line numbers where a TraceSpan is constructed inside a loop.

    A deliberately lexical scan: brace depth is tracked across the
    file, and every ``{`` that follows a ``for``/``while`` header opens
    a loop body until its matching ``}``. Lambda bodies open plain
    (non-loop) scopes, so spans in parallelFor workers don't flag.
    Comments and string literals are stripped line-by-line first, which
    is as much C++ parsing as a lint this size should attempt. (The AST
    engine replaces this with real loop/lambda ancestry.)
    """
    findings: list[int] = []
    loop_depths: list[int] = []  # brace depth at each open loop body
    depth = 0
    parens = 0
    pending_loop = False  # saw a loop header, waiting for its '{'
    in_block_comment = False

    for lineno, raw in enumerate(lines, 1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        line = re.sub(r"'(?:[^'\\]|\\.)'", "''", line)
        line = re.sub(r"//.*", "", line)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]

        # A span on the same line as a loop header covers both braced
        # one-liners and brace-less single-statement bodies.
        header_here = bool(LOOP_HEADER_RE.search(line))
        if SPAN_CTOR_RE.search(line) and (
            loop_depths or header_here or pending_loop
        ):
            findings.append(lineno)
        if header_here:
            pending_loop = True

        for ch in line:
            if ch == "(":
                parens += 1
            elif ch == ")":
                parens -= 1
            elif ch == "{":
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
                depth += 1
            elif ch == "}":
                depth -= 1
                if loop_depths and depth == loop_depths[-1]:
                    loop_depths.pop()
            elif ch == ";" and pending_loop and parens == 0:
                # `for (...) stmt;` without braces (or a do-while
                # tail): the body is over, nothing was pushed.
                pending_loop = False
    return findings


def lint_file(root: Path, rel: Path, ast_active: bool = False) -> list[str]:
    findings: list[str] = []
    try:
        text = (root / rel).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{rel}:1: [acdse-encoding] file is not valid UTF-8"]
    lines = text.splitlines()

    top = rel.parts[0] if rel.parts else ""
    raw_write_banned = (
        top in ("src", "tools", "bench", "examples")
        and rel not in ATOMIC_WRITE_IMPLS
    )
    raw_sync_banned = (
        not ast_active and top == "src" and rel != RAW_SYNC_IMPL
    )

    for lineno, line in enumerate(lines, 1):
        suppressed = {m.group(1) for m in NOLINT_RE.finditer(line)}

        for name, pattern, message, scope in RULES:
            if ast_active and name in AST_REPLACES:
                continue
            if name in suppressed or (scope and not scope(rel)):
                continue
            if pattern.search(line):
                findings.append(
                    f"{rel}:{lineno}: [acdse-{name}] {message}"
                )

        if (
            raw_write_banned
            and "atomic-writes" not in suppressed
            and re.search(r"\bstd::ofstream\b|\bfopen\s*\(", line)
        ):
            findings.append(
                f"{rel}:{lineno}: [acdse-atomic-writes] raw file "
                "writes bypass crash-safety; use writeTextAtomic(), "
                "writeCsvAtomic() or saveArtifact() (base/json.hh, "
                "base/csv.hh, serve/model_store.hh)"
            )

        if (
            raw_sync_banned
            and "raw-mutex" not in suppressed
            and RAW_MUTEX_RE.search(line)
        ):
            findings.append(
                f"{rel}:{lineno}: [acdse-raw-mutex] {RAW_MUTEX_MESSAGE}"
            )

    # Hot-loop span rule: src/ only; tests construct spans in loops on
    # purpose (they are testing the spans).
    if top == "src" and not ast_active:
        for lineno in find_spans_in_loops(lines):
            if "obs-span-in-hot-loop" in {
                m.group(1) for m in NOLINT_RE.finditer(lines[lineno - 1])
            }:
                continue
            findings.append(
                f"{rel}:{lineno}: [acdse-obs-span-in-hot-loop] "
                "TraceSpan constructed inside a loop body; spans are "
                "stage-granular -- hoist it out of the loop or record "
                "into an obs::Histogram instead"
            )

    if rel.suffix in (".hh", ".h"):
        directives = [
            l.strip() for l in lines if l.strip().startswith("#")
        ]
        if not directives or directives[0] != "#pragma once":
            findings.append(
                f"{rel}:1: [acdse-pragma-once] headers must open with "
                "#pragma once (before any other directive)"
            )

    return findings


SELF_TEST_CASES = [
    # (name, expect_finding_lines, snippet)
    (
        "span in for body flags",
        [2],
        """for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceSpan span(stage);
    work(i);
}""",
    ),
    (
        "span in while body flags",
        [2],
        """while (running) {
    obs::TraceSpan span(registry, "serve/poll");
}""",
    ),
    (
        "brace-less loop body flags",
        [2],
        """for (auto &item : items)
    const obs::TraceSpan span(stage);""",
    ),
    (
        "span in nested if inside loop flags",
        [3],
        """for (std::size_t i = 0; i < n; ++i) {
    if (slow(i)) {
        const obs::TraceSpan span(stage);
    }
}""",
    ),
    (
        "span before and after a loop is clean",
        [],
        """const obs::TraceSpan outer(stage);
for (std::size_t i = 0; i < n; ++i) {
    work(i);
}
const obs::TraceSpan tail(stage);""",
    ),
    (
        "span in parallelFor lambda is clean",
        [],
        """pool.parallelFor(0, n, [&](std::size_t i) {
    const obs::TraceSpan span(*stages[i]);
    work(i);
});""",
    ),
    (
        "loop after do-while tail is tracked correctly",
        [],
        """do {
    work();
} while (again());
const obs::TraceSpan span(stage);""",
    ),
    (
        "commented span in loop is clean",
        [],
        """for (std::size_t i = 0; i < n; ++i) {
    // const obs::TraceSpan span(stage);
    work(i);
}""",
    ),
]

# (name, pattern matches line) cases for the single-line regex rules.
LINE_RULE_CASES = [
    ("std::mutex member flags", RAW_MUTEX_RE,
     "    std::mutex mutex_;", True),
    ("std::shared_mutex flags", RAW_MUTEX_RE,
     "    mutable std::shared_mutex mutex_;", True),
    ("std::condition_variable flags", RAW_MUTEX_RE,
     "    std::condition_variable cv_;", True),
    ("unique_lock over std::mutex flags", RAW_MUTEX_RE,
     "    std::unique_lock<std::mutex> lock(m);", True),
    ("annotated wrapper types are clean", RAW_MUTEX_RE,
     "    Mutex mutex_; SharedMutex rw_; CondVar cv_;", False),
    ("atoi flags", RULES[0][1], "int v = atoi(s);", True),
    ("parseU64 is clean", RULES[0][1],
     "const auto v = parseU64OrDie(name, s);", False),
    ("std::random_device flags", RULES[1][1],
     "std::random_device rd;", True),
    ("retired switch #ifdef flags", RETIRED_SWITCH_RE,
     "#ifdef ACDSE_NO_SIMD", True),
    ("retired vector macro flags", RETIRED_SWITCH_RE,
     "#if defined(ACDSE_SIMD_VECTOR)", True),
    ("live build options are clean", RETIRED_SWITCH_RE,
     "#if defined(ACDSE_ENABLE_DCHECK) || ACDSE_NATIVE", False),
    ("fixed temp-dir name flags", TEST_TEMP_RE,
     'std::filesystem::temp_directory_path() / "acdse_t1"', True),
    ("uniqueTempDir is clean", TEST_TEMP_RE,
     'options.cacheDir = testdir::uniqueTempDir("acdse_t1").string();',
     False),
    ("thread_local scratch flags", SIM_SCRATCH_RE,
     "    thread_local SimScratch scratch;", True),
    ("local scratch flags", SIM_SCRATCH_RE, "    SimScratch scratch;", True),
    ("braced local scratch flags", SIM_SCRATCH_RE,
     "    SimScratch s{};", True),
    ("heap scratch flags", SIM_SCRATCH_RE,
     "auto s = std::make_unique<SimScratch>();", True),
    ("scratch container flags", SIM_SCRATCH_RE,
     "std::vector<SimScratch> scratches(n);", True),
    ("shared-scratch reference is clean", SIM_SCRATCH_RE,
     "    SimScratch &scratch = threadSimScratch();", False),
    ("scratch parameter is clean", SIM_SCRATCH_RE,
     "                   SimScratch &scratch);", False),
    ("accessor declaration is clean", SIM_SCRATCH_RE,
     "SimScratch &threadSimScratch();", False),
    ("struct definition is clean", SIM_SCRATCH_RE, "struct SimScratch", False),
    ("hand-rolled block transpose flags", BLOCK_TILER_RE,
     "        simd::transposeBlock(features.data() + base * kNumParams,",
     True),
    ("spaced transpose call flags", BLOCK_TILER_RE,
     "simd::transposeBlock (rows, n, d, soa);", True),
    ("comment mention is clean", BLOCK_TILER_RE,
     " * strided gather hoisted out (see simd::transposeBlock), so an",
     False),
    ("the definition is clean", BLOCK_TILER_RE,
     "transposeBlock(const double *__restrict rows, std::size_t count,",
     False),
]

# (name, rule, repo-relative path, rule applies there) for scoped rules.
SCOPE_CASES = [
    ("temp literal in a test is in scope", "test-temp-literal",
     "tests/test_campaign.cc", True),
    ("the temp-dir helper itself is exempt", "test-temp-literal",
     "tests/temp_dir.hh", False),
    ("benches are out of scope", "test-temp-literal",
     "bench/bench_jobs.cc", False),
    ("a scratch in the library is in scope", "one-sim-scratch",
     "src/core/campaign.cc", True),
    ("the shared accessor's file is exempt", "one-sim-scratch",
     "src/sim/core.cc", False),
    ("tests may declare scratches", "one-sim-scratch",
     "tests/test_batch_sim.cc", False),
    ("benches may declare scratches", "one-sim-scratch",
     "bench/bench_campaign.cc", False),
    ("a tiler in the explorer is in scope", "one-block-tiler",
     "src/explore/explorer.cc", True),
    ("a tiler in the service is in scope", "one-block-tiler",
     "src/serve/prediction_service.cc", True),
    ("the single-model batch path is exempt", "one-block-tiler",
     "src/ml/mlp.cc", False),
    ("the ensemble batch scorer is exempt", "one-block-tiler",
     "src/core/architecture_centric_predictor.cc", False),
    ("tests may transpose blocks", "one-block-tiler",
     "tests/test_batch_predict.cc", False),
]


def self_test(root: Path, require_ast: bool = False) -> int:
    failures = 0
    for name, expected, snippet in SELF_TEST_CASES:
        got = find_spans_in_loops(snippet.splitlines())
        status = "ok" if got == expected else "FAIL"
        failures += got != expected
        print(f"{status}: {name} (expected {expected}, got {got})")
    for name, pattern, line, expected in LINE_RULE_CASES:
        got = bool(pattern.search(line))
        status = "ok" if got == expected else "FAIL"
        failures += got != expected
        print(f"{status}: {name} (expected {expected}, got {got})")
    scopes = {name: scope for name, _, _, scope in RULES}
    for name, rule, path, expected in SCOPE_CASES:
        got = scopes[rule](Path(path))
        status = "ok" if got == expected else "FAIL"
        failures += got != expected
        print(f"{status}: {name} (expected {expected}, got {got})")
    regex_cases = (len(SELF_TEST_CASES) + len(LINE_RULE_CASES) +
                   len(SCOPE_CASES))

    import ast_engine

    ast_cases = 0
    reason = ast_engine.availability()
    if reason is None:
        failures += ast_engine.run_self_test(root)
        ast_cases += len(ast_engine.SELF_TEST_CASES)
        fixture_dir = root / FIXTURE_DIR
        for fixture in sorted(fixture_dir.glob("*.cc")):
            ast_cases += 1
            problems = ast_engine.check_fixture(
                root, fixture, f"src/lint_fixtures/{fixture.name}")
            status = "ok" if not problems else "FAIL"
            failures += bool(problems)
            print(f"{status}: [ast] fixture {fixture.name}")
            for problem in problems:
                print(f"    {problem}")
    else:
        message = f"AST self-test cases skipped: {reason}"
        if require_ast:
            print(f"FAIL: {message}")
            failures += 1
        else:
            print(f"note: {message}", file=sys.stderr)

    print(
        f"acdse_lint --self-test: {regex_cases} regex + {ast_cases} AST "
        f"cases, {failures} failure(s)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def resolve_compile_db(root: Path, arg: Path | None) -> Path | None:
    """Directory containing compile_commands.json, or None."""
    candidate = arg if arg is not None else root / "build"
    if not candidate.is_absolute():
        candidate = root / candidate
    if candidate.name == "compile_commands.json":
        candidate = candidate.parent
    if (candidate / "compile_commands.json").is_file():
        return candidate
    return None


def ast_suppressed(root: Path, rel: str, lineno: int, rule: str,
                   cache: dict) -> bool:
    """Apply the trailing-NOLINT convention to an AST finding."""
    if rel not in cache:
        try:
            cache[rel] = (root / rel).read_text(
                encoding="utf-8").splitlines()
        except OSError:
            cache[rel] = []
    lines = cache[rel]
    if 1 <= lineno <= len(lines):
        return rule in {
            m.group(1) for m in NOLINT_RE.finditer(lines[lineno - 1])
        }
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repository root (default: inferred from this script)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "ast", "regex"),
        default="auto",
        help="auto: AST when libclang + compile_commands.json are "
        "available, else regex fallback (default); ast: AST or die; "
        "regex: lexical rules only",
    )
    parser.add_argument(
        "--compile-commands",
        type=Path,
        default=None,
        metavar="DIR",
        help="build directory (or compile_commands.json path) for the "
        "AST engine; default: <root>/build",
    )
    parser.add_argument(
        "--require-ast",
        action="store_true",
        help="exit 2 instead of falling back when the AST engine is "
        "unavailable (CI uses this so the gate cannot silently weaken)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded rule self-tests and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root,
                         require_ast=args.require_ast
                         or args.engine == "ast")

    import ast_engine

    ast_active = False
    build_dir = None
    if args.engine in ("auto", "ast"):
        reason = ast_engine.availability()
        if reason is None:
            build_dir = resolve_compile_db(args.root,
                                           args.compile_commands)
            if build_dir is None:
                reason = (
                    "compile_commands.json not found (configure with "
                    "`cmake -B build -S .` or pass --compile-commands)"
                )
        if reason is None:
            ast_active = True
        else:
            if args.engine == "ast" or args.require_ast:
                print(
                    "acdse_lint: AST engine required but unavailable: "
                    f"{reason}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"acdse_lint: note: falling back to regex engine "
                f"({reason})",
                file=sys.stderr,
            )

    files: list[Path] = []
    for top in SOURCE_DIRS:
        base = args.root / top
        if not base.is_dir():
            continue
        files.extend(
            rel
            for p in sorted(base.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()
            and not (rel := p.relative_to(args.root)).is_relative_to(
                FIXTURE_DIR)
        )

    findings: list[str] = []
    for rel in files:
        findings.extend(lint_file(args.root, rel, ast_active=ast_active))

    if ast_active:
        analyzer = ast_engine.Analyzer(args.root)
        analyzer.lint_compile_db(build_dir)
        line_cache: dict = {}
        for rel, lineno, rule, message in sorted(analyzer.findings):
            if Path(rel).is_relative_to(FIXTURE_DIR):
                continue
            if ast_suppressed(args.root, rel, lineno, rule, line_cache):
                continue
            findings.append(f"{rel}:{lineno}: [acdse-{rule}] {message}")

    for finding in findings:
        print(finding)
    engine_name = "ast+regex" if ast_active else "regex"
    print(
        f"acdse_lint [{engine_name}]: {len(files)} files checked, "
        f"{len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
