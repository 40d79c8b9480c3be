#!/usr/bin/env python3
"""Gate CI on line coverage of ``src/``: fail when the measured
fraction of executed lines drops below the checked-in floor.

Usage:
    check_coverage.py [--build-dir build-cov] [--root .]
        [--floor FRACTION] [--html coverage.html]
        [--summary-json coverage.json]
    check_coverage.py --list-unreached --build-dir DIR [--build-dir DIR]
    check_coverage.py --self-test

Requires a tree configured with ``-DACDSE_COVERAGE=ON`` (gcc
``--coverage``) whose tests have already run: the ``.gcda`` counters
next to each object file are the input. Only ``gcov`` itself is needed
(it ships with gcc) -- no gcovr/lcov. Every ``.gcno`` is exported as
JSON (``gcov --json-format --stdout``) and merged per source file:
a line is *executable* if any translation unit reports it, and
*covered* if any reports a nonzero count. Headers compiled into many
TUs are therefore counted once, with their best count.

The gate applies to ``src/`` only. Tests, tools and benches appear in
the report but never gate: the point is that the library is exercised,
not that the harness covers itself.

``--list-unreached`` is not a gate. It prints every ``src/`` function
in which no executable line ran, merged over every ``--build-dir``
given (tools/ci/production_run.sh passes the root build and a perfbench
build after driving the production entry points). It judges from line
counts, not from gcov's function entry counts: at -O2 an inlined
function reports an entry count of 0 even when its body ran.
``--self-test`` checks that rule on a synthetic gcov-JSON fixture.

Floor-ratcheting procedure
--------------------------
``DEFAULT_FLOOR`` below is the enforced fraction. It is set a few
points under what CI measures so innocuous churn (a new error branch,
dead-code removal elsewhere) never fails an unrelated PR. To ratchet:

1. Read the measured total from the ``coverage`` job summary of a
   recent green run on main.
2. Set ``DEFAULT_FLOOR`` to roughly ``measured - 0.03``; never lower
   it without a comment in the PR accepting the loss.
3. A PR that adds a large untested subsystem should raise coverage or
   this floor will block it -- that is the feature, not a bug.
"""

import argparse
import html
import json
import os
import subprocess
import sys

DEFAULT_FLOOR = 0.92

SCHEMA = "acdse-coverage-v1"


def gcov_json(gcno, build_dir):
    """Export one .gcno as parsed gcov JSON (None on gcov failure)."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", os.path.relpath(gcno, build_dir)],
        cwd=build_dir,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def gcov_docs(build_dir):
    """Yield the parsed gcov JSON export of every .gcno in a tree."""
    gcnos = []
    for dirpath, _dirnames, filenames in os.walk(build_dir):
        for name in filenames:
            if name.endswith(".gcno"):
                gcnos.append(os.path.join(dirpath, name))
    if not gcnos:
        raise SystemExit(
            f"no .gcno files under {build_dir}: configure with "
            "-DACDSE_COVERAGE=ON and build first"
        )
    for gcno in sorted(gcnos):
        doc = gcov_json(gcno, build_dir)
        if doc is not None:
            doc.setdefault("current_working_directory", build_dir)
            yield doc


def merge(docs, root):
    """Merge gcov JSON docs into (lines, functions) under root.

    lines is {relpath: {line: max_count}}; functions is
    {(relpath, start_line, end_line): name}, one entry per source
    range however many translation units compiled it.
    """
    root = os.path.realpath(root)
    merged = {}
    functions = {}
    for doc in docs:
        cwd = doc["current_working_directory"]
        for entry in doc.get("files", []):
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(cwd, path)
            path = os.path.realpath(path)
            if not path.startswith(root + os.sep):
                continue  # system or third-party header
            rel = os.path.relpath(path, root)
            lines = merged.setdefault(rel, {})
            for line in entry.get("lines", []):
                number = line.get("line_number")
                count = line.get("count", 0)
                if number is None:
                    continue
                lines[number] = max(lines.get(number, 0), count)
            for function in entry.get("functions", []):
                key = (rel, function["start_line"], function["end_line"])
                functions.setdefault(
                    key, function.get("demangled_name", function["name"]))
    return merged, functions


def collect(build_dirs, root):
    """merge() over the gcov exports of every build tree."""
    docs = (doc for build_dir in build_dirs
            for doc in gcov_docs(build_dir))
    return merge(docs, root)


def unreached(merged, functions, prefix="src" + os.sep):
    """Functions under prefix in which no executable line ran.

    Judged from the merged line counts, never from a function's entry
    count: an inlined function reports 0 entries even when it ran, and
    a header function counts as reached if it ran in any translation
    unit. A function with no executable line is never listed.
    """
    found = []
    for (rel, start, end), name in sorted(functions.items()):
        if not rel.startswith(prefix):
            continue
        counts = [count for number, count in merged.get(rel, {}).items()
                  if start <= number <= end]
        if counts and not any(counts):
            found.append((rel, start, name))
    return found


def directory_of(rel):
    """Report key: first two path components (src/obs, tests, ...)."""
    parts = rel.split(os.sep)
    return os.sep.join(parts[:2]) if parts[0] == "src" else parts[0]


def summarise(merged):
    """Return (per_file, per_dir) {key: [covered, executable]} maps."""
    per_file = {}
    per_dir = {}
    for rel, lines in sorted(merged.items()):
        executable = len(lines)
        covered = sum(1 for count in lines.values() if count > 0)
        per_file[rel] = [covered, executable]
        bucket = per_dir.setdefault(directory_of(rel), [0, 0])
        bucket[0] += covered
        bucket[1] += executable
    return per_file, per_dir


def ratio(pair):
    covered, executable = pair
    return covered / executable if executable else 1.0


def uncovered_ranges(lines, limit=12):
    """Compact 'l1-l2, l3, ...' list of uncovered lines for the report."""
    missed = sorted(n for n, count in lines.items() if count == 0)
    ranges = []
    for number in missed:
        if ranges and number == ranges[-1][1] + 1:
            ranges[-1][1] = number
        else:
            ranges.append([number, number])
    parts = [str(a) if a == b else f"{a}-{b}" for a, b in ranges]
    if len(parts) > limit:
        parts = parts[:limit] + [f"... +{len(parts) - limit} more"]
    return ", ".join(parts)


def text_report(per_dir, gated, floor):
    rows = [(key, f"{pair[0]}/{pair[1]}", f"{ratio(pair):7.2%}")
            for key, pair in sorted(per_dir.items())]
    rows.append(("src/ TOTAL (gated)", f"{gated[0]}/{gated[1]}",
                 f"{ratio(gated):7.2%}"))
    header = ("directory", "lines covered", "coverage")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(3)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
              for row in rows]
    ok = ratio(gated) >= floor
    verdict = (
        f"OK: src/ line coverage {ratio(gated):.2%} >= floor {floor:.2%}"
        if ok else
        f"FAIL: src/ line coverage {ratio(gated):.2%} < floor {floor:.2%}"
    )
    return "\n".join(lines + ["", verdict]), ok


def html_report(per_file, per_dir, merged, gated, floor, path):
    """One self-contained HTML file: directory table + per-file rows."""
    def bar(fraction):
        colour = ("#2a4" if fraction >= floor else
                  "#c60" if fraction >= floor - 0.15 else "#c33")
        return (f'<td style="min-width:8em"><div style="background:'
                f'{colour};width:{fraction * 100:.0f}%">&nbsp;</div>'
                f"</td><td>{fraction:.2%}</td>")

    out = [
        "<!doctype html><meta charset='utf-8'>",
        "<title>acdse line coverage</title>",
        "<style>body{font:14px monospace}table{border-collapse:collapse}"
        "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}"
        "</style>",
        f"<h1>acdse line coverage (schema {SCHEMA})</h1>",
        f"<p>src/ gated total: <b>{ratio(gated):.2%}</b> "
        f"(floor {floor:.2%})</p>",
        "<h2>Per directory</h2><table>",
        "<tr><th>directory</th><th>covered</th><th>executable</th>"
        "<th></th><th>coverage</th></tr>",
    ]
    for key, pair in sorted(per_dir.items()):
        out.append(f"<tr><td>{html.escape(key)}</td><td>{pair[0]}</td>"
                   f"<td>{pair[1]}</td>{bar(ratio(pair))}</tr>")
    out.append("</table><h2>Per file</h2><table>")
    out.append("<tr><th>file</th><th>covered</th><th>executable</th>"
               "<th></th><th>coverage</th><th>uncovered lines</th></tr>")
    for rel, pair in sorted(per_file.items()):
        missed = uncovered_ranges(merged[rel])
        out.append(f"<tr><td>{html.escape(rel)}</td><td>{pair[0]}</td>"
                   f"<td>{pair[1]}</td>{bar(ratio(pair))}"
                   f"<td>{html.escape(missed)}</td></tr>")
    out.append("</table>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out))


# ---------------------------------------------------------------------------
# Self-test of --list-unreached on a synthetic gcov-JSON fixture.

SELF_TEST_ROOT = "/acdse-coverage-self-test"


def _self_test_docs():
    """Two translation units' gcov JSON, in gcov's own shape."""
    def function(name, start, end, entries):
        return {"name": "_Z" + name, "demangled_name": name + "()",
                "start_line": start, "end_line": end,
                "execution_count": entries}

    def lines(*pairs):
        return [{"line_number": number, "count": count}
                for number, count in pairs]

    header = "src/base/helper.hh"
    # The header's function runs in the first unit and not the second,
    # so a merge that let the last unit win would list it.
    runs = {"current_working_directory": SELF_TEST_ROOT, "files": [
        {"file": header,
         "functions": [function("helper", 3, 5, 7)],
         "lines": lines((3, 7), (4, 7))},
    ]}
    cold = {"current_working_directory": SELF_TEST_ROOT, "files": [
        {"file": "src/core/a.cc",
         "functions": [function("inlined", 10, 13, 0),
                       function("dead", 15, 18, 0)],
         "lines": lines((10, 0), (11, 168), (12, 168), (15, 0),
                        (16, 0), (17, 0))},
        {"file": header,
         "functions": [function("helper", 3, 5, 0)],
         "lines": lines((3, 0), (4, 0))},
        {"file": "/usr/include/c++/12/vector",
         "functions": [function("system", 1, 2, 0)],
         "lines": lines((1, 0))},
        {"file": "tests/test_a.cc",
         "functions": [function("testOnly", 1, 3, 0)],
         "lines": lines((2, 0))},
    ]}
    return [runs, cold]


def self_test():
    merged, functions = merge(_self_test_docs(), SELF_TEST_ROOT)
    listed = {name for _rel, _line, name in unreached(merged, functions)}
    cases = [
        ("entry count 0 but body lines ran (inlined): not listed",
         "inlined()" not in listed),
        ("every line count 0: listed", "dead()" in listed),
        ("header function ran in another translation unit: not listed",
         "helper()" not in listed),
        ("nothing outside src/ is listed", listed == {"dead()"}),
    ]
    failures = 0
    for desc, ok in cases:
        print(f"[{'ok' if ok else 'FAIL'}] {desc}")
        failures += 0 if ok else 1
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


def list_unreached(build_dirs, root):
    merged, functions = collect(build_dirs, root)
    found = unreached(merged, functions)
    print(f"src/ functions with no executed line: {len(found)}")
    for rel, line, name in found:
        print(f"  {rel}:{line}  {name}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", action="append",
                        help="gcov build tree (repeatable; default "
                             "build-cov)")
    parser.add_argument("--root", default=".")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    parser.add_argument("--html", default="")
    parser.add_argument("--summary-json", default="",
                        help="write {schema, total, floor, per_dir} "
                             "JSON here (read by job_summary.py)")
    parser.add_argument("--list-unreached", action="store_true",
                        help="print the src/ functions in which no "
                             "line ran, then exit 0 (not a gate)")
    parser.add_argument("--self-test", action="store_true",
                        help="check --list-unreached on a synthetic "
                             "fixture and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    build_dirs = args.build_dir or ["build-cov"]
    if args.list_unreached:
        return list_unreached(build_dirs, args.root)

    merged, _functions = collect(build_dirs, args.root)
    per_file, per_dir = summarise(merged)
    gated = [0, 0]
    for rel, pair in per_file.items():
        if rel.startswith("src" + os.sep):
            gated[0] += pair[0]
            gated[1] += pair[1]
    if gated[1] == 0:
        raise SystemExit("no src/ lines in the coverage data")

    report, ok = text_report(per_dir, gated, args.floor)
    print(report)
    if args.summary_json:
        doc = {
            "schema": SCHEMA,
            "total": ratio(gated),
            "floor": args.floor,
            "ok": ok,
            "per_dir": {key: {"covered": pair[0],
                              "executable": pair[1],
                              "fraction": ratio(pair)}
                        for key, pair in sorted(per_dir.items())},
        }
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
        print(f"wrote {args.summary_json}")
    if args.html:
        html_report(per_file, per_dir, merged, gated, args.floor,
                    args.html)
        print(f"wrote {args.html}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write("### Line coverage\n\n```\n")
            summary.write(report)
            summary.write("\n```\n")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
