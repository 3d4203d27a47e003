#!/usr/bin/env python3
"""Repo-specific determinism & concurrency-hygiene lint for netupd.

Enforces the invariants no off-the-shelf tool knows about (the engine's
determinism contract: verdict and command sequence are a pure function of
(job, budget), shard-count-independent):

  wallclock     No wall-clock or randomness source reachable from
                deterministic-budget code paths: std::chrono, time(),
                clock_gettime(), gettimeofday(), rand()/srand(),
                std::random_device anywhere under src/ EXCEPT the two
                sanctioned clock wrappers (src/obs/, the trace time
                base, and src/support/Timer.h, the stopwatch that only
                ever feeds stats) and lines tagged
                `// lint: wallclock-ok`.

  relaxed       Every `memory_order_relaxed` must carry a `relaxed:`
                justification comment — on the same line, or in a
                comment within the preceding contiguous block (no blank
                line in between, max 10 lines up).

  mutate-undo   Every `X.applySwitchUpdate(...)` / `X->applySwitchUpdate`
                call, and every handle-based `X.applyHandle(...)` /
                `X->applyHandle` call, must be paired with rollback in
                the same scope: an `undo(` call within the following
                window, an undo record stored into an owning
                container/frame (`Undos.push_back(...)` / an `F.Undo`
                argument), or a `// lint: mutate-ok` tag.

  thread-hygiene  No detached threads (`.detach()`) and no naked `new`
                in src/ (use make_unique / containers); deliberate
                leaks and lock-free intrusive nodes are tagged
                `// lint: naked-new-ok`.

  getenv        No environment reads (`getenv(`, `std::getenv(`,
                `secure_getenv(`) anywhere under src/: every knob of the
                library is an option a program sets, so no run is
                steered by a variable nobody passed. Lines tagged
                `// lint: getenv-ok` are exempt. tools/ and bench/ are
                outside src/ and keep their own variables.

Usage:
  lint_static.py [--root DIR]        lint src/ under DIR (default: repo root)
  lint_static.py --self-test [--root DIR]
                                     run the rule engine over the known-bad /
                                     known-good corpus in tests/lint/ and exit
                                     nonzero on any mismatch

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.

Suppression policy (docs/ARCHITECTURE.md "Static analysis & sanitizers"):
a new `lint:` tag is a reviewed decision. Tags name their rule, so a grep
for `lint:` audits every suppression in the tree.
"""

import argparse
import os
import re
import sys

# --- Comment stripping ------------------------------------------------------
#
# Rules match *code*, not prose: a doc comment mentioning std::chrono must
# not trip the wallclock rule. Tags, by contrast, are read from raw lines
# (they live in comments). String literals are blanked too, so a log
# message containing "rand(" stays inert.

_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"' + r"|'(?:\\.|[^'\\])*'")


def strip_comments(lines):
    """Returns code-only lines (same count), with comments and string
    literal *contents* blanked out."""
    out = []
    in_block = False
    for raw in lines:
        line = _STRING_RE.sub('""', raw)
        code = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            code.append(line[i])
            i += 1
        out.append("".join(code))
    return out


# --- Rules ------------------------------------------------------------------

WALLCLOCK_RE = re.compile(
    r"std::chrono|std::random_device|steady_clock|system_clock"
    r"|high_resolution_clock"
    r"|\b(?:time|clock_gettime|gettimeofday|localtime|gmtime|rand|srand)\s*\("
)
RELAXED_RE = re.compile(r"memory_order_relaxed")
MUTATE_RE = re.compile(
    r"[\w\)\]](?:\.|->)(?:applySwitchUpdate|applyHandle)\s*\(")
UNDO_RE = re.compile(r"(?:\.|->)undo\s*\(|Undos\.push_back|\bF\.Undo\b")
DETACH_RE = re.compile(r"(?:\.|->)detach\s*\(\s*\)")
NAKED_NEW_RE = re.compile(r"\bnew\s+(?:\(|[A-Za-z_])")
PLACEMENT_NEW_RE = re.compile(r"\bnew\s*\(")
GETENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")

TAG_WALLCLOCK = "lint: wallclock-ok"
TAG_MUTATE = "lint: mutate-ok"
TAG_NAKED_NEW = "lint: naked-new-ok"
TAG_GETENV = "lint: getenv-ok"
TAG_RELAXED = "relaxed:"

RELAXED_LOOKBACK = 10  # lines; a blank line ends the covered block
NAKED_NEW_LOOKBACK = 2
MUTATE_WINDOW = 80  # lines after the call in which rollback must appear

# Files whose whole purpose is wall-clock access; everything else in src/
# must route time through them (or tag the line).
WALLCLOCK_ALLOWED_PREFIXES = ("src/obs/",)
WALLCLOCK_ALLOWED_FILES = ("src/support/Timer.h",)


def tag_in_lookback(raw_lines, idx, tag, lookback):
    """True if `tag` appears on line idx or in the comment block directly
    above it (no intervening blank line, at most `lookback` lines up)."""
    if tag in raw_lines[idx]:
        return True
    for back in range(1, lookback + 1):
        j = idx - back
        if j < 0:
            break
        if not raw_lines[j].strip():
            break
        if tag in raw_lines[j]:
            return True
    return False


def lint_file(relpath, raw_lines, findings):
    code_lines = strip_comments(raw_lines)
    wallclock_exempt = relpath.startswith(
        WALLCLOCK_ALLOWED_PREFIXES
    ) or relpath in WALLCLOCK_ALLOWED_FILES

    for i, code in enumerate(code_lines):
        raw = raw_lines[i]
        lineno = i + 1

        if not wallclock_exempt and WALLCLOCK_RE.search(code):
            if TAG_WALLCLOCK not in raw:
                findings.append(
                    (relpath, lineno, "wallclock",
                     "wall-clock/randomness source on a deterministic "
                     "path (route through support/Timer.h or obs::nowNs, "
                     "or tag `// lint: wallclock-ok`)"))

        if RELAXED_RE.search(code):
            if not tag_in_lookback(raw_lines, i, TAG_RELAXED,
                                   RELAXED_LOOKBACK):
                findings.append(
                    (relpath, lineno, "relaxed",
                     "memory_order_relaxed without a `// relaxed:` "
                     "justification in the preceding comment block"))

        if MUTATE_RE.search(code):
            if TAG_MUTATE not in raw:
                window = code_lines[i:i + MUTATE_WINDOW]
                if not any(UNDO_RE.search(l) for l in window):
                    findings.append(
                        (relpath, lineno, "mutate-undo",
                         "applySwitchUpdate/applyHandle without an undo()/"
                         "owned undo record within the same scope (or "
                         "`// lint: mutate-ok`)"))

        if DETACH_RE.search(code):
            findings.append(
                (relpath, lineno, "thread-hygiene",
                 "detached thread: every thread must be joined (no "
                 "allowlist — restructure instead)"))

        if NAKED_NEW_RE.search(code) and not PLACEMENT_NEW_RE.search(code):
            if not tag_in_lookback(raw_lines, i, TAG_NAKED_NEW,
                                   NAKED_NEW_LOOKBACK):
                findings.append(
                    (relpath, lineno, "thread-hygiene",
                     "naked `new` (use std::make_unique / a container, "
                     "or tag the deliberate site `// lint: "
                     "naked-new-ok`)"))

        if GETENV_RE.search(code) and TAG_GETENV not in raw:
            findings.append(
                (relpath, lineno, "getenv",
                 "environment read under src/ (make it an option the "
                 "caller sets, or tag `// lint: getenv-ok`)"))


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cpp", ".cc", ".hpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                raw = f.read().splitlines()
            lint_file(rel, raw, findings)
    return findings


# --- Self-test over the corpus ----------------------------------------------
#
# tests/lint/known_bad/*.cc each declare the rule they must trigger in a
# first-line comment `// expect: <rule>`; known_good/*.cc must be clean.
# Corpus files are linted as if they lived at src/<name>, so the wallclock
# scope applies.


def self_test(root):
    corpus = os.path.join(root, "tests", "lint")
    bad_dir = os.path.join(corpus, "known_bad")
    good_dir = os.path.join(corpus, "known_good")
    failures = []
    checked = 0

    for name in sorted(os.listdir(bad_dir)):
        if not name.endswith(".cc"):
            continue
        path = os.path.join(bad_dir, name)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        m = re.match(r"//\s*expect:\s*([\w-]+)", raw[0] if raw else "")
        if not m:
            failures.append(f"{name}: missing `// expect: <rule>` header")
            continue
        expected = m.group(1)
        findings = []
        lint_file("src/" + name, raw, findings)
        rules = {rule for (_f, _l, rule, _m) in findings}
        if expected not in rules:
            failures.append(
                f"{name}: expected rule '{expected}' did not fire "
                f"(fired: {sorted(rules) or 'none'})")
        checked += 1

    for name in sorted(os.listdir(good_dir)):
        if not name.endswith(".cc"):
            continue
        path = os.path.join(good_dir, name)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        findings = []
        lint_file("src/" + name, raw, findings)
        if findings:
            shown = ", ".join(f"{r}@{l}" for (_f, l, r, _m) in findings)
            failures.append(f"{name}: expected clean, fired: {shown}")
        checked += 1

    for f in failures:
        print(f"lint self-test FAIL: {f}", file=sys.stderr)
    print(f"lint self-test: {checked - len(failures)}/{checked} corpus "
          f"files behaved as expected")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the rules against tests/lint/ corpus")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    findings = lint_tree(root)
    for relpath, lineno, rule, msg in findings:
        print(f"{relpath}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
