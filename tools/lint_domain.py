#!/usr/bin/env python3
"""Repo-specific lint over src/ — rules a generic linter cannot know.

Rules (suppress a single line with a trailing ``// lint-domain: allow``):

* ``no-raw-assert`` — raw ``assert(`` is banned in src/: contract
  violations must throw through util::check / DISTMCU_CHECK so release
  builds (NDEBUG) keep the guard and callers can catch distmcu::Error.
  ``static_assert`` is fine.
* ``unsaturated-deadline`` — binary ``+``/``*``/``+=``/``*=`` directly
  on the deadline fields (``deadline_at`` / ``deadline_cycles``) outside
  ``util::sat_add`` wraps near the Cycles max and turns a huge relative
  deadline into an always-missed absolute one. Resolve deadlines with
  ``util::sat_add`` instead.
* ``unsaturated-bytes-roundup`` — a manual align-up on ``Bytes``
  (``(size + mask) & ~mask`` — any line mixing a binary ``+`` with
  ``& ~`` masking) wraps near the Bytes max: a size within
  ``alignment - 1`` of the max rounds to a tiny value that then "fits"
  any arena. Route alignment through the saturating
  ``Arena::align_up`` instead.
* ``raw-precision-int`` — a ``...bits`` variable or member initialized
  or assigned from a bare nonzero integer literal hardcodes a precision
  width the type system cannot check; widths must come from the
  ``runtime::Precision`` / ``runtime::KvLayout`` vocabulary
  (``kv_layout_bits`` and friends in ``src/runtime/precision.hpp``,
  which is the one file allowed to spell the literals). Zero stays
  legal as the "unset" sentinel.
* ``tracer-pairing`` — every ``Tracer::set_request(id)`` /
  ``set_model(m)`` tag must be cleared with ``set_request(kNoRequest)``
  / ``set_model(kNoModel)`` in the same source file: a file that opens
  more request/model scopes than it closes leaks the tag onto unrelated
  spans. Checked as a per-file begin/end balance.

With ``--docs <dir>`` two documentation rules run as well:

* ``docs-coverage`` — every stable diagnostic code (``DMCU-XXX-NNN``)
  and every bench JSON schema id (``distmcu.<name>.vN``) found in
  src/bench/tools must appear somewhere in the docs tree: the codes and
  schemas are public contract, so an undocumented one is a doc bug, not
  an oversight CI should tolerate.
* ``docs-snippet-sync`` — every ```` ```cpp ```` fence in
  ``extending.md`` of the docs tree and in the ``README.md`` beside it
  must appear verbatim (modulo one uniform indent) in
  ``tests/test_doc_snippets.cpp``, which compiles and runs the
  examples; a fence with no compiled twin is documentation that can
  rot.

Exit status: 0 when clean, 1 with one line per finding otherwise.
Uses only the Python standard library.
"""

import argparse
import os
import re
import sys

SUPPRESS = "lint-domain: allow"

RAW_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
STATIC_ASSERT = re.compile(r"static_assert\s*\(")

# `x.deadline_at + y`, `a + slo.deadline_cycles`, `deadline_at *= k`, ...
DEADLINE_FIELD = r"(?:[A-Za-z_]\w*(?:\.|->))*deadline_(?:at|cycles)\b"
UNSATURATED = re.compile(
    r"(?:"
    rf"{DEADLINE_FIELD}\s*(?:\+(?!\+)|\*)"   # field + ... / field * ...
    r"|"
    rf"(?:(?<!\+)\+|\*)\s*{DEADLINE_FIELD}"  # ... + field / ... * field
    r")")

# Manual round-up-and-mask on the same line: `(size + mask) & ~mask`,
# `(sz + align - 1) & ~(align - 1)`, in either operand order. The `+`
# must be binary (not ++).
BYTES_ROUNDUP = re.compile(
    r"(?:"
    r"(?<!\+)\+(?!\+)[^&;]*&\s*~"   # ... + ... & ~...
    r"|"
    r"&\s*~[^;]*(?<!\+)\+(?!\+)"    # ... & ~... + ...
    r")")

# `kv_bits = 4`, `int elem_bits{8}`, `kv_bits_(16)`: a bare nonzero
# literal where a Precision/KvLayout-derived width belongs. `= 0` is the
# unset sentinel and stays legal; comparisons (==, <=, ...) and compound
# ops do not match.
RAW_PRECISION = re.compile(
    r"\b[A-Za-z_]\w*[Bb]its\w*\s*"
    r"(?:(?<![<>!=+\-*/&|^%])=(?!=)|\{|\()\s*[1-9]")

# The precision vocabulary itself must spell the widths once.
PRECISION_HOME = os.path.join("runtime", "precision.hpp")

SET_REQ_DEF = re.compile(r"^\s*(?:void\s+)?set_request\s*\(\s*int\b")
SET_MODEL_DEF = re.compile(r"^\s*(?:void\s+)?set_model\s*\(\s*int\b")
SET_REQ = re.compile(r"\bset_request\s*\(([^)]*)\)")
SET_MODEL = re.compile(r"\bset_model\s*\(([^)]*)\)")


def strip_noise(line, in_block_comment):
    """Drop string/char literals, // comments, and /* */ comment spans so
    the rules only see code. Returns (code, still_in_block_comment)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # keep an empty literal placeholder
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def lint_file(path, findings):
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    req_open = req_close = 0
    model_open = model_close = 0
    in_block = False
    for lineno, raw in enumerate(raw_lines, 1):
        code, in_block = strip_noise(raw, in_block)
        if not code.strip() or SUPPRESS in raw:
            continue

        if RAW_ASSERT.search(STATIC_ASSERT.sub("", code)):
            findings.append(
                f"{path}:{lineno}: [no-raw-assert] raw assert( in src/; "
                f"throw via util::check / DISTMCU_CHECK instead")

        if "sat_add" not in code and UNSATURATED.search(code):
            findings.append(
                f"{path}:{lineno}: [unsaturated-deadline] unsaturated "
                f"+/* on a deadline field; use util::sat_add")

        if "&&" not in code and BYTES_ROUNDUP.search(code):
            findings.append(
                f"{path}:{lineno}: [unsaturated-bytes-roundup] manual "
                f"round-up-and-mask wraps near the Bytes max; use the "
                f"saturating Arena::align_up")

        if (not path.endswith(PRECISION_HOME)
                and RAW_PRECISION.search(code)):
            findings.append(
                f"{path}:{lineno}: [raw-precision-int] bare integer "
                f"literal assigned to a ...bits variable; derive the "
                f"width from runtime::Precision / runtime::KvLayout "
                f"(kv_layout_bits) instead")

        if not SET_REQ_DEF.search(code):
            for m in SET_REQ.finditer(code):
                if "kNoRequest" in m.group(1):
                    req_close += 1
                else:
                    req_open += 1
        if not SET_MODEL_DEF.search(code):
            for m in SET_MODEL.finditer(code):
                if "kNoModel" in m.group(1):
                    model_close += 1
                else:
                    model_open += 1

    if req_open != req_close:
        findings.append(
            f"{path}: [tracer-pairing] set_request(id) tags opened "
            f"{req_open} time(s) but cleared with set_request(kNoRequest) "
            f"{req_close} time(s)")
    if model_open != model_close:
        findings.append(
            f"{path}: [tracer-pairing] set_model(m) tags opened "
            f"{model_open} time(s) but cleared with set_model(kNoModel) "
            f"{model_close} time(s)")


DIAG_CODE = re.compile(r"\bDMCU-[A-Z]+-\d{3}\b")
SCHEMA_ID = re.compile(r"\bdistmcu\.[a-z_]+\.v\d+\b")
CPP_FENCE = re.compile(r"```cpp\n(.*?)```", re.S)

# Directories scanned for public identifiers (codes / schema ids); the
# docs tree must mention every one of them.
ID_ROOTS = ("src", "bench", "tools")
ID_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".py")

SNIPPET_DOC_NAME = "extending.md"
README_NAME = "README.md"
SNIPPET_TEST = os.path.join("tests", "test_doc_snippets.cpp")


def fence_in_lines(snippet_lines, file_lines):
    """Whether `snippet_lines` appears as a contiguous run in
    `file_lines`, allowing one uniform whitespace prefix on every
    non-blank line (doc fences sit at column 0; the compiled twin may
    live inside a function body)."""
    n = len(snippet_lines)
    for start in range(len(file_lines) - n + 1):
        prefix = None
        for s, w in zip(snippet_lines, file_lines[start:start + n]):
            if not s.strip():
                if w.strip():
                    break
                continue
            if prefix is None:
                if w.endswith(s) and not w[:len(w) - len(s)].strip():
                    prefix = w[:len(w) - len(s)]
                    continue
                break
            if w != prefix + s:
                break
        else:
            return True
    return False


def lint_docs(docs_dir, findings):
    """docs-coverage + docs-snippet-sync (see the module docstring)."""
    docs_text = []
    for dirpath, _, names in os.walk(docs_dir):
        for name in sorted(names):
            if name.endswith(".md"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    docs_text.append(f.read())
    docs_text = "\n".join(docs_text)
    if not docs_text:
        findings.append(f"{docs_dir}: [docs-coverage] no markdown files found")
        return

    codes, schemas = set(), set()
    for root in ID_ROOTS:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if not name.endswith(ID_SUFFIXES):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    text = f.read()
                codes.update(DIAG_CODE.findall(text))
                schemas.update(SCHEMA_ID.findall(text))
    for code in sorted(codes):
        if code not in docs_text:
            findings.append(
                f"{docs_dir}: [docs-coverage] diagnostic code {code} is "
                f"undocumented in the docs tree")
    for schema in sorted(schemas):
        if schema not in docs_text:
            findings.append(
                f"{docs_dir}: [docs-coverage] bench schema {schema} is "
                f"undocumented in the docs tree")

    readme = os.path.join(os.path.dirname(os.path.normpath(docs_dir)),
                          README_NAME)
    for snippet_doc in (os.path.join(docs_dir, SNIPPET_DOC_NAME), readme):
        if os.path.exists(snippet_doc):
            lint_snippet_sync(snippet_doc, findings)


def lint_snippet_sync(snippet_doc, findings):
    """docs-snippet-sync for one markdown file (see the module
    docstring)."""
    with open(snippet_doc, encoding="utf-8") as f:
        doc = f.read()
    fences = [m.group(1).rstrip("\n").splitlines()
              for m in CPP_FENCE.finditer(doc)]
    fences = [fc for fc in fences if any(line.strip() for line in fc)]
    if fences and not os.path.exists(SNIPPET_TEST):
        findings.append(
            f"{snippet_doc}: [docs-snippet-sync] has cpp fences but "
            f"{SNIPPET_TEST} does not exist")
        return
    if fences:
        with open(SNIPPET_TEST, encoding="utf-8") as f:
            test_lines = f.read().splitlines()
        for idx, fence in enumerate(fences, 1):
            if not fence_in_lines(fence, test_lines):
                first = next(line.strip() for line in fence if line.strip())
                findings.append(
                    f"{snippet_doc}: [docs-snippet-sync] cpp fence #{idx} "
                    f"(starting {first!r}) has no verbatim twin in "
                    f"{SNIPPET_TEST}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", default=["src"],
                    help="directories to lint (default: src)")
    ap.add_argument("--docs", default=None, metavar="DIR",
                    help="docs tree; enables docs-coverage and "
                         "docs-snippet-sync")
    args = ap.parse_args()

    files = []
    for root in args.roots or ["src"]:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
    files.sort()
    if not files:
        print("lint_domain: no C++ sources found", file=sys.stderr)
        return 1

    findings = []
    for path in files:
        lint_file(path, findings)
    if args.docs:
        lint_docs(args.docs, findings)

    if findings:
        print("DOMAIN LINT FAILED:")
        for f in findings:
            print(f"  - {f}")
        return 1
    rules = ("no-raw-assert, unsaturated-deadline, "
             "unsaturated-bytes-roundup, raw-precision-int, "
             "tracer-pairing")
    if args.docs:
        rules += ", docs-coverage, docs-snippet-sync"
    print(f"domain lint OK: {len(files)} files clean ({rules})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
