"""Engine of ``repro-lint``: file walking, suppressions, rule dispatch.

A *rule* is a module exposing::

    CODE: str                     # "RL001"
    NAME: str                     # short kebab-case name
    def applies(path: str) -> bool      # posix-relative path filter
    def check(tree, src, path) -> list[Finding]

Rules never read the filesystem; :func:`lint_source` hands them the parsed
AST and raw source of one file, then filters their findings through the
inline suppression pragmas.  This keeps every rule unit-testable against
fixture snippets (``tests/test_analysis_lint.py``).

Suppression syntax
------------------

Line-level (same line as the finding, or a standalone comment on the
line directly above it)::

    x = time.time()  # repro-lint: ignore[RL001] -- wall-clock perf harness

File-level (anywhere in the file, standalone comment; scopes the whole
file)::

    # repro-lint: ignore-file[RL001] -- this benchmark measures wall time

Both forms **must** carry a ``-- reason``; a reasonless pragma is itself
reported as RL000 so CI cannot silently accumulate unexplained opt-outs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: meta-rule: a suppression pragma without a ``-- reason``
META_CODE = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(ignore|ignore-file)"
    r"\[([A-Za-z0-9 ,]+)\]"
    r"(?:\s*--\s*(\S.*))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or RL000 meta-finding) at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


class _Suppressions:
    """Parsed inline pragmas of one file."""

    def __init__(self, src: str, path: str):
        self.file_codes: Set[str] = set()
        self.line_codes: Dict[int, Set[str]] = {}
        self.meta: List[Finding] = []
        lines = src.splitlines()
        for lineno, text in enumerate(lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            kind, codes_s, reason = m.group(1), m.group(2), m.group(3)
            codes = {c.strip() for c in codes_s.split(",") if c.strip()}
            if not reason:
                self.meta.append(Finding(
                    path, lineno, m.start() + 1, META_CODE,
                    f"suppression {kind}[{codes_s}] has no '-- reason'; "
                    f"every opt-out must say why"))
                continue
            if kind == "ignore-file":
                self.file_codes |= codes
            else:
                self.line_codes.setdefault(lineno, set()).update(codes)
                if text[:m.start()].strip() == "":
                    # Standalone pragma comment: also covers the next
                    # *code* line, skipping blank/comment continuation
                    # lines (the idiom for explanations that wrap).
                    j = lineno  # 0-based index of the line after lineno
                    while j < len(lines) and (
                            not lines[j].strip()
                            or lines[j].lstrip().startswith("#")):
                        j += 1
                    if j < len(lines):
                        self.line_codes.setdefault(j + 1, set()).update(codes)

    def hides(self, f: Finding) -> bool:
        if f.code in self.file_codes:
            return True
        return f.code in self.line_codes.get(f.line, ())


@dataclass
class LintReport:
    """Aggregate result of a lint run."""

    findings: List[Finding]
    files_checked: int
    suppressed: int
    #: files that failed to parse, as (path, message)
    errors: List[tuple]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in sorted(
                self.findings, key=lambda f: f.sort_key)],
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "errors": [{"path": p, "message": m} for p, m in self.errors],
        }


def _load_rules():
    from . import rules_buffers, rules_determinism, rules_guards
    return (rules_determinism, rules_buffers, rules_guards)


#: the shipped rules, in code order (import is deferred to avoid cycles)
ALL_RULES = _load_rules()


def lint_source(src: str, path: str,
                rules: Optional[Sequence] = None,
                ) -> tuple[List[Finding], int]:
    """Lint one file's source text.

    ``path`` is the (posix, repo-relative) name used both for rule
    applicability filters and in the findings.  Returns the visible
    findings (including RL000 meta-findings) and the count of findings
    hidden by suppressions.
    """
    rules = ALL_RULES if rules is None else rules
    tree = ast.parse(src, filename=path)
    sup = _Suppressions(src, path)
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies(path):
            raw.extend(rule.check(tree, src, path))
    visible = [f for f in raw if not sup.hides(f)]
    visible.extend(sup.meta)
    visible.sort(key=lambda f: f.sort_key)
    return visible, len(raw) - (len(visible) - len(sup.meta))


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files,
    skipping ``__pycache__`` and dot-directories."""
    out: List[Path] = []
    for p in paths:
        root = Path(p)
        if root.is_file():
            out.append(root)
            continue
        for f in sorted(root.rglob("*.py")):
            if any(part == "__pycache__" or part.startswith(".")
                   for part in f.parts):
                continue
            out.append(f)
    return sorted(set(out))


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence] = None) -> LintReport:
    """Lint every Python file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    errors: List[tuple] = []
    suppressed = 0
    files = iter_python_files(paths)
    for f in files:
        rel = f.as_posix()
        try:
            src = f.read_text(encoding="utf-8")
        except OSError as exc:
            errors.append((rel, f"unreadable: {exc}"))
            continue
        try:
            got, hidden = lint_source(src, rel, rules)
        except SyntaxError as exc:
            errors.append((rel, f"syntax error: {exc.msg} "
                           f"(line {exc.lineno})"))
            continue
        findings.extend(got)
        suppressed += hidden
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(findings, len(files), suppressed, errors)
