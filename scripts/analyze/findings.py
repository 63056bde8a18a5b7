"""Finding model, suppressions and baseline handling for hybridmr-analyze.

A Finding pins a rule violation to file:line. Its *key* — ``rule|file|ident``
— is deliberately line-free so committed baselines survive unrelated edits
that only shift line numbers.

Suppression: append ``// sim-lint: allow(<rule>[, <rule>...])`` to the
offending line or the line directly above it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

ALLOW_RE = re.compile(r"//\s*sim-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


@dataclass
class Finding:
    rule: str
    file: str  # repo-relative posix path
    line: int  # 1-based
    message: str
    identifier: str = ""  # declared name / included header / cycle label

    @property
    def key(self) -> str:
        return f"{self.rule}|{self.file}|{self.identifier}"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "identifier": self.identifier,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One analyzed file: raw lines plus literal/comment-blanked lines.

    ``code`` has string literals, character literals, // comments and
    /* */ comments replaced by spaces (lengths and line structure kept),
    so regex passes never fire inside text.
    """

    path: Path        # absolute
    rel: str          # repo-relative posix
    raw: list[str]
    code: list[str]
    allow: list[set[str]] = field(default_factory=list)

    def allowed(self, lineno: int) -> set[str]:
        """Suppressed rules for 1-based lineno (same line or line above)."""
        rules: set[str] = set()
        for probe in (lineno - 1, lineno - 2):
            if 0 <= probe < len(self.allow):
                rules |= self.allow[probe]
        return rules


def blank_literals(text: str) -> str:
    """Blanks out string/char literals and comments, preserving newlines."""
    out: list[str] = []
    i = 0
    n = len(text)
    state = None  # None | '"' | "'" | "line" | "block" | "raw"
    raw_delim = ""
    while i < n:
        c = text[i]
        if state is None:
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'([^\s()\\]{0,16})\(', text[i + 1:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append(" ")
                        i += 1
                        continue
                state = '"'
                out.append(" ")
            elif c == "'":
                state = "'"
                out.append(" ")
            elif c == "/" and text[i:i + 2] == "//":
                state = "line"
                out.append(" ")
            elif c == "/" and text[i:i + 2] == "/*":
                state = "block"
                out.append(" ")
            else:
                out.append(c)
        elif state in ('"', "'"):
            if c == "\\":
                out.append("  " if text[i + 1:i + 2] != "\n" else " \n")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            if c == state:
                state = None
        elif state == "line":
            if c == "\n":
                out.append("\n")
                state = None
            else:
                out.append(" ")
        elif state == "block":
            if text[i:i + 2] == "*/":
                out.append("  ")
                i += 2
                state = None
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                state = None
                continue
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def load_source(path: Path, repo: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    raw = text.splitlines()
    code = blank_literals(text).splitlines()
    # blank_literals preserves newlines, but guard against a trailing
    # mismatch (e.g. no final newline).
    while len(code) < len(raw):
        code.append("")
    allow: list[set[str]] = []
    for line in raw:
        m = ALLOW_RE.search(line)
        allow.append({r.strip() for r in m.group(1).split(",")} if m else set())
    rel = path.resolve().relative_to(repo.resolve()).as_posix()
    return SourceFile(path=path, rel=rel, raw=raw, code=code, allow=allow)


# ------------------------------------------------------------- baseline ----

def load_baseline(path: Path | None) -> set[str]:
    if path is None or not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return set(data.get("grandfathered", []))


def write_baseline(path: Path, findings: list[Finding]) -> None:
    keys = sorted({f.key for f in findings})
    payload = {
        "comment": (
            "Grandfathered hybridmr-analyze findings. Keys are "
            "rule|file|identifier (line-free). Do not add entries for new "
            "code; migrate it to sim/units.h types instead."
        ),
        "grandfathered": keys,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
