"""Source discovery, the shared source cache and compile-database coverage
for hybridmr-analyze.

Every rule pass is a pure-python tokenizer over literal-blanked source, so
the analyzer needs nothing beyond the standard library.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from findings import SourceFile, load_source

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp"}
TU_SUFFIXES = {".cc", ".cpp", ".cxx"}

IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class SourceCache:
    """Shared per-file analysis cache used by every rule group.

    Before this cache each group's pass re-read and re-tokenized its inputs
    independently (the analyzer is invoked once per CI stage, and a stage
    enabling N groups paid N loads per file). The cache loads and
    literal-blanks each file exactly once per process and memoizes the
    identifier token stream, so adding a rule group costs only its own
    matching work, never another I/O + blanking pass. hybridmr-analyze's
    per-group wall times (--json "timings") make the win visible.
    """

    def __init__(self, root: Path):
        self.root = root
        self._sources: dict[Path, SourceFile] = {}
        self._tokens: dict[Path, list[tuple[int, int, str]]] = {}

    def source(self, path: Path) -> SourceFile:
        key = path.resolve()
        if key not in self._sources:
            self._sources[key] = load_source(path, self.root)
        return self._sources[key]

    def tokens(self, path: Path) -> list[tuple[int, int, str]]:
        """Identifier token stream over the blanked code as
        (1-based line, 0-based column, identifier) tuples."""
        key = path.resolve()
        if key not in self._tokens:
            src = self.source(path)
            toks: list[tuple[int, int, str]] = []
            for idx, line in enumerate(src.code):
                for m in IDENT_RE.finditer(line):
                    toks.append((idx + 1, m.start(), m.group(0)))
            self._tokens[key] = toks
        return self._tokens[key]


def collect_files(paths: list[Path]) -> list[Path]:
    """C++ sources under ``paths``. Recursive walks skip ``fixtures/``
    directories — those hold deliberate rule violations for the analyzer's
    own tests (tests/analyze/fixtures) and are only analyzed when passed
    explicitly (the fixture driver does, with --root)."""
    files: list[Path] = []
    for p in paths:
        if p.is_file():
            if p.suffix in CXX_SUFFIXES:
                files.append(p)
        elif p.is_dir():
            files.extend(f for f in sorted(p.rglob("*"))
                         if f.suffix in CXX_SUFFIXES
                         and "fixtures" not in f.relative_to(p).parts)
    return files


def load_compile_commands(path: Path) -> list[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"hybridmr-analyze: cannot read {path}: {e}")


def check_tu_coverage(files: list[Path], compile_commands: list[dict],
                      repo: Path) -> list[str]:
    """Every analyzed .cc must appear in the compile database; a TU the
    build does not compile would otherwise dodge every compiler-adjacent
    check. Returns warning strings (non-fatal: the tokenizer still scans
    the file either way)."""
    compiled = set()
    for entry in compile_commands:
        f = Path(entry.get("file", ""))
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        try:
            compiled.add(f.resolve().relative_to(repo.resolve()).as_posix())
        except ValueError:
            continue
    warnings = []
    for f in files:
        if f.suffix not in TU_SUFFIXES:
            continue
        rel = f.resolve().relative_to(repo.resolve()).as_posix()
        if not rel.startswith("src/"):
            continue  # tests/benches are separate targets; src is the gate
        if rel not in compiled:
            warnings.append(
                f"hybridmr-analyze: {rel} is not in compile_commands.json "
                "(not built, analyzed from source only)")
    return warnings
