"""unused-api: a public src/ or bench/ function that nothing calls.

A function declared at namespace scope, or in a public section, of a src/
header named on the command line, or of any bench/ header (the helpers the
bench binaries share; hmrbench's files belong to the benchmark and are
not declared), is a finding when its name appears nowhere in
<root>/{src,bench,examples,hmrbench} apart from its own declarations and
definitions. Tests are not consumers. The match is by name, so any use of
a name keeps every function of that name alive. The one escape is
``// sim-lint: allow(unused-api) <reason>`` on or above the declaration,
whose reason names an existing ``tests/<name>_test.cc`` that reads it.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from engine import CXX_SUFFIXES, SourceCache
from findings import Finding, SourceFile

RULE = "unused-api"
CONSUMER_DIRS = ("src", "bench", "examples", "hmrbench")
# Declared on every run, whatever paths the command line names.
ALWAYS_DECLARED = "bench/"

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.']*|::|->|\S")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
ATTRIBUTE_RE = re.compile(r"\[\[.*?\]\]")
ALLOW_REASON_RE = re.compile(r"allow\([^)]*\bunused-api\b[^)]*\)(.*)")
TEST_NAME_RE = re.compile(r"\b\w+_test\b")
# Keywords that can stand before a declaration's first '(' (any other
# keyword so placed is used all over the program, so it never reports).
KEYWORDS = {"alignas", "decltype", "noexcept", "operator", "requires",
            "sizeof"}
# A statement that starts with one of these declares no API function.
NON_FUNCTION_LEADS = {"friend", "static_assert", "typedef", "using"}
TAGS = {"class", "struct", "union", "enum"}
ACCESS = {"public", "private", "protected"}

Token = tuple[str, int]  # (text, 1-based line)


class _Scope:
    def __init__(self, kind: str, public: bool = False, access: bool = True):
        self.kind = kind      # "ns" | "class" | "body"
        self.public = public  # every enclosing section is public
        self.access = access  # the current section is public


def _declarator(stmt: list[Token]) -> int | None:
    """Index of the name of the function a statement declares, or None."""
    if not stmt or stmt[0][0] in NON_FUNCTION_LEADS:
        return None
    if not (IDENT_RE.match(stmt[0][0]) or stmt[0][0] in ("~", "::")):
        return None  # a ctor init-list tail such as ", b_(y)"
    angle = 0  # template brackets, the template<...> head's included
    for i, (tok, _) in enumerate(stmt):
        if tok == "=" and angle == 0:
            return None  # a variable with an initializer
        if tok == "<":
            angle += 1
        elif tok == ">" and angle:
            angle -= 1
        elif tok == "(" and angle == 0:
            name = stmt[i - 1][0] if i else ""
            before = stmt[i - 2][0] if i >= 2 else ""
            if (not IDENT_RE.match(name) or name in KEYWORDS
                    or before in ("operator", "~")):
                return None
            return i - 1
    return None


class FileScan:
    """One walk over a file: the identifiers it uses, and (for a declaring
    header) the public functions it declares as (name, line) pairs."""

    def __init__(self, source: SourceFile, collect_api: bool):
        self.uses: Counter[str] = Counter()
        self.api: list[Token] = []
        self._collect_api = collect_api
        stack = [_Scope("ns", public=True)]
        stmt: list[Token] = []
        parens = 0
        continued = False
        for idx, line in enumerate(source.code):
            directive = continued or line.lstrip().startswith("#")
            continued = directive and line.rstrip().endswith("\\")
            if directive:  # a macro body's calls are uses
                self.uses.update(IDENT_RE.findall(line))
                continue
            for m in TOKEN_RE.finditer(ATTRIBUTE_RE.sub(" ", line)):
                tok, top = m.group(0), stack[-1]
                if top.kind == "body":
                    if tok == "{":
                        stack.append(_Scope("body"))
                    elif tok == "}":
                        stack.pop()
                    elif IDENT_RE.match(tok):
                        self.uses[tok] += 1
                    continue
                parens += {"(": 1, ")": -1}.get(tok, 0)
                if tok == ";" and parens == 0:
                    self._statement(stmt, top)
                    stmt = []
                elif tok == ":" and len(stmt) == 1 and stmt[0][0] in ACCESS:
                    top.access = stmt[0][0] == "public"
                    stmt = []
                elif tok == "{":
                    stack.append(self._open(stmt, top, parens > 0))
                    if parens == 0:
                        stmt = []
                elif tok == "}":
                    if stack.pop().kind == "ns":
                        stmt = []
                else:
                    stmt.append((tok, idx + 1))

    def _open(self, stmt: list[Token], top: _Scope, in_parens: bool) -> _Scope:
        """Classifies a '{' met at namespace or class scope."""
        if in_parens:  # a lambda or braced default argument
            return _Scope("body")
        words = [t for t, _ in stmt]
        tags = [w for w in words if w in TAGS]  # template<class T> struct X
        if "namespace" in words or words[:1] == ["extern"]:
            scope = _Scope("ns", public=top.public)
        elif tags and "enum" not in tags and "(" not in words:
            scope = _Scope("class", public=top.public and top.access,
                           access=tags[-1] != "class")
        else:  # a function body or a braced initializer
            self._statement(stmt, top)
            return _Scope("body")
        self._count(stmt, set())
        return scope

    def _count(self, stmt: list[Token], skip: set[int]) -> None:
        """Counts each identifier of ``stmt`` as a use, except the indices
        in ``skip`` and the names right after class/struct/union/enum."""
        for i, (tok, _) in enumerate(stmt):
            if (i not in skip and IDENT_RE.match(tok)
                    and (i == 0 or stmt[i - 1][0] not in TAGS)):
                self.uses[tok] += 1

    def _statement(self, stmt: list[Token], top: _Scope) -> None:
        """A namespace- or class-scope statement: records the function it
        declares when public, and counts every other identifier as a use."""
        at = _declarator(stmt)
        skip: set[int] = set()
        if at is not None:
            skip.add(at)
            j = at  # the Owner:: qualifiers of a definition are not uses
            while j >= 2 and stmt[j - 1][0] == "::" \
                    and IDENT_RE.match(stmt[j - 2][0]):
                j -= 2
                skip.add(j)
            words = [t for t, _ in stmt[at:]]
            defaulted = any(a == "=" and b in ("default", "delete")
                            for a, b in zip(words, words[1:]))
            if (self._collect_api and j == at and top.public and top.access
                    and not defaulted):
                self.api.append(stmt[at])
        self._count(stmt, skip)


def consumer_files(root: Path) -> list[Path]:
    return [f for d in CONSUMER_DIRS for f in sorted((root / d).rglob("*"))
            if f.suffix in CXX_SUFFIXES]


def _allow_names_tests(source: SourceFile, line: int, root: Path) -> bool:
    """The allow on or above ``line`` names tests that exist."""
    for probe in (line - 1, line - 2):
        m = ALLOW_REASON_RE.search(source.raw[probe]) if probe >= 0 else None
        if m is not None:
            named = TEST_NAME_RE.findall(m.group(1))
            return bool(named) and all(
                (root / "tests" / f"{t}.cc").exists() for t in named)
    return False


def _declares(rel: str, declaring: set[str]) -> bool:
    return rel.endswith(".h") and (
        rel.startswith(ALWAYS_DECLARED)
        or (rel in declaring and rel.startswith("src/")))


def findings(declaring: set[str], cache: SourceCache) -> list[Finding]:
    """Findings for the public functions of the src/ headers in
    ``declaring`` (root-relative paths) and of every bench/ header whose
    names no consumer uses."""
    uses: Counter[str] = Counter()
    api: list[tuple[SourceFile, str, int]] = []
    for path in consumer_files(cache.root):
        source = cache.source(path)
        scan = FileScan(source, _declares(source.rel, declaring))
        uses.update(scan.uses)
        api.extend((source, name, line) for name, line in scan.api)
    out: list[Finding] = []
    for source, name, line in api:
        if RULE in source.allowed(line):
            if _allow_names_tests(source, line, cache.root):
                continue
            message = (f"allow(unused-api) on '{name}' must name the test "
                       "that reads it, as an existing tests/<name>_test.cc")
        elif uses[name]:
            continue
        else:
            message = (f"'{name}' is public but nothing in "
                       f"{', '.join(CONSUMER_DIRS)} calls it; delete it "
                       "(tests are not consumers), or allow it naming the "
                       "test that reads production state through it")
        out.append(Finding(rule=RULE, file=source.rel, line=line,
                           identifier=name, message=message))
    return out


# Rule catalog for --list-rules.
RULES = {
    RULE: ("public src/ or bench/ header function whose name nothing in "
           "src, bench, examples or hmrbench uses (tests are not consumers)"),
}
