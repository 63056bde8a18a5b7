"""unused-api: a public src/ or bench/ function that nothing calls.

A function declared at namespace scope, or in a public section, of a src/
header named on the command line, or of any bench/ header (the helpers the
bench binaries share; hmrbench's files belong to the benchmark and are
not declared), is a finding when no file under
<root>/{src,bench,examples,hmrbench} uses its name in a way that can name
a function: a call (``f(``, ``f<...>(``, ``.f(``, ``->f(``), a qualified
reference (``X::f``, so ``&X::f`` too), or any identifier in a directive
line (macro bodies). A direct-initialised declaration ``Type f(...)``, a
field, a local or a parameter named ``f`` is no use. A constructor is
matched by its class name anywhere, because ``std::make_unique<C>(...)``
never spells ``C(``. Tests are not consumers. The match is still by
name, so a call of one function keeps every function of that name alive.
The one escape is ``// sim-lint: allow(unused-api) <reason>`` on or
above the declaration, whose reason names an existing
``tests/<name>_test.cc`` that reads it.
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
# Keywords after which ``name(`` is an expression, not ``Type name(``.
EXPRESSION_LEADS = {"and", "case", "co_await", "co_return", "co_yield",
                    "delete", "do", "else", "new", "not", "or", "return",
                    "template", "throw", "xor"}
# Tokens that end the search for a template bracket's partner.
BRACKET_STOPS = {";", "{", "}", "?"}
# A statement that starts with one of these declares no API function.
NON_FUNCTION_LEADS = {"friend", "static_assert", "typedef", "using"}
TAGS = {"class", "struct", "union", "enum"}
ACCESS = {"public", "private", "protected"}

Token = tuple[str, int, int]  # (text, 1-based line, index in the file)


class _Scope:
    def __init__(self, kind: str, public: bool = False, access: bool = True,
                 name: str = ""):
        self.kind = kind      # "ns" | "class" | "body"
        self.public = public  # every enclosing section is public
        self.access = access  # the current section is public
        self.name = name      # a class scope's class name


def _declarator(stmt: list[Token]) -> int | None:
    """Index of the name of the function a statement declares, or None."""
    if not stmt or stmt[0][0] in NON_FUNCTION_LEADS:
        return None
    if not (IDENT_RE.match(stmt[0][0]) or stmt[0][0] in ("~", "::")):
        return None  # a ctor init-list tail such as ", b_(y)"
    angle = 0  # template brackets, the template<...> head's included
    for i, (tok, _, _) in enumerate(stmt):
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


def _partner(texts: list[str], at: int, step: int) -> int | None:
    """Index of the '>' (step 1) or '<' (step -1) that pairs with the
    bracket at ``at``, or None when a statement boundary, ``&&`` or
    ``||`` comes first (then the bracket is a comparison)."""
    depth = 0
    k = at
    while 0 <= k < len(texts):
        t = texts[k]
        if t in BRACKET_STOPS:
            return None
        if t in ("&", "|") and 0 <= k + step < len(texts) \
                and texts[k + step] == t:
            return None
        if t == "<":
            depth += step
        elif t == ">":
            depth -= step
        if depth == 0:
            return k
        k += step
    return None


def call_shaped(texts: list[str], i: int) -> bool:
    """Whether the identifier ``texts[i]`` is used in a way that can name
    a function: ``X::f``, ``f(``, ``f<...>(``, ``.f(`` or ``->f(``, but
    not the declarator of ``Type f(...)``."""
    prev = texts[i - 1] if i else ""
    if prev == "::":
        return True
    j = i + 1
    if j < len(texts) and texts[j] == "<":
        close = _partner(texts, j, 1)
        if close is None:
            return False
        j = close + 1
    if j >= len(texts) or texts[j] != "(":
        return False
    if IDENT_RE.match(prev):
        return prev in EXPRESSION_LEADS
    if prev == ">":  # vector<T> f(...) declares; a > f(...) calls
        open_ = _partner(texts, i - 1, -1)
        return not (open_ and IDENT_RE.match(texts[open_ - 1]))
    return True


class FileScan:
    """One walk over a file: the names it uses, and (for a declaring
    header) the public functions it declares.

    ``calls`` counts the call-shaped uses of each name (see
    ``call_shaped``) plus every identifier of a directive line; ``names``
    counts every occurrence that is neither a declarator nor a class name
    after its tag, which is what a constructor is matched against. ``api``
    holds (name, line, is-constructor) triples."""

    def __init__(self, source: SourceFile, collect_api: bool):
        self.calls: Counter[str] = Counter()
        self.names: Counter[str] = Counter()
        self.api: list[tuple[str, int, bool]] = []
        self._collect_api = collect_api
        toks: list[tuple[str, int]] = []
        continued = False
        for idx, line in enumerate(source.code):
            directive = continued or line.lstrip().startswith("#")
            continued = directive and line.rstrip().endswith("\\")
            if directive:  # a macro body's calls are uses
                names = IDENT_RE.findall(line)
                self.calls.update(names)
                self.names.update(names)
                continue
            toks.extend((m.group(0), idx + 1) for m in
                        TOKEN_RE.finditer(ATTRIBUTE_RE.sub(" ", line)))
        self._texts = [t for t, _ in toks]
        stack = [_Scope("ns", public=True)]
        stmt: list[Token] = []
        parens = 0
        for i, (tok, line) in enumerate(toks):
            top = stack[-1]
            if top.kind == "body":
                if tok == "{":
                    stack.append(_Scope("body"))
                elif tok == "}":
                    stack.pop()
                elif IDENT_RE.match(tok):
                    self._use(i)
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
                stmt.append((tok, line, i))

    def _use(self, i: int) -> None:
        tok = self._texts[i]
        self.names[tok] += 1
        if call_shaped(self._texts, i):
            self.calls[tok] += 1

    def _open(self, stmt: list[Token], top: _Scope, in_parens: bool) -> _Scope:
        """Classifies a '{' met at namespace or class scope."""
        if in_parens:  # a lambda or braced default argument
            return _Scope("body")
        words = [t for t, _, _ in stmt]
        tags = [i for i, w in enumerate(words) if w in TAGS]
        if "namespace" in words or words[:1] == ["extern"]:
            scope = _Scope("ns", public=top.public)
        elif tags and "enum" not in words and "(" not in words:
            tag = tags[-1]  # template<class T> struct X
            scope = _Scope("class", public=top.public and top.access,
                           access=words[tag] != "class",
                           name=words[tag + 1] if tag + 1 < len(words)
                           else "")
        else:  # a function body or a braced initializer
            self._statement(stmt, top)
            return _Scope("body")
        self._count(stmt, set())
        return scope

    def _count(self, stmt: list[Token], skip: set[int]) -> None:
        """Counts each identifier of ``stmt`` as a use, except the indices
        in ``skip`` and the names right after class/struct/union/enum."""
        for i, (tok, _, at) in enumerate(stmt):
            if (i not in skip and IDENT_RE.match(tok)
                    and (i == 0 or stmt[i - 1][0] not in TAGS)):
                self._use(at)

    def _statement(self, stmt: list[Token], top: _Scope) -> None:
        """A namespace- or class-scope statement: records the function it
        declares when public, and counts every other identifier."""
        at = _declarator(stmt)
        skip: set[int] = set()
        if at is not None:
            skip.add(at)
            j = at  # the Owner:: qualifiers of a definition are not uses
            while j >= 2 and stmt[j - 1][0] == "::" \
                    and IDENT_RE.match(stmt[j - 2][0]):
                j -= 2
                skip.add(j)
            words = [t for t, _, _ in stmt[at:]]
            defaulted = any(a == "=" and b in ("default", "delete")
                            for a, b in zip(words, words[1:]))
            if (self._collect_api and j == at and top.public and top.access
                    and not defaulted):
                name, line, _ = stmt[at]
                self.api.append((name, line,
                                 top.kind == "class" and name == top.name))
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
    ``declaring`` (root-relative paths) and of every bench/ header that
    no consumer uses."""
    calls: Counter[str] = Counter()
    names: Counter[str] = Counter()
    api: list[tuple[SourceFile, str, int, bool]] = []
    for path in consumer_files(cache.root):
        source = cache.source(path)
        scan = FileScan(source, _declares(source.rel, declaring))
        calls.update(scan.calls)
        names.update(scan.names)
        api.extend((source, *entry) for entry in scan.api)
    out: list[Finding] = []
    for source, name, line, ctor in api:
        if RULE in source.allowed(line):
            if _allow_names_tests(source, line, cache.root):
                continue
            message = (f"allow(unused-api) on '{name}' must name the test "
                       "that reads it, as an existing tests/<name>_test.cc")
        elif (names if ctor else calls)[name]:
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
    RULE: ("public src/ or bench/ header function that nothing in src, "
           "bench, examples or hmrbench calls or names as X::f (tests are "
           "not consumers)"),
}
