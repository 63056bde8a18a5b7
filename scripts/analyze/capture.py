"""capture-lifetime: strong self-captures in event-queue callbacks.

A lambda handed to Simulation/EventQueue ``at`` / ``after`` / ``every``
outlives the statement that registered it. Three strong-capture shapes
are latent use-after-free / leak bugs there, and all three have an
established weak-capture idiom in this codebase (machine.cc,
dfsio.cc, simulation.cc: ``std::weak_ptr<T> weak = strong;`` capture
``weak``, lock inside):

  1. ``shared_from_this()`` in the capture list — the event queue keeps
     the object alive arbitrarily long; teardown leaks until the event
     fires. Capture ``weak_from_this()`` and lock.
  2. by-copy capture of a variable declared as a shared_ptr in the same
     file — same ownership extension, same fix.
  3. a ``this``-capturing lambda registered with ``every()`` whose
     PeriodicHandle is discarded — the ticker can never be cancelled, so
     it keeps firing into ``this`` after the owner is destroyed.

``at``/``after`` with plain ``this`` are not flagged: one-shot events on
simulation-lifetime objects are the simulator's bread and butter.
"""

from __future__ import annotations

import re

from findings import Finding, SourceFile

RULE = "capture-lifetime"

REGISTER_RE = re.compile(r"(?:\.|->)\s*(at|after|every)\s*\(")
# Declarations that make a name shared-owning in this file.
SHARED_DECL_RES = [
    re.compile(r"\bstd::shared_ptr\s*<[^;=]*>\s+([A-Za-z_]\w*)\s*[=;({]"),
    re.compile(r"\bWorkloadPtr\s+([A-Za-z_]\w*)\s*[=;({]"),
    re.compile(r"\b(?:const\s+)?auto&?\s+([A-Za-z_]\w*)\s*=\s*"
               r"std::make_shared\s*<"),
]
CAPTURE_ITEM_RE = re.compile(r"[&=]?\s*([A-Za-z_]\w*(?:\s*\(\s*\))?)")


def shared_names(source: SourceFile) -> set[str]:
    names: set[str] = set()
    for code in source.code:
        for pattern in SHARED_DECL_RES:
            for m in pattern.finditer(code):
                names.add(m.group(1))
    return names


def _line_of(offsets: list[int], pos: int) -> int:
    """1-based line for a position in the joined text."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def scan(source: SourceFile) -> list[Finding]:
    shared = shared_names(source)
    text = "\n".join(source.code)
    offsets = [0]
    for line in source.code:
        offsets.append(offsets[-1] + len(line) + 1)
    offsets.pop()

    findings: list[Finding] = []
    for m in REGISTER_RE.finditer(text):
        method = m.group(1)
        open_paren = m.end() - 1
        # Walk the argument list to its closing paren.
        depth = 0
        end = open_paren
        for i in range(open_paren, min(len(text), open_paren + 4000)):
            c = text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        args = text[open_paren + 1:end]
        # First lambda capture list inside the arguments.
        cap = re.search(r"\[([^\]]*)\]", args)
        if not cap:
            continue
        cap_pos = open_paren + 1 + cap.start()
        lineno = _line_of(offsets, cap_pos)
        if RULE in source.allowed(lineno):
            continue
        items = [s.strip() for s in cap.group(1).split(",") if s.strip()]

        captured_this = False
        for item in items:
            bare = item.lstrip("&=").strip()
            if item == "this":
                captured_this = True
            if "shared_from_this" in item:
                findings.append(Finding(
                    rule=RULE, file=source.rel, line=lineno,
                    identifier="shared_from_this",
                    message=(
                        f"lambda registered with {method}() captures "
                        "shared_from_this(), extending the object's "
                        "lifetime until the event fires; capture "
                        "weak_from_this() and lock inside")))
                continue
            if not item.startswith("&") and bare in shared:
                findings.append(Finding(
                    rule=RULE, file=source.rel, line=lineno,
                    identifier=bare,
                    message=(
                        f"lambda registered with {method}() captures "
                        f"shared_ptr '{bare}' by value; convert to "
                        "std::weak_ptr before the capture and lock inside "
                        "(see machine.cc / dfsio.cc for the idiom)")))

        if method == "every" and captured_this:
            # Is the registration's PeriodicHandle used? Look back to the
            # start of the statement: an '=' or 'return' means it is.
            stmt_start = max(text.rfind(ch, 0, m.start())
                             for ch in ";{}")
            prefix = text[stmt_start + 1:m.start()]
            # Strip the receiver expression (identifier chains) off the end.
            prefix = re.sub(r"[\w:.>()\-\s]+$", "", prefix)
            used = ("=" in prefix or "return" in text[stmt_start + 1:m.start()])
            if not used:
                findings.append(Finding(
                    rule=RULE, file=source.rel, line=lineno,
                    identifier="this",
                    message=(
                        "every() with a this-capturing lambda discards the "
                        "PeriodicHandle, so the ticker can never be "
                        "cancelled and outlives the object; store the "
                        "handle and cancel it in the destructor/stop()")))
    return findings


# Rule catalog for --list-rules.
RULES = {
    "capture-lifetime": (
        "strong self-capture (shared_from_this / by-copy shared_ptr / "
        "discarded every() handle) in an event-queue callback"),
}
