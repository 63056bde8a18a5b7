"""Determinism rules: the group CI's lint stage runs over src, tests,
bench and examples.

  wall-clock             host time / host randomness in simulated code
  unordered-iteration    range-for / begin() over unordered containers
  unordered-accumulation order-sensitive reduction (+=, push_back, ...)
                         inside a loop over an unordered container — fires
                         even where the iteration itself was allowed,
                         because a sorted-later loop is fine but a float
                         sum or an appended list is already order-tainted
  simtime-eq             exact ==/!= between SimTime doubles
  eager-recompute        Machine::recompute() outside the drain path

These apply to every analyzed file (src, tests, bench, examples), unlike
the src/-only dimension/layering/capture passes: a nondeterministic test
is as flaky as a nondeterministic scheduler.
"""

from __future__ import annotations

import re

from findings import Finding, SourceFile

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "host clock (use sim::Simulation::now())"),
    (re.compile(r"(?<![\w:])gettimeofday\s*\("),
     "host clock (use sim::Simulation::now())"),
    (re.compile(r"(?<![\w.>:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "host clock (use sim::Simulation::now())"),
    (re.compile(r"(?<![\w.>:])(?:std::)?clock\s*\(\s*\)"),
     "host clock (use sim::Simulation::now())"),
    (re.compile(r"(?<![\w.>:])(?:std::)?s?rand\s*\("),
     "host randomness (use sim::Rng)"),
    (re.compile(r"std::random_device"),
     "host randomness (use sim::Rng)"),
]

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
IDENT_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*(?:=|;|\{|,|\))")
SIMTIME_DECL_RE = re.compile(
    r"\b(?:sim::)?SimTime\s+(?:&\s*)?([A-Za-z_]\w*)\s*[=;,){]")
EAGER_RECOMPUTE_RE = re.compile(r"(?:\.|->)\s*recompute\s*\(")
EAGER_RECOMPUTE_SANCTIONED = (
    "src/cluster/machine.h",
    "src/cluster/machine.cc",
    "src/cluster/realloc.h",
    "src/cluster/realloc.cc",
)
# The profiler is the one src/ module whose job IS reading the host clock
# (scoped wall timers, watchdog heartbeats). Its wall readings never feed
# simulation state — RunReport only serializes its deterministic work
# counters — so the wall-clock rule is waived for these two files and
# nowhere else. Every other rule still applies to them.
WALL_CLOCK_SANCTIONED = (
    "src/telemetry/profiler.h",
    "src/telemetry/profiler.cc",
)
ACCUMULATE_RE = re.compile(
    r"(?:\+=|-=|\*=|/=|\.\s*push_back\s*\(|\.\s*emplace_back\s*\()")


def template_tail_ident(text: str, start: int) -> str | None:
    """First identifier after the template argument list opening at
    ``start`` (the declared variable name), or None."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                m = IDENT_RE.match(text, i + 1)
                return m.group(1) if m else None
        elif c in ";{":
            return None
        i += 1
    return None


def scan(source: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    recompute_sanctioned = source.rel in EAGER_RECOMPUTE_SANCTIONED
    wall_clock_sanctioned = source.rel in WALL_CLOCK_SANCTIONED

    unordered_names: set[str] = set()
    simtime_names: set[str] = set()
    for code in source.code:
        for m in UNORDERED_DECL_RE.finditer(code):
            name = template_tail_ident(code, m.end() - 1)
            if name:
                unordered_names.add(name)
        for m in SIMTIME_DECL_RE.finditer(code):
            simtime_names.add(m.group(1))

    names_alt = "|".join(map(re.escape, sorted(unordered_names)))
    unordered_for_re = (re.compile(
        r"for\s*\([^;)]*:\s*[\w.\->]*\b(%s)\s*\)" % names_alt)
        if unordered_names else None)
    unordered_begin_re = (re.compile(
        r"\b(%s)\s*\.\s*(?:c?begin|c?end)\s*\(" % names_alt)
        if unordered_names else None)
    simtime_eq_re = (re.compile(
        r"(\b(%(n)s)\b(?!\s*[.(\[]|\s*->)\s*[=!]=(?!=)"
        r"|[=!]=\s*\b(%(n)s)\b(?!\s*[.(\[]|\s*->))" %
        {"n": "|".join(map(re.escape, sorted(simtime_names)))})
        if simtime_names else None)

    for idx, code in enumerate(source.code):
        lineno = idx + 1
        allow = source.allowed(lineno)

        if not wall_clock_sanctioned and "wall-clock" not in allow:
            for pattern, why in WALL_CLOCK_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rule="wall-clock", file=source.rel, line=lineno,
                        identifier=pattern.pattern[:24],
                        message=f"nondeterministic {why}"))

        hit_for = unordered_for_re.search(code) if unordered_for_re else None
        if "unordered-iteration" not in allow:
            if hit_for or (unordered_begin_re
                           and unordered_begin_re.search(code)):
                findings.append(Finding(
                    rule="unordered-iteration", file=source.rel, line=lineno,
                    identifier=(hit_for.group(1) if hit_for else
                                unordered_begin_re.search(code).group(1)),
                    message=(
                        "iteration over an unordered container is "
                        "order-nondeterministic; iterate a vector/std::map "
                        "or sort first")))

        if hit_for:
            findings.extend(_accumulation_in_loop(
                source, idx, hit_for.group(1)))

        if (not recompute_sanctioned and "eager-recompute" not in allow
                and EAGER_RECOMPUTE_RE.search(code)):
            findings.append(Finding(
                rule="eager-recompute", file=source.rel, line=lineno,
                identifier="recompute",
                message=(
                    "direct recompute() outside the drain path defeats "
                    "coalescing; use invalidate()/settle_now() or read "
                    "through an accessor (see docs/PERFORMANCE.md)")))

        if simtime_eq_re and "simtime-eq" not in allow:
            if simtime_eq_re.search(code):
                findings.append(Finding(
                    rule="simtime-eq", file=source.rel, line=lineno,
                    identifier="==",
                    message=("exact ==/!= on SimTime doubles; use ordered "
                             "comparisons or sim::same_time()")))

    return findings


def _accumulation_in_loop(source: SourceFile, for_idx: int,
                          container: str) -> list[Finding]:
    """Flags order-sensitive accumulation statements inside the body of a
    range-for over ``container`` (an unordered map/set)."""
    findings: list[Finding] = []
    # Find the loop body: from the for's closing paren, either a braced
    # block or a single statement ending at ';'.
    depth = 0
    body_lines: list[int] = []
    i = for_idx
    brace_depth = 0
    in_body = False
    saw_brace = False
    while i < len(source.code):
        line = source.code[i]
        start = 0
        if i == for_idx:
            start = line.find("for")
        for j in range(start, len(line)):
            c = line[j]
            if not in_body:
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        in_body = True
            else:
                if c == "{":
                    brace_depth += 1
                    saw_brace = True
                elif c == "}":
                    brace_depth -= 1
                    if saw_brace and brace_depth == 0:
                        body_lines.append(i)
                        return _flag(source, body_lines, container, findings)
                elif c == ";" and not saw_brace:
                    body_lines.append(i)
                    return _flag(source, body_lines, container, findings)
        if in_body:
            body_lines.append(i)
        i += 1
        if i - for_idx > 200:  # unterminated / pathological; stop scanning
            break
    return _flag(source, body_lines, container, findings)


def _flag(source: SourceFile, body_lines: list[int], container: str,
          findings: list[Finding]) -> list[Finding]:
    for idx in body_lines:
        lineno = idx + 1
        if "unordered-accumulation" in source.allowed(lineno):
            continue
        if ACCUMULATE_RE.search(source.code[idx]):
            findings.append(Finding(
                rule="unordered-accumulation", file=source.rel, line=lineno,
                identifier=container,
                message=(
                    f"accumulation inside iteration over unordered "
                    f"'{container}': the reduction order is "
                    "implementation-defined (float sums and appended lists "
                    "change run to run); copy to a sorted vector first")))
    return findings


# Rule catalog for --list-rules / --sarif.
RULES = {
    "wall-clock": "host clock or host randomness in simulated code",
    "unordered-iteration": (
        "range-for / begin() over an unordered container (iteration order "
        "is nondeterministic)"),
    "unordered-accumulation": (
        "order-sensitive reduction inside a loop over an unordered "
        "container"),
    "simtime-eq": (
        "exact ==/!= between SimTime doubles (route through "
        "sim::same_time())"),
    "eager-recompute": (
        "Machine::recompute() called outside the ReallocCoordinator drain "
        "path"),
}
