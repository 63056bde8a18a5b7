"""layer-upward-include / layer-cycle: the src/ layering DAG.

The codebase layers only downward (lower layers never know about higher
ones):

    audit, stats                 (leaf utilities)
    sim                          -> audit
    telemetry                    -> sim
    cluster                      -> telemetry, sim, stats, audit
    storage | interactive        -> cluster and below
    mapred                       -> storage, cluster and below
    workload                     -> mapred, interactive and below
    core                         -> workload, mapred, interactive and below
    harness                      -> everything below

layer-upward-include flags any ``#include "layer/..."`` whose target layer
is not in the including layer's allowed (transitive) set. layer-cycle runs
independently of the table: it builds the *observed* layer graph from the
includes and reports any strongly connected component with more than one
layer, so a mutual dependency is caught even if someone "fixes" the table
instead of the code.
"""

from __future__ import annotations

import re

from findings import Finding, SourceFile

# Direct allowed dependencies; closure is computed below.
ALLOWED_DEPS: dict[str, set[str]] = {
    "audit": set(),
    "stats": set(),
    "sim": {"audit"},
    "whatif": {"sim"},
    "telemetry": {"sim"},
    "cluster": {"telemetry", "sim", "stats", "audit"},
    "storage": {"cluster"},
    "interactive": {"cluster"},
    "mapred": {"storage", "cluster"},
    "faults": {"mapred", "storage", "cluster"},
    "workload": {"mapred", "interactive"},
    "core": {"workload", "mapred", "interactive", "whatif"},
    "harness": {"core", "workload", "mapred", "faults", "interactive",
                "storage", "whatif"},
}

# Anchored at line start and matched against the RAW line: the quoted
# include path is a string literal, so the blanked `code` view erases it.
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/[^"]+"')

UPWARD_RULE = "layer-upward-include"
CYCLE_RULE = "layer-cycle"


def _closure() -> dict[str, set[str]]:
    closed: dict[str, set[str]] = {}

    def visit(layer: str, stack: tuple[str, ...] = ()) -> set[str]:
        if layer in closed:
            return closed[layer]
        if layer in stack:
            raise SystemExit(
                "hybridmr-analyze: ALLOWED_DEPS itself contains a cycle "
                f"through '{layer}' — fix scripts/analyze/layering.py")
        deps: set[str] = set()
        for d in ALLOWED_DEPS.get(layer, set()):
            deps.add(d)
            deps |= visit(d, stack + (layer,))
        closed[layer] = deps
        return deps

    for layer in ALLOWED_DEPS:
        visit(layer)
    return closed


CLOSURE = _closure()


def layer_of(rel: str) -> str | None:
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in ALLOWED_DEPS:
        return parts[1]
    return None


def scan_file(source: SourceFile,
              observed: dict[str, dict[str, tuple[str, int, str]]]
              ) -> list[Finding]:
    """Checks one src/ file's includes; records observed layer edges into
    ``observed[from][to] = (file, line, header)`` for the cycle pass."""
    layer = layer_of(source.rel)
    if layer is None:
        return []
    findings: list[Finding] = []
    for idx, raw in enumerate(source.raw):
        m = INCLUDE_RE.search(raw)
        if not m:
            continue
        target = m.group(1)
        if target not in ALLOWED_DEPS or target == layer:
            continue
        lineno = idx + 1
        header = m.group(0)
        observed.setdefault(layer, {}).setdefault(
            target, (source.rel, lineno, header))
        if target in CLOSURE[layer]:
            continue
        if UPWARD_RULE in source.allowed(lineno):
            continue
        findings.append(Finding(
            rule=UPWARD_RULE, file=source.rel, line=lineno,
            identifier=target,
            message=(
                f"layer '{layer}' must not include layer '{target}' "
                f"(allowed: {', '.join(sorted(CLOSURE[layer])) or 'none'}); "
                "invert the dependency or move the shared piece down")))
    return findings


def cycle_findings(
        observed: dict[str, dict[str, tuple[str, int, str]]]
) -> list[Finding]:
    """Tarjan SCC over the observed layer graph; every component with more
    than one layer is reported once, anchored at one offending include."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in observed.get(v, {}):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp: list[str] = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            sccs.append(comp)

    nodes = set(observed) | {t for edges in observed.values() for t in edges}
    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)

    findings: list[Finding] = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        comp_sorted = sorted(comp)
        # Anchor the report at one include that participates in the cycle.
        anchor = None
        for frm in comp_sorted:
            for to, loc in sorted(observed.get(frm, {}).items()):
                if to in comp:
                    anchor = loc
                    break
            if anchor:
                break
        file, line, _ = anchor if anchor else ("src", 1, "")
        label = " <-> ".join(comp_sorted)
        findings.append(Finding(
            rule=CYCLE_RULE, file=file, line=line, identifier=label,
            message=f"layer dependency cycle: {label}; break it by moving "
                    "the shared abstraction into a lower layer"))
    return findings


# Rule catalog for --list-rules.
RULES = {
    "layer-upward-include": (
        "#include from a lower src/ layer into a higher one (the layer "
        "DAG only points down)"),
    "layer-cycle": (
        "strongly connected component in the observed include-layer graph"),
}
