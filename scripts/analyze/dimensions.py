"""dim-raw-double: dimension hygiene for quantity-like declarations.

src/sim/units.h provides zero-overhead strong types (sim::MegaBytes,
sim::MBps, sim::Watts, sim::Joules, sim::Duration, ...) whose operators
only admit dimensionally valid arithmetic. A raw ``double`` parameter or
field whose *name* claims a unit (``block_mb``, ``bw_mbps``,
``idle_watts``, ``timeout_secs``, ``deadline``...) re-opens the door to
the mixed-unit bugs the types exist to prevent, so they are rejected.
"""

from __future__ import annotations

import re

from findings import Finding, SourceFile

# Suffix claims a unit. Trailing underscores (members) are stripped first.
UNIT_SUFFIX_RE = re.compile(
    r"(?:_mb|_mbps|_gbps|_kbps|_watts|_joules|_wh|_kwh|_secs|_seconds)$")
# Name claims a time dimension outright.
UNIT_WORD_RE = re.compile(r"(?:deadline|interval|duration)")

# double/float declarations:  [const] double name [=;,)}...]
#   - not preceded by identifier chars / :: / . / -> / < (rules out
#     std::vector<double> handled separately, member access, etc.)
#   - not followed by '(' (function returning double)
DECL_RE = re.compile(
    r"(?<![\w:.>])(?:double|float)\s+(?:[&*]\s*)?([A-Za-z_]\w*)\s*(?=[=;,)\]{]|$)")
# Containers of raw doubles with a unit-claiming name are the same defect:
#   std::vector<double> sizes_mb;
TEMPLATE_DECL_RE = re.compile(
    r"(?:double|float)\s*>\s*(?:[&*]\s*)?([A-Za-z_]\w*)\s*(?=[=;,)\]{]|$)")

RULE = "dim-raw-double"


def unit_like(name: str) -> bool:
    bare = name.rstrip("_")
    return bool(UNIT_SUFFIX_RE.search(bare) or UNIT_WORD_RE.search(bare))


def scan(source: SourceFile) -> list[Finding]:
    if not source.rel.startswith("src/"):
        return []
    if source.rel == "src/sim/units.h":
        return []  # the strong types' own implementation
    findings: list[Finding] = []
    for idx, code in enumerate(source.code):
        lineno = idx + 1
        if RULE in source.allowed(lineno):
            continue
        for pattern in (DECL_RE, TEMPLATE_DECL_RE):
            for m in pattern.finditer(code):
                name = m.group(1)
                if not unit_like(name):
                    continue
                findings.append(Finding(
                    rule=RULE, file=source.rel, line=lineno,
                    identifier=name,
                    message=(
                        f"raw double '{name}' is named like a quantity; use "
                        "the strong type from sim/units.h (sim::MegaBytes, "
                        "sim::MBps, sim::Watts, sim::Joules, sim::Duration, "
                        "...) so unit mixing is a compile error")))
    return findings


# Rule catalog for --list-rules.
RULES = {
    "dim-raw-double": (
        "raw double/float declaration whose name claims a unit; use the "
        "strong types from src/sim/units.h"),
}
