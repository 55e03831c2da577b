#!/usr/bin/env python3
"""Check that docs/METRICS.md lists exactly what the library emits.

Usage:
  check_metrics_doc.py [repo_root]

Collects every instrument and trace-span name written as a string literal
in src/: the first argument of INDOOR_COUNTER_ADD, INDOOR_COUNTER_INC,
INDOOR_GAUGE_SET and INDOOR_HISTOGRAM_RECORD, both arguments of
INDOOR_LATENCY_SPAN (span, histogram), the argument of INDOOR_TRACE_SPAN,
and the gauge name of every TimedBuild call. Names built at runtime are
listed below (RUNTIME_NAMES), since no literal carries them.

It then reads docs/METRICS.md: the first backticked name of every table
row under "## Metric inventory", and the backticked span names that open
each bullet of "## Trace spans" (the text before the dash).

Fails when an emitted name has no row (or span bullet), or when a row (or
span bullet) names something no longer emitted. Exit status 0 when both
directions hold, 1 otherwise, listing each offending name.
"""

import pathlib
import re
import sys

# Names assembled at runtime: the sharded caches register
# <prefix>.{hits,misses,evictions,insertions} for each prefix that
# core/query/query_cache.cc passes (util/sharded_cache.cc), and the SLO
# engine publishes slo.<name>.* gauges per configured objective
# (util/slo.cc), documented with the literal placeholder <name>.
RUNTIME_NAMES = {
    f"{prefix}.{suffix}"
    for prefix in ("cache.field", "cache.host", "cache.result")
    for suffix in ("hits", "misses", "evictions", "insertions")
} | {
    f"slo.<name>.{suffix}"
    for suffix in ("burn_fast", "burn_slow", "compliance")
}

METRIC_RE = re.compile(
    r"\b(?:INDOOR_COUNTER_ADD|INDOOR_COUNTER_INC|INDOOR_GAUGE_SET|"
    r"INDOOR_HISTOGRAM_RECORD|TimedBuild)\(\s*\"([^\"]+)\""
)
LATENCY_RE = re.compile(
    r"\bINDOOR_LATENCY_SPAN\(\s*\"([^\"]+)\"\s*,\s*\"([^\"]+)\""
)
SPAN_RE = re.compile(r"\bINDOOR_TRACE_SPAN\(\s*\"([^\"]+)\"")
ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")
TICK_RE = re.compile(r"`([^`]+)`")


def emitted(src: pathlib.Path):
    metrics, spans = set(), set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = path.read_text()
        metrics.update(METRIC_RE.findall(text))
        for span, hist in LATENCY_RE.findall(text):
            spans.add(span)
            metrics.add(hist)
        spans.update(SPAN_RE.findall(text))
    return metrics | RUNTIME_NAMES, spans


def documented(doc: pathlib.Path):
    metrics, spans = set(), set()
    section = None
    bullet = None  # text of the span bullet being read (may wrap lines)
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
            continue
        if section == "Metric inventory":
            m = ROW_RE.match(line)
            if m and m.group(1) != "Name":
                metrics.add(m.group(1))
        elif section == "Trace spans":
            if line.startswith("* "):
                bullet = line[2:]
            elif bullet is not None and line.startswith("  "):
                bullet += " " + line.strip()
            else:
                bullet = None
            if bullet is not None and "—" in bullet:
                spans.update(TICK_RE.findall(bullet.split("—", 1)[0]))
                bullet = None
    return metrics, spans


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    root = root.resolve()
    emitted_metrics, emitted_spans = emitted(root / "src")
    doc_metrics, doc_spans = documented(root / "docs" / "METRICS.md")
    problems = []
    for name in sorted(emitted_metrics - doc_metrics):
        problems.append(f"instrument {name!r} is emitted but has no row")
    for name in sorted(doc_metrics - emitted_metrics):
        problems.append(f"row {name!r} names an instrument nothing emits")
    for name in sorted(emitted_spans - doc_spans):
        problems.append(f"span {name!r} is emitted but not listed")
    for name in sorted(doc_spans - emitted_spans):
        problems.append(f"span {name!r} is listed but nothing emits it")
    for problem in problems:
        print(f"docs/METRICS.md: {problem}", file=sys.stderr)
    print(
        f"checked {len(emitted_metrics)} instruments and "
        f"{len(emitted_spans)} spans against docs/METRICS.md"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
