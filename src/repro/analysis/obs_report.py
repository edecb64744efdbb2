"""Human-readable rendering of telemetry: span trees and metric tables.

``repro profile`` prints these; ``--markdown`` style reports can embed
them.  The span tree shows, per span, the cumulative wall time, the
*self* time (cumulative minus children — the time actually spent in
that phase's own code) and the share of the root's wall time, so "where
does builder time go" is one read:

    span                               cum s   self s  %cum
    ---------------------------------  ------  ------  ----
    profile                            2.514   0.021   100.0
      build.arrays                     1.930   0.004   76.8
        build.clusters[level=0]        0.912   0.912   36.3
        ...

Machine-readable exports (JSON-lines trace, metrics JSON) live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..obs.export import metrics_doc
from ..obs.telemetry import TELEMETRY, Span, Telemetry
from .reporting import render_table

__all__ = [
    "render_metrics",
    "render_span_tree",
    "span_coverage",
    "span_rows",
    "write_obs_markdown",
]


#: The span attributes shown in columns of their own rather than in the
#: label, by column name.
_RSS = {"maxrss MB": "maxrss_mb", "anon MB": "rss_anon_mb"}


def _attr_suffix(attrs: Dict[str, object]) -> str:
    """``[k=v,...]`` label suffix of a span's attributes ('' if none)."""
    shown = _RSS.values()
    inner = ",".join(f"{k}={v}" for k, v in sorted(attrs.items()) if k not in shown)
    return f"[{inner}]" if inner else ""


def span_coverage(span: Span) -> float:
    """Share of ``span``'s wall time that its child spans account for.

    The rest is ``span``'s own self time: work no sub-phase names.  A
    root's coverage is therefore 1.0 only when every moment of the run
    sits inside some phase span (0.0 for a zero-length span).
    """
    total = span.duration_ns
    return (total - span.self_ns) / total if total else 0.0


def span_rows(tm: Optional[Telemetry] = None) -> List[Dict[str, object]]:
    """Table rows of the span forest: name, cum/self seconds, % of root.

    Percentages are of the first root span's cumulative time (the
    conventional "whole run" span the CLI opens).  When any span carries
    a ``maxrss_mb`` attribute (:meth:`Telemetry.stamp_child_rss`), a
    ``maxrss MB`` column shows it: the peak RSS as that span closed; and
    likewise an ``anon MB`` column its ``rss_anon_mb``, the anonymous
    memory resident then.
    """
    tm = TELEMETRY if tm is None else tm
    total_ns = tm.roots[0].duration_ns if tm.roots else 0
    spans = list(tm.spans())
    columns = {
        col: attr for col, attr in _RSS.items() if any(attr in sp.attrs for sp, _ in spans)
    }
    rows: List[Dict[str, object]] = []
    for sp, depth in spans:
        share = 100.0 * sp.duration_ns / total_ns if total_ns else 0.0
        row = {
            "span": "  " * depth + sp.name + _attr_suffix(sp.attrs),
            "cum s": f"{sp.seconds:.3f}",
            "self s": f"{sp.self_ns / 1e9:.3f}",
            "%cum": f"{share:.1f}",
        }
        for col, attr in columns.items():
            row[col] = f"{sp.attrs[attr]:.0f}" if attr in sp.attrs else ""
        rows.append(row)
    return rows


def render_span_tree(
    tm: Optional[Telemetry] = None, *, title: Optional[str] = None
) -> str:
    """The span forest as an aligned text table (see module docstring)."""
    rows = span_rows(tm)
    if not rows:
        return (title + "\n" if title else "") + "(no spans recorded)"
    return render_table(rows, title=title)


def render_metrics(
    tm: Optional[Telemetry] = None, *, title: Optional[str] = None
) -> str:
    """Counters, gauges and histogram summaries as text tables."""
    doc = metrics_doc(tm)
    blocks: List[str] = []
    if title:
        blocks.append(title)
    counter_rows = [
        {"counter": name, "value": f"{value:g}"}
        for name, value in sorted(doc["counters"].items())
    ]
    if counter_rows:
        blocks.append(render_table(counter_rows))
    gauge_rows = [
        {"gauge": name, "value": f"{value:g}"}
        for name, value in sorted(doc["gauges"].items())
    ]
    if gauge_rows:
        blocks.append(render_table(gauge_rows))
    hist_rows = [
        {
            "histogram": name,
            "count": h["count"],
            "mean": f"{h['mean']:.6g}",
            "p50": f"{h['p50']:.6g}",
            "p99": f"{h['p99']:.6g}",
            "max": f"{h['max']:.6g}",
        }
        for name, h in sorted(doc["histograms"].items())
    ]
    if hist_rows:
        blocks.append(render_table(hist_rows))
    if len(blocks) == (1 if title else 0):
        blocks.append("(no metrics recorded)")
    return "\n\n".join(blocks)


def write_obs_markdown(
    path: Union[str, "object"], tm: Optional[Telemetry] = None
) -> str:
    """Write a markdown observability report (span tree + metrics).

    Returns the path written.  The tables are fenced as code blocks —
    the aligned text form reads better than a 4-column markdown table
    for deep trees.
    """
    tm = TELEMETRY if tm is None else tm
    parts = [
        "# Telemetry report",
        "",
        "## Span tree",
        "",
        "```",
        render_span_tree(tm),
        "```",
        "",
        "## Metrics",
        "",
        "```",
        render_metrics(tm),
        "```",
        "",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return str(path)
