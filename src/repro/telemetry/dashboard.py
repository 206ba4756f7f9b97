"""Self-contained HTML sweep dashboard (``fleet --dashboard out.html``).

One static file, no external assets, written at end of sweep from the
summary document plus the live-event stream: stat tiles (jobs, cache
hits, batched jobs, wall time, anomaly count), a per-job wall-clock
timeline (one bar per job, start → finish offsets folded from the
event stream by :func:`~repro.telemetry.live.fold_jobs`),
the full job table (the accessible twin of the timeline) and the
anomaly flags.  Design rules: a single neutral hue carries the
timeline bars; job *status* is a labelled badge (text + color, never
color alone); values and labels wear text colors, not series colors;
one time axis.
"""

from __future__ import annotations

import html
import os
from typing import List, Optional

from .live import fold_jobs

#: status -> (badge background, badge ink); every badge also carries
#: its status word, so color is reinforcement, never the only channel
_STATUS_STYLE = {
    "done": ("#dafbe1", "#116329"),
    "cached": ("#ddf4ff", "#0550ae"),
    "batched": ("#ddf4ff", "#0550ae"),
    "retried": ("#fff8c5", "#7d4e00"),
    "failed": ("#ffebe9", "#a40e26"),
    "outlier": ("#fff8c5", "#7d4e00"),
}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, Helvetica,
       Arial, sans-serif; margin: 24px; color: #1f2328;
       background: #ffffff; }
h1 { font-size: 20px; margin: 0 0 4px 0; }
h2 { font-size: 15px; margin: 28px 0 8px 0; }
.sub { color: #57606a; font-size: 13px; margin-bottom: 20px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { border: 1px solid #d0d7de; border-radius: 6px;
        padding: 10px 16px; min-width: 110px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 12px; color: #57606a; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th { text-align: left; color: #57606a; font-weight: 600;
     border-bottom: 1px solid #d0d7de; padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid #eaeef2; padding: 4px 10px 4px 0;
     font-variant-numeric: tabular-nums; }
.lane { position: relative; height: 14px; background: #f6f8fa;
        border-radius: 4px; min-width: 240px; }
.bar { position: absolute; top: 3px; height: 8px; border-radius: 4px;
       background: #6598d1; min-width: 2px; }
.mark { position: absolute; top: 1px; width: 4px; height: 12px;
        border-radius: 2px; background: #0550ae; }
.badge { display: inline-block; border-radius: 10px; padding: 1px 8px;
         font-size: 12px; }
.axis { color: #57606a; font-size: 11px; display: flex;
        justify-content: space-between; min-width: 240px; }
code { background: #f6f8fa; padding: 1px 4px; border-radius: 4px; }
"""


def _badge(status: str) -> str:
    bg, ink = _STATUS_STYLE.get(status, ("#f6f8fa", "#57606a"))
    return (f'<span class="badge" style="background:{bg};'
            f'color:{ink}">{html.escape(status)}</span>')


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _window(doc: dict, fold: dict):
    """A job's (status, start, end) from its folded stream state."""
    if fold["cache_hit"] is not None:
        return "cached", fold["cache_hit"], fold["cache_hit"]
    attempts = fold["attempts"]
    start = attempts[0]["start"] if attempts else 0.0
    end = (attempts[-1]["end"] if attempts else None) or start
    if attempts and attempts[-1]["outcome"] == "failed":
        return "failed", start, end
    if len(attempts) > 1:
        return "retried", start, end
    return ("batched" if doc.get("backend") == "ensemble" else "done",
            start, end)


def render_dashboard(summary: dict, events: Optional[List[dict]] = None,
                     title: str = "BookLeaf sweep") -> str:
    """The dashboard HTML, as a string."""
    events = events or []
    jobs = summary.get("jobs", [])
    counts = summary.get("counts", {})
    anomalies = summary.get("anomalies", [])
    flagged = {a["job"] for a in anomalies}
    folded = fold_jobs(events)
    horizon = max([a["end"] or 0 for fold in folded.values()
                   for a in fold["attempts"]]
                  + [summary.get("wall_seconds") or 0, 1e-9])

    tiles = [
        ("jobs", counts.get("jobs", len(jobs))),
        ("cache hits", counts.get("cache_hits", 0)),
        ("batched", counts.get("ensemble_jobs", 0)),
        ("wall seconds", _fmt(summary.get("wall_seconds"))),
        ("anomalies", len(anomalies)),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="v">{html.escape(str(v))}</div>'
        f'<div class="k">{html.escape(k)}</div></div>'
        for k, v in tiles)

    rows = []
    for doc in jobs:
        idx = doc["index"]
        status, start, end = _window(doc, folded.get(idx, {
            "attempts": [], "cache_hit": None}))
        left = 100.0 * start / horizon
        width = max(100.0 * (end - start) / horizon, 0.0)
        if status == "cached" or width < 0.5:
            lane = (f'<div class="lane" role="img" aria-label="job {idx} '
                    f'at {start:.2f}s"><div class="mark" '
                    f'style="left:{left:.2f}%"></div></div>')
        else:
            lane = (f'<div class="lane" role="img" aria-label="job {idx} '
                    f'{start:.2f}s to {end:.2f}s"><div class="bar" '
                    f'style="left:{left:.2f}%;width:{width:.2f}%">'
                    f'</div></div>')
        badges = _badge(status)
        if idx in flagged:
            badges += " " + _badge("outlier")
        rows.append(
            "<tr>"
            f"<td>{idx}</td>"
            f"<td>{badges}</td>"
            f"<td>{html.escape(str(doc.get('problem') or '-'))}"
            f"</td>"
            f"<td>{_fmt(doc.get('nx'), 0)}</td>"
            f"<td>{html.escape(str(doc.get('backend', '-')))}</td>"
            f"<td>{_fmt(doc.get('nstep'), 0)}</td>"
            f"<td>{_fmt(doc.get('wall_seconds'), 3)}</td>"
            f"<td>{_fmt(doc.get('steps_per_sec'), 1)}</td>"
            f"<td><code>{html.escape(str(doc.get('digest', ''))[:12])}"
            f"</code></td>"
            f"<td>{lane}</td>"
            "</tr>")

    anomaly_html = "<p class='sub'>no outliers flagged</p>"
    if anomalies:
        items = "".join(
            f"<tr><td>{a['job']}</td>"
            f"<td>{html.escape(a['metric'])}</td>"
            f"<td>{_fmt(a['value'], 4)}</td>"
            f"<td>{_fmt(a['median'], 4)}</td>"
            f"<td>{_fmt(a['zscore'], 2)}</td>"
            f"<td>{_badge('outlier') if a.get('harmful') else 'benign'}"
            f"</td></tr>"
            for a in anomalies)
        anomaly_html = (
            "<table><tr><th>job</th><th>metric</th><th>value</th>"
            "<th>sweep median</th><th>robust z</th><th>direction</th>"
            f"</tr>{items}</table>")

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{html.escape(title)}</h1>
<div class="sub">{len(jobs)} jobs · {len(events)} live events ·
schema v{summary.get('schema_version', '?')}</div>
<div class="tiles">{tile_html}</div>
<h2>Jobs</h2>
<table>
<tr><th>job</th><th>status</th><th>problem</th><th>nx</th>
<th>backend</th><th>steps</th><th>wall s</th><th>steps/s</th>
<th>digest</th><th>timeline</th></tr>
{''.join(rows)}
</table>
<div class="axis"><span>0s</span><span>{horizon:.2f}s</span></div>
<h2>Anomalies</h2>
{anomaly_html}
</body></html>
"""


def write_dashboard(summary: dict, events: Optional[List[dict]],
                    path: str, title: str = "BookLeaf sweep") -> str:
    root = os.path.dirname(os.path.abspath(path))
    os.makedirs(root, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(summary, events, title=title))
    return path
