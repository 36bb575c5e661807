"""Tiny deterministic SVG plotter.

Benchmark figures are static summaries of CSV tables, so this module draws
them directly — no plotting dependency, no font metrics, no timestamps.
The output is a pure function of the inputs: identical data gives
byte-identical files, which the benchmark harness relies on when it
re-renders plots from persisted CSVs.

Two figure kinds cover everything the benchmarks emit: multi-series line
plots (optionally with shaded confidence bands) and histograms with an
optional overlay curve.  Every figure is 720 by 460 pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH = 720.0
_HEIGHT = 460.0
_MARGIN_LEFT = 68.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 52.0


@dataclass(frozen=True)
class Series:
    """One plotted curve; ``band`` is an optional (lows, highs) envelope."""
    label: str
    xs: tuple
    ys: tuple
    band: Optional[tuple] = None


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5):
    if not hi > lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-9 * step else v)
        v += step
    return ticks


class _Frame:
    """Data-to-pixel transform plus the shared axes/grid/labels chrome."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.px0 = _MARGIN_LEFT
        self.px1 = _WIDTH - _MARGIN_RIGHT
        self.py0 = _HEIGHT - _MARGIN_BOTTOM
        self.py1 = _MARGIN_TOP

    def tx(self, v: float) -> float:
        a, b = self.x0, self.x1
        return self.px0 + (v - a) / (b - a) * (self.px1 - self.px0)

    def ty(self, v: float) -> float:
        a, b = self.y0, self.y1
        return self.py0 + (v - a) / (b - a) * (self.py1 - self.py0)

    def chrome(self, title, x_label, y_label) -> list:
        out = [f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
               'fill="#ffffff"/>']
        for v in _nice_ticks(self.x0, self.x1):
            px = self.tx(v)
            out.append(f'<line x1="{_coord(px)}" y1="{_coord(self.py0)}" '
                       f'x2="{_coord(px)}" y2="{_coord(self.py1)}" '
                       'stroke="#dddddd" stroke-width="0.7"/>')
            out.append(f'<text x="{_coord(px)}" y="{_coord(self.py0 + 16)}" '
                       'font-size="11" text-anchor="middle" '
                       f'fill="#333333">{_fmt(v)}</text>')
        for v in _nice_ticks(self.y0, self.y1):
            py = self.ty(v)
            out.append(f'<line x1="{_coord(self.px0)}" y1="{_coord(py)}" '
                       f'x2="{_coord(self.px1)}" y2="{_coord(py)}" '
                       'stroke="#dddddd" stroke-width="0.7"/>')
            out.append(f'<text x="{_coord(self.px0 - 6)}" '
                       f'y="{_coord(py + 3.5)}" font-size="11" '
                       f'text-anchor="end" fill="#333333">{_fmt(v)}</text>')
        out.append(f'<rect x="{_coord(self.px0)}" y="{_coord(self.py1)}" '
                   f'width="{_coord(self.px1 - self.px0)}" '
                   f'height="{_coord(self.py0 - self.py1)}" fill="none" '
                   'stroke="#444444" stroke-width="1"/>')
        if title:
            out.append(f'<text x="{_coord(_WIDTH / 2)}" y="20" '
                       'font-size="14" text-anchor="middle" '
                       f'fill="#000000">{escape(title)}</text>')
        if x_label:
            out.append(f'<text x="{_coord((self.px0 + self.px1) / 2)}" '
                       f'y="{_coord(_HEIGHT - 12)}" font-size="12" '
                       f'text-anchor="middle" fill="#000000">'
                       f'{escape(x_label)}</text>')
        if y_label:
            cx, cy = 16.0, (self.py0 + self.py1) / 2
            out.append(f'<text x="{_coord(cx)}" y="{_coord(cy)}" '
                       'font-size="12" text-anchor="middle" fill="#000000" '
                       f'transform="rotate(-90 {_coord(cx)} {_coord(cy)})">'
                       f'{escape(y_label)}</text>')
        return out

    def legend(self, entries) -> list:
        out = []
        y = self.py1 + 14
        x = self.px1 - 10
        for label, color in entries:
            out.append(f'<line x1="{_coord(x - 150)}" y1="{_coord(y - 4)}" '
                       f'x2="{_coord(x - 126)}" y2="{_coord(y - 4)}" '
                       f'stroke="{color}" stroke-width="2.5"/>')
            out.append(f'<text x="{_coord(x - 120)}" y="{_coord(y)}" '
                       f'font-size="11" fill="#000000">{escape(label)}</text>')
            y += 15
        return out


def _finite(values):
    return [v for v in values if not (math.isinf(v) or math.isnan(v))]


def _data_ranges(series):
    xs, ys = [], []
    for s in series:
        xs.extend(_finite([float(v) for v in s.xs]))
        ys.extend(_finite([float(v) for v in s.ys]))
        if s.band is not None:
            lo, hi = s.band
            ys.extend(_finite([float(v) for v in lo]))
            ys.extend(_finite([float(v) for v in hi]))
    if not xs:
        xs = [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]

    def padded(vals):
        lo, hi = min(vals), max(vals)
        if hi <= lo:
            return lo - 0.5, hi + 0.5
        pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    return padded(xs), padded(ys)


def _document(body) -> str:
    w, h = _fmt(_WIDTH), _fmt(_HEIGHT)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def line_plot(series: Sequence[Series], *, title: str = "",
              x_label: str = "", y_label: str = "") -> str:
    """Render curves (with optional confidence bands) to an SVG string."""
    frame = _Frame(*_data_ranges(series))
    body = frame.chrome(title, x_label, y_label)
    entries = []
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        entries.append((s.label, color))
        pts = [(float(x), float(y)) for x, y in zip(s.xs, s.ys)
               if not (math.isinf(float(y)) or math.isnan(float(y)))]
        if s.band is not None:
            lo, hi = s.band
            ring = [(float(x), float(v)) for x, v in zip(s.xs, hi)]
            ring += [(float(x), float(v)) for x, v in zip(s.xs, lo)][::-1]
            ring = [(x, y) for x, y in ring if not math.isnan(y)]
            if ring:
                path = " ".join(
                    f"{_coord(frame.tx(x))},{_coord(frame.ty(y))}"
                    for x, y in ring)
                body.append(f'<polygon points="{path}" fill="{color}" '
                            'fill-opacity="0.16" stroke="none"/>')
        if pts:
            path = " ".join(f"{_coord(frame.tx(x))},{_coord(frame.ty(y))}"
                            for x, y in pts)
            body.append(f'<polyline points="{path}" fill="none" '
                        f'stroke="{color}" stroke-width="1.8"/>')
    body.extend(frame.legend(entries))
    return _document(body)


def histogram_plot(bin_edges: Sequence[float], counts: Sequence[float], *,
                   overlay: Optional[Series] = None, title: str = "",
                   x_label: str = "", y_label: str = "count") -> str:
    """Render pre-binned counts as bars, with an optional overlay curve
    (e.g. an expected frequency line) sharing the axes."""
    if len(bin_edges) != len(counts) + 1:
        raise ValueError("need len(bin_edges) == len(counts) + 1")
    ys = [float(c) for c in counts]
    if overlay is not None:
        ys.extend(float(v) for v in overlay.ys)
    x_lo, x_hi = float(bin_edges[0]), float(bin_edges[-1])
    if not x_hi > x_lo:
        x_hi = x_lo + 1.0
    y_hi = max(ys) if ys else 1.0
    frame = _Frame((x_lo, x_hi), (0.0, y_hi * 1.08 or 1.0))
    body = frame.chrome(title, x_label, y_label)
    color = PALETTE[0]
    base = frame.ty(0.0)
    for i, c in enumerate(counts):
        if c <= 0:
            continue
        left = frame.tx(float(bin_edges[i]))
        right = frame.tx(float(bin_edges[i + 1]))
        top = frame.ty(float(c))
        body.append(f'<rect x="{_coord(left + 0.5)}" y="{_coord(top)}" '
                    f'width="{_coord(max(0.0, right - left - 1.0))}" '
                    f'height="{_coord(base - top)}" fill="{color}" '
                    'fill-opacity="0.75"/>')
    entries = [("observed", color)]
    if overlay is not None:
        ocolor = PALETTE[1]
        pts = " ".join(
            f"{_coord(frame.tx(float(x)))},{_coord(frame.ty(float(y)))}"
            for x, y in zip(overlay.xs, overlay.ys))
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{ocolor}" stroke-width="1.8"/>')
        entries.append((overlay.label, ocolor))
    body.extend(frame.legend(entries))
    return _document(body)
