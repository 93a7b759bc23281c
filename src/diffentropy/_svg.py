"""Minimal self-contained SVG charts (polylines and scatters).

Hand-rolled on purpose: output is deterministic, has no external assets, and
stays small.  This backs the CLI's optional figure emission; it is not a
general plotting library.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "scatter_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 44
WIDTH, HEIGHT = 720, 480
DOT_RADIUS = 1.6


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # a step below half the float spacing at v never moves it
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    return "%g" % round(v, 10)


class _Frame:
    def __init__(self, xs, ys):
        self.x0 = min(float(np.min(x)) for x in xs)
        self.x1 = max(float(np.max(x)) for x in xs)
        self.y0 = min(float(np.min(y)) for y in ys)
        self.y1 = max(float(np.max(y)) for y in ys)
        if self.x1 == self.x0:
            self.x0, self.x1 = self.x0 - 0.5, self.x1 + 0.5
        if self.y1 == self.y0:
            self.y0, self.y1 = self.y0 - 0.5, self.y1 + 0.5
        pad = 0.04 * (self.y1 - self.y0)
        self.y0 -= pad
        self.y1 += pad

    def px(self, x):
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)


def _chrome(frame: _Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    w, h = WIDTH, HEIGHT
    parts = [
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{w - MARGIN_L - MARGIN_R}" '
        f'height="{h - MARGIN_T - MARGIN_B}" fill="none" stroke="#444" stroke-width="1"/>',
    ]
    parts.append(f'<text x="{w / 2:g}" y="20" text-anchor="middle" font-size="14" '
                 f'font-family="sans-serif">{title}</text>')
    for tick in _nice_ticks(frame.x0, frame.x1):
        px = frame.px(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{h - MARGIN_B}" x2="{px:.2f}" '
                     f'y2="{h - MARGIN_B + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px:.2f}" y="{h - MARGIN_B + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>')
    for tick in _nice_ticks(frame.y0, frame.y1):
        py = frame.py(tick)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.2f}" x2="{MARGIN_L}" '
                     f'y2="{py:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{py + 3:.2f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>')
    parts.append(f'<text x="{(MARGIN_L + w - MARGIN_R) / 2:g}" y="{h - 8}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    y_mid = (MARGIN_T + h - MARGIN_B) / 2
    parts.append(f'<text x="14" y="{y_mid:g}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 14 {y_mid:g})">{ylabel}</text>')
    return parts


def _legend(labels: list[str]) -> list[str]:
    parts = []
    for i, label in enumerate(labels):
        y = MARGIN_T + 14 + 14 * i
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<line x1="{WIDTH - 150}" y1="{y - 4}" x2="{WIDTH - 130}" y2="{y - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 124}" y="{y}" font-size="10" '
                     f'font-family="sans-serif">{label}</text>')
    return parts


def _document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render ``(label, x, y)`` triples as colored polylines with a legend."""
    series = [(label, np.asarray(x, float), np.asarray(y, float)) for label, x, y in series]
    frame = _Frame([x for _, x, _ in series], [y for _, _, y in series])
    body = _chrome(frame, title, xlabel, ylabel)
    for i, (_, x, y) in enumerate(series):
        pts = " ".join("%.2f,%.2f" % p for p in zip(frame.px(x).tolist(), frame.py(y).tolist()))
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.5"/>')
    body.extend(_legend([label for label, _, _ in series]))
    return _document(body)


def scatter_chart(groups, title: str, xlabel: str, ylabel: str) -> str:
    """Render ``(label, x, y)`` point groups as colored dots."""
    groups = [(label, np.asarray(x, float), np.asarray(y, float)) for label, x, y in groups]
    frame = _Frame([x for _, x, _ in groups], [y for _, _, y in groups])
    body = _chrome(frame, title, xlabel, ylabel)
    for i, (_, x, y) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        for a, b in zip(frame.px(x).tolist(), frame.py(y).tolist()):
            body.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="{DOT_RADIUS:g}" fill="{color}"/>')
    body.extend(_legend([label for label, _, _ in groups]))
    return _document(body)
