"""Minimal hand-rolled SVG plots (no raster or plotting dependencies)."""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-12 * abs(step) else t)
        t += step
    return out


def _widen(lo: float, hi: float):
    """(lo, hi), or (lo, lo + 1) when hi - lo is at most 1e-9 of their magnitude (zero
    included): _ticks steps by about a fifth of the span, and a step below half the
    spacing of the doubles at lo would never advance."""
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi)):
        return lo, lo + 1
    return lo, hi


class SvgFigure:
    """Fixed-size line/scatter plot with linear or log-y axes."""

    def __init__(self, title: str, xlabel: str, ylabel: str, logy: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logy = logy
        self.lines = []     # (xs, ys, label, color)
        self.scatters = []  # (xs, ys, label, color)

    def _color(self):
        return _COLORS[(len(self.lines) + len(self.scatters)) % len(_COLORS)]

    def add_line(self, xs, ys, label: str = ""):
        self.lines.append((list(xs), list(ys), label, self._color()))

    def add_scatter(self, xs, ys, label: str = ""):
        self.scatters.append((list(xs), list(ys), label, self._color()))

    def _bounds(self):
        xs, ys = [], []
        for sx, sy, _, _ in self.lines + self.scatters:
            for x, y in zip(sx, sy):
                if self.logy and y <= 0:
                    continue
                xs.append(x)
                ys.append(math.log10(y) if self.logy else y)
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = _widen(min(xs), max(xs))
        y0, y1 = _widen(min(ys), max(ys))
        padx = 0.03 * (x1 - x0)
        pady = 0.05 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        pw = _W - _ML - _MR
        ph = _H - _MT - _MB

        def px(x):
            return _ML + (x - x0) / (x1 - x0) * pw

        def py(y):
            yy = math.log10(y) if self.logy else y
            return _MT + (y1 - yy) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="15">'
            f'{self.title}</text>',
        ]
        # axes box and ticks
        parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                     'fill="none" stroke="black"/>')
        for t in _ticks(x0, x1):
            xp = px(t)
            parts.append(f'<line x1="{xp:.1f}" y1="{_MT + ph}" x2="{xp:.1f}" '
                         f'y2="{_MT + ph + 5}" stroke="black"/>')
            parts.append(f'<text x="{xp:.1f}" y="{_MT + ph + 18}" '
                         f'text-anchor="middle">{t:g}</text>')
        for t in _ticks(y0, y1):
            yp = _MT + (y1 - t) / (y1 - y0) * ph
            label = f"1e{t:g}" if self.logy else f"{t:g}"
            parts.append(f'<line x1="{_ML - 5}" y1="{yp:.1f}" x2="{_ML}" '
                         f'y2="{yp:.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML - 8}" y="{yp + 4:.1f}" '
                         f'text-anchor="end">{label}</text>')
        parts.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" '
                     f'text-anchor="middle">{self.xlabel}</text>')
        parts.append(f'<text x="18" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 18 {_MT + ph / 2:.0f})">{self.ylabel}</text>')

        for xs, ys, label, color in self.lines:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                           if not (self.logy and y <= 0))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        for xs, ys, label, color in self.scatters:
            for x, y in zip(xs, ys):
                if self.logy and y <= 0:
                    continue
                parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                             f'fill="{color}" fill-opacity="0.8"/>')

        legend_y = _MT + 14
        for xs, ys, label, color in self.lines + self.scatters:
            if not label:
                continue
            parts.append(f'<rect x="{_ML + pw - 150}" y="{legend_y - 9}" width="12" '
                         f'height="12" fill="{color}"/>')
            parts.append(f'<text x="{_ML + pw - 133}" y="{legend_y + 1}">{label}</text>')
            legend_y += 17
        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())
