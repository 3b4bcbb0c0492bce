"""Minimal deterministic SVG box plots (inter-quartile range only).

No external plotting dependency: each figure is a pure function of its
inputs, with fixed canvas geometry and fixed-precision coordinates, so
rerunning an experiment rewrites byte-identical files.  Boxes span the
first to third quartile with a median line; whiskers and outliers are
deliberately omitted.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .errors import EmptyInput

__all__ = ["box_stats", "render_boxplot"]

_WIDTH = 480.0
_HEIGHT = 320.0
_MARGIN_LEFT = 86.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 52.0
_BOX_WIDTH = 42.0
_TICKS = 5

_LOG_SWITCH_RATIO = 50.0


def box_stats(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (linear interpolation).

    The steps of ``np.percentile(values, [25, 50, 75])`` in Python floats
    over a sorted list, so the bits are numpy's, except for the sign of a
    zero quartile where both 0.0 and -0.0 occur (numpy's partition leaves
    them in no set order).
    """
    values = sorted(float(v) for v in values)
    if not values:
        raise EmptyInput("box plot group has no values")
    if not all(map(math.isfinite, values)):
        raise ValueError("box plot values must all be finite")
    if len(values) == 1:
        return values[0], values[0], values[0]
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        i, t = divmod(q * (len(values) - 1), 1.0)
        a, b = values[int(i)], values[int(i) + 1]
        quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return tuple(quartiles)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(value: float) -> str:
    if value == 0.0:
        return "0"
    magnitude = abs(value)
    if 1e-3 <= magnitude < 1e4:
        return f"{value:.4g}"
    return f"{value:.2e}"


def render_boxplot(title: str, ylabel: str, groups) -> str:
    """Render labeled IQR boxes side by side; returns the SVG text.

    ``groups`` is a sequence of ``(label, values)`` pairs.  A group with no
    values (a score undefined in every trial) is drawn without a box, its
    label marked ``(undefined)``.  The y axis switches to log10 when every
    quartile is positive and the quartile range spans more than a factor of
    50, which keeps arms of very different magnitude visible on one figure.
    """
    groups = [(str(label), box_stats(values) if len(values) else None)
              for label, values in groups]
    if not groups:
        raise EmptyInput("box plot needs at least one group")
    quartiles = [q for _, stats in groups if stats for q in stats] or [0.0]
    lo, hi = min(quartiles), max(quartiles)
    use_log = lo > 0.0 and hi / lo > _LOG_SWITCH_RATIO
    if use_log:
        transform = math.log10
    else:
        transform = float
    t_lo, t_hi = transform(lo), transform(hi)
    if t_hi == t_lo:
        pad = 1.0 if t_hi == 0.0 else abs(t_hi) * 0.1
    else:
        pad = (t_hi - t_lo) * 0.1
    t_lo -= pad
    t_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def y_pos(value: float) -> float:
        fraction = (transform(value) - t_lo) / (t_hi - t_lo)
        return _MARGIN_TOP + plot_h * (1.0 - fraction)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        'fill="white"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
        f'<text x="16" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
        f'{escape(ylabel)}{" (log scale)" if use_log else ""}</text>',
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(_MARGIN_TOP)}" '
        f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(_MARGIN_TOP + plot_h)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{_fmt(_MARGIN_TOP + plot_h)}" '
        'stroke="black" stroke-width="1"/>',
    ]

    for i in range(_TICKS):
        t_value = t_lo + (t_hi - t_lo) * i / (_TICKS - 1)
        value = 10.0 ** t_value if use_log else t_value
        y = _MARGIN_TOP + plot_h * (1.0 - i / (_TICKS - 1))
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 4)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(y)}" stroke="black" '
            'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" '
            'text-anchor="end" font-family="sans-serif" font-size="10">'
            f'{escape(_tick_label(value))}</text>'
        )

    slot = plot_w / len(groups)
    for i, (label, stats) in enumerate(groups):
        cx = _MARGIN_LEFT + slot * (i + 0.5)
        if stats is None:
            label += " (undefined)"
        else:
            x0 = cx - _BOX_WIDTH / 2
            y_q1, y_med, y_q3 = map(y_pos, stats)
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y_q3)}" width="{_fmt(_BOX_WIDTH)}" '
                f'height="{_fmt(max(y_q1 - y_q3, 0.5))}" fill="#9ecae1" '
                'stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y_med)}" '
                f'x2="{_fmt(x0 + _BOX_WIDTH)}" y2="{_fmt(y_med)}" '
                'stroke="black" stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(_HEIGHT - _MARGIN_BOTTOM + 18)}" '
            'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
