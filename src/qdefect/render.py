"""SVG rendering of defect profiles: glyph lattices and eigenvalue charts.

Q-tensors are drawn as rod glyphs aligned with the leading eigenvector
(length proportional to the spectral gap, colour by biaxiality) or as
eigenvalue-shifted boxes; the automatic shift keeps every box edge positive
since a traceless spectrum always contains a negative eigenvalue, and a
given shift that does not, or whose box sides overflow, is rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, _is_int
from .params import check_k
from .reduced import Profile
from .tensor import ansatz_biaxiality, ansatz_eigenvalues

SVG_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)

# a character outside XML 1.0's Char production (a lone surrogate among them)
_NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

# blue -> grey -> red ramp for the biaxiality measure in [0, 1]
_COLOR_STOPS = [
    (0.0, (38, 84, 166)),
    (0.5, (200, 200, 200)),
    (1.0, (178, 24, 43)),
]


_STOP_X = np.array([x for x, _ in _COLOR_STOPS])
_STOP_RGB = np.array([c for _, c in _COLOR_STOPS], dtype=float)


def biaxiality_colors(beta: np.ndarray) -> list[str]:
    """``#rrggbb`` ramp colours of biaxiality values, in one array pass.

    Each value is clipped to [0, 1] and interpolated on the segment
    ``(x0, x1]`` that holds it, rounded half to even; NaN gets the last
    stop's colour.  Each distinct colour is formatted once.
    """
    b = np.nan_to_num(np.clip(beta, 0.0, 1.0), nan=1.0)
    seg = np.searchsorted(_STOP_X[1:-1], b)
    x0 = _STOP_X[seg]
    t = (b - x0) / (_STOP_X[seg + 1] - x0)
    c0 = _STOP_RGB[seg]
    rgb = np.rint(c0 + t[:, None] * (_STOP_RGB[seg + 1] - c0)).astype(np.int64)
    code = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    distinct, index = np.unique(code, return_inverse=True)
    names = np.array(["#%06x" % c for c in distinct.tolist()], dtype=object)
    return names[index].tolist()


@dataclass(frozen=True)
class RenderSpec:
    """Rendering options for the glyph lattice; frozen, so they are checked once, here."""

    style: str = "rod"
    density: int = 16
    size: int = 640
    shift: float | None = None  # box style: eigenvalue shift; None = auto

    def __post_init__(self):
        if self.style not in ("rod", "box"):
            raise InvalidParams(f"glyph style must be 'rod' or 'box', got {self.style!r}")
        if not (_is_int(self.density) and 4 <= self.density <= 256):  # 262,145 glyphs at 256
            raise InvalidParams("glyph density must be in [4, 256], an integer")
        if self.shift is not None and not np.isfinite(self.shift):
            raise InvalidParams(f"box shift must be finite, got {self.shift}")
        if not (_is_int(self.size) and 64 <= self.size <= 65536):
            raise InvalidParams("image size must be in [64, 65536] px, an integer")


def glyph_svg(profile: Profile, k: int, spec: RenderSpec) -> str:
    """Glyph-lattice rendering of the lifted two-mode field of index ``k/2``.

    The lattice is polar: ``density`` rings plus the centre point, out to
    the profile's last radius, which is drawn as the disk boundary.  Glyph
    axes, spectra and biaxiality come from the closed-form eigen-frame of
    ``u F_n + v F_3`` (``e3``, ``n_perp``, ``n(phi)``) and its invariants
    ``|Y|^2 = u^2 + v^2``, ``tr(Y^3) = v (v^2 - 3 u^2) / sqrt(6)``, not from
    a per-glyph eigensolve.
    """
    k = check_k(k)
    size = spec.size
    cx = cy = size / 2.0
    radius = profile.grid.radius
    px_scale = 0.45 * size / radius
    m = 4 * spec.density
    # the centre point, then 4 * density points on each ring
    r = np.repeat(radius * np.arange(spec.density + 1) / spec.density, m)[m - 1:]
    phi = np.concatenate([[0.0], np.tile(2.0 * np.pi * np.arange(m) / m, spec.density)])
    u = np.interp(r, profile.grid.nodes, profile.u)
    v = np.interp(r, profile.grid.nodes, profile.v)

    frame_lam = ansatz_eigenvalues(u, v)  # (lam_z, lam_perp, lam_n)
    lam = np.sort(frame_lam, axis=-1)  # ascending
    gap = lam[:, 2] - lam[:, 1]
    gap_max = float(np.max(gap)) or 1.0
    shift = spec.shift if spec.shift is not None else 1.1 * abs(float(np.min(lam[:, 0])))
    lam_span = float(np.max(lam[:, 2])) + shift or 1.0
    cell = 0.9 * size / (2.0 * spec.density + 1)
    colors = biaxiality_colors(ansatz_biaxiality(u, v))
    x = (cx + r * np.cos(phi) * px_scale).tolist()
    y = (cy - r * np.sin(phi) * px_scale).tolist()

    # in-plane frame axes n(phi), n_perp, signed so their largest entry is positive
    n = np.stack([np.cos(0.5 * k * phi), np.sin(0.5 * k * phi)], axis=-1)
    n_perp = np.stack([-n[:, 1], n[:, 0]], axis=-1)
    for a in (n, n_perp):
        a *= np.sign(np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1]))[:, None]

    parts = [SVG_HEADER.format(w=size, h=size)]
    parts.append(
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius * px_scale:.2f}" '
        'fill="none" stroke="#888888" stroke-width="1"/>\n'
    )
    if spec.style == "rod":
        leading = np.argmax(frame_lam, axis=-1)  # e3 leading: no planar axis
        length = cell * gap / gap_max
        d = np.where((leading == 2)[:, None], n, n_perp) * (length / 2.0)[:, None]
        dot = (leading == 0) | (length < 0.05 * cell)
        dot_r, stroke_w = f"{0.12 * cell:.3f}", f"{0.16 * cell:.3f}"
        for xi, yi, (dxi, dyi), is_dot, color in zip(x, y, d.tolist(), dot.tolist(), colors):
            if is_dot:
                parts.append(
                    f'<circle class="glyph-dot" cx="{xi:.3f}" cy="{yi:.3f}" '
                    f'r="{dot_r}" fill="{color}"/>\n'
                )
            else:
                parts.append(
                    f'<line class="glyph" x1="{xi - dxi:.3f}" y1="{yi + dyi:.3f}" '
                    f'x2="{xi + dxi:.3f}" y2="{yi - dyi:.3f}" '
                    f'stroke="{color}" stroke-width="{stroke_w}" '
                    'stroke-linecap="round"/>\n'
                )
    else:
        if not math.isfinite(cell * float(lam_span)):  # the largest box side would overflow
            raise InvalidParams(f"box shift {shift} overflows the box sides")
        sides = frame_lam[:, 1:] + shift  # (lam_perp, lam_n) + shift
        if not float(np.min(sides)) > 0.0:
            raise InvalidParams(
                f"box shift {shift} leaves a box side non-positive; "
                f"it must exceed {-float(np.min(frame_lam[:, 1:])):.6g}"
            )
        wa = cell * sides[:, 1] / lam_span
        wb = cell * sides[:, 0] / lam_span
        ang = -np.degrees(np.arctan2(n[:, 1], n[:, 0]))
        rows = zip(x, y, wa.tolist(), wb.tolist(), ang.tolist(), colors)
        for xi, yi, wai, wbi, angi, color in rows:
            parts.append(
                f'<rect class="glyph-box" x="{-wai / 2:.3f}" y="{-wbi / 2:.3f}" '
                f'width="{wai:.3f}" height="{wbi:.3f}" fill="{color}" '
                f'fill-opacity="0.85" stroke="#333333" stroke-width="0.5" '
                f'transform="translate({xi:.3f} {yi:.3f}) rotate({angi:.3f})"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def eigenvalue_chart_svg(profile: Profile, size: int = 640, title: str = "") -> str:
    """Line chart of the three frame eigenvalues against the radius, out to
    the profile's last radius; ``title`` is plain text.

    The curves follow the smooth frame axes (out-of-plane, planar
    perpendicular, planar parallel), so genuine eigenvalue crossings show
    up as curve intersections instead of sorting kinks.
    """
    if not (_is_int(size) and 64 <= size <= 65536):  # as RenderSpec checks it
        raise InvalidParams("image size must be in [64, 65536] px, an integer")
    r = profile.grid.nodes
    lam = ansatz_eigenvalues(profile.u, profile.v)  # (N+1, 3)
    w, h = size, int(size * 0.75)
    ml, mr, mt, mb = 60, 20, 30, 45
    lam_min = float(np.min(lam))
    lam_max = float(np.max(lam))
    pad = 0.08 * (lam_max - lam_min or 1.0)
    lo, hi = lam_min - pad, lam_max + pad

    def sx(rv):
        return ml + (rv / r[-1]) * (w - ml - mr)

    def sy(val):
        return mt + (hi - val) / (hi - lo) * (h - mt - mb)

    colors = ("#2654a6", "#b2182b", "#1a7a3c")
    names = ("lambda1", "lambda2", "lambda3")
    parts = [SVG_HEADER.format(w=w, h=h)]
    if title:  # plain text: non-XML characters as U+FFFD, markup escaped, non-ASCII as refs
        title = _NON_XML_CHAR.sub("\ufffd", title)
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        title = title.encode("ascii", "xmlcharrefreplace").decode("ascii")
        parts.append(
            f'<text x="{w / 2:.0f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>\n'
        )
    # axes
    y0 = sy(0.0) if lo < 0.0 < hi else sy(lo)
    parts.append(
        f'<line x1="{ml}" y1="{y0:.2f}" x2="{w - mr}" y2="{y0:.2f}" '
        'stroke="#444444" stroke-width="1"/>\n'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" '
        'stroke="#444444" stroke-width="1"/>\n'
    )
    for frac in (0.0, 0.5, 1.0):
        rv = frac * r[-1]
        parts.append(
            f'<text x="{sx(rv):.1f}" y="{h - mb + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{rv:.2f}</text>\n'
        )
    for val in (lo, 0.0, hi) if lo < 0.0 < hi else (lo, hi):
        parts.append(
            f'<text x="{ml - 6}" y="{sy(val) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{val:.2f}</text>\n'
        )
    parts.append(
        f'<text x="{(ml + w - mr) / 2:.0f}" y="{h - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">r</text>\n'
    )
    # whole columns: each x once for the three curves, each y once
    xs = [f"{x:.2f}" for x in sx(r).tolist()]
    for idx in range(3):
        ys = [f"{y:.2f}" for y in sy(lam[:, idx]).tolist()]
        pts = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
        parts.append(
            f'<polyline class="eigencurve" id="{names[idx]}" points="{pts}" '
            f'fill="none" stroke="{colors[idx]}" stroke-width="1.6"/>\n'
        )
        parts.append(
            f'<text x="{w - mr - 4}" y="{mt + 14 * (idx + 1)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{colors[idx]}">'
            f"{names[idx]}</text>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)
