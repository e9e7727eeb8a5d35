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

from .errors import InvalidParams, _is_int, _is_real
from .params import check_k
from .reduced import Profile
from .tensor import ansatz_biaxiality, ansatz_eigenvalues

SVG_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)

# a character outside XML 1.0's Char production (a lone surrogate among them)
_NON_XML_CHAR = "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"

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
    stop's colour.
    """
    b = np.nan_to_num(np.clip(beta, 0.0, 1.0), nan=1.0)
    seg = np.searchsorted(_STOP_X[1:-1], b)
    x0 = _STOP_X[seg]
    t = (b - x0) / (_STOP_X[seg + 1] - x0)
    c0 = _STOP_RGB[seg]
    rgb = np.rint(c0 + t[:, None] * (_STOP_RGB[seg + 1] - c0)).astype(np.int64)
    return ["#%06x" % c for c in ((rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]).tolist()]


# printf's "%03d" ("007\0"), "%d" ("7\0\0\0") and "." with 3 or 2 decimals of 0..999 as
# uint32 words, NUL-padded; numpy arithmetic here would page in its uint32 loops at import
_N = tuple(range(1000))
_GROUPS = np.frombuffer(b"%03d\0" * 1000 % _N, "<u4")
_SHORT = np.frombuffer((b"%-3d\0" * 1000 % _N).replace(b" ", b"\0"), "<u4")
_DECIMALS = {3: np.frombuffer(b".%03d" * 1000 % _N, "<u4"),
             2: np.frombuffer(b".%02d\0" * 100 % _N[:100], "<u4")}


def _fixed(x: np.ndarray, p: int) -> np.ndarray:
    """``'%.{p}f' % x`` (``p`` = 2 or 3) of each value as 12 NUL-padded bytes; a value
    not finite or not below 1e6 in magnitude raises.  ``rint(|x| 10^p)`` is exact there
    but within 1e-6 of a tie, where the error of ``|x| 10^p`` (at most 1.2e-7) can decide
    it: those values, and any that round up to 1e6, take ``'%.{p}f'`` itself."""
    inside = np.abs(x) < 1e6
    if not np.all(inside):
        raise InvalidParams(f"cannot draw {x[~inside][0]}: the profile's geometry overflows")
    t = np.abs(x) * 10**p
    n = np.rint(t)
    whole, frac = np.divmod(n.astype(np.int64), 10**p)
    hi, lo = np.divmod(whole, 1000)
    sign = np.where(np.signbit(x), np.uint32(45), np.uint32(0))  # "-", also of -0.0
    words = [np.where(hi > 0, _SHORT.take(hi, mode="clip") << 8 | sign, sign),
             np.where(hi > 0, _GROUPS[lo], _SHORT[lo]), _DECIMALS[p][frac]]
    text = np.stack(words, axis=-1).astype("<u4", copy=False).view(np.uint8)
    for i in np.flatnonzero((np.abs(t - n) > 0.5 - 1e-6) | (whole >= 10**6)).tolist():
        text[i] = np.frombuffer((b"%.*f" % (p, x[i])).ljust(12, b"\0"), np.uint8)
    return text


def _text_rows(*parts, p: int = 3) -> np.ndarray:
    """Rows of ``parts`` side by side, NUL-padded: ``bytes`` on every row, uint8
    ``(n, w)`` arrays as text columns, float arrays as ``'%.{p}f'`` columns."""
    cols = [c if isinstance(c, bytes) or c.dtype == np.uint8 else _fixed(c, p) for c in parts]
    n = max(len(c) for c in cols if isinstance(c, np.ndarray))
    return np.concatenate([np.broadcast_to(np.frombuffer(c, np.uint8), (n, len(c)))
                           if isinstance(c, bytes) else c for c in cols], axis=1)


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
        if self.shift is not None and not (_is_real(self.shift) and np.isfinite(self.shift)):
            raise InvalidParams(f"box shift must be finite, got {self.shift}")
        if not (_is_int(self.size) and 64 <= self.size <= 65536):
            raise InvalidParams("image size must be in [64, 65536] px, an integer")


@np.errstate(all="ignore")  # an overflow shows as a non-finite drawn number, which raises
def glyph_svg(profile: Profile, k: int, spec: RenderSpec) -> str:
    """Glyph-lattice rendering of the lifted two-mode field of index ``k/2``.

    The lattice is polar: ``density`` rings plus the centre point, out to
    the profile's last radius, which is drawn as the disk boundary.  Glyph
    axes, spectra and biaxiality come from the closed-form eigen-frame of
    ``u F_n + v F_3`` (``e3``, ``n_perp``, ``n(phi)``) and its invariants
    ``|Y|^2 = u^2 + v^2``, ``tr(Y^3) = v (v^2 - 3 u^2) / sqrt(6)``, not from
    a per-glyph eigensolve.  The text is written in blocks of glyphs.
    """
    k = check_k(k)
    size = spec.size
    cx = cy = size / 2.0
    radius = profile.grid.radius
    px_scale = 0.45 * size / radius
    m = 4 * spec.density
    ring_r = radius * np.arange(spec.density + 1) / spec.density
    phi = 2.0 * np.pi * np.arange(m) / m  # the centre point takes angle 0
    # in-plane frame axes n(phi), n_perp, signed so their largest entry is positive
    n = np.stack([np.cos(0.5 * k * phi), np.sin(0.5 * k * phi)], axis=-1)
    n_perp = np.stack([-n[:, 1], n[:, 0]], axis=-1)
    for a in (n, n_perp):
        a *= np.sign(np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1]))[:, None]

    u = np.interp(ring_r, profile.grid.nodes, profile.u)
    v = np.interp(ring_r, profile.grid.nodes, profile.v)
    frame_lam = ansatz_eigenvalues(u, v)  # (lam_z, lam_perp, lam_n)
    lam = np.sort(frame_lam, axis=-1)  # ascending
    gap = lam[:, 2] - lam[:, 1]
    gap_max = float(np.max(gap)) or 1.0
    shift = spec.shift if spec.shift is not None else 1.1 * abs(float(np.min(lam[:, 0])))
    lam_span = float(np.max(lam[:, 2])) + shift or 1.0
    cell = 0.9 * size / (2.0 * spec.density + 1)
    color = np.array(biaxiality_colors(ansatz_biaxiality(u, v)), "S7").view(np.uint8).reshape(-1, 7)
    count = 1 + spec.density * m  # the centre point, then m points on each ring
    cuts = {*range(0, count, 4096), count}  # blocks: O(4096) working memory beside the text
    if spec.style == "rod":
        leading = np.argmax(frame_lam, axis=-1)  # e3 leading: no planar axis
        length = cell * gap / gap_max
        dot = (leading == 0) | (length < 0.05 * cell)
        cuts.update((1 + m * np.flatnonzero(np.diff(dot))).tolist())  # rods turn into dots
        line_tail = f'" stroke-width="{0.16 * cell:.3f}" stroke-linecap="round"/>\n'.encode()
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
        # the box of each ring, as text up to the translation, and each angle's rotation
        box = _text_rows(b'<rect class="glyph-box" x="', -wa / 2, b'" y="', -wb / 2, b'" width="',
                         wa, b'" height="', wb, b'" fill="', color, b'" fill-opacity="0.85" '
                         b'stroke="#333333" stroke-width="0.5" transform="translate(')
        rotate = _text_rows(b") rotate(", -np.degrees(np.arctan2(n[:, 1], n[:, 0])), b')"/>\n')

    parts = [SVG_HEADER.format(w=size, h=size), f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
             f'r="{radius * px_scale:.2f}" fill="none" stroke="#888888" stroke-width="1"/>\n']
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        g = np.arange(lo, hi)
        ri, ai = (g + m - 1) // m, np.maximum(g - 1, 0) % m  # ring and angle of each glyph
        x = cx + ring_r[ri] * np.cos(phi)[ai] * px_scale
        y = cy - ring_r[ri] * np.sin(phi)[ai] * px_scale
        if spec.style == "box":
            rows = _text_rows(box[ri], x, b" ", y, rotate[ai])
        elif dot[ri[0]]:  # a block is all dots or all rods
            rows = _text_rows(b'<circle class="glyph-dot" cx="', x, b'" cy="', y,
                              f'" r="{0.12 * cell:.3f}" fill="'.encode(), color[ri], b'"/>\n')
        else:
            d = np.where((leading == 2)[ri, None], n[ai], n_perp[ai]) * (length / 2.0)[ri, None]
            rows = _text_rows(b'<line class="glyph" x1="', x - d[:, 0], b'" y1="', y + d[:, 1],
                              b'" x2="', x + d[:, 0], b'" y2="', y - d[:, 1], b'" stroke="',
                              color[ri], line_tail)
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))  # unpadded
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
    with np.errstate(all="ignore"):  # an overflow is rejected below
        lam = ansatz_eigenvalues(profile.u, profile.v)  # (N+1, 3)
    w, h = size, int(size * 0.75)
    ml, mr, mt, mb = 60, 20, 30, 45
    lam_min = float(np.min(lam))
    lam_max = float(np.max(lam))
    pad = 0.08 * (lam_max - lam_min or 1.0)
    lo, hi = lam_min - pad, lam_max + pad
    if not math.isfinite(hi - lo):
        raise InvalidParams("the profile's eigenvalue range overflows the chart")

    def sx(rv):
        return ml + (rv / r[-1]) * (w - ml - mr)

    def sy(val):
        return mt + (hi - val) / (hi - lo) * (h - mt - mb)

    colors = ("#2654a6", "#b2182b", "#1a7a3c")
    names = ("lambda1", "lambda2", "lambda3")
    parts = [SVG_HEADER.format(w=w, h=h)]
    if title:  # plain text: non-XML characters as U+FFFD, markup escaped, non-ASCII as refs
        title = re.sub(_NON_XML_CHAR, "\ufffd", title)
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
    xs = _fixed(sx(r), 2)
    for idx in range(3):
        pts = _text_rows(xs, b",", sy(lam[:, idx]), b" ", p=2).tobytes().translate(None, b"\0")
        pts = pts.decode("ascii")[:-1]
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
