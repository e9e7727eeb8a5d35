import math
import re
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdefect import (
    Branch,
    InvalidParams,
    ModelParams,
    Profile,
    RadialGrid,
    RenderSpec,
    ansatz_components,
    eigenvalue_chart_svg,
    explicit_profile,
    glyph_svg,
    minimize,
)
from qdefect.render import (
    _COLOR_STOPS, SVG_HEADER, _fixed, _text_rows, biaxiality_colors,
)
from qdefect.tensor import (
    ansatz_biaxiality, ansatz_eigenvalues, biaxiality, eigen3, frob_sq, trace_cubed,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def limit_params(k=1):
    return ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.0, R=1.0, k=k)


@pytest.fixture(scope="module")
def minus_profile():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 128)
    return p, explicit_profile(Branch.MINUS, p, grid)


def test_render_spec_validation():
    RenderSpec(style="rod", density=4)
    with pytest.raises(InvalidParams):
        RenderSpec(style="blob")
    with pytest.raises(InvalidParams):
        RenderSpec(density=3)
    with pytest.raises(InvalidParams):
        RenderSpec(size=10)
    RenderSpec(size=65536)
    for bad in (65537, 10**400):  # size / 2.0 of a 401-digit size overflows
        with pytest.raises(InvalidParams):
            RenderSpec(size=bad)
    RenderSpec(density=256, shift=0.5)
    with pytest.raises(InvalidParams):
        RenderSpec(density=257)
    for bad in (math.nan, math.inf, -math.inf, "abc", True, 10**400):
        with pytest.raises(InvalidParams):
            RenderSpec(style="box", shift=bad)
    RenderSpec(style="box", shift=np.float64(0.5))
    # one integer rule: NumPy integers pass; floats and bools do not
    RenderSpec(density=np.int64(8), size=np.int32(320))
    for kwargs in ({"density": 4.5}, {"density": 8.0}, {"density": True},
                   {"size": 640.0}, {"size": np.float64(640.0)}):
        with pytest.raises(InvalidParams):
            RenderSpec(**kwargs)


@pytest.mark.parametrize("k", [0, 0.5, 1.0, True])
def test_glyph_svg_rejects_a_k_that_model_params_rejects(minus_profile, k):
    with pytest.raises(InvalidParams):
        glyph_svg(minus_profile[1], k, RenderSpec(density=4))


@pytest.mark.parametrize("size", [-5, 0, 63, 65537, 640.0, 10.5, True])
def test_eigenvalue_chart_rejects_a_size_that_render_spec_rejects(minus_profile, size):
    with pytest.raises(InvalidParams):
        eigenvalue_chart_svg(minus_profile[1], size=size)


@pytest.mark.parametrize(
    "draw",
    [lambda prof: glyph_svg(prof, 1, RenderSpec(density=4)), eigenvalue_chart_svg],
    ids=["glyph_svg", "eigenvalue_chart_svg"],
)
def test_render_rejects_a_profile_whose_v_was_reassigned(draw):
    # a profile is frozen: the rebinding itself raises, so no mismatched profile reaches draw
    prof = explicit_profile(Branch.MINUS, limit_params(), RadialGrid.uniform(1.0, 32))
    with pytest.raises(FrozenInstanceError):
        prof.v = prof.v[:5]
    draw(prof)


def test_glyph_svg_is_valid_svg11(minus_profile):
    p, prof = minus_profile
    text = glyph_svg(prof, p.k, RenderSpec(density=8))
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"


def test_boundary_glyphs_align_with_director(minus_profile):
    # rods on the rim ring must align with n(phi) = (cos(k phi/2), sin(k phi/2))
    p, prof = minus_profile
    size = 640
    spec = RenderSpec(density=8, size=size)
    root = ET.fromstring(glyph_svg(prof, p.k, spec))
    cx = cy = size / 2.0
    px_scale = 0.45 * size / p.R
    checked = 0
    for line in root.iter(f"{SVG_NS}line"):
        if line.get("class") != "glyph":
            continue
        x1, y1 = float(line.get("x1")), float(line.get("y1"))
        x2, y2 = float(line.get("x2")), float(line.get("y2"))
        mx, my = (x1 + x2) / 2.0 - cx, cy - (y1 + y2) / 2.0
        r = math.hypot(mx, my) / px_scale
        if abs(r - p.R) > 1e-6:
            continue
        phi = math.atan2(my, mx) % (2.0 * math.pi)
        angle = math.atan2(-(y2 - y1), x2 - x1)  # svg y axis points down
        expected = 0.5 * p.k * phi
        diff = (angle - expected) % math.pi
        # svg coordinates carry three decimals; angle recovery is ~3e-5 rad
        assert min(diff, math.pi - diff) < 1e-4
        checked += 1
    assert checked >= 16


def test_core_glyph_is_isotropic_dot(minus_profile):
    # u(0) = 0 leaves the in-plane spectrum degenerate at the core
    p, prof = minus_profile
    size = 640
    root = ET.fromstring(glyph_svg(prof, p.k, RenderSpec(density=8, size=size)))
    dots = [
        el
        for el in root.iter(f"{SVG_NS}circle")
        if el.get("class") == "glyph-dot"
        and abs(float(el.get("cx")) - size / 2) < 1e-9
        and abs(float(el.get("cy")) - size / 2) < 1e-9
    ]
    assert len(dots) == 1


def test_box_style_edges_positive(minus_profile):
    p, prof = minus_profile
    root = ET.fromstring(glyph_svg(prof, p.k, RenderSpec(style="box", density=6)))
    boxes = [el for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "glyph-box"]
    assert len(boxes) > 20
    for box in boxes:
        assert float(box.get("width")) > 0.0
        assert float(box.get("height")) > 0.0


def test_eigenvalue_chart_has_three_curves(minus_profile):
    _, prof = minus_profile
    root = ET.fromstring(eigenvalue_chart_svg(prof))
    curves = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "eigencurve"]
    assert len(curves) == 3


def test_plus_branch_chart_shows_interior_crossing():
    # the out-of-plane eigenvalue of the plus branch crosses the planar one
    # at the interior uniaxial point r = R 3^(-1/|k|)
    p = limit_params(k=1)
    grid = RadialGrid.uniform(p.R, 256)
    prof = explicit_profile(Branch.PLUS, p, grid)
    root = ET.fromstring(eigenvalue_chart_svg(prof, size=640))
    pts = {}
    for el in root.iter(f"{SVG_NS}polyline"):
        if el.get("class") == "eigencurve":
            coords = np.array(
                [[float(v) for v in pair.split(",")] for pair in el.get("points").split()]
            )
            pts[el.get("id")] = coords
    lam_z = pts["lambda1"]
    lam_n = pts["lambda3"]
    assert np.array_equal(lam_z[:, 0], lam_n[:, 0])
    diff = lam_z[:, 1] - lam_n[:, 1]
    signs = np.sign(diff[np.abs(diff) > 1e-12])
    crossings = np.nonzero(np.diff(signs))[0]
    assert crossings.size == 1
    x_cross = lam_z[crossings[0], 0]
    # screen x of the analytic uniaxial radius R/3
    xs = lam_z[:, 0]
    r_cross = (x_cross - xs[0]) / (xs[-1] - xs[0]) * p.R
    assert r_cross == pytest.approx(p.R / 3.0, abs=0.02 * p.R)


def test_minus_branch_chart_has_no_interior_crossing():
    p = limit_params(k=1)
    grid = RadialGrid.uniform(p.R, 256)
    prof = explicit_profile(Branch.MINUS, p, grid)
    root = ET.fromstring(eigenvalue_chart_svg(prof))
    pts = {}
    for el in root.iter(f"{SVG_NS}polyline"):
        if el.get("class") == "eigencurve":
            coords = np.array(
                [[float(v) for v in pair.split(",")] for pair in el.get("points").split()]
            )
            pts[el.get("id")] = coords
    diff = pts["lambda1"][1:-1, 1] - pts["lambda3"][1:-1, 1]
    assert np.all(diff > 0.0) or np.all(diff < 0.0)


# ---------------------------------------------------------------------------
# oracle: the array colour ramp against a per-value loop
# ---------------------------------------------------------------------------

def biaxiality_color(beta: float) -> str:
    """One ramp colour per call: clip, find the segment, round each channel."""
    beta = min(max(beta, 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if beta <= x1:
            t = (beta - x0) / (x1 - x0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _COLOR_STOPS[-1][1]


def test_biaxiality_colors_match_the_scalar_ramp(rng):
    edges = [-0.1, 0.0, 0.25, 0.5, 0.75, 1.0, 1.1, math.nan]
    edges += [math.nextafter(0.5, -1.0), math.nextafter(0.5, 2.0)]
    values = np.concatenate([edges, rng.uniform(-0.2, 1.2, 10_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        colors = biaxiality_colors(values)
    assert colors == [biaxiality_color(b) for b in values.tolist()]
    assert colors[7] == colors[5] == "#b2182b"  # NaN keeps the last stop's colour
    assert biaxiality_colors(np.array([])) == []


# ---------------------------------------------------------------------------
# oracle: the closed-form frame against a per-glyph eigen3 reference
# ---------------------------------------------------------------------------

def eigen3_lattice(profile, params, density, size=640):
    """``(xy, lam, vecs, colour)`` from one ``eigen3`` solve per lattice point."""
    cx = cy = size / 2.0
    px_scale = 0.45 * size / params.R
    lattice = [(0.0, 0.0)] + [
        (params.R * j / density, 2.0 * math.pi * a / (4 * density))
        for j in range(1, density + 1)
        for a in range(4 * density)
    ]
    points = []
    for r, phi in lattice:
        u = float(np.interp(r, profile.grid.nodes, profile.u))
        v = float(np.interp(r, profile.grid.nodes, profile.v))
        q = ansatz_components(u, v, phi, params.k)
        lam, vecs = eigen3(q)
        xy = (cx + r * math.cos(phi) * px_scale, cy - r * math.sin(phi) * px_scale)
        beta = float(biaxiality(frob_sq(q), trace_cubed(q)))
        points.append((xy, lam, vecs, biaxiality_color(beta)))
    return points


def reference_glyphs(points, density, style, size=640):
    """Expected ``(tag, class, colour, width, points)`` per glyph, where
    ``points`` are the rod end points or the box corners in px."""
    cell = 0.9 * size / (2.0 * density + 1)
    gap_max = max(lam[2] - lam[1] for _, lam, _, _ in points)
    shift = 1.1 * abs(min(lam[0] for _, lam, _, _ in points))
    lam_span = max(lam[2] for _, lam, _, _ in points) + shift
    glyphs = []
    for (x, y), lam, vecs, color in points:
        if style == "rod":
            leading = vecs[:, 2]
            ip = math.hypot(leading[0], leading[1])
            length = cell * (lam[2] - lam[1]) / gap_max
            if ip < 1e-9 or length < 0.05 * cell:
                glyphs.append(("circle", "glyph-dot", color, 0.12 * cell, [(x, y)]))
                continue
            dx = leading[0] / ip * length / 2.0
            dy = leading[1] / ip * length / 2.0
            ends = [(x - dx, y + dy), (x + dx, y - dy)]
            glyphs.append(("line", "glyph", color, 0.16 * cell, ends))
        else:
            order = np.argsort(np.abs(vecs[2, :]))  # most in-plane axes first
            va = vecs[:, order[0]]
            wa = cell * (lam[order[0]] + shift) / lam_span
            wb = cell * (lam[order[1]] + shift) / lam_span
            ang = -math.degrees(math.atan2(va[1], va[0]))
            corners = _box_corners((x, y, ang), -wa / 2, -wb / 2, wa, wb)
            glyphs.append(("rect", "glyph-box", color, 0.5, corners))
    return glyphs


def _box_corners(transform, x0, y0, w, h):
    """Corners of an SVG rect under ``translate(tx ty) rotate(angle)``."""
    tx, ty, angle = transform
    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    return [
        (tx + c * px - s * py, ty + s * px + c * py)
        for px in (x0, x0 + w)
        for py in (y0, y0 + h)
    ]


def _nums(el, *names):
    return [float(el.get(name)) for name in names]


def parsed_glyphs(text):
    """``(tag, class, colour, width, points)`` per glyph of a rendered SVG."""
    glyphs = []
    for el in ET.fromstring(text):
        tag = el.tag.replace(SVG_NS, "")
        cls = el.get("class")
        if cls is None:  # the rim circle
            continue
        if tag == "circle":
            r, cx, cy = _nums(el, "r", "cx", "cy")
            glyphs.append((tag, cls, el.get("fill"), r, [(cx, cy)]))
        elif tag == "line":
            width, x1, y1, x2, y2 = _nums(el, "stroke-width", "x1", "y1", "x2", "y2")
            glyphs.append((tag, cls, el.get("stroke"), width, [(x1, y1), (x2, y2)]))
        else:
            transform = [
                float(t) for t in el.get("transform").replace("translate(", "")
                .replace(") rotate(", " ").rstrip(")").split()
            ]
            width, *rect = _nums(el, "stroke-width", "x", "y", "width", "height")
            glyphs.append((tag, cls, el.get("fill"), width, _box_corners(transform, *rect)))
    return glyphs


def _oracle_cases():
    for k in (-3, -2, -1, 1, 2, 3, 4):
        p = limit_params(k)
        grid = RadialGrid.uniform(p.R, 128)
        for branch in (Branch.MINUS, Branch.PLUS):
            yield f"k={k}-{branch.value}", p, explicit_profile(branch, p, grid)
    p = ModelParams(a2=1.0, b2=1.0, c2=1.0, L=0.01, R=1.0, k=1)
    prof, _ = minimize(p, RadialGrid.for_defect(p.R, 128, p.k))
    yield "b2=1-solved", p, prof


def test_glyphs_match_eigen3_reference():
    # rods: same end points in either order (endpoints swap where the
    # director is exactly diagonal and eigen3's sign is round-off);
    # boxes: same corner set (the in-plane axis order may differ)
    tol = 2e-3
    density = 8
    for name, p, prof in _oracle_cases():
        points = eigen3_lattice(prof, p, density)
        for style in ("rod", "box"):
            got = parsed_glyphs(glyph_svg(prof, p.k, RenderSpec(style=style, density=density)))
            want = reference_glyphs(points, density, style)
            assert len(got) == len(want) == 1 + 4 * density * density, (name, style)
            for g, w in zip(got, want):
                assert g[:3] == w[:3], (name, style)
                assert g[3] == pytest.approx(w[3], abs=tol), (name, style)
                dist = np.linalg.norm(
                    np.array(g[4])[:, None, :] - np.array(w[4])[None, :, :], axis=-1
                )
                assert np.all(dist.min(axis=0) < tol), (name, style)
                assert np.all(dist.min(axis=1) < tol), (name, style)


# ---------------------------------------------------------------------------
# byte identity: the glyph lattice and the chart against per-glyph and
# per-point formatting
# ---------------------------------------------------------------------------

def _per_glyph_colors(beta):
    """``biaxiality_colors`` as it was: one ``#rrggbb`` format per glyph."""
    stop_x = np.array([x for x, _ in _COLOR_STOPS])
    stop_rgb = np.array([c for _, c in _COLOR_STOPS], dtype=float)
    b = np.nan_to_num(np.clip(beta, 0.0, 1.0), nan=1.0)
    seg = np.searchsorted(stop_x[1:-1], b)
    x0 = stop_x[seg]
    t = (b - x0) / (stop_x[seg + 1] - x0)
    c0 = stop_rgb[seg]
    rgb = np.rint(c0 + t[:, None] * (stop_rgb[seg + 1] - c0)).astype(np.int64)
    code = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    return ["#%06x" % c for c in code.tolist()]


def _per_glyph_svg(profile, k, spec):
    """``glyph_svg`` as it was: colour, rod width and dot radius formatted
    per glyph."""
    size = spec.size
    cx = cy = size / 2.0
    radius = profile.grid.radius
    px_scale = 0.45 * size / radius
    m = 4 * spec.density
    r = np.repeat(radius * np.arange(spec.density + 1) / spec.density, m)[m - 1:]
    phi = np.concatenate([[0.0], np.tile(2.0 * np.pi * np.arange(m) / m, spec.density)])
    u = np.interp(r, profile.grid.nodes, profile.u)
    v = np.interp(r, profile.grid.nodes, profile.v)
    frame_lam = ansatz_eigenvalues(u, v)
    lam = np.sort(frame_lam, axis=-1)
    gap = lam[:, 2] - lam[:, 1]
    gap_max = float(np.max(gap)) or 1.0
    shift = spec.shift if spec.shift is not None else 1.1 * abs(float(np.min(lam[:, 0])))
    lam_span = float(np.max(lam[:, 2])) + shift or 1.0
    cell = 0.9 * size / (2.0 * spec.density + 1)
    colors = _per_glyph_colors(ansatz_biaxiality(u, v))
    x = (cx + r * np.cos(phi) * px_scale).tolist()
    y = (cy - r * np.sin(phi) * px_scale).tolist()
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
        leading = np.argmax(frame_lam, axis=-1)
        length = cell * gap / gap_max
        d = np.where((leading == 2)[:, None], n, n_perp) * (length / 2.0)[:, None]
        dot = (leading == 0) | (length < 0.05 * cell)
        for xi, yi, (dxi, dyi), is_dot, color in zip(x, y, d.tolist(), dot.tolist(), colors):
            if is_dot:
                parts.append(
                    f'<circle class="glyph-dot" cx="{xi:.3f}" cy="{yi:.3f}" '
                    f'r="{0.12 * cell:.3f}" fill="{color}"/>\n'
                )
            else:
                parts.append(
                    f'<line class="glyph" x1="{xi - dxi:.3f}" y1="{yi + dyi:.3f}" '
                    f'x2="{xi + dxi:.3f}" y2="{yi - dyi:.3f}" '
                    f'stroke="{color}" stroke-width="{0.16 * cell:.3f}" '
                    'stroke-linecap="round"/>\n'
                )
    else:
        sides = frame_lam[:, 1:] + shift
        wa = cell * sides[:, 1] / lam_span
        wb = cell * sides[:, 0] / lam_span
        ang = -np.degrees(np.arctan2(n[:, 1], n[:, 0]))
        for xi, yi, wai, wbi, angi, color in zip(
            x, y, wa.tolist(), wb.tolist(), ang.tolist(), colors
        ):
            parts.append(
                f'<rect class="glyph-box" x="{-wai / 2:.3f}" y="{-wbi / 2:.3f}" '
                f'width="{wai:.3f}" height="{wbi:.3f}" fill="{color}" '
                f'fill-opacity="0.85" stroke="#333333" stroke-width="0.5" '
                f'transform="translate({xi:.3f} {yi:.3f}) rotate({angi:.3f})"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def _per_point_polylines(profile, size):
    """The chart's three ``points`` attributes as they were: ``sx``/``sy``
    on one numpy scalar per point."""
    r = profile.grid.nodes
    lam = ansatz_eigenvalues(profile.u, profile.v)
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

    return [
        " ".join(f"{sx(rv):.2f},{sy(val):.2f}" for rv, val in zip(r, lam[:, idx]))
        for idx in range(3)
    ]


def _assert_same_text(got, want, name):
    """``got == want``, reporting the first differing line instead of a
    diff of two whole SVGs."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line, a, b = next(((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b), (0, "", ""))
        pytest.fail(f"{name}: line {line} differs:\n  got  {a}\n  want {b}")


@pytest.fixture(scope="module")
def oracle_profiles():
    return list(_oracle_cases())


def _oracle_specs(style, density):
    """The smallest, the default and the largest image size; boxes also
    with an explicit shift (valid for every oracle profile)."""
    for size in (64, 640, 65536):
        yield RenderSpec(style=style, density=density, size=size)
        if style == "box":
            yield RenderSpec(style=style, density=density, size=size, shift=1.5)


@pytest.mark.parametrize("density", [4, 16, 64])
@pytest.mark.parametrize("style", ["rod", "box"])
def test_glyph_svg_is_byte_identical_to_per_glyph_formatting(oracle_profiles, density, style):
    for spec in _oracle_specs(style, density):
        for name, p, prof in oracle_profiles:
            want = _per_glyph_svg(prof, p.k, spec)
            _assert_same_text(glyph_svg(prof, p.k, spec), want, f"{name}, {spec}")


@pytest.mark.parametrize("style", ["rod", "box"])
def test_glyph_svg_at_density_256_is_byte_identical_to_per_glyph_formatting(
    oracle_profiles, style
):
    # 262,145 glyphs: 64 blocks, the last one partial
    name, p, prof = oracle_profiles[-1]
    spec = RenderSpec(style=style, density=256)
    _assert_same_text(glyph_svg(prof, p.k, spec), _per_glyph_svg(prof, p.k, spec), name)


@pytest.mark.parametrize("size", [64, 640, 1000, 65536])
def test_eigenvalue_chart_is_byte_identical_to_per_point_formatting(oracle_profiles, size):
    for name, p, prof in oracle_profiles:
        got = re.findall(r'points="([^"]*)"', eigenvalue_chart_svg(prof, size=size, title=name))
        want = _per_point_polylines(prof, size)
        _assert_same_text("\n".join(got), "\n".join(want), name)


# ---------------------------------------------------------------------------
# the whole-column formatter against printf, and the memory it takes
# ---------------------------------------------------------------------------

def _fixed_strings(values, p):
    """``_fixed``'s text of each value, one string per value."""
    rows = _text_rows(_fixed(np.asarray(values, dtype=float), p), b"\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _assert_fixed_matches_printf(values, p):
    got = _fixed_strings(values, p)
    want = ["%.*f" % (p, v) for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"p = {p}: {len(bad)} values differ, first {bad[:3]}"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, exclude_min=True, exclude_max=True),
             min_size=1, max_size=64),
    st.sampled_from([2, 3]),
)
def test_fixed_matches_printf_on_any_float_below_1e6(values, p):
    _assert_fixed_matches_printf(np.array(values), p)


@pytest.mark.parametrize("p", [2, 3])
def test_fixed_matches_printf_at_ties_and_their_neighbours(rng, p):
    # decimal ties of either precision, binary fractions (exact ties among
    # them) and one ulp either side of each, over the whole domain
    odd = 2 * np.concatenate([np.arange(20_000), rng.integers(0, 10**9, 20_000)]) + 1
    sixteenths = np.concatenate([np.arange(20_000), rng.integers(0, 16 * 10**6, 20_000)])
    base = np.concatenate([odd / 2000, odd[odd < 2 * 10**8] / 200, sixteenths / 16])
    base = base[base < 1e6]
    near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    edge = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.0005, 0.005, 999999.9995,
            999999.995, 999999.9999999999, math.nextafter(1e6, 0.0)]
    values = np.concatenate([near, edge])
    values = values[values < 1e6]
    _assert_fixed_matches_printf(np.concatenate([values, -values]), p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e6, -1e6, 1e300])
def test_fixed_rejects_a_value_outside_its_domain(bad):
    for p in (2, 3):
        with pytest.raises(InvalidParams, match="cannot draw"):
            _fixed(np.array([1.0, bad, 2.0]), p)


@pytest.mark.parametrize("style", ["rod", "box"])
def test_glyph_svg_peak_memory_stays_within_three_times_its_text(minus_profile, style):
    # the text is written in blocks of glyphs: beside the blocks and their
    # joined copy, no whole-lattice array or list stays alive
    p, prof = minus_profile
    spec = RenderSpec(style=style, density=256)
    tracemalloc.start()
    try:
        text = glyph_svg(prof, p.k, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), f"peak {peak} B for {len(text)} B of text"


def _overflowing_profile():
    """The profile of an ``r,u,v`` CSV with ``u`` rising to 1.7e308."""
    r = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 65))
    r[0], r[-1] = 0.0, 1.0
    return Profile(RadialGrid(r), np.linspace(0.0, 1.7e308, 65), -np.ones(65))


def test_an_overflowing_profile_draws_no_nan():
    # rod lengths inf / inf and the chart's range overflow: each raises,
    # without a RuntimeWarning, instead of writing nan
    prof = _overflowing_profile()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParams, match="cannot draw nan"):
            glyph_svg(prof, 1, RenderSpec(style="rod"))
        with pytest.raises(InvalidParams, match="overflows"):
            glyph_svg(prof, 1, RenderSpec(style="box"))
        with pytest.raises(InvalidParams, match="eigenvalue range overflows"):
            eigenvalue_chart_svg(prof)
        # the padded range overflows at its low end only: no -inf tick label
        low = Profile(prof.grid, np.zeros(65), np.linspace(-1.6e308, 0.0, 65))
        with pytest.raises(InvalidParams, match="eigenvalue range overflows"):
            eigenvalue_chart_svg(low)
