"""Algebra of the Q-tensor state space (3x3 real symmetric traceless).

Component arrays are the package's one tensor representation: a tensor
is its five coordinates in the orthonormal basis

* ``F_3 = sqrt(3/2) (e3 e3 - I/3)``,
* ``E1 = (e1 e1 - e2 e2) / sqrt(2)``, ``E2 = (e1 e2 + e2 e1) / sqrt(2)``,
* ``E3 = (e1 e3 + e3 e1) / sqrt(2)``, ``E4 = (e2 e3 + e3 e2) / sqrt(2)``,

in that order, so symmetry and tracelessness hold by construction and the
Frobenius product ``tr(A B)`` is the dot product of coordinates.  Every
helper takes and returns arrays coordinates first, ``(5, ...)``, a single
tensor ``(5,)`` and a field alike, and none transposes or materialises 3x3
matrices; :func:`components_to_matrix` builds them where a matrix is wanted.

The two-mode orthonormal frame used throughout the package is ``F_3`` and

* ``F_n(phi) = sqrt(2) (n n - I2/2) = cos(k phi) E1 + sin(k phi) E2`` with
  the planar director ``n = (cos(k phi / 2), sin(k phi / 2), 0)``;

the escape mode ``(n e3 + e3 n) / sqrt(2) = cos(k phi / 2) E3 + sin(k phi / 2) E4``
completes it on the tensors that tilt ``n`` out of plane.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams
from .params import ModelParams

_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)

F3_COMPONENTS = np.array([1.0, 0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# vectorized component helpers
# ---------------------------------------------------------------------------

def frob_dot(a, b):
    """Frobenius inner product ``tr(A B)``: the dot product of the coordinates."""
    a0, a1, a2, a3, a4 = np.asarray(a)
    b0, b1, b2, b3, b4 = np.asarray(b)
    return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4


def frob_sq(c):
    """Squared Frobenius norm ``|Q|^2 = tr(Q^2)`` for components ``(5, ...)``."""
    return frob_dot(c, c)


def trace_cubed(c):
    """``tr(Q^3)`` in closed form in the coordinates ``(v, x1, x2, x3, x4)``:
    ``v (v^2 - 3 (x1^2 + x2^2) + 3 (x3^2 + x4^2) / 2) / sqrt(6)
    + 3 (x1 (x3^2 - x4^2) + 2 x2 x3 x4) / (2 sqrt(2))``."""
    v, x1, x2, x3, x4 = np.asarray(c)
    planar = x1 * x1 + x2 * x2
    tilt = x3 * x3 + x4 * x4
    twist = x1 * (x3 * x3 - x4 * x4) + 2.0 * x2 * x3 * x4
    return v * (v * v - 3.0 * planar + 1.5 * tilt) / _SQRT6 + (1.5 / _SQRT2) * twist


def deviatoric_square(c):
    """Components ``tr(Q^2 E)`` of ``Q^2 - |Q|^2/3 I`` (the traceless part of
    ``Q^2``), in closed form in the coordinates ``(v, x1, x2, x3, x4)``."""
    v, x1, x2, x3, x4 = np.asarray(c)
    out = np.empty((5,) + v.shape)
    out[0] = (v * v - x1 * x1 - x2 * x2 + 0.5 * (x3 * x3 + x4 * x4)) / _SQRT6
    out[1] = -2.0 * v * x1 / _SQRT6 + (x3 * x3 - x4 * x4) / (2.0 * _SQRT2)
    out[2] = -2.0 * v * x2 / _SQRT6 + x3 * x4 / _SQRT2
    out[3] = (x1 * x3 + x2 * x4) / _SQRT2 + v * x3 / _SQRT6
    out[4] = (x2 * x3 - x1 * x4) / _SQRT2 + v * x4 / _SQRT6
    return out


def bulk_density(c, params: ModelParams):
    """Bulk energy density ``f(Q) = -a2 |Q|^2 / 2 - b2 tr(Q^3) / 3 + c2 |Q|^4 / 4``
    evaluated on component arrays.

    The cubic term is formed only for ``b2 != 0``; at ``b2 = 0`` the value is
    bit for bit the full formula's wherever that is finite, and a ``tr Q^3``
    that overflows no longer turns the density into NaN.
    """
    t = frob_sq(c)
    f = -0.5 * params.a2 * t
    if params.b2 != 0.0:
        f -= (params.b2 / 3.0) * trace_cubed(c)
    return f + 0.25 * params.c2 * t * t


def components_to_matrix(c):
    """Reconstruct 3x3 matrices from components ``(5, ...) -> (..., 3, 3)``."""
    v, x1, x2, x3, x4 = np.asarray(c)
    d = v / _SQRT6
    p = x1 / _SQRT2
    q11, q22, q33 = p - d, -p - d, 2.0 * d
    q12, q13, q23 = x2 / _SQRT2, x3 / _SQRT2, x4 / _SQRT2
    return np.stack(
        [
            np.stack([q11, q12, q13], axis=-1),
            np.stack([q12, q22, q23], axis=-1),
            np.stack([q13, q23, q33], axis=-1),
        ],
        axis=-2,
    )


# ---------------------------------------------------------------------------
# frames and boundary data
# ---------------------------------------------------------------------------

def _planar_pair(angle, first: int):
    """``cos(angle) E_first + sin(angle) E_(first+1)`` for scalar or array ``angle``."""
    angle = np.asarray(angle, dtype=float)
    out = np.zeros((5,) + angle.shape)
    out[first] = np.cos(angle)
    out[first + 1] = np.sin(angle)
    return out


def frame_fn_components(phi, k: int):
    """Components of ``F_n(phi) = cos(k phi) E1 + sin(k phi) E2`` for scalar or array ``phi``."""
    return _planar_pair(k * np.asarray(phi, dtype=float), 1)


def frame_escape_components(phi, k: int):
    """Components of the escape mode ``(n e3 + e3 n) / sqrt(2) = cos(k phi / 2) E3
    + sin(k phi / 2) E4`` of the planar director ``n(phi)``."""
    return _planar_pair(0.5 * k * np.asarray(phi, dtype=float), 3)


# ---------------------------------------------------------------------------
# spectral analysis
# ---------------------------------------------------------------------------

def eigen3(c):
    """Eigenvalues (ascending) and orthonormal eigenvectors of one tensor.

    ``c`` holds the components of one tensor, a finite array of shape
    ``(5,)``; anything else is :class:`InvalidParams`.  Returns
    ``(lam, vecs)`` from LAPACK's symmetric solver, with ``vecs[:, i]`` the
    unit eigenvector for ``lam[i]``, signed so its largest-magnitude entry
    is positive.  No library path calls it; perfbench's tracer resolves it.
    """
    try:
        c = np.asarray(c, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParams("eigen3 needs a numeric (5,) component array") from None
    if c.shape != (5,) or not np.all(np.isfinite(c)):
        raise InvalidParams(f"eigen3 needs 5 finite components, got shape {c.shape}")
    lam, vecs = np.linalg.eigh(components_to_matrix(c))
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)]
    return lam, vecs * np.where(lead < 0.0, -1.0, 1.0)


def biaxiality(nsq, t3):
    """Biaxiality ``beta = 1 - 6 tr(Q^3)^2 / |Q|^6`` of the invariants
    ``nsq = |Q|^2`` and ``t3 = tr(Q^3)`` (:func:`frob_sq`, :func:`trace_cubed`).

    Zero exactly for uniaxial tensors (two equal eigenvalues), one at
    maximal biaxiality; defined as 0 where ``|Q| < 1e-14`` to avoid 0/0 at
    the defect core.  ``tr(Q^3) / |Q|^3`` is formed as ``t3 / s / s / s``
    with ``s = |Q|``, so no power of a large ``|Q|`` overflows.
    """
    nsq = np.asarray(nsq, dtype=float)
    s = np.sqrt(np.where(nsq > 1e-28, nsq, 1.0))
    beta = np.where(nsq > 1e-28, 1.0 - 6.0 * np.square(t3 / s / s / s), 0.0)
    return np.clip(beta, 0.0, 1.0)


def ansatz_components(u, v, phi, k: int):
    """Components of the two-mode field ``Y = u F_n(phi) + v F_3``.

    ``u``, ``v`` and ``phi`` broadcast against each other; the result is
    ``(5,)`` followed by their broadcast shape, each row written once.
    """
    angle = k * np.asarray(phi, dtype=float)
    out = np.zeros((5,) + np.broadcast_shapes(np.shape(u), np.shape(v), angle.shape))
    out[0], out[1], out[2] = v, u * np.cos(angle), u * np.sin(angle)
    return out


def ansatz_eigenvalues(u, v):
    """Eigenvalues of ``u F_n + v F_3`` along the frame's principal axes.

    Returned in the fixed order ``(sqrt(2/3) v, -u/sqrt(2) - v/sqrt(6),
    u/sqrt(2) - v/sqrt(6))`` (out-of-plane, then the two planar axes);
    not sorted, so level crossings stay on smooth curves.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lam_z = math.sqrt(2.0 / 3.0) * v
    lam_perp = -u / _SQRT2 - v / _SQRT6
    lam_n = u / _SQRT2 - v / _SQRT6
    return np.stack([lam_z, lam_perp, lam_n], axis=-1)


def ansatz_biaxiality(u, v):
    """:func:`biaxiality` of ``u F_n + v F_3`` from its closed-form invariants
    ``|Y|^2 = u^2 + v^2`` and ``tr(Y^3) = v (v^2 - 3 u^2) / sqrt(6)``.

    ``beta`` is scale-free, so both invariants are formed from ``(u, v)``
    divided by the power of two at ``max(|u|, |v|)``: the division is exact,
    so no power of a large ``|Y|`` overflows and ``beta`` keeps the unscaled
    formula's rounding.  ``|Y| <= 1e-14`` is the core,
    where ``beta`` is 0 as in :func:`biaxiality`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _, e = np.frexp(np.maximum(np.abs(u), np.abs(v)))
    uh = np.ldexp(u, -e)
    vh = np.ldexp(v, -e)
    beta = biaxiality(uh * uh + vh * vh, vh * (vh * vh - 3.0 * uh * uh) / _SQRT6)
    return np.where(np.hypot(u, v) > 1e-14, beta, 0.0)
