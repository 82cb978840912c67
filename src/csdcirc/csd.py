"""Single-level cosine-sine decomposition with a canonical, deterministic form.

A 2m x 2m unitary splits as

    [ u   ]   [ C  S ]   [ x   ]
    [   v ] . [ -S C ] . [   y ]

with C = diag(cos theta_l), S = diag(sin theta_l), theta_l in [0, pi/2].

Canonical form produced here: theta sorted ascending, and each factor column
gauge-fixed so the largest-magnitude entry of the u (and, where the gauge is
free, v) column is real non-negative.  Correctness of every split is asserted
by reconstruction, not by the construction route.

Two routes build the factors: LAPACK's CSD (scipy.linalg.cossin) and, for
large real inputs, a faster composite of SVDs.  The composite route falls
back to LAPACK whenever its reconstruction residual is not good enough, so
route selection never affects correctness.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cossin

from .errors import NumericalFailureError
from .matrices import Tolerances

# sin/cos below this count as degenerate when choosing completions
DEGEN_EPS = 1e-8
# below this the phase tie through an off-diagonal block is pure noise and
# the gauge genuinely decouples
GAUGE_EPS = 1e-13
# real blocks at least this large take the SVD-composite route
SVD_ROUTE_MIN_DIM = 512


def _csd_blocks(a: np.ndarray, tol: Tolerances):
    """Route one block to a construction backend and enforce the contract."""
    if not np.iscomplexobj(a) and a.shape[0] >= SVD_ROUTE_MIN_DIM:
        factors = _canonicalize(*_csd_svd_real(a))
        residual = _reconstruction_residual(a, *factors)
        if residual <= tol.reconstruct:
            return factors
    factors = _canonicalize(*_csd_cossin(a))
    residual = _reconstruction_residual(a, *factors)
    if residual > tol.reconstruct:
        raise NumericalFailureError(residual, tol.reconstruct)
    return factors


def split_stack(blocks: np.ndarray, tol: Tolerances):
    """CSD every block of a (k, m, m) stack, m a power of two.

    Returns (lefts, theta, rights) where lefts/rights stack the u, v / x, y
    factors of block b at positions 2b, 2b+1, and theta concatenates the
    per-block angle vectors in block order.
    """
    k, m, _ = blocks.shape
    h = m // 2
    if m == 2:
        (u, v, theta, x, y), residual = _csd_dim2_batch(blocks)
        if residual > tol.reconstruct:
            raise NumericalFailureError(residual, tol.reconstruct)
        lefts = np.empty((2 * k, 1, 1), dtype=blocks.dtype)
        rights = np.empty((2 * k, 1, 1), dtype=blocks.dtype)
        lefts[0::2, 0, 0], lefts[1::2, 0, 0] = u, v
        rights[0::2, 0, 0], rights[1::2, 0, 0] = x, y
        return lefts, theta, rights
    lefts = np.empty((2 * k, h, h), dtype=blocks.dtype)
    rights = np.empty((2 * k, h, h), dtype=blocks.dtype)
    theta = np.empty(k * h)
    for b in range(k):
        u, v, th, x, y = _csd_blocks(blocks[b], tol)
        lefts[2 * b], lefts[2 * b + 1] = u, v
        rights[2 * b], rights[2 * b + 1] = x, y
        theta[b * h : (b + 1) * h] = th
    return lefts, theta, rights


def _csd_cossin(a: np.ndarray):
    """LAPACK CSD, remapped from scipy's [[C, -S], [S, C]] sign convention."""
    m = a.shape[0] // 2
    (u1, u2), theta, (v1h, v2h) = cossin(a, p=m, q=m, separate=True)
    return u1, -u2, np.asarray(theta, dtype=np.float64), v1h, -v2h


def _csd_svd_real(a: np.ndarray):
    """SVD-composite CSD for real orthogonal blocks.

    u, cos theta, x come from the SVD of the top-left block.  Rows of y and
    columns of v divide the off-diagonal blocks by sin theta where that is
    well-conditioned (sin > 1/2); the remaining subspace is completed from an
    SVD of the residual of the bottom-right block, then rotated to satisfy
    the top-right block via exact polar alignment per degenerate cluster.
    """
    m = a.shape[0] // 2
    x11, x12 = a[:m, :m], a[:m, m:]
    x21, x22 = a[m:, :m], a[m:, m:]
    u, sigma, xh = np.linalg.svd(x11)
    u_t_x12 = u.T @ x12
    # arccos of a singular value near 1 loses half the digits; the row norms
    # of u^T X12 give sin(theta) with full absolute accuracy instead.
    sin_direct = np.linalg.norm(u_t_x12, axis=1)
    theta = np.arctan2(sin_direct, np.clip(sigma, 0.0, 1.0))
    c = np.cos(theta)
    s = np.sin(theta)

    small = s <= 0.5  # theta ascending, so the small-sin set is a prefix
    m0 = int(np.count_nonzero(small))
    y = np.empty((m, m))
    v = np.empty((m, m))
    y[m0:] = u_t_x12[m0:] / s[m0:, None]
    v[:, m0:] = -(x21 @ xh.T)[:, m0:] / s[m0:]

    if m0:
        known_v, known_y = v[:, m0:], y[m0:]
        resid = x22 - (known_v * c[m0:]) @ known_y
        resid -= known_v @ (known_v.T @ resid)
        resid -= (resid @ known_y.T) @ known_y
        v0, _, y0 = np.linalg.svd(resid)
        v0, y0 = v0[:, :m0], y0[:m0]
        # Per cluster of equal-to-degenerate cos values, the orthogonal polar
        # factor of (u^T X12) y0^T equals the exact basis correction.
        g = u_t_x12[:m0] @ y0.T
        for lo, hi in _clusters(c[:m0]):
            w, _, zt = np.linalg.svd(g[lo:hi, lo:hi])
            p = w @ zt
            y0[lo:hi] = p @ y0[lo:hi]
            v0[:, lo:hi] = v0[:, lo:hi] @ p.T
        y[:m0] = y0
        v[:, :m0] = v0
    return u, v, theta, xh, y


def _clusters(values: np.ndarray):
    """Contiguous index ranges of values that agree within DEGEN_EPS."""
    edges = [0, *list(np.flatnonzero(np.abs(np.diff(values)) > DEGEN_EPS) + 1), values.size]
    return zip(edges[:-1], edges[1:])


def _csd_dim2_batch(blocks: np.ndarray):
    """Closed-form CSD of a (k, 2, 2) stack of unitaries; returns factors + residual.

    With u fixed at 1, the phases of x and y are pinned by the top-row
    entries themselves (x = phase(a), y = phase(b)), which zeroes those two
    residuals outright; v then balances its two ties, through c (weight
    sin t) and through d (weight cos t), via a magnitude-weighted blend.
    Entries that vanish exactly leave a free gauge and fall back to the
    bottom-row phases with v = 1.
    """
    a, b = blocks[:, 0, 0], blocks[:, 0, 1]
    c, d = blocks[:, 1, 0], blocks[:, 1, 1]
    theta = np.arctan2(np.abs(b), np.abs(a))
    ones = np.ones_like(a)
    u = ones
    x = _unit_phase(a, -_unit_phase(c, ones))
    y = _unit_phase(b, _unit_phase(d, ones))
    ct, st = np.cos(theta), np.sin(theta)
    v = _unit_phase(-st * c * np.conj(x) + ct * d * np.conj(y), ones)
    residual = max(
        float(np.abs(u * ct * x - a).max()),
        float(np.abs(u * st * y - b).max()),
        float(np.abs(-v * st * x - c).max()),
        float(np.abs(v * ct * y - d).max()),
    )
    return (u, v, theta, x, y), residual


def _unit_phase(z: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = fallback.copy()
    np.divide(z, mag, out=out, where=mag > 0)
    return out


def _canonicalize(u, v, theta, x, y):
    """Sort theta ascending and gauge-fix the factor columns deterministically."""
    order = np.argsort(theta, kind="stable")
    if not np.array_equal(order, np.arange(theta.size)):
        theta = theta[order]
        u, v = u[:, order], v[:, order]
        x, y = x[order, :], y[order, :]
    c, s = np.cos(theta), np.sin(theta)
    cols = np.arange(theta.size)
    ph_u = _unit_phase(u[np.argmax(np.abs(u), axis=0), cols], np.ones_like(u[0]))
    ph_v = _unit_phase(v[np.argmax(np.abs(v), axis=0), cols], np.ones_like(v[0]))
    # Columns of u and v carry the conjugated gauge; rows of x and y absorb
    # it.  Only where sin (cos) vanishes outright does the v gauge decouple
    # and follow v's own column, compensated in y (x); at any larger sin the
    # off-diagonal blocks still tie all four factors together.
    small_s, small_c = s <= GAUGE_EPS, c <= GAUGE_EPS
    gauge_v = np.where(small_s | small_c, ph_v, ph_u)
    gauge_x = np.where(small_c, ph_v, ph_u)
    gauge_y = np.where(small_s, ph_v, ph_u)
    u = u * np.conj(ph_u)[None, :]
    v = v * np.conj(gauge_v)[None, :]
    x = x * gauge_x[:, None]
    y = y * gauge_y[:, None]
    return u, v, theta, x, y


def _reconstruction_residual(a, u, v, theta, x, y) -> float:
    c, s = np.cos(theta), np.sin(theta)
    m = theta.size
    return max(
        float(np.abs((u * c) @ x - a[:m, :m]).max()),
        float(np.abs((u * s) @ y - a[:m, m:]).max()),
        float(np.abs(-(v * s) @ x - a[m:, :m]).max()),
        float(np.abs((v * c) @ y - a[m:, m:]).max()),
    )
