"""Single-level cosine-sine decomposition with a canonical, deterministic form.

A 2m x 2m unitary splits as

    [ u   ]   [ C  S ]   [ x   ]
    [   v ] . [ -S C ] . [   y ]

with C = diag(cos theta_l), S = diag(sin theta_l), theta_l in [0, pi/2].

Canonical form produced here: theta sorted ascending, and each factor column
gauge-fixed so the largest-magnitude entry of the u (and, where the gauge is
free, v) column is real non-negative.  Correctness of every split is asserted
by reconstruction, not by the construction route.

The kernel works on a whole stack of equal-size blocks.  2x2 blocks have a
closed form.  Every other complex block, and every real block below
SVD_ROUTE_MIN_DIM, goes to LAPACK's CSD (xORCSD for real, xUNCSD for complex
blocks; B. D. Sutton, "Computing the complete CS decomposition", Numer.
Algorithms 50, 2009): the routine and its workspace size are looked up once
per stack, the raw routine runs once per block into preallocated factor stacks,
and canonicalisation and the reconstruction check each run once over the
whole stack.  Large real blocks take a faster composite of SVDs, one block at
a time; it falls back to LAPACK whenever its reconstruction residual is not
good enough, so route selection never affects correctness.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork

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
    """SVD-composite CSD of one large real block, LAPACK where it falls short."""
    try:
        factors = _canonicalize(*_csd_svd_real(a))
        if _reconstruction_residual(a, *factors) <= tol.reconstruct:
            return factors
    except np.linalg.LinAlgError:  # an SVD that does not converge
        if not np.isfinite(a).all():
            # LAPACK would fail as well, after several times a finite split
            raise NumericalFailureError(np.nan, tol.reconstruct) from None
    factors = _canonicalize(*_csd_cossin(a))
    _require(_reconstruction_residual(a, *factors), tol)
    return factors


def split_stack(blocks: np.ndarray, tol: Tolerances):
    """CSD every block of a (k, m, m) stack, m a power of two.

    Returns (lefts, theta, rights) where lefts/rights stack the u, v / x, y
    factors of block b at positions 2b, 2b+1, and theta concatenates the
    per-block angle vectors in block order.
    """
    k, m, _ = blocks.shape
    h = m // 2
    if not np.iscomplexobj(blocks) and m >= SVD_ROUTE_MIN_DIM:
        lefts = np.empty((2 * k, h, h))
        rights = np.empty_like(lefts)
        theta = np.empty(k * h)
        for b in range(k):
            u, v, th, x, y = _csd_blocks(blocks[b], tol)
            lefts[2 * b], lefts[2 * b + 1] = u, v
            rights[2 * b], rights[2 * b + 1] = x, y
            theta[b * h : (b + 1) * h] = th
        return lefts, theta, rights
    if m == 2:
        factors, residual = _csd_dim2_batch(blocks)
    else:
        factors = _canonicalize(*_csd_lapack(blocks))
        residual = _reconstruction_residual(blocks, *factors)
    _require(residual, tol)
    u, v, theta, x, y = factors
    lefts = np.stack((u, v), axis=1).reshape(2 * k, h, h)
    rights = np.stack((x, y), axis=1).reshape(2 * k, h, h)
    return lefts, theta.reshape(-1), rights


def _require(residual: float, tol: Tolerances):
    """Enforce the reconstruction contract; a NaN residual fails it too."""
    if not residual <= tol.reconstruct:
        raise NumericalFailureError(residual, tol.reconstruct)


def _csd_cossin(a: np.ndarray):
    """LAPACK CSD of one block: the stacked kernel on a stack of one."""
    return tuple(f[0] for f in _csd_lapack(a[None]))


def _csd_lapack(blocks: np.ndarray):
    """LAPACK CSD of every block of a (k, 2h, 2h) stack, before canonicalisation.

    LAPACK's middle factor is [[C, -S], [S, C]]; negating u2 and v2^H maps it
    to this module's [[C, S], [-S, C]].  A block LAPACK cannot split gets NaN
    angles, which the reconstruction check then rejects.
    """
    k, m, _ = blocks.shape
    h = m // 2
    name = "uncsd" if np.iscomplexobj(blocks) else "orcsd"
    csd, csd_lwork = get_lapack_funcs((name, name + "_lwork"), (blocks,))
    lwork = _compute_lwork(csd_lwork, m=m, p=h, q=h)
    options = {"trans": False, "signs": False}
    if name == "uncsd":
        options.update(lwork=lwork[0], lrwork=lwork[1])
    else:
        options.update(lwork=lwork)
    u = np.empty((k, h, h), dtype=blocks.dtype)
    v, x, y = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    theta = np.empty((k, h))
    for b in range(k):
        u[b], v[b], theta[b], x[b], y[b] = cossin(blocks[b], csd, options)
    return u, np.negative(v, out=v), theta, x, np.negative(y, out=y)


def cossin(a: np.ndarray, csd, options: dict):
    """One raw xORCSD/xUNCSD call on a 2h x 2h block, in LAPACK's sign convention.

    Returns (u1, u2, theta, v1^H, v2^H) as scipy.linalg.cossin(a, h, h,
    separate=True) would, without its per-call lookup and input checks;
    theta is NaN where LAPACK reports a failure.  The pipeline benchmark's
    traced run wraps this name to time the per-block LAPACK work.
    """
    h = a.shape[0] // 2
    *_, theta, u1, u2, v1h, v2h, info = csd(
        a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:], **options
    )
    if info != 0:
        theta = np.full(h, np.nan)
    return u1, u2, theta, v1h, v2h


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
    residual = _worst(
        u * ct * x - a,
        u * st * y - b,
        -v * st * x - c,
        v * ct * y - d,
    )
    return (u, v, theta, x, y), residual


def _unit_phase(z: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = fallback.copy()
    np.divide(z, mag, out=out, where=mag > 0)
    return out


def _canonicalize(u, v, theta, x, y):
    """Sort theta ascending and gauge-fix the factor columns deterministically.

    Takes one block's factors (theta of shape (h,)) or a stack's (theta of
    shape (k, h)); every step acts on each block alone, so a block comes out
    the same either way, bit for bit.
    """
    order = np.argsort(theta, axis=-1, kind="stable")
    if np.any(order != np.arange(theta.shape[-1])):  # already sorted: skip the copies
        theta = np.take_along_axis(theta, order, axis=-1)
        u = np.take_along_axis(u, order[..., None, :], axis=-1)
        v = np.take_along_axis(v, order[..., None, :], axis=-1)
        x = np.take_along_axis(x, order[..., :, None], axis=-2)
        y = np.take_along_axis(y, order[..., :, None], axis=-2)
    c, s = np.cos(theta), np.sin(theta)
    ph_u, ph_v = _peak_phase(u), _peak_phase(v)
    # Columns of u and v carry the conjugated gauge; rows of x and y absorb
    # it.  Only where sin (cos) vanishes outright does the v gauge decouple
    # and follow v's own column, compensated in y (x); at any larger sin the
    # off-diagonal blocks still tie all four factors together.
    small_s, small_c = s <= GAUGE_EPS, c <= GAUGE_EPS
    gauge_v = np.where(small_s | small_c, ph_v, ph_u)
    gauge_x = np.where(small_c, ph_v, ph_u)
    gauge_y = np.where(small_s, ph_v, ph_u)
    u = u * np.conj(ph_u)[..., None, :]
    v = v * np.conj(gauge_v)[..., None, :]
    x = x * gauge_x[..., :, None]
    y = y * gauge_y[..., :, None]
    return u, v, theta, x, y


def _peak_phase(f: np.ndarray) -> np.ndarray:
    """Unit phase of each column's largest-magnitude entry (1 for a zero column)."""
    rows = np.argmax(np.abs(f), axis=-2)
    peak = np.take_along_axis(f, rows[..., None, :], axis=-2)[..., 0, :]
    return _unit_phase(peak, np.ones_like(peak))


def _reconstruction_residual(a, u, v, theta, x, y) -> float:
    """Worst entry error of the reassembled quadrants, over one block or a stack."""
    c, s = np.cos(theta)[..., None, :], np.sin(theta)[..., None, :]
    m = theta.shape[-1]
    return _worst(
        (u * c) @ x - a[..., :m, :m],
        (u * s) @ y - a[..., :m, m:],
        -(v * s) @ x - a[..., m:, :m],
        (v * c) @ y - a[..., m:, m:],
    )


def _worst(*errors: np.ndarray) -> float:
    """Largest absolute entry over all arrays; NaN if any entry is NaN."""
    return float(np.max([np.abs(e).max() for e in errors]))
