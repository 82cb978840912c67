"""Single-level cosine-sine decomposition with a canonical, deterministic form.

A 2m x 2m unitary splits as

    [ u   ]   [ C  S ]   [ x   ]
    [   v ] . [ -S C ] . [   y ]

with C = diag(cos theta_l), S = diag(sin theta_l), theta_l in [0, pi/2].

Canonical form produced here: theta sorted ascending, and each factor column
gauge-fixed so the largest-magnitude entry of the u (and, where the gauge is
free, v) column is real non-negative.  Correctness of every split is asserted
by reconstruction, not by the construction route.

The kernel works on a whole stack of equal-size blocks, one recursion level
at a time, and writes the factors into preallocated output stacks.  Routes,
by block size m:

* m = 2: a closed form.
* m = 4 and 8, and every block the batched route does not take: LAPACK's
  CSD (xORCSD for real, xUNCSD for complex blocks; B. D. Sutton, "Computing
  the complete CS decomposition", Numer. Algorithms 50, 2009), one raw call
  per block, with the routine and its workspace size looked up once per
  chunk of the stack.
* m >= 16, complex or real below SVD_ROUTE_MIN_DIM: a batched route for
  well-separated blocks (C. F. Van Loan, "Computing the CS and the
  generalized singular value decompositions", Numer. Math. 46, 1985).  One
  stacked SVD of the top-left quadrants gives u, theta and x; a block with
  a theta cluster within DEGEN_EPS, or a theta at 0 or pi/2, is not
  separated and goes to LAPACK.  A QR factorisation of the top quadrants
  finds most blocks of the last kind, walk blocks above all, without the
  SVD.  Separated blocks take v and y from one stacked SVD of the
  bottom-right quadrants, each pair phase-matched through the top-right
  quadrant.
* real m >= SVD_ROUTE_MIN_DIM: a composite of SVDs, one block at a time.

Canonicalisation and the reconstruction check each run once over a chunk.
Chunks bound the temporaries of these batched steps, which would otherwise
grow with the whole level.  A block that the batched or SVD route leaves
above the reconstruction tolerance is redone by LAPACK, so route selection
never affects correctness.
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
# blocks at least this large (and below the SVD route) try the batched route
BATCHED_MIN_DIM = 16
# the batched routes take a stack this many entries at a time, so their
# temporaries stay small next to a whole recursion level's stack
_CHUNK_ENTRIES = 1 << 18


def _csd_blocks(a: np.ndarray, tol: Tolerances):
    """SVD-composite CSD of one large real block, LAPACK where it falls short."""
    try:
        factors = _canonicalize(*_csd_svd_real(a))
        if _reconstruction_residual(a, *factors) <= tol.reconstruct:
            return factors
    except np.linalg.LinAlgError:  # an SVD that does not converge
        pass
    factors = _canonicalize(*_csd_cossin(a))
    _require(_reconstruction_residual(a, *factors), tol)
    return factors


def split_stack(blocks: np.ndarray, tol: Tolerances):
    """CSD every block of a (k, m, m) stack, m a power of two.

    Returns (lefts, theta, rights) where lefts/rights stack the u, v / x, y
    factors of block b at positions 2b, 2b+1, and theta concatenates the
    per-block angle vectors in block order.  A stack holding NaN or inf fails
    before any route runs: LAPACK iterates to its limit on such a block.
    """
    if not np.isfinite(blocks).all():
        raise NumericalFailureError(np.nan, tol.reconstruct)
    k, m, _ = blocks.shape
    h = m // 2
    lefts = np.empty((k, 2, h, h), dtype=blocks.dtype)
    rights = np.empty_like(lefts)
    theta = np.empty((k, h))
    if not np.iscomplexobj(blocks) and m >= SVD_ROUTE_MIN_DIM:
        for b in range(k):
            lefts[b, 0], lefts[b, 1], theta[b], rights[b, 0], rights[b, 1] = _csd_blocks(
                blocks[b], tol
            )
    else:
        step = max(1, _CHUNK_ENTRIES // (m * m))
        for lo in range(0, k, step):
            rows = slice(lo, lo + step)
            if m == 2:
                factors, residual = _csd_dim2_batch(blocks[rows])
            elif m >= BATCHED_MIN_DIM:
                factors, residual = _csd_batched(blocks[rows], tol)
            else:
                factors, residual = _csd_per_block(blocks[rows])
            _require(residual, tol)
            u, v, th, x, y = factors
            lefts[rows, 0], lefts[rows, 1] = u.reshape(-1, h, h), v.reshape(-1, h, h)
            rights[rows, 0], rights[rows, 1] = x.reshape(-1, h, h), y.reshape(-1, h, h)
            theta[rows] = th.reshape(-1, h)
    return lefts.reshape(2 * k, h, h), theta.reshape(-1), rights.reshape(2 * k, h, h)


def _require(residual: np.ndarray, tol: Tolerances):
    """Enforce the reconstruction contract on every block; a NaN residual fails it too."""
    worst = float(np.max(residual))
    if not worst <= tol.reconstruct:
        raise NumericalFailureError(worst, tol.reconstruct)


def _csd_batched(blocks: np.ndarray, tol: Tolerances):
    """CSD of a (k, 2h, 2h) stack: batched where separated, LAPACK for the rest.

    Returns the canonical factors and each block's reconstruction residual.
    A block the batched route leaves above tol.reconstruct is redone by
    LAPACK, so only the blocks that need it pay for a per-block call.
    """
    k = blocks.shape[0]
    live = _may_separate(blocks)
    if not live.size:  # as on most large walk blocks
        return _csd_per_block(blocks)
    separated, factors = _csd_van_loan(blocks, live)
    residual = _reconstruction_residual(blocks[separated], *factors)
    done = residual <= tol.reconstruct
    if done.all() and separated.size == k:
        return factors, residual
    kept = separated[done]
    rest = np.setdiff1d(np.arange(k), kept)
    redone, redone_residual = _csd_per_block(blocks[rest])
    out = tuple(np.empty((k, *f.shape[1:]), f.dtype) for f in redone)
    for o, f, g in zip(out, redone, factors):
        o[rest], o[kept] = f, g[done]
    out_residual = np.empty(k)
    out_residual[rest], out_residual[kept] = redone_residual, residual[done]
    return out, out_residual


def _csd_per_block(blocks: np.ndarray):
    """LAPACK CSD of each block of a stack, canonicalised, and each block's residual."""
    factors = _canonicalize(*_csd_lapack(blocks))
    return factors, _reconstruction_residual(blocks, *factors)


def _may_separate(blocks: np.ndarray) -> np.ndarray:
    """Indices of the blocks of a (k, 2h, 2h) stack not proven singular in X12 or X11.

    X12 = QR has R's singular values, the sin theta, and the smallest
    singular value of a triangular R is at most its smallest diagonal entry;
    likewise X11 and cos theta.  So a tiny r_jj proves, without an SVD, that
    a block is not separated.  A zero line makes one, and so does any
    exactly rank-deficient quadrant, as in most degenerate walk blocks.
    """
    h = blocks.shape[1] // 2
    live = np.flatnonzero(_min_r(blocks[:, :h, h:]) > DEGEN_EPS / 2)
    return live[_min_r(blocks[live, :h, :h]) > DEGEN_EPS / 2]


def _csd_van_loan(blocks: np.ndarray, live: np.ndarray):
    """Van Loan's CSD of the well-separated blocks among blocks[live].

    Returns the indices of those blocks and their canonical factors.  A
    block is separated when its theta are more than DEGEN_EPS apart and
    their sin and cos exceed DEGEN_EPS.  Then X22 = v C y has distinct
    singular values, so its SVD fixes each (v_i, y_i) pair up to one unit
    phase, and X12 = u S y pins that phase: it is the phase of the i-th
    diagonal entry of u^H X12 y'^H for the SVD's y'.

    The two SVDs resolve a pair of close angles each in its own way, which
    costs X12 and X21 an error of about eps over the pair's angle gap; the
    reconstruction check sends a block where that is too much to LAPACK.
    """
    h = blocks.shape[1] // 2
    u, theta, x, uh_x12 = _svd_top_left(blocks[live, :h, :h], blocks[live, :h, h:])
    margins = np.concatenate((np.diff(theta, axis=-1), np.cos(theta), np.sin(theta)), axis=-1)
    keep = (margins > DEGEN_EPS).all(axis=-1)
    separated = live[keep]
    v, _, y = np.linalg.svd(blocks[separated, h:, h:])
    phase = _unit_phase(np.sum(uh_x12[keep] * y.conj(), axis=-1), np.ones(y.shape[:2], y.dtype))
    y *= phase[..., :, None]
    v *= phase.conj()[..., None, :]
    return separated, _canonicalize(u[keep], v, theta[keep], x[keep], y)


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
    x21, x22 = a[m:, :m], a[m:, m:]
    u, theta, xh, u_t_x12 = _svd_top_left(a[:m, :m], a[:m, m:])
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


def _svd_top_left(x11: np.ndarray, x12: np.ndarray):
    """u, theta, x from the SVD of X11 (one block or a stack), and u^H X12.

    theta ascends as the singular values cos(theta) descend.
    """
    u, sigma, x = np.linalg.svd(x11)
    uh = np.swapaxes(u, -1, -2)
    uh_x12 = (uh.conj() if np.iscomplexobj(uh) else uh) @ x12
    # arccos of a singular value near 1 loses half the digits; the row norms
    # of u^H X12 give sin(theta) with full absolute accuracy instead.
    theta = np.arctan2(np.linalg.norm(uh_x12, axis=-1), np.clip(sigma, 0.0, 1.0))
    return u, theta, x, uh_x12


def _min_r(x: np.ndarray) -> np.ndarray:
    """Smallest |r_jj| of the QR factorisation of each matrix of a stack."""
    r = np.linalg.qr(x, mode="r")
    return np.abs(np.diagonal(r, axis1=-2, axis2=-1)).min(axis=-1)


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


def _reconstruction_residual(a, u, v, theta, x, y) -> np.ndarray:
    """Each block's worst entry error of its reassembled quadrants.

    Shape (k,) for a stack of k blocks, () for one block.
    """
    c, s = np.cos(theta)[..., None, :], np.sin(theta)[..., None, :]
    m = theta.shape[-1]
    worst = _worst(
        (u * c) @ x - a[..., :m, :m],
        (u * s) @ y - a[..., :m, m:],
        -(v * s) @ x - a[..., m:, :m],
        (v * c) @ y - a[..., m:, m:],
    ).reshape(-1)
    # one pass over all entries: a max over the last two axes loops once per
    # block, several times slower on the many small blocks of the low levels
    per_block = np.maximum.reduceat(worst, np.arange(0, worst.size, m * m))
    return per_block.reshape(theta.shape[:-1])


def _worst(*errors: np.ndarray) -> np.ndarray:
    """Entrywise largest absolute value over equal-shape arrays; NaN where any is NaN."""
    worst = np.abs(errors[0])
    for e in errors[1:]:
        np.maximum(worst, np.abs(e), out=worst)
    return worst
