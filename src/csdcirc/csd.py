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
* Real m >= 4 and complex m >= 16: a batched route after Van Loan
  ("Computing the CS and the generalized singular value decompositions",
  Numer. Math. 46, 1985).  One stacked SVD of the top-left quadrants gives
  u, theta and x.  Where sin theta > 1/2, v and y follow from the
  off-diagonal quadrants divided by sin theta; the rest come from a stacked
  SVD of the bottom-right residual, phase-matched through the top-right
  quadrant.  For real 4 x 4 blocks both SVDs are of 2 x 2 matrices and take
  a closed form.  Below SVD_ROUTE_MIN_DIM only well-separated blocks take
  the route: a block with a theta cluster within DEGEN_EPS, or a theta at 0
  or pi/2, goes to LAPACK, and a QR factorisation of the top quadrants finds
  most blocks of the last kind, walk blocks above all, without the SVD.
  From SVD_ROUTE_MIN_DIM up every block takes it, where it beats LAPACK.
* Complex m = 4 and 8, and every block the batched route does not take:
  LAPACK's CSD (xORCSD for real, xUNCSD for complex blocks; B. D. Sutton,
  "Computing the complete CS decomposition", Numer. Algorithms 50, 2009),
  one raw call per block, with the routine and its workspace size looked
  up once per chunk of the stack.  Degenerate blocks keep LAPACK's
  sparse bases this way, and with them the circuits' gate counts.  Complex
  blocks of 4 and 8 stay here because the pipeline benchmark counts their
  calls: its smoke test pins 4 calls at m = 4 and 1 at m = 8 on a complex
  8 x 8, and haar-n7's csd.cossin.* metrics are these calls.  Moving them
  to the batched route waits for a change to that benchmark.

Canonicalisation and the reconstruction check each run once over a chunk.
Chunks bound the temporaries of these batched steps, which would otherwise
grow with the whole level.  A block that the batched route leaves above the
reconstruction tolerance is redone by LAPACK, and so is a chunk where an SVD
does not converge, so route selection never affects correctness.
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
# blocks at least this large take the batched route without the separation
# screens: there it beats LAPACK on every block, degenerate or not
SVD_ROUTE_MIN_DIM = 512
# complex blocks at least this large take the batched route where they are
# separated; real blocks take it from m = 4
BATCHED_MIN_DIM = 16
# the batched routes take a stack this many entries at a time, so their
# temporaries stay small next to a whole recursion level's stack
_CHUNK_ENTRIES = 1 << 18


def split_stack(blocks: np.ndarray, tol: Tolerances):
    """CSD every block of a (k, m, m) stack, m a power of two.

    Returns (lefts, theta, rights) where lefts/rights stack the u, v / x, y
    factors of block b at positions 2b, 2b+1, and theta concatenates the
    per-block angle vectors in block order.  The stack goes to its route a
    chunk at a time, every chunk by the same rule of block size and field.
    A stack holding NaN or inf fails before any route runs: LAPACK iterates
    to its limit on such a block.
    """
    if not np.isfinite(blocks).all():
        raise NumericalFailureError(np.nan, tol.reconstruct)
    k, m, _ = blocks.shape
    h = m // 2
    lefts = np.empty((k, 2, h, h), dtype=blocks.dtype)
    rights = np.empty_like(lefts)
    theta = np.empty((k, h))
    step = max(1, _CHUNK_ENTRIES // (m * m))
    batched = m >= (BATCHED_MIN_DIM if np.iscomplexobj(blocks) else 4)
    for lo in range(0, k, step):
        rows = slice(lo, lo + step)
        if m == 2:
            factors, residual = _csd_dim2_batch(blocks[rows])
        elif batched:
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
    """CSD of a (k, 2h, 2h) stack: batched where it may, LAPACK for the rest.

    Returns the canonical factors and each block's reconstruction residual.
    Below SVD_ROUTE_MIN_DIM only separated blocks take the batched route.  A
    block it leaves above tol.reconstruct is redone by LAPACK, so only the
    blocks that need it pay for a per-block call; an SVD that does not
    converge sends the whole stack to LAPACK.
    """
    k, m, _ = blocks.shape
    screen = m < SVD_ROUTE_MIN_DIM
    live = _may_separate(blocks) if screen else np.arange(k)
    if not live.size:  # as on most walk blocks below SVD_ROUTE_MIN_DIM
        return _csd_per_block(blocks)
    try:
        taken, factors = _csd_van_loan(blocks, live, screen)
    except np.linalg.LinAlgError:
        return _csd_per_block(blocks)
    factors = _canonicalize(*factors)
    residual = _reconstruction_residual(_take(blocks, taken), *factors)
    done = residual <= tol.reconstruct
    if done.all() and taken.size == k:
        return factors, residual
    kept = taken[done]
    rest = np.delete(np.arange(k), kept)
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
    r = _min_r(np.stack((blocks[:, :h, h:], blocks[:, :h, :h]), axis=1))
    return np.flatnonzero((r > DEGEN_EPS / 2).all(axis=-1))


def _csd_van_loan(blocks: np.ndarray, live: np.ndarray, screen: bool):
    """Van Loan's CSD of blocks[live], or with screen of its separated blocks.

    Returns the indices of the blocks it split and their factors, before
    canonicalisation.  A block is separated when its theta are more than
    DEGEN_EPS apart and their sin and cos exceed DEGEN_EPS.

    u, theta and x come from the SVD of X11.  Where sin theta > 1/2 (theta
    ascends, so this is a suffix), X12 = u S y and X21 = -v S x give the rows
    of y and columns of v by division.  The rest span the residual of X22
    with the known pairs taken out and projected off.  Its SVD fixes each
    remaining (v_i, y_i) pair up to one unit phase, and X12 pins that phase:
    it is the phase of the i-th diagonal entry of u^H X12 y'^H for the SVD's
    y'.  Where those cos values agree within DEGEN_EPS, the SVD mixes their
    pairs, and the unitary polar factor of that diagonal block of
    u^H X12 y'^H undoes the mixing.

    The two SVDs resolve a pair of close small-sin angles each in its own
    way, which costs X12 and X21 an error of about eps times the pair's sin
    gap over its cos gap, that is eps cot theta; the reconstruction check
    sends a block where that is too much to LAPACK.
    """
    h = blocks.shape[1] // 2
    a = _take(blocks, live)
    u, sigma, x = _svd(a[:, :h, :h])  # sigma descends, so theta ascends
    uh_x12 = _herm(u) @ a[:, :h, h:]
    # arccos of a singular value near 1 loses half the digits; the row norms
    # of u^H X12 give sin(theta) with full absolute accuracy instead.
    theta = np.arctan2(np.linalg.norm(uh_x12, axis=-1), np.clip(sigma, 0.0, 1.0))
    c, s = np.cos(theta), np.sin(theta)
    if screen:
        margins = np.concatenate((np.diff(theta, axis=-1), c, s), axis=-1)
        keep = np.flatnonzero((margins > DEGEN_EPS).all(axis=-1))
        kept = (_take(f, keep) for f in (a, live, u, theta, x, uh_x12, c, s))
        a, live, u, theta, x, uh_x12, c, s = kept
    small = np.logical_and.accumulate(s <= 0.5, axis=-1)  # a prefix, as theta ascends
    y = np.divide(uh_x12, s[..., :, None], out=np.zeros_like(uh_x12), where=~small[..., :, None])
    v = np.divide(
        -(a[:, h:, :h] @ _herm(x)),
        s[..., None, :],
        out=np.zeros_like(uh_x12),
        where=~small[..., None, :],
    )
    if small.any():
        resid = a[:, h:, h:] - (v * c[..., None, :]) @ y
        resid -= v @ (_herm(v) @ resid)
        resid -= (resid @ _herm(y)) @ y
        v0, _, y0 = _svd(resid)
        phase = _unit_phase(np.sum(uh_x12 * y0.conj(), axis=-1), np.ones(c.shape, y.dtype))
        y0 *= phase[..., :, None]
        v0 *= phase.conj()[..., None, :]
        for b, lo, hi in _small_clusters(c, small):
            w, _, zh = np.linalg.svd(uh_x12[b, lo:hi] @ _herm(y0[b, lo:hi]))
            p = w @ zh
            y0[b, lo:hi] = p @ y0[b, lo:hi]
            v0[b, :, lo:hi] = v0[b, :, lo:hi] @ _herm(p)
        np.copyto(y, y0, where=small[..., :, None])
        np.copyto(v, v0, where=small[..., None, :])
    return live, (u, v, theta, x, y)


# 2 x 2 matrix entries (a00, a01, a10, a11) to twice (e, f, h, g)
_EFHG = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]]
)
_HALF_SUM_DIFF = np.array([[0.5, 0.5], [0.5, -0.5]])
# the signs of a rotation's entries (cos, -sin, sin, cos)
_ROTATION_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def _svd(a: np.ndarray):
    """np.linalg.svd of a stack, in closed form for real 2 x 2 matrices."""
    if a.shape[-1] == 2 and not np.iscomplexobj(a):
        return _svd2(a)
    return np.linalg.svd(a)


def _svd2(a: np.ndarray):
    """(u, sigma, vh) of a (k, 2, 2) real stack: sigma descending and >= 0.

    A 2 x 2 matrix is e I + h J + f Z + g X, with J = [[0, -1], [1, 0]], Z
    = diag(1, -1) and X = [[0, 1], [1, 0]].  Its first two terms are q
    R(a2), a rotation by a2 scaled by q = |(e, h)|, and its last two r R(a1)
    Z, a reflection scaled by r = |(f, g)|.  So it is R(phi) diag(q + r, q -
    r) R(psi) with phi, psi = (a2 +- a1) / 2: one rotation on each side, and
    where q < r a sign on u's second column makes the second singular value
    r - q.
    """
    # twice e, f, h, g: the halves are taken once, on the singular values
    d = a.reshape(-1, 4) @ _EFHG
    qr = np.hypot(d[:, :2], d[:, 2:])  # 2q, 2r
    turns = np.arctan2(d[:, 2:], d[:, :2]) @ _HALF_SUM_DIFF  # (a2, a1) to (phi, psi)
    # cos phi, cos psi, sin phi, sin psi
    cs = np.concatenate((np.cos(turns), np.sin(turns)), axis=-1)
    u = (cs[:, [0, 2, 2, 0]] * _ROTATION_SIGNS).reshape(-1, 2, 2)
    u[qr[:, 0] < qr[:, 1], :, 1] *= -1.0
    vh = (cs[:, [1, 3, 3, 1]] * _ROTATION_SIGNS).reshape(-1, 2, 2)
    return u, np.abs(qr @ _HALF_SUM_DIFF), vh


def _small_clusters(c: np.ndarray, small: np.ndarray):
    """(block, lo, hi) for each run of two or more small-sin angles of a
    (k, h) stack whose neighbouring cos values agree within DEGEN_EPS."""
    close = (np.abs(np.diff(c, axis=-1)) <= DEGEN_EPS) & small[:, 1:]
    for b in np.flatnonzero(close.any(axis=-1)):
        # a run of close neighbours from lo to hi - 1 joins angles lo..hi
        runs = np.flatnonzero(np.diff(close[b], prepend=False, append=False)).reshape(-1, 2)
        for lo, hi in runs:
            yield b, lo, hi + 1


def _take(blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """blocks[rows] for ascending indices rows, without the copy when rows is every block."""
    return blocks if rows.size == blocks.shape[0] else blocks[rows]


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (a view for real input)."""
    ah = np.swapaxes(a, -1, -2)
    return ah.conj() if np.iscomplexobj(ah) else ah


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


def _min_r(x: np.ndarray) -> np.ndarray:
    """Smallest |r_jj| of the QR factorisation of each matrix of a stack."""
    r = np.linalg.qr(x, mode="r")
    return np.abs(np.diagonal(r, axis1=-2, axis2=-1)).min(axis=-1)


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
