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
at a time, and writes the factors into preallocated output stacks.  Every
stack goes through one router: split_stack's chunks of a level, whose size
bounds the temporaries of the batched steps, and the deflation's remainders
alike.  From m = 4 up the routes take only the first copy of each
byte-distinct block, in stack order, and each such block takes the first
route below that takes it:

1. m = 2: a closed form.
2. m >= DEFLATE_MIN_DIM, a block with quadrant-pure rows: an exact
   deflation (Van Loan 1985 and Sutton 2009, cited below).  A top row with
   a zero X12 row and a bottom row with a zero X21 row are a pair with
   theta = 0 and unit columns of u and v; a top row with a zero X11 row and
   a bottom row with a zero X22 row one with theta = pi/2.  Their x and y
   rows are the block's own rows.  The unpaired rows form a smaller unitary
   in bases of what the paired x and y rows leave free, and the remainders
   of a stack go through the router together.  They skip this route and
   take the routes below for their size: deflated as well, they would give
   other, slightly smaller circuits (168 fewer subgates of 1,373,750 on a
   12-qubit walk), and every walk circuit's exact text would change.  A
   block whose rows all pair is split by index gathers alone.  Walk
   operators are mostly such rows, and LAPACK's split of them mixes the
   rows of a cluster at 0 or pi/2 into dense factors, which the next levels
   then split into more nonzero angles.
3. Real m >= 4 and complex m >= BATCHED_MIN_DIM: a batched route after Van
   Loan ("Computing the CS and the generalized singular value
   decompositions", Numer. Math. 46, 1985).  One stacked SVD of the
   top-left quadrants gives u, theta and x.  Where sin theta > 1/2, v and y
   follow from the off-diagonal quadrants divided by sin theta; the rest
   come from a stacked SVD of the bottom-right residual, phase-matched
   through the top-right quadrant.  For real 4 x 4 blocks both SVDs are of
   2 x 2 matrices and take a closed form.  Below SVD_ROUTE_MIN_DIM only
   well-separated blocks take the route: a block with an all-zero row or
   column in a quadrant has a theta of exactly 0 or pi/2 and does not reach
   the SVDs, and after them a block with a theta cluster within DEGEN_EPS,
   or a theta within DEGEN_EPS of 0 or pi/2, passes on.  Most degenerate
   walk blocks have such a zero line.  From SVD_ROUTE_MIN_DIM up every
   block takes the route, where it beats LAPACK.
4. Every other block: LAPACK's CSD (xORCSD for real, xUNCSD for complex
   blocks; B. D. Sutton, "Computing the complete CS decomposition", Numer.
   Algorithms 50, 2009), one raw call per block, with the routine and its
   workspace size looked up once per stack.  Degenerate blocks keep
   LAPACK's sparse bases this way, and with them the circuits' gate counts.
   Complex blocks of 4 and 8 stay here because the pipeline benchmark counts
   their calls: its smoke test pins 4 calls at m = 4 and 1 at m = 8 on a
   complex 8 x 8, and haar-n7's csd.cossin.* metrics are these calls.
   Moving them to the batched route waits for a change to that benchmark.

The router canonicalises and checks the reconstruction of its distinct
blocks once, whatever their routes.  A block that the batched route leaves
above the reconstruction tolerance, NaN included, is redone by LAPACK, and
so is every block of that route where an SVD does not converge, so route
selection never affects correctness.  The repeats then get their first
copy's factors by one gather.  A walk's symmetry shows up as such repeats:
most blocks of its low levels are copies, and so are many of the
deflation's remainders.  Every route splits a block as it splits it alone,
so the repeats come out bit for bit as their own splits would; the one
exception is the LAPACK redo after an SVD that does not converge, which
takes every block of the stack that the batched route had.
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
# blocks at least this large split off their pairs of quadrant-pure rows
# exactly before any other route runs.  Smaller ones keep LAPACK's split of
# such blocks, which the paper's published walk circuits reproduce: deflated,
# the 8 x 8 square walk and the 16 x 16 star walk lose their published gates.
DEFLATE_MIN_DIM = 32
# split_stack routes a stack this many entries at a time, so the batched
# steps' temporaries stay small next to a whole recursion level's stack
_CHUNK_ENTRIES = 1 << 18


def split_stack(blocks: np.ndarray, tol: Tolerances):
    """CSD every block of a (k, m, m) stack, m a power of two.

    Returns (lefts, theta, rights) where lefts/rights stack the u, v / x, y
    factors of block b at positions 2b, 2b+1, and theta concatenates the
    per-block angle vectors in block order.  The stack goes to the router a
    chunk at a time, and every block is held to the reconstruction
    tolerance.  A stack holding NaN or inf fails before any route runs:
    LAPACK iterates to its limit on such a block.
    """
    if not np.isfinite(blocks).all():
        raise NumericalFailureError(np.nan, tol.reconstruct)
    k, m, _ = blocks.shape
    h = m // 2
    lefts = np.empty((k, 2, h, h), dtype=blocks.dtype)
    rights = np.empty_like(lefts)
    theta = np.empty((k, h))
    step = max(1, _CHUNK_ENTRIES // (m * m))
    for lo in range(0, k, step):
        rows = slice(lo, lo + step)
        (u, v, th, x, y), residual = _csd_routed(blocks[rows], tol)
        _require(residual, tol)
        lefts[rows, 0], lefts[rows, 1] = u.reshape(-1, h, h), v.reshape(-1, h, h)
        rights[rows, 0], rights[rows, 1] = x.reshape(-1, h, h), y.reshape(-1, h, h)
        theta[rows] = th.reshape(-1, h)
    return lefts.reshape(2 * k, h, h), theta.reshape(-1), rights.reshape(2 * k, h, h)


def _distinct(chunk: np.ndarray):
    """(first, copies) of a (k, m, m) stack's byte-distinct blocks, or (None, None) without repeats.

    first indexes the first copy of each distinct block, ascending; block b
    is a copy of block first[copies[b]].  A fingerprint of each block's
    64-bit words under odd weights screens for repeats: equal blocks always
    get equal fingerprints, so where all differ no two blocks are equal.
    Otherwise np.unique over each block's bytes groups the stack exactly;
    the fingerprint alone would not, as signed entries collide under it.
    """
    k = chunk.shape[0]
    if k < 2:
        return None, None
    words = np.ascontiguousarray(chunk).reshape(k, -1).view(np.uint64)
    prints = np.sort(words @ _odd_weights(words.shape[1]))
    if np.all(prints[1:] != prints[:-1]):
        return None, None
    keys = words.view(np.dtype((np.void, words.shape[1] * 8)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == k:
        return None, None
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _odd_weights(n: int) -> np.ndarray:
    """n distinct odd 64-bit weights, the same on every call."""
    return (2 * np.arange(n, dtype=np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)


def _require(residual: np.ndarray, tol: Tolerances):
    """Enforce the reconstruction contract on every block; a NaN residual fails it too."""
    worst = float(np.max(residual))
    if not worst <= tol.reconstruct:
        raise NumericalFailureError(worst, tol.reconstruct)


def _csd_routed(blocks: np.ndarray, tol: Tolerances, deflate: bool = True):
    """Canonical factors of a (k, m, m) stack, and a residual for each block the routes split.

    Each distinct block takes the first route of the module's list that
    takes it; the deflation's remainders pass deflate=False to skip it.
    """
    m = blocks.shape[1]
    if m == 2:
        return _csd_dim2_batch(blocks)
    first, copies = _distinct(blocks)
    a = blocks if first is None else blocks[first]
    k, h = a.shape[0], m // 2
    deflating = deflate and m >= DEFLATE_MIN_DIM
    batched = m >= (BATCHED_MIN_DIM if np.iscomplexobj(a) else 4)
    screen = m < SVD_ROUTE_MIN_DIM
    left = np.ones(k, dtype=bool)  # the blocks no route has taken yet
    lineless = True  # the blocks with no all-zero row or column in a quadrant
    parts, taken = [], np.arange(0)
    if (deflating or batched and screen) and not np.all(a):  # Haar blocks have no zero entry
        # [b, s, i, c, j] is entry (i, j) of quadrant (s, c) of block b
        nonzero = a.reshape(k, 2, h, 2, h) != 0
        rows = nonzero.any(axis=-1)
        lineless = rows.reshape(k, -1).all(axis=-1) & nonzero.any(axis=2).reshape(k, -1).all(axis=-1)
        del nonzero  # a bool per entry of the stack: not held through the deflation
        if deflating:
            top, bottom, p0, q = _pure_pairs(~rows)
            pure = q.nonzero()[0]
            if pure.size:
                pairs = (top[pure], bottom[pure], p0[pure], q[pure])
                parts.append((pure, _csd_deflated(_take(a, pure), *pairs, tol)))
                left[pure] = False
    if batched:
        live = (left & lineless if screen else left).nonzero()[0]
        if live.size:
            try:
                taken, factors = _csd_van_loan(a, live, screen)
            except np.linalg.LinAlgError:  # its blocks go on to LAPACK
                pass
            else:
                parts.append((taken, factors))
                left[taken] = False
    rest = left.nonzero()[0]
    if rest.size:
        parts.append((rest, _csd_lapack(_take(a, rest))))
    factors = _merge(k, parts)
    del parts  # where routes shared the stack, _merge copied their factors
    factors = _canonicalize(*factors)
    residual = _reconstruction_residual(a, *factors)
    redo = taken[~(residual[taken] <= tol.reconstruct)]  # a NaN residual fails too
    if redo.size:
        redone = _canonicalize(*_csd_lapack(a[redo]))
        for f, r in zip(factors, redone):
            f[redo] = r
        residual[redo] = _reconstruction_residual(a[redo], *redone)
    if copies is not None:
        factors = tuple(f[copies] for f in factors)
    return factors, residual


def _pure_pairs(zero: np.ndarray):
    """Each block's pairs of quadrant-pure rows, matched in row order.

    zero[b, s, i, c] says that row i of side s (top, bottom) of block b is
    zero in column half c.  A top row with a zero X12 row pairs with a
    bottom row with a zero X21 row (theta = 0), and one with a zero X11 row
    with one with a zero X22 row (theta = pi/2).  Returns (top, bottom, p0,
    q): pair j < q[b] of block b joins top row top[b, j] and bottom row h +
    bottom[b, j]; the first p0[b] pairs have theta = 0.  The unpaired rows
    follow in row order.
    """
    counts = np.count_nonzero(zero, axis=2)
    p0 = np.minimum(counts[:, 0, 1], counts[:, 1, 0])
    p1 = np.minimum(counts[:, 0, 0], counts[:, 1, 1])
    top = _pairs_first(zero[:, 0, :, 1], p0, zero[:, 0, :, 0], p1)
    bottom = _pairs_first(zero[:, 1, :, 0], p0, zero[:, 1, :, 1], p1)
    return top, bottom, p0, p0 + p1


def _pairs_first(at_zero: np.ndarray, p0: np.ndarray, at_right: np.ndarray, p1: np.ndarray):
    """Row orders: the first p0 rows of mask at_zero, the first p1 of mask at_right, then the rest."""
    key = np.full(at_zero.shape, 2)
    key[at_right & (np.cumsum(at_right, axis=-1) <= p1[:, None])] = 1
    key[at_zero & (np.cumsum(at_zero, axis=-1) <= p0[:, None])] = 0
    return np.argsort(key, axis=-1, kind="stable")


def _csd_deflated(a, top, bottom, p0, q, tol: Tolerances):
    """CSD of a (k, 2h, 2h) stack whose blocks have q > 0 pairs of quadrant-pure rows each.

    Pair j of a block joins its top row t = top[j] and bottom row b = h +
    bottom[j]: u and v take the unit columns e_t and e_b, and for j < p0
    (theta = 0) x_j = X11[t] and y_j = X22[b], else (theta = pi/2) x_j =
    -X21[b] and y_j = X12[t].  The r = h - q unpaired rows on each side are
    orthogonal to the paired rows, so in orthonormal bases px and py of what
    the paired x and y rows leave of their space they form a 2r x 2r
    unitary.  The remainders of each size r go through the router together,
    without its deflation, and their CSD gives the rest of u, v and theta,
    and through px and py the rest of x and y.  A block whose rows all pair
    is index gathers alone.  Returns the factors before canonicalisation.
    """
    k, m, _ = a.shape
    h = m // 2
    stack, j = np.arange(k)[:, None], np.arange(h)
    paired = j < q[:, None]
    right = paired & (j >= p0[:, None])
    u, v = np.zeros((k, h, h), a.dtype), np.zeros((k, h, h), a.dtype)
    u[stack, top, j] = paired
    v[stack, bottom, j] = paired
    theta = np.where(right, np.pi / 2, 0.0)
    x, y = a[stack, top, :h], a[stack, h + bottom, h:]
    b, i = np.nonzero(right)
    x[b, i], y[b, i] = -a[b, h + bottom[b, i], :h], a[b, top[b, i], h:]
    for r in np.unique(h - q[q < h]):
        g, n = np.flatnonzero(q == h - r), h - r
        px, py = _complement(x[g, :n]), _complement(y[g, :n])
        rest = a[g[:, None], np.concatenate((top[g, n:], h + bottom[g, n:]), axis=-1)]
        sub = np.concatenate((rest[..., :h] @ _herm(px), rest[..., h:] @ _herm(py)), axis=-1)
        (su, sv, st, sx, sy), _ = _csd_routed(sub, tol, deflate=False)
        rows, cols = g[:, None, None], n + np.arange(r)
        u[rows, top[g, n:, None], cols] = su.reshape(-1, r, r)
        v[rows, bottom[g, n:, None], cols] = sv.reshape(-1, r, r)
        theta[g, n:] = st.reshape(-1, r)
        x[g, n:] = sx.reshape(-1, r, r) @ px
        y[g, n:] = sy.reshape(-1, r, r) @ py
    return u, v, theta, x, y


def _complement(d: np.ndarray) -> np.ndarray:
    """(k, h - q, h) orthonormal rows orthogonal to the (k, q, h) orthonormal rows d.

    Unit rows at the columns that no row of d touches come first, in column
    order.  Where d's rows touch more columns than there are rows, a QR of
    those columns completes the basis among them.
    """
    k, q, h = d.shape
    touched = d.any(axis=1)
    free = h - np.count_nonzero(touched, axis=-1)
    cols = np.argsort(touched, axis=-1, kind="stable")[:, : h - q, None]
    p = np.zeros((k, h - q, h), d.dtype)
    np.put_along_axis(p, cols, (np.arange(h - q) < free[:, None])[..., None], axis=-1)
    for b in np.flatnonzero(free < h - q):
        s = np.flatnonzero(touched[b])
        basis = np.linalg.qr(_herm(d[b][:, s]), mode="complete")[0]
        p[b, free[b] :][:, s] = _herm(basis[:, q:])
    return p


def _merge(k: int, parts):
    """The factors of a k-block stack from (indices, factors) parts that cover it."""
    if len(parts) == 1:
        return parts[0][1]
    out = tuple(np.empty((k, *f.shape[1:]), f.dtype) for f in parts[0][1])
    for rows, factors in parts:
        for o, f in zip(out, factors):
            o[rows] = f
    return out


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
