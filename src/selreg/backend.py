"""Hot kernels in NumPy: squared distances, k-NN means and Gaussian smoothing.

Contracts:

``pairwise_sq_dists(queries[nq,d], points[m,d]) -> [nq,m]``
    Squared Euclidean distances, summed coordinate by coordinate from exact
    differences.  Each difference is a BLAS product of two exact terms,
    ``(q, -1) . (1, p)``, so it is rounded once: the bits of ``q - p``,
    however many rows the product gets (of two NaNs it may keep either), at
    a third of the cost of ``np.subtract.outer`` on rows shorter than about
    2,700 points.  The norm expansion |q|^2 + |p|^2 - 2 q.p cancels and
    breaks ties: ``knn_mean`` at d > 1 uses it only to preselect candidates,
    and every distance it compares is still summed from exact differences.

``knn_mean(queries, points, values[m], ks) -> [len(ks), nq]``
    Row j is the mean of ``values`` at the ``ks[j]`` nearest points per
    query, taken in order of (distance, point index): a stable argsort of
    the query's distance row, so exact ties resolve to the lower index and
    NaN distances come last.  ``_nearest`` is that order, and every path
    below takes its ranking from it.  One neighbour ordering per query
    serves every k, and each row equals a call with that k alone.

    For d = 1 the points are sorted once per call, and each query looks
    only at k = ``max(ks)`` consecutive sorted positions: the k nearest
    points are such a run.  Its start lies within k positions left of the
    query's ``searchsorted`` point, and a binary search finds it, moving
    right while the point just past the run is strictly nearer than its
    first point.  A row whose answer the window cannot vouch for (a NaN kth
    distance, a mirror tie out of index order, or a point just outside the
    window that is not strictly farther than the kth) takes the full
    distance row instead, so the result is the same bits either way.

    For d > 1 with ``2 max(ks) < m``, one BLAS product per block,
    ``[|q|^2, -2q, 1] @ [1; p; |p|^2]``, gives the whole norm expansion with
    no further pass over the block.  It only preselects the ``2 max(ks)``
    candidates of each query: the points whose expansion is at or below its
    ``2 max(ks)``-th smallest value.  Every distance compared is still summed
    from exact differences.  A row where that is not exactly ``2 max(ks)``
    points (a tie there, or a NaN), or whose candidates may miss a point
    within the expansion's rounding bound of its kth distance (a NaN or inf
    coordinate, cancellation at large offsets, underflow), takes the full
    distance row, again with the same bits.

``gaussian_nw(queries, centers, values[m], sigmas) -> [len(sigmas), nq]``
    Row j is the weighted average with weights exp(-||q-c||^2 / sigmas[j]);
    an all-zero weight row falls back to the value at the nearest center
    (ties to the lower index).  Each block of queries computes its distances
    once and reuses one block x m weight buffer for every sigma, into which
    it divides the distances by ``-sigma``: the bits of ``-(d2 / sigma)``,
    as division rounds the magnitude alone.  Each row equals a call with
    that sigma alone.  The numerator is a row sum of weight times value, as
    the denominator is a row sum of weights, so each row also has the bits
    of a call with that query alone, whatever block it falls in; a BLAS
    product that rounds more than once has bits that depend on how many
    rows it gets.  Every sigma must be positive and finite.

    ``np.exp`` is 10 to 20 times slower on every argument below about
    -707.7.  So a block whose least quotient, ``-(max d2 / sigma)``, is
    below -700 takes its weights lane by lane: a lane at or above -700, or
    NaN, is ``np.exp`` of its quotient; a lane in [-746, -700) is the exact
    ``np.exp`` of its quotient, taken from a gather of those few lanes; any
    lower lane, -inf included, is +0.0, as ``np.exp`` gives there.  Those
    are ``np.exp``'s own bits in every lane.

No kernel warns on extreme coordinates.  inf - inf gives a NaN distance,
which kNN ranks last and which makes that query's ``gaussian_nw`` estimate
NaN, as a NaN coordinate does.  A square that overflows gives an infinite
distance, which kNN ranks after every finite one; it, and any distance
whose quotient by sigma overflows, gets ``gaussian_nw`` weight 0.

Queries stream through in blocks whose row count follows from m, the number
of points: ``_block_rows(m, budget)`` rows, about ``budget`` elements of a
block x m array, but never fewer than 16 rows nor more than 256.  Distance
blocks, and so ``pairwise_sq_dists``, ``gaussian_nw`` and ``core``'s
lookups, take a budget of 2**16 elements; the candidate loop of
``knn_mean`` at d > 1 takes 2**19, as it does more work per block; the
d = 1 window of ``knn_mean`` takes 256 rows.  Block size changes no bit.

The block x m arrays live in a per-thread workspace, ``_WORK``: one
reusable buffer per role (distances, differences, weights, the mark of
the weights' underflowing lanes, the expansion, its partition copy, the
candidate mask and the point table), each an
anonymous ``mmap`` outside malloc's heap.  So the hot loops allocate nothing
of size block x m, and no page of it is handed back to the system and
faulted in again between blocks.  A buffer holds the largest array any call
in its thread has asked of its role until the thread ends: at most
``max(budget, 16 m)`` elements, or (d + 2) x m for the point table.  Apart
from the ``[nq,m]`` result of ``pairwise_sq_dists``, memory therefore grows
with that element budget and not with the number of queries (block x window
on the d = 1 path).

The point table, rows ``1, p_1 .. p_d, |p|^2``, is the one copy of the
points in a call: each difference product reads two of its rows, and the
expansion reads all of them.  A kernel generator holds its table until it
is done or closed, and any other kernel called in its thread meanwhile
raises rather than overwrite it.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import threading

import numpy as np

BACKEND = "numpy"

_BLOCK = 256  # rows per block of the d = 1 window, and the most of any block
_DIST_BUDGET = 2**16  # elements per distance block
_CANDIDATE_BUDGET = 2**19  # elements per block of the d > 1 candidate loop
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
_EXP_FAST = -700.0  # np.exp is fast at and above this argument
_EXP_ZERO = -746.0  # and +0.0 below this one, under half the least subnormal


class _Workspace(threading.local):
    """One reusable buffer per role for the calling thread.

    ``take(role, shape)`` returns an array over the role's buffer, whose
    contents are whatever the last user left there; it is valid until the
    next ``take`` of that role in this thread.  Each buffer is an anonymous
    ``mmap``, outside malloc's heap, so it never pins the heap and its pages
    are faulted in once, not on every block.  It grows to the largest request
    of its role and is freed with the thread.

    ``hold(role, shape)`` takes a role for the length of a ``with`` block,
    and ``take`` refuses a held role: a block generator that holds its point
    table makes a second one in its thread raise, rather than overwrite the
    table between two of its blocks.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.held: set[str] = set()

    @contextlib.contextmanager
    def hold(self, role: str, shape: tuple[int, ...]):
        array = self.take(role, shape)
        self.held.add(role)
        try:
            yield array
        finally:
            self.held.discard(role)

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if role in self.held:
            raise RuntimeError(
                f"the workspace's {role!r} is held by a live kernel generator in this thread;"
                " finish or close it before calling another kernel"
            )
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(role)
        if buf is None or buf.size < nbytes:
            buf = np.frombuffer(mmap.mmap(-1, max(nbytes, mmap.PAGESIZE)), dtype=np.uint8)
            self.buffers[role] = buf
        return buf[:nbytes].view(dtype).reshape(shape)


_WORK = _Workspace()


def _block_rows(m: int, budget: int) -> int:
    """Rows per block: about ``budget`` elements of a block x m array, within
    16 to 256 rows."""
    return max(16, min(_BLOCK, budget // max(m, 1)))


def _as_pair(queries, points):
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != queries.shape[1]:
        raise ValueError("dimension mismatch between queries and points")
    return queries, points


@contextlib.contextmanager
def _point_table(points: np.ndarray):
    """The [d + 2, m] table of rows ``1, p_1 .. p_d, |p|^2`` over the m
    points, in the workspace and held there until the block exits.  Both
    products read it through views, so the points are copied once per call.
    Every kernel takes its table before any other buffer, so while a
    generator holds one, any other kernel in its thread raises."""
    m, d = points.shape
    with _WORK.hold("table", (d + 2, m)) as table:
        table[0] = 1.0
        np.copyto(table[1:-1], points.T)
        with np.errstate(over="ignore", invalid="ignore"):
            np.einsum("ij,ij->j", table[1:-1], table[1:-1], out=table[-1])
        yield table


def _sq_dist(block: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``d2[i, j]``, the squared distance from ``block[i]`` to point j of
    the ``_point_table``, summed coordinate by coordinate from exact
    differences into the workspace: valid until the next call.

    Each difference ``q - p`` is the product ``(q, -1) . (1, p)`` of the
    block's column and two rows of the table.  Both terms are exact, so
    their sum is rounded once: the bits of ``q - p``, but for the sign of a
    zero, which the square drops, and, where both are NaN, which of the two
    it keeps.  ``np.subtract.outer`` gives those bits too, but on rows
    shorter than about 2,700 points NumPy runs it through its buffered
    iterator at three times the cost of the product; on longer rows the
    product costs up to 1.5 times as much.  The first square goes straight
    into ``d2``.
    """
    (n, d), m = block.shape, table.shape[1]
    d2 = _WORK.take("d2", (n, m))
    diff = _WORK.take("diff", (n, m))
    lhs = _WORK.take("lhs", (n, 2))
    lhs[:, 1] = -1.0
    if d == 0:  # no coordinate to square: every distance is 0
        d2.fill(0.0)
    # inf - inf gives a NaN distance and an overflow an inf one, quietly;
    # the caller's arithmetic on d2 keeps its own policy
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            lhs[:, 0] = block[:, j]
            out = diff if j else d2
            np.square(np.matmul(lhs, table[: j + 2 : j + 1], out=out), out=out)
            if j:
                d2 += diff
    return d2


def _sq_dist_blocks(queries, points):
    """Yield ``(start, d2)`` where ``d2[i, j]`` is the squared distance from
    ``queries[start + i]`` to ``points[j]``, one block of
    ``_block_rows(m, _DIST_BUDGET)`` queries at a time.

    ``d2`` lives in the thread's workspace: it is valid only until the next
    block, and the caller may overwrite it.  Until the generator is done or
    closed it holds its point table, so a kernel called from its loop
    raises.  The kernels, ``core``'s lookups and ``harness``'s median call
    this rather than ``pairwise_sq_dists``, which has no caller in the
    package, so that public name counts only its direct callers.
    """
    queries, points = _as_pair(queries, points)
    rows = _block_rows(points.shape[0], _DIST_BUDGET)
    with _point_table(points) as table:
        for start in range(0, queries.shape[0], rows):
            yield start, _sq_dist(queries[start : start + rows], table)


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    out = np.empty((np.shape(queries)[0], np.shape(points)[0]))
    for start, d2 in _sq_dist_blocks(queries, points):
        out[start : start + d2.shape[0]] = d2
    return out


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per row of ``d2``, ordered by
    (distance, index), NaN distances last: a stable argsort of each row."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _window_nearest(q: np.ndarray, order: np.ndarray, sx: np.ndarray, k: int):
    """The k nearest points to each coordinate in ``q`` (d = 1), in
    (distance, index) order, taken from k consecutive sorted positions, and
    a mask of the rows to redo on the full path.

    ``sx`` holds the point coordinates sorted stably and ``order`` their
    indices, so equal coordinates already sit in index order.  With p the
    query's ``searchsorted`` point, the window starts at some ``lo`` in
    [p - k, p]: the point just left of it lies below the query, and the one
    just right of it at or above.  There, moving the window one step right
    while the point just past it is strictly nearer than its first point is
    a test that holds up to some start and fails after it, so a binary
    search finds that start.  Both gathers copy whole runs: the coordinates
    as rows of a sliding-window view, and a neighbour's index as
    ``order[lo + rank]``.
    """
    m = sx.shape[0]
    p = np.searchsorted(sx, q)
    lo, hi = np.maximum(p - k, 0), np.minimum(p, m - k)
    with np.errstate(over="ignore", invalid="ignore"):
        # hi - lo <= k halves at every step; where mid < hi <= m - k, mid + k
        # is a point, and a NaN fails the test
        for _ in range(int(k).bit_length()):
            mid = (lo + hi) // 2
            right = (mid < hi) & (np.square(q - sx.take(mid + k, mode="clip")) < np.square(q - sx[mid]))
            lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        # the full path adds the square to zeros, which changes no bit
        d2 = np.square(q[:, None] - np.lib.stride_tricks.sliding_window_view(sx, k)[lo])
        rank = _nearest(d2, k)
        idx = order[lo[:, None] + rank]
        near = np.take_along_axis(d2, rank, axis=1)
        kth = near[:, -1]
        # a NaN kth distance: NaNs sort last, so only then is one in the window
        full = np.isnan(kth)
        # equal distances out of index order: a mirror tie at q - r and q + r
        full |= np.any((near[:, 1:] == near[:, :-1]) & (idx[:, 1:] < idx[:, :-1]), axis=1)
        # the nearest point outside on either side no farther than the kth; the
        # points past it are farther still, as the sorted coordinates move away
        for outside, exists in ((lo - 1, lo > 0), (lo + k, lo + k < m)):
            full |= exists & ~(np.square(q - sx[np.clip(outside, 0, m - 1)]) > kth)
    return idx, full


def _candidate_nearest(q, table, p2max, k: int):
    """The k nearest points to each row of ``q`` (d > 1, 2k < m), in
    (distance, index) order, and a mask of the rows to redo on the full path.

    ``table`` is the ``_point_table`` and ``p2max`` the largest squared norm
    in it.  The norm expansion ``a = |q|^2 + |p|^2 - 2 q.p`` is one product,
    ``[|q|^2, -2q, 1] @ [1; p; |p|^2]``, so it takes no pass over the block
    x m array beyond the product's own.  It picks as candidates the points
    whose ``a`` is at most t, the 2k-th smallest ``a`` of the row; a row
    where that is not exactly 2k points (a tie at t, or a NaN) is redone.
    Only the candidates' distances are summed from exact differences, with
    the bits ``_sq_dist`` gives them, so every distance compared has the full
    path's bits.  Call those sums e and the true distance D <= 2S, where
    S = |q|^2 + max |p|^2 and eps is the spacing of floats at 1 (twice the
    unit roundoff).  e has at most d + 2 roundings per term: |e - D| <=
    (d + 2) eps S.  |q|^2 and |p|^2 have at most d roundings each, and the
    product's d + 2 terms, summed in any order with or without fused
    multiply-adds, at most d + 2 each on a sum of magnitudes <= 2S:
    |a - D| <= (3d/2 + 2) eps S.  Where a rounding underflows it may add
    half a subnormal besides, and a and e take fewer than 8d roundings that
    can (a subtraction whose result underflows is exact).  So |a - e| <=
    (5d/2 + 4) eps S + 4d tiny, within delta = (d + 4)(4 eps S + 4 tiny).  The k points of
    smallest a then have e <= a_k + delta, a_k being the kth smallest a, and
    every point with e at or below the kth smallest e has a <= a_k + 2 delta.
    A row settles when t exceeds that: every such point, ties included, is
    then a candidate.

    The expansion and its partition copy are block x m arrays in the
    workspace.  Each row's count of candidates is a ``bincount`` of their
    flat indices, so the candidate mask takes one pass; a row with ties at t
    lists them all there for a moment, at most block x m indices.
    """
    n, m = q.shape[0], table.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        q2 = np.square(q).sum(axis=1)
        lhs = _WORK.take("expansion", (n, table.shape[0]))
        lhs[:, 0] = q2
        np.multiply(q, -2.0, out=lhs[:, 1:-1])
        lhs[:, -1] = 1.0
        a = np.matmul(lhs, table, out=_WORK.take("a", (n, m)))
        part = _WORK.take("part", (n, m))
        np.copyto(part, a)
        # one kth: NumPy's partition is several times slower given two
        part.partition(2 * k - 1, axis=1)
        t = part[:, 2 * k - 1]
        kth = np.partition(part[:, : 2 * k], k - 1, axis=1)[:, k - 1]
        mask = np.less_equal(a, t[:, None], out=_WORK.take("mask", (n, m), bool))
        # flat indices come in order, so each row's candidates are sorted
        row, col = np.divmod(np.flatnonzero(mask), m)
        # 4 S is formed first, so a row whose sums could overflow gets an
        # infinite delta; a NaN or inf coordinate makes it NaN or inf too,
        # and none of these rows settles
        delta = (q.shape[1] + 4) * (_EPS * (4.0 * (q2 + p2max)) + 4.0 * _TINY)
        full = (np.bincount(row, minlength=n) != 2 * k) | ~(t > kth + 2.0 * delta)
        cand = np.empty((n, 2 * k), dtype=np.intp)
        cand[~full] = col[~full[row]].reshape(-1, 2 * k)
        # a row to redo takes the first 2k points, so that every row has 2k
        cand[full] = np.arange(2 * k)
        e = np.zeros(cand.shape)
        diff = np.empty(cand.shape)
        for qj, pj in zip(q.T, table[1:-1]):
            np.take(pj, cand, out=diff)
            np.subtract(qj[:, None], diff, out=diff)
            e += np.square(diff, out=diff)
    return np.take_along_axis(cand, _nearest(e, k), axis=1), full


def _neighbours(queries, points, k: int):
    """Yield ``(start, idx)``: the k nearest points of each query in a block,
    ordered by (distance, index).  One-dimensional data takes the sorted
    window of ``_window_nearest`` in blocks of ``_BLOCK`` rows, and wider
    data with 2k < m the candidates of ``_candidate_nearest`` in blocks of
    ``_block_rows(m, _CANDIDATE_BUDGET)``; the rows they leave unsettled take
    the full distance row, in distance blocks of their own.  All other data
    takes the full path."""
    queries, points = _as_pair(queries, points)
    m, d = points.shape
    if d != 1 and 2 * k >= m:
        for start, d2 in _sq_dist_blocks(queries, points):
            yield start, _nearest(d2, k)
        return
    with _point_table(points) as table:
        if d == 1:
            rows = _BLOCK
            order = np.argsort(points[:, 0], kind="stable")
            sx = points[order, 0]
            pick = lambda block: _window_nearest(block[:, 0], order, sx, k)
        else:
            rows = _block_rows(m, _CANDIDATE_BUDGET)
            p2max = table[-1].max()
            pick = lambda block: _candidate_nearest(block, table, p2max, k)
        redo_rows = _block_rows(m, _DIST_BUDGET)
        for start in range(0, queries.shape[0], rows):
            block = queries[start : start + rows]
            idx, full = pick(block)
            redo = np.flatnonzero(full)
            # the redone rows may span several distance blocks: each writes
            # back through its own indices
            for r in range(0, redo.shape[0], redo_rows):
                some = redo[r : r + redo_rows]
                idx[some] = _nearest(_sq_dist(block[some], table), k)
            yield start, idx


def knn_mean(
    queries: np.ndarray, points: np.ndarray, values: np.ndarray, ks
) -> np.ndarray:
    """Row j: mean of the values at the ks[j] nearest points; distance ties
    break by ascending point index."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != np.shape(points)[0]:
        raise ValueError("values length must match point count")
    if len(ks) == 0 or not 1 <= min(ks) <= max(ks) <= values.shape[0]:
        raise ValueError("k out of range")
    out = np.empty((len(ks), np.shape(queries)[0]))
    for start, idx in _neighbours(queries, points, max(ks)):
        # the first k of the (distance, index) order are the k nearest
        g = values[idx]
        for j, k in enumerate(ks):
            out[j, start : start + idx.shape[0]] = g[:, :k].mean(axis=1)
    return out


def _exp(x: np.ndarray, least) -> np.ndarray:
    """``np.exp(x)`` in place, with its bits, for a block whose least
    element is ``least`` (NaN if any element is NaN).

    A block with any lane below ``_EXP_FAST`` marks those lanes, takes the
    exact ``np.exp`` of the few in [``_EXP_ZERO``, ``_EXP_FAST``), clamps
    the marked lanes to ``_EXP_FAST`` so that the whole block exps on the
    fast path, writes +0.0 into the marked lanes and puts the exact values
    back.  A NaN lane is never marked and stays NaN; a -inf lane is marked
    and becomes +0.0, as ``np.exp`` gives.
    """
    if least >= _EXP_FAST:
        return np.exp(x, out=x)
    flat = x.reshape(-1)
    mark = np.less(flat, _EXP_FAST, out=_WORK.take("mark", flat.shape, bool))
    band = np.flatnonzero(mark & (flat >= _EXP_ZERO))
    exact = np.exp(flat[band])
    np.exp(np.maximum(flat, _EXP_FAST, out=flat), out=flat)
    np.multiply(flat, np.logical_not(mark, out=mark), out=flat)
    flat[band] = exact
    return x


def gaussian_nw(
    queries: np.ndarray, centers: np.ndarray, values: np.ndarray, sigmas
) -> np.ndarray:
    """Row j: Nadaraya-Watson average with weights
    exp(-||q - c||^2 / sigmas[j]).

    If every weight underflows to zero the estimate falls back to the value
    at the nearest center (ties by ascending index).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != np.shape(centers)[0]:
        raise ValueError("values length must match center count")
    sigmas = tuple(float(s) for s in sigmas)
    if not sigmas or not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError(f"sigma must be positive and finite, got {sigmas}")
    out = np.empty((len(sigmas), np.shape(queries)[0]))
    for start, d2 in _sq_dist_blocks(queries, centers):
        w = _WORK.take("w", d2.shape)
        d2max = d2.max(initial=0.0)  # NaN if any distance is
        for j, s in enumerate(sigmas):
            # a quotient that overflows becomes -inf, whose weight is 0
            with np.errstate(over="ignore", invalid="ignore"):
                # division rounds the magnitude alone: d2 / -s is -(d2 / s),
                # and it keeps order, so the block's least quotient is
                # -(d2max / s)
                _exp(np.divide(d2, -s, out=w), -(d2max / s))
                den = w.sum(axis=1)
                # a row sum, not a BLAS product, so that the block's row
                # count changes no bit of a row
                est = np.multiply(w, values, out=w).sum(axis=1)
                est /= np.where(den > 0.0, den, 1.0)
            dead = den == 0.0
            if np.any(dead):
                est[dead] = values[np.argmin(d2[dead], axis=1)]
            out[j, start : start + est.shape[0]] = est
    return out
