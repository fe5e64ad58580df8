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
    points are such a run.  The run moves one step right while the point
    just past it is strictly nearer than its first point, that is, for
    distinct coordinates, while the two sum to less than twice the query.
    Those sums of sorted coordinates k apart never decrease along the
    points, so one ``searchsorted`` of twice the query among them gives the
    start.  The checks, not the search, vouch for the bits: a row whose
    answer the window cannot vouch for (a NaN kth distance, a mirror tie out
    of index order, or a point just outside the window that is not strictly
    farther than the kth) takes the full distance row instead, so the
    result is the same bits whatever start rounding, equal coordinates,
    infinities or overflow give the search.

    For d > 1 with ``2 max(ks) < m``, one BLAS product per block,
    ``[|q'|^2, -2q', 1] @ [1; p'; |p'|^2]``, gives the whole norm expansion
    of the points less a centre c with no further pass over the block.  It
    only preselects the ``2 max(ks)`` candidates of each query.  Every
    distance compared is still summed in float64 from exact differences.
    Two tiers rank the rows.  The first runs in float32, with c the midpoint
    of the points' bounding box, so that its error follows the points'
    spread and not their distance from the origin.  In the product's own
    buffer it packs each expansion, read as an int32 key, into a word of its
    bucket, the key with its low bits cleared, and the point's index, in
    those bits; one partition of each row's words then leaves the
    ``2 max(ks)`` least, its candidates, in the row's first slots.  Past
    2**16 points the words keep 16 index bits and are partitioned in tiles
    of 2**16 points, whose candidates one more partition merges.  The pass
    leaves a row unsettled where its candidates may miss a point within the
    expansion's rounding bound of its kth distance (a NaN or inf coordinate,
    coordinates far from c, underflow, overflow, or the buckets of its kth
    and ``2 max(ks)``-th candidates closer than that bound).  The full
    distance row takes those rows; where 2k < m it ranks only the points at
    or below each row's kth distance.  The result has the same bits
    whichever tier settles a row.

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

``nw_at_most(queries, centers, values[m], sigmas, c) -> bool[len(sigmas), nq]``
    Row j is ``np.maximum(gaussian_nw(...)[j], 0.0) <= c``, bit for bit, as
    a threshold needs only that.  With every input finite, every value >= 0
    and 0 <= c < inf, a float32 bracket of the estimate decides most rows
    without it.

    The bracket.  Per distance block, ``_expansion`` gives kNN's float32
    expansion a, about d2, in every lane, for every sigma: one product of
    the left rows ``[|q'|^2, -2q', 1]`` with ``_centred_table``, with S and
    delta (see ``_candidate_nearest``).  Per sigma s, with r = 1/s,
    each lane's quotient is t32 = a times -r in float32.  Its weights
    w = ``np.exp(t32)`` are taken in float32 and copied into float64, where
    one product ``w @ [v, 1]`` gives both sums, ns and ws.

    Proof.  Let u = 2^-53, γ = m u / (1 - m u), eps and tiny float32's
    spacing at 1 and least subnormal, and tiny64 float64's.  The exact
    kernel's lane has the quotient t = -(e / s), rounded, and the weight
    W = ``np.exp(t)``.

    * Quotients.  kNN's proof bounds |a - e| by (3d/2 + 6) eps S +
      (3d/2 + 2) tiny, and e <= 2.01 S.  Where r is a normal float32, -r
      rounded to float32 and the product's rounding add at most
      1.01 eps r |a| + tiny / 2, and the exact quotient rounds within
      u r e.  Delta's slack over kNN's bound, (5d/2 + 10) eps S, covers all
      but the tiny / 2, so |t32 - t| <= dt = r delta + tiny.
    * Weights.  ``np.exp`` errs by at most 4 eps relatively in float32 and
      2^-51 in float64, and by tiny (tiny64) more where it underflows; tests
      check both on dense grids.  Float32 ``np.exp`` is about 14 times
      slower where its result is subnormal, so where a lane may be below
      -87 (|t32| <= 2.01 r S + dt), every lane below -87 takes -87: its
      weight, e^-87 (1 ± 4 eps), is within 2^-125 of e^t32, as is any
      subnormal one.  With G = e^dt (1 + 2^-51) / (1 - 4 eps),
      W <= G (w + 2^-125) + tiny64 and W >= (w - 2^-125) / G - tiny64, and
      G tiny64 < 2^-125, as dt <= 1.
    * Sums.  Any order of summation of m terms >= 0 errs by at most γ
      times their sum: so do ws, ns and the exact kernel's row sums, and
      the products of each that underflow add at most m tiny64.

    So with K = 3 m 2^-125, top = max(v) + 1, rho = (4m + 32) 2^-52 and
    g = e^(dt + 5 eps + rho), which covers G, the four sums' γ, the
    estimate's own rounding and the bounds' arithmetic,

        hi = g^2 (ns + K top) / (ws - K) + 4 tiny64,
        lo = (ns - K top) / (g^2 (ws + K)) - 4 tiny64

    bracket the exact estimate where ws > K, which also makes the exact
    weight sum positive, so that no row takes the nearest centre, and ns is
    finite.  The estimate is then >= 0, so that the clamp is a no-op.  Such
    a row with hi <= c accepts, one with lo > c defers.  A row whose S is
    not at most a quarter of float32's largest value is left to
    ``gaussian_nw``, as kNN leaves it to the full path.  A sigma skips a
    row where dt > 1, as its bracket then spans a factor of e^4 or more
    and settles too few rows to pay for its lanes, or where r times the
    row's least a is above 87, as then every weight is within the slack of
    0; and it skips every row where r is not a normal float32.

    Every row the bracket does not settle takes ``gaussian_nw``: ties at
    c, rows whose weights may sum to 0, and rows that fail S.  So does
    every sigma of a call with a non-finite input, a negative value or a c
    that is not finite and >= 0.  Those calls ask ``gaussian_nw`` once,
    for the whole sigmas or for the rows left, which give its bits, as a
    row of it does not depend on the other rows or sigmas of its call.

``nearest_rows(queries, points) -> [nq]``
    The index of each query's nearest point, ties to the lower index: the
    argmin of each distance block, so a NaN distance, which ``np.argmin``
    takes as the least, wins its row.  ``core``'s lookups call it on finite
    queries only.

``median_sq_dist(points[m,d]) -> float``
    The median of the m (m - 1) / 2 squared distances between distinct
    points, ``np.median`` of the condensed upper triangle of
    ``pairwise_sq_dists(points, points)``, with its bits, but where only the
    sum of the two middle values overflows: there it halves each first.  NaN
    below two points.  The triangle is filled block by block into one array
    of the call's own, which the median partitions in place: no m x m array.

No kernel warns on extreme coordinates.  inf - inf gives a NaN distance,
which kNN ranks last and which makes that query's ``gaussian_nw`` estimate
NaN, as a NaN coordinate does.  A square that overflows gives an infinite
distance, which kNN ranks after every finite one; it, and any distance
whose quotient by sigma overflows, gets ``gaussian_nw`` weight 0.

Queries stream through in blocks whose row count follows from m, the number
of points: ``_block_rows(m, budget)`` rows, about ``budget`` elements of a
block x m array, but never fewer than 16 rows nor more than 256.  Distance
blocks, and so ``pairwise_sq_dists``, ``gaussian_nw``, ``nearest_rows``,
``median_sq_dist`` and the full-path rows of ``knn_mean``, take a budget of
2**16 elements; the candidate loop of ``knn_mean`` at d > 1 takes 2**19, as
it does more work per block; the d = 1 window of ``knn_mean`` takes 256
rows; the float32 bracket of ``nw_at_most`` takes distance blocks.  Block
size changes no bit.

The block x m arrays live in a per-thread workspace, ``_WORK``: one
reusable buffer per role, each an anonymous ``mmap`` outside malloc's heap.
By tier, the roles are:

* distance blocks (``_sq_dist``, and so ``gaussian_nw`` and kNN's full
  path): ``table`` (the point table), ``d2``, ``diff`` and ``lhs`` (the
  distances, one coordinate's differences and the product's left rows);
  ``gaussian_nw`` adds ``w`` (the weights) and ``mark`` (their lanes below
  ``_EXP_FAST``);
* kNN's float32 candidates: ``table``, ``table32`` (its float32 centred
  copy), ``expansion`` (the left rows) and, in float32, ``diff`` (the
  float32 expansion, whose buffer its packed words reuse);
* kNN's d = 1 window, its block x k arrays: ``window`` (its distances),
  ``slots`` (its sorted positions, then flat ranks), ``neighbours`` (the
  indices it returns), ``near`` (the ranked distances) and ``ties`` (two
  masks of adjacent ranks); every kNN path adds ``gathered``, the
  neighbours' values;
* ``nw_at_most``'s float32 bracket: ``table``, ``table32``, ``expansion``,
  and, in float32, ``diff`` (kNN's float32 expansion) and ``d2`` (one
  sigma's quotients, then their float32 weights), with ``w`` (those
  weights in float64).

So the hot loops allocate nothing of size block x m, and no page of it is
handed back to the system and faulted in again between blocks; of block x
k, the window allocates only ``_nearest``'s argsort, which takes no
``out=``.  A buffer holds the largest array any call in its
thread has asked of its role until the thread ends: at most
``max(budget, 16 m)`` elements, (d + 1) x m for the point table, or
(d + 2) x m for its float32 copy.  Apart from the ``[nq,m]`` result of
``pairwise_sq_dists`` and the triangle of ``median_sq_dist``, memory
therefore grows with that element budget and not with the number of
queries (block x window on the d = 1 path).

The point table, rows ``1, p_1 .. p_d``, is the one copy of the points
in a call: each difference product reads two of its rows.  The float32
expansion reads a second table, ``_centred_table``'s rows
``1, p'_1 .. p'_d, |p'|^2`` of the centred points, built from the rows of
the first.

Each kernel takes its buffers and is done with them within one call, and
calls no other kernel while its point table or a block is live:
``nw_at_most`` calls ``gaussian_nw`` only after its last bracket block.
No kernel yields, so no code outside this module runs between two of its
blocks, and a block never leaves the call that computed it.
"""

from __future__ import annotations

import math
import mmap
import threading

import numpy as np

BACKEND = "numpy"

_BLOCK = 256  # rows per block of the d = 1 window, and the most of any block
_DIST_BUDGET = 2**16  # elements per distance block
_CANDIDATE_BUDGET = 2**19  # elements per block of the d > 1 candidate loop
_EXP_FAST = -700.0  # np.exp is fast at and above this argument
_EXP_ZERO = -746.0  # and +0.0 below this one, under half the least subnormal
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).smallest_subnormal)
_MAX32 = float(np.finfo(np.float32).max)


class _Workspace(threading.local):
    """One reusable buffer per role for the calling thread.

    ``take(role, shape)`` returns an array over the role's buffer, whose
    contents are whatever the last user left there; it is valid until the
    next ``take`` of that role in this thread.  Each buffer is an anonymous
    ``mmap``, outside malloc's heap, so it never pins the heap and its pages
    are faulted in once, not on every block.  It grows to the largest request
    of its role and is freed with the thread.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
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


def _point_table(points: np.ndarray) -> np.ndarray:
    """The [d + 1, m] table of rows ``1, p_1 .. p_d`` over the m points, in
    the workspace: valid until the next call in this thread.  The products
    read it through views, so the points are copied once per call."""
    m, d = points.shape
    table = _WORK.take("table", (d + 1, m))
    table[0] = 1.0
    np.copyto(table[1:], points.T)
    return table


def _prepare(queries, points):
    """What every block loop starts from: the queries as contiguous float64,
    the ``_point_table`` of the points, and the rows of a distance block,
    ``_block_rows(m, _DIST_BUDGET)``."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != queries.shape[1]:
        raise ValueError("dimension mismatch between queries and points")
    return queries, _point_table(points), _block_rows(points.shape[0], _DIST_BUDGET)


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


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    queries, table, rows = _prepare(queries, points)
    out = np.empty((queries.shape[0], table.shape[1]))
    for start in range(0, queries.shape[0], rows):
        out[start : start + rows] = _sq_dist(queries[start : start + rows], table)
    return out


def nearest_rows(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the point nearest to each query, ties to the lower index."""
    queries, table, rows = _prepare(queries, points)
    out = np.empty(queries.shape[0], dtype=np.intp)
    for start in range(0, queries.shape[0], rows):
        out[start : start + rows] = np.argmin(_sq_dist(queries[start : start + rows], table), axis=1)
    return out


def median_sq_dist(points: np.ndarray) -> float:
    """Median squared distance between distinct points; NaN below two."""
    points, table, rows = _prepare(points, points)
    m = points.shape[0]
    if m < 2:
        return math.nan
    vals = np.empty(m * (m - 1) // 2)
    cols = np.arange(m)
    filled = 0
    for start in range(0, m, rows):
        # the condensed upper triangle of this block's rows
        upper = _sq_dist(points[start : start + rows], table)[cols[start : start + rows, None] < cols]
        vals[filled : filled + upper.size] = upper
        filled += upper.size
    # vals is this call's own array, so the median may partition it in place
    with np.errstate(over="ignore"):
        med = float(np.median(vals, overwrite_input=True))
        # where only the sum of the two middle values overflows, the median of
        # the halves, which vals still holds the values of, is exact
        return 2.0 * float(np.median(vals / 2.0)) if med == math.inf else med


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per row of ``d2``, ordered by
    (distance, index), NaN distances last: the first k of a stable argsort
    of each row.  Where 2k < m only the points at or below the row's kth
    distance are ranked, by one stable sort on (row, distance) of their flat
    indices, which come in index order; ``~(d2 > kth)`` keeps NaNs, and the
    whole row where the kth is NaN."""
    if 2 * k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    row, col = np.divmod(np.flatnonzero(~(d2 > kth)), d2.shape[1])
    col = col[np.lexsort((d2[row, col], row))]
    # every row keeps at least k points, and its first k lead its run
    return col[np.searchsorted(row, np.arange(d2.shape[0]))[:, None] + np.arange(k)]


def _window_nearest(q: np.ndarray, order: np.ndarray, sx: np.ndarray, sums: np.ndarray, k: int):
    """The k nearest points to each coordinate in ``q`` (d = 1), in
    (distance, index) order, taken from k consecutive sorted positions, and
    a mask of the rows to redo on the full path.

    ``sx`` holds the point coordinates sorted stably and ``order`` their
    indices, so equal coordinates already sit in index order; ``sums`` is
    ``sx[: m - k] + sx[k:]``.  The window of start j moves one step right
    while point j + k is strictly nearer to q than point j.  Where
    ``sx[j] < sx[j + k]`` that holds exactly when ``sx[j] + sx[j + k] < 2q``,
    and these sums never decrease with j, so one ``searchsorted`` of 2q
    among them finds the start.  Rounding, equal coordinates, infinities
    (-inf + inf is NaN in the middle of the sums) and overflow can move it;
    the checks below, not the search, vouch for the answer, and send any
    row whose window is not its k nearest to the full path.  Every block x k
    array but ``_nearest``'s argsort lives in the workspace, and the indices
    returned are the role ``neighbours``: valid until the next call.
    """
    (n,), m = q.shape, sx.shape[0]
    d2 = _WORK.take("window", (n, k))
    near = _WORK.take("near", (n, k))
    slots = _WORK.take("slots", (n, k), np.intp)
    idx = _WORK.take("neighbours", (n, k), np.intp)
    ties = _WORK.take("ties", (2, n, k - 1), bool)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.searchsorted(sums, 2.0 * q)
        np.add(lo[:, None], np.arange(k), out=slots)
        # the full path adds the square to zeros, which changes no bit
        np.square(np.subtract(q[:, None], np.take(sx, slots, out=d2, mode="clip"), out=d2), out=d2)
        rank = _nearest(d2, k)
        np.take(order, np.add(lo[:, None], rank, out=slots), out=idx, mode="clip")
        np.take(d2.reshape(-1), np.add(rank, k * np.arange(n)[:, None], out=slots), out=near, mode="clip")
        kth = near[:, -1]
        # a NaN kth distance: NaNs sort last, so only then is one in the window
        full = np.isnan(kth)
        # equal distances out of index order: a mirror tie at q - r and q + r
        np.equal(near[:, 1:], near[:, :-1], out=ties[0])
        full |= np.logical_and(ties[0], np.less(idx[:, 1:], idx[:, :-1], out=ties[1]), out=ties[0]).any(axis=1)
        # the nearest point outside on either side no farther than the kth; the
        # points past it are farther still, as the sorted coordinates move away
        for outside, exists in ((lo - 1, lo > 0), (lo + k, lo + k < m)):
            full |= exists & ~(np.square(q - sx[np.clip(outside, 0, m - 1)]) > kth)
    return idx, full


def _centred_table(table: np.ndarray):
    """The float32 table of the candidate pass, rows ``1, p'_1 .. p'_d,
    |p'|^2`` with ``p' = p - c``, c the midpoint of the points' bounding box,
    read from the rows of ``table``; with c and the largest squared norm in
    it.  Each difference rounds to float64, then to float32, in NumPy's
    small cast buffer, and the squared norms are summed in float32.  Centred
    points keep their float32 error relative to their spread, not to their
    distance from the origin.
    """
    rows = table[1:]
    d, m = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centre = (rows.min(axis=1) + rows.max(axis=1)) / 2.0
        table32 = _WORK.take("table32", (d + 2, m), np.float32)
        table32[0] = 1.0
        np.subtract(rows, centre[:, None], out=table32[1:-1], casting="same_kind")
        np.einsum("ij,ij->j", table32[1:-1], table32[1:-1], out=table32[-1])
        return table32, centre, table32[-1].max()


def _expansion(q, table32, centre, p2max):
    """kNN's float32 norm expansion ``a`` of the block ``q`` against every
    point of the ``_centred_table``, one product of the left rows
    ``[|q'|^2, -2q', 1]`` (the workspace role ``expansion``) into the role
    ``diff``: valid until the next call.  With it, S = ``|q'|^2 + p2max``
    and the bound ``delta`` on a's error, both per row in float64 (see
    ``_candidate_nearest``), and the mask of the rows whose S is at most a
    quarter of float32's largest value, the only rows whose a may settle
    anything."""
    (n, d), m = q.shape, table32.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _WORK.take("expansion", (n, d + 2), np.float32)
        np.subtract(q, centre, out=lhs[:, 1:-1], casting="same_kind")
        lhs[:, 0] = q2 = np.square(lhs[:, 1:-1]).sum(axis=1)
        lhs[:, 1:-1] *= -2.0
        lhs[:, -1] = 1.0
        s = (q2 + p2max).astype(np.float64, copy=False)
        delta = (d + 4) * (_EPS32 * (4.0 * s) + 4.0 * _TINY32)
        a = np.matmul(lhs, table32, out=_WORK.take("diff", (n, m), np.float32))
    # below a quarter of the largest float no term of the product, nor 4 S,
    # overflows; NaN and inf are not below it
    return a, s, delta, s <= _MAX32 / 4.0


def _candidate_nearest(q, table, table32, centre, p2max, k: int):
    """The k nearest points to each row of ``q`` (d > 1, 2k < m), in
    (distance, index) order, and a mask of the rows to redo.

    ``table`` is the ``_point_table``, and ``table32``, ``centre`` and
    ``p2max`` are the ``_centred_table``: ``[1; p'; |p'|^2]`` in float32 of
    the points less the centre c, and the largest squared norm in it.
    Everything up to the choice of candidates runs in float32.  The norm
    expansion ``a = |q'|^2 + |p'|^2 - 2 q'.p'`` of ``q' = q - c`` is one
    product, ``[|q'|^2, -2q', 1] @ [1; p'; |p'|^2]``, so it takes no pass
    over the block x m array beyond the product's own.  It picks 2k
    candidates per row, and a row that they may not settle is redone.  Only
    the candidates' distances are summed, in float64 from exact differences
    of the points as given, with the bits ``_sq_dist`` gives them, and in
    index order, so that ``_nearest`` breaks their ties as the full path
    does: every distance compared has the full path's bits.

    Call those sums e and the true distance D; with x = q - c and y = p - c
    taken exactly, S = |x|^2 + max |y|^2 >= D / 2.  eps is the spacing of
    floats at 1 (twice the unit roundoff) and tiny the least subnormal, of
    float32 unless marked 64.

    * e has at most d + 2 roundings per term: |e - D| <= (d + 2) eps64 S,
      plus tiny64 / 2 for each of its d squares that underflows.
    * Each coordinate of q' and p' is rounded in float64 and again to
      float32: within u = (1 + eps64) eps / 2 of x (or y) relatively, or
      tiny / 2 absolutely.  The distance D' of the rounded points then
      differs from D by at most 2 |x - y| r + r^2, where
      r = u (|x| + |y|) + sqrt(d) tiny and (|x| + |y|)^2 <= 2 S: that is at
      most 3.01 eps S + tiny, as 2 sqrt(2 d S) tiny <= eps S + 2 d tiny^2 /
      eps.
    * |q'|^2 and |p'|^2 have at most d roundings each, and the product's
      d + 2 terms, summed in any order with or without fused multiply-adds,
      at most d + 2 each on a sum of magnitudes <= 2 S', S' being S of the
      rounded points: |a - D'| <= (3d/2 + 2) eps S', plus tiny / 2 for each
      of the 3d squares and products that underflows (a sum whose result
      underflows is exact).
    * S and S' are within a factor 1 + (d + 3) eps, and d tiny, of S as the
      code forms it, ``|q'|^2 + max |p'|^2`` in float32.

    So for d < 2^20, |a - e| <= (3d/2 + 6) eps S + (3d/2 + 2) tiny, within
    delta = (d + 4)(4 eps S + 4 tiny) of the computed S.  The k points of
    smallest a then have e <= a_k + delta, a_k being the kth smallest a, and
    every point with e at or below the kth smallest e has a <= a_k +
    2 delta.  A row settles where every point outside its candidates has a
    above that, as shown below: every point at or below the kth e, ties
    included, is then a candidate.  A row whose computed S is not at most a
    quarter of float32's largest value (NaN, inf, or so large that a term of
    the product, or 4 S, could overflow) is redone; below it, a is finite.

    The pick ranks the bits of ``a`` read as int32, which NumPy partitions
    several times faster than floats where it has SIMD sorting (x86 with
    AVX-512).  The keys order as the floats where the sign bit is clear, and
    below all of those where it is set, as a <= -0.0 is there.  Each key
    becomes a word in place: its low b = ``(m - 1).bit_length()`` bits, at
    most 16, are cleared, which leaves its bucket, and set to the point's
    index within its tile of 2^b points.  Words are distinct within a tile
    and order by (bucket, index), so one partition at 2k - 1 leaves a tile's
    2k least in its first 2k slots; the 2k least of those slots over every
    tile are the candidates.  So every point outside them has a word at or
    above W, the 2k-th least candidate word, and a bucket at or above W's.
    Where W's sign bit is clear that point has a >= Tf, W with its low bits
    cleared read as a float: the floor of W's bucket.  At least k
    candidates have a <= Akup, the kth least candidate word with its low
    bits set read as a float, the ceiling of its bucket, or 0 where its sign
    bit is set; so a_k <= Akup.  A row settles where Tf > Akup + 2 delta, and
    so never where W's sign bit is set, as Tf <= 0 there.  The edges are bit
    masks of a word, which cannot wrap, and a ceiling in inf's bucket is NaN.
    Ties at Tf ask no redo: a tied point outside the candidates has a >= Tf.
    """
    n, m = q.shape[0], table.shape[1]
    low = (1 << min((m - 1).bit_length(), 16)) - 1  # a word's index bits
    a, _, delta, ok = _expansion(q, table32, centre, p2max)
    words = a.view(np.int32)
    with np.errstate(over="ignore", invalid="ignore"):
        # each key's bucket, its low bits cleared, and the point's index in its tile
        col = np.arange(m, dtype=np.int32) & low
        np.bitwise_or(np.bitwise_and(words, ~low, out=words), col, out=words)
        for tile in np.split(words, range(low + 1, m, low + 1), axis=1):
            tile.partition(min(2 * k, tile.shape[1]) - 1, axis=1)
        # the first 2k words of each tile; of several tiles, the 2k least
        pool = np.flatnonzero(col < 2 * k)
        if pool.size > 2 * k:
            pool = pool[np.argpartition(words[:, pool], 2 * k - 1, axis=1)[:, : 2 * k]]
        cw = words[np.arange(n)[:, None], pool]
        cand = np.sort((pool & ~low) | (cw & low), axis=1)
        # bit masks of a word, which cannot wrap: the floor of the 2k-th
        # word's bucket, and the ceiling of the kth one's, at least 0
        floor = (cw.max(axis=1) & ~low).view(np.float32)
        ceil = np.maximum((np.partition(cw, k - 1, axis=1)[:, k - 1] | low).view(np.float32), 0.0)
        full = ~(ok & (floor > ceil + 2.0 * delta))
        e = np.zeros(cand.shape)
        diff = np.empty(cand.shape)
        for qj, pj in zip(q.T, table[1:]):
            np.take(pj, cand, out=diff)
            np.subtract(qj[:, None], diff, out=diff)
            e += np.square(diff, out=diff)
    return np.take_along_axis(cand, _nearest(e, k), axis=1), full


def knn_mean(
    queries: np.ndarray, points: np.ndarray, values: np.ndarray, ks
) -> np.ndarray:
    """Row j: mean of the values at the ks[j] nearest points; distance ties
    break by ascending point index.

    The k = ``max(ks)`` nearest points of each query come from one block
    loop, in which a first pass settles the rows it can and hands the rest
    to the full distance row.  One-dimensional data takes the sorted window
    of ``_window_nearest`` in blocks of ``_BLOCK`` rows.  Wider data with
    2k < m takes the float32 candidates of ``_candidate_nearest`` in blocks
    of ``_block_rows(m, _CANDIDATE_BUDGET)``.  Wider data with 2k >= m has
    too few points to preselect from: its first pass, in blocks of
    ``_block_rows(m, _DIST_BUDGET)``, settles no row.  The rows it leaves
    take the full distance row, in distance blocks of their own.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != np.shape(points)[0]:
        raise ValueError("values length must match point count")
    if len(ks) == 0 or not 1 <= min(ks) <= max(ks) <= values.shape[0]:
        raise ValueError("k out of range")
    queries, table, redo_rows = _prepare(queries, points)
    d, m, k = queries.shape[1], table.shape[1], max(ks)
    out = np.empty((len(ks), queries.shape[0]))
    if d == 1:
        rows = _BLOCK
        order = np.argsort(table[1], kind="stable")
        sx = table[1, order]
        with np.errstate(over="ignore", invalid="ignore"):
            sums = sx[: m - k] + sx[k:]
        first = lambda block: _window_nearest(block[:, 0], order, sx, sums, k)
    elif 2 * k < m:
        rows = _block_rows(m, _CANDIDATE_BUDGET)
        centred = _centred_table(table)
        first = lambda block: _candidate_nearest(block, table, *centred, k)
    else:  # too few points to preselect from: a pass that settles no row
        rows = redo_rows
        first = lambda block: (np.empty((block.shape[0], k), dtype=np.intp), np.ones(block.shape[0], bool))
    for start in range(0, queries.shape[0], rows):
        block = queries[start : start + rows]
        idx, full = first(block)
        redo = np.flatnonzero(full)
        # the redone rows may span several distance blocks: each writes
        # back through its own indices
        for r in range(0, redo.shape[0], redo_rows):
            some = redo[r : r + redo_rows]
            idx[some] = _nearest(_sq_dist(block[some], table), k)
        # the first k of the (distance, index) order are the k nearest
        g = np.take(values, idx, out=_WORK.take("gathered", idx.shape), mode="clip")
        for j, kj in enumerate(ks):
            out[j, start : start + idx.shape[0]] = g[:, :kj].mean(axis=1)
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


def _bandwidths(sigmas) -> tuple[float, ...]:
    sigmas = tuple(float(s) for s in sigmas)
    if not sigmas or not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError(f"sigma must be positive and finite, got {sigmas}")
    return sigmas


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
    sigmas = _bandwidths(sigmas)
    queries, table, rows = _prepare(queries, centers)
    out = np.empty((len(sigmas), queries.shape[0]))
    for start in range(0, queries.shape[0], rows):
        d2 = _sq_dist(queries[start : start + rows], table)
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


def _bracket_at_most(queries, centers, values, sigmas, c: float):
    """The rows that accept and the rows left unsettled at each sigma, from
    the float32 bracket of the exact estimate (see the module docstring)."""
    nq, m = queries.shape[0], centers.shape[0]
    table32, centre, p2max = _centred_table(_point_table(centers))
    both = np.stack([values, np.ones(m)], axis=1)  # w @ both: both row sums in one product
    # ns, ws and dt per sigma and query; NaN where the bracket skips the row
    ns, ws, dt = np.full((3, len(sigmas), nq), np.nan)
    rows = _block_rows(m, _DIST_BUDGET)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, nq, rows):
            # kNN's expansion, about d2, once for every sigma, and its least
            # lane in each row; in float32 views of the distance blocks'
            # buffers, which a call of gaussian_nw has already faulted in
            a, s, delta, ok = _expansion(queries[start : start + rows], table32, centre, p2max)
            near = a.min(axis=1)
            for j, sigma in enumerate(sigmas):
                r = 1.0 / sigma
                if not 2.0**-126 <= r <= 2.0**126:  # -r in float32 must be normal
                    continue
                # the quotients' error.  Past 1 the bracket spans a factor of
                # e^4 or more and settles too few rows to pay for its lanes; a
                # row whose every lane is below -87 weighs within the slack of
                # 0 and settles never
                err = r * delta + _TINY32
                keep = np.flatnonzero(ok & (err <= 1.0) & (r * near <= 87.0))
                if keep.size == 0:
                    continue
                # the quotients -(d2 / sigma) of the kept rows, in float32
                t = _WORK.take("d2", (keep.size, m), np.float32)
                np.multiply(a if keep.size == a.shape[0] else np.take(a, keep, axis=0, out=t), np.float32(-r), out=t)
                # np.exp is about 14 times slower where its float32 result is
                # subnormal: where a lane may be below -87 (as |t| <= 2.01 r S
                # + dt), lanes there weigh e^-87 instead, within the slack
                if 2.01 * r * float(s[keep].max()) + 1.0 > 87.0:
                    np.maximum(t, -87.0, out=t)
                w = _WORK.take("w", t.shape)
                np.copyto(w, np.exp(t, out=t))
                ns[j, start + keep], ws[j, start + keep] = np.matmul(w, both).T
                dt[j, start + keep] = err[keep]
        slack, top = 3.0 * m * 2.0**-125, float(values.max()) + 1.0
        g2 = np.exp(2.0 * (dt + 5.0 * _EPS32 + (4 * m + 32) * _EPS))
        hi = g2 * (ns + slack * top) / (ws - slack) + 4.0 * _TINY
        lo = (ns - slack * top) / (g2 * (ws + slack)) - 4.0 * _TINY
        valid = (ws > slack) & (ns < math.inf)
    accept = valid & (hi <= c)
    return accept, ~(accept | (valid & (lo > c)))


def nw_at_most(queries: np.ndarray, centers: np.ndarray, values: np.ndarray, sigmas, c) -> np.ndarray:
    """Row j: ``np.maximum(gaussian_nw(queries, centers, values, sigmas)[j],
    0.0) <= c``, which a float32 bracket of the estimate settles for most
    rows (see the module docstring); every row it leaves takes
    ``gaussian_nw``."""
    values = np.asarray(values, dtype=np.float64)
    sigmas = _bandwidths(sigmas)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    m = centers.shape[0]
    if not (
        queries.ndim == 2 and queries.shape[1:] == centers.shape[1:] and values.shape == (m,) and len(queries) and m
        and 0.0 <= c < math.inf and np.isfinite(queries).all() and np.isfinite(centers).all()
        and np.isfinite(values).all() and values.min() >= 0.0
    ):
        return np.maximum(gaussian_nw(queries, centers, values, sigmas), 0.0) <= c
    out, redo = _bracket_at_most(queries, centers, values, sigmas, c)
    rows, js = np.flatnonzero(redo.any(axis=0)), np.flatnonzero(redo.any(axis=1))
    if rows.size:
        exact = np.maximum(gaussian_nw(queries[rows], centers, values, [sigmas[j] for j in js]), 0.0) <= c
        at = np.ix_(js, rows)
        out[at] = np.where(redo[at], exact, out[at])
    return out
