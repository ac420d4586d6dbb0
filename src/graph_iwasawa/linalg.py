"""Exact integer linear algebra.

One determinant engine for k integer matrices that share one pattern of
n x n positions (rows, cols), given as a k x nnz table of their values
there and never as a dense matrix.  ``det_residues`` takes the determinant
of every matrix mod each prime of one list shared by all k: the primes are
lanes, the last axis of one array of residues, a lane per (matrix, prime)
pair.  ``det_pattern`` is the exact determinant of one matrix (k = 1):
each row divided by its content (the gcd of its values), the primes of the
divided matrix's integer Hadamard bound (``_row_norms`` finds the row norms
and contents in one pass), then ``det_residues``, then ``_crt``, the one
CRT, which refuses a result past its bound, times the product of the
contents.  So it is exact, not probabilistic.  ``zeta.pencil_det`` calls
``det_residues`` with its 2n + 1 node matrices and the primes of the
pencil's unit-circle Hadamard bound, from ``_hadamard_bound``, and
``_crt`` after it has interpolated mod each prime.

The kernel reorders the pattern by Cuthill-McKee, which narrows the band of
a circulant cover's reduced Laplacian, and eliminates inside that band
without row swaps, two rows at a time: one vectorized update of the
trailing block per 2 x 2 pivot block for every lane at once, with one
reduction mod p (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Every
lane slides a buffer of 2 (w + 2) band rows down the matrix, w the
half-bandwidth (all n + w + 1 band rows when there are fewer), and rows
enter it, reduced mod each lane's prime, as it reaches the pivot pairs that
touch them.  A lane needs O(w^2) memory, not O(n w), and the lanes are
split into chunks only when the buffers, row factors and pair temporaries
of all of them pass ``BAND_BYTES_CAP``.  A lane whose pivot block vanishes
falls back to ``_det_swaps``, banded elimination with row swaps in a window
of w + 1 by 2w + 1 entries, so singular matrices and zero leading minors of
even order stay exact in O(w^2) memory too.

The elimination divides by nothing: a pivot block of determinant delta
multiplies the rows it updates by delta instead, and the determinant is
the product of the pivots over the product of the factors their rows
carry, so each lane takes one modular inverse, at the end of the run.  A
row's factor applies to its columns up to the right edge of the windows
so far; its columns past that edge were never updated, and they are
scaled when a window first reaches them, so a pair never passes over a
whole row.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import is_prime

# Byte cap on one chunk of prime lanes: on its working set, the sliding
# buffers and the temporaries of a pivot pair (a chunk has at least one
# lane, whatever the cap).
BAND_BYTES_CAP = 8 << 20

_PRIME_CACHE: list[int] = []


def _grow_primes(count: int) -> None:
    """Extend _PRIME_CACHE to at least count primes."""
    cand = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 31) - 19
    while len(_PRIME_CACHE) < count:
        if is_prime(cand):
            _PRIME_CACHE.append(cand)
        cand -= 2


def crt_primes(count: int) -> list[int]:
    """Deterministic list of 31-bit primes, largest first, from 2^31 - 19.
    2 has order 31 modulo the prime 2^31 - 1, so leading minors of pencil
    node matrices at u = +-2^i vanish mod it (on a cycle such a minor is
    (u^(2m + 2) - 1) / (u^2 - 1)), and their lanes would need the fallback."""
    _grow_primes(count)
    return _PRIME_CACHE[:count]


def _cuthill_mckee(rows: np.ndarray, cols: np.ndarray, n: int) -> list[int]:
    """Cuthill-McKee order of the symmetrized pattern of nonzeros (rows[k],
    cols[k]): breadth first from a vertex of least degree, neighbours by
    increasing degree, ties by index; one restart per component."""
    off = rows != cols
    pairs = np.sort(np.concatenate([rows[off] * n + cols[off],
                                    cols[off] * n + rows[off]]))
    # dedupe by hand: np.unique would import numpy.ma on its first call
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    src, dst = np.divmod(pairs, n)
    deg = np.bincount(src, minlength=n)
    dst = dst[np.lexsort((dst, deg[dst], src))].tolist()
    ends = np.cumsum(deg).tolist()
    starts = np.argsort(deg, kind="stable").tolist()
    deg = deg.tolist()
    seen = [False] * n
    order: list[int] = []
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            for u in dst[ends[v] - deg[v]:ends[v]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
    return order


def _band_form(n: int, rows: np.ndarray, cols: np.ndarray,
               vals: np.ndarray) -> tuple:
    """The pattern (rows, cols) put into Cuthill-McKee order by a symmetric
    permutation, which leaves every determinant unchanged, as (w, reach,
    places, values): w is the half-bandwidth, reach the envelope, and
    places[e] = r (2w + 2) + (c - r + w) is the place of entry e, now at
    (r, c), in a row-major band of 2w + 2 columns.  The entries are sorted
    by place, so by row, and values[:, e] holds vals at entry e.  Apart
    from det_residues so that its temporaries are freed before the kernel
    allocates its buffer."""
    pos = np.empty(n, dtype=np.int64)
    pos[_cuthill_mckee(rows, cols, n)] = np.arange(n)
    prows, pcols = pos[rows], pos[cols]
    w = int(np.abs(prows - pcols).max())
    # Elimination without swaps keeps the envelope of the symmetrized
    # pattern (George & Liu, 1981): the nonzeros of column k below the
    # diagonal, and of row k right of it, stay within k + 1..reach[k].
    first = np.arange(n)
    np.minimum.at(first, prows, pcols)
    np.minimum.at(first, pcols, prows)
    reach = np.arange(n)
    np.maximum.at(reach, first, np.arange(n))
    reach = np.maximum.accumulate(reach).tolist()
    places = prows * (2 * w + 1) + pcols + w
    order = np.argsort(places)
    return w, reach, places[order], vals[:, order]


def _det_band(w: int, span: int, reach: list[int], places: np.ndarray,
              vals: np.ndarray, js: list[int], primes: list[int]) -> list:
    """Determinant mod primes[q] of matrix js[q], for every lane q, from its
    entries vals[js[q]] at the band places of ``_band_form`` (all within w
    of the diagonal), by block elimination without row swaps or division:
    the 2 x 2 pivot block of rows k, k + 1 (k = 0, 2, 4, ...) updates rows
    and columns k + 2..reach[k + 1] <= k + 1 + w, and an odd n ends on one
    single pivot.  None for a lane whose pivot block vanished with rows
    still to update.  Only span >= w + 2 band rows are held at a time."""
    n = len(reach)
    ps = np.array(primes, dtype=np.int64)
    pu = ps.astype(np.uint64)
    js = np.array(js)
    width = 2 * w + 2
    # buf[i, j - r + w] = A[r, j] mod p for the held row r = base + i, times
    # sig[i] in the columns j <= edge; products are formed in uint64.
    # Column 2w + 1 is never written, so it reads as 0 both as A[r, r + w +
    # 1] and, one row down through the stride, as A[r + 1, r - w].  Rows
    # past n - 1 are held as zeros, so every pair's window, w + 2 rows
    # deep, fits.
    buf = np.zeros((span, width, ps.size), dtype=np.uint32)
    sig = np.ones((span, ps.size), dtype=np.uint64)
    flat = buf.reshape(span * width, ps.size)
    s0, s1, s2 = buf.strides
    # window[k - base, r, c] = A[k + r, k + c]: the block that pair k updates
    window = np.lib.stride_tricks.as_strided(
        buf[:, w:], shape=(span - w - 1, w + 2, w + 2, ps.size),
        strides=(s0, s0 - s1, s1, s2))

    def load(lo: int, hi: int) -> None:
        """Enter rows lo..hi - 1, reduced mod each lane's prime, into buf."""
        e0, e1 = np.searchsorted(places, (lo * width, hi * width))
        entered = vals[js, e0:e1].T
        flat[places[e0:e1] - base * width] = np.remainder(entered, ps,
                                                          out=entered)

    base, edge = 0, -1
    load(0, span)
    # dets[m - 1]: the product of the pivot block determinants of the pairs
    # that update m - 1 rows, and in dets[0] the last single pivot
    dets = np.ones((w + 1, ps.size), dtype=np.uint64)
    # uint64 temporaries: two of a pair's update, of m - 1 <= w rows, and
    # one of a scaling, of r rows and m + 1 - r columns
    scratch = np.empty((2, (w + 1) ** 2 * ps.size), dtype=np.uint64)
    for k in range(0, n, 2):
        if k + w + 2 > base + span:
            # slide: the rows from k on, fewer than w + 2 since the rows
            # above k are done, move to the top; the rows after them enter
            keep = base + span - k
            buf[:keep] = buf[k - base:]
            buf[keep:] = 0
            sig[:keep] = sig[k - base:]
            sig[keep:] = 1
            base = k
            load(k + keep, k + span)
        i = k - base
        if k == n - 1:
            dets[0] = dets[0] * buf[i, w] % pu
            break
        m = reach[k + 1] - k
        block = window[i, :m + 1, :m + 1]
        if k <= edge < k + m:
            # rows k..edge carry their factors up to column edge, and the
            # rows past edge carry none: scale the columns the window adds
            added = block[:edge - k + 1, edge - k + 1:]
            t = scratch[0, :added.size].reshape(added.shape)
            np.multiply(added, sig[i:edge - base + 1, None], out=t)
            added[...] = np.remainder(t, pu, out=t)
        edge = k + m
        # h = B (-adj(P)) mod p, B the pair's first two columns and P its
        # pivot block: -adj(P) = [[-d, b], [c, -a]] for P = [[a, b], [c,
        # d]], so h[0] = (-det P, 0), and the rows below give G = -C adj(P),
        # C the pair's columns below it.  delta = det P, in 1..p.
        neg = block[1::-1, 1::-1].astype(np.uint64)
        diag = neg.reshape(4, -1)[::3]
        np.subtract(pu, diag, out=diag)
        h = block[:, :1] * neg[:, 0] + block[:, 1:2] * neg[:, 1]
        h %= pu
        delta = pu - h[0, 0]
        np.multiply(dets[m - 1], delta, out=dets[m - 1])
        np.remainder(dets[m - 1], pu, out=dets[m - 1])
        if m == 1:
            continue  # rows k, k + 1 touch no later row
        # rest <- delta rest + G0 (x) R0 + G1 (x) R1, R the pair's rows
        # right of it: each product is below p^2, so their sum is below
        # 3 p^2 < 2^64.  The m - 1 rows updated gain the factor delta.
        rest = block[2:, 2:]
        t, u = scratch[:, :rest.size].reshape(2, *rest.shape)
        np.multiply(rest, delta, out=t)
        np.multiply(h[2:, :1], block[0, 2:], out=u)
        t += u
        np.multiply(h[2:, 1:], block[1, 2:], out=u)
        t += u
        rest[...] = np.remainder(t, pu, out=t)
        scaled = sig[i + 2:i + m + 1]
        np.multiply(scaled, delta, out=scaled)
        np.remainder(scaled, pu, out=scaled)
    # det = the product of the pivots over the factors their rows carry,
    # which is each pair's delta once for every row it updated: dets[0] /
    # prod_{m >= 3} dets[m - 1]^(m - 2), the divisor being the product of
    # the suffix products of dets from m = 3
    den = suffix = np.ones_like(pu)
    for m in range(w + 1, 2, -1):
        suffix = suffix * dets[m - 1] % pu
        den = den * suffix % pu
    failed = (dets[1:] == 0).any(axis=0)
    return [None if bad else x * pow(y, -1, p) % p for bad, x, y, p
            in zip(failed.tolist(), dets[0].tolist(), den.tolist(), primes)]


def _det_swaps(n: int, w: int, places: np.ndarray, vals: np.ndarray,
               j: int, p: int) -> int:
    """det(M_j) mod p from M_j's entries vals[j] at the band places of
    ``_band_form``, by banded elimination with row swaps in O(n w^2) work
    (LAPACK's xGBTRF; Golub and Van Loan, Matrix Computations, 4.3)."""
    width = 2 * w + 2
    # win[i, c] = M_j[k + i, k + c] mod p at pivot k = r - w, row r entered
    # at its band offsets.  A swapped-up row, of index at most k + w, ends by
    # column k + 2w; row w + 1 and column 2w + 1 stay 0 for a shift to enter.
    win = np.zeros((w + 2, width), dtype=np.int64)
    det = 1
    for r in range(n + w):
        win[:-1, :-1] = win[1:, 1:]
        e0, e1 = np.searchsorted(places, (r * width, r * width + width))
        win[w, places[e0:e1] - r * width] = vals[j, e0:e1] % p
        if r < w:
            continue
        nz = np.flatnonzero(win[:, 0])
        if nz.size == 0:
            return 0
        if nz[0]:
            win[[0, nz[0]]] = win[[nz[0], 0]]
            det = -det
        det = det * int(win[0, 0]) % p
        f = win[1:, 0] * pow(int(win[0, 0]), -1, p) % p
        win[1:] = (win[1:] - f[:, None] * win[0]) % p
    return det


def _row_norms(n: int, rows: np.ndarray, vals: np.ndarray) -> tuple | None:
    """(squared norms, contents) of the rows of the n x n matrix, n >= 1,
    whose entries in row rows[e] are the integers vals[e], as lists in row
    order: a row's content is the gcd of its values, 0 when they are all 0.
    None for a matrix with a zero row."""
    counts = np.bincount(rows, minlength=n)
    if counts.min() == 0:
        return None
    starts = np.cumsum(counts) - counts
    sq = vals[np.argsort(rows, kind="stable")]
    contents = np.gcd.reduceat(sq, starts)
    top = max(int(vals.max()), -int(vals.min()))
    if top * top * int(counts.max()) >= 1 << 63:
        sq = sq.astype(object)  # Python ints: an int64 row norm could overflow
    norms = np.add.reduceat(sq * sq, starts)
    return norms.tolist(), contents.tolist()


def _hadamard_bound(n: int, rows: np.ndarray, vals: np.ndarray) -> int:
    """Row-norm Hadamard bound of the n x n matrix whose entries in row
    rows[e] are the integers vals[e]; 0 for a matrix with a zero row."""
    if n == 0:
        return 1
    rowwise = _row_norms(n, rows, vals)
    return 0 if rowwise is None else _isqrt_ceil(math.prod(rowwise[0]))


def _isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _primes_above(target: int) -> list[int]:
    """The fewest leading CRT primes whose product exceeds target."""
    count, modulus = 0, 1
    while modulus <= target:
        _grow_primes(count + 1)
        modulus *= _PRIME_CACHE[count]
        count += 1
    return _PRIME_CACHE[:count]


def det_residues(n: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, primes: list[int]) -> list[list[int]]:
    """det(M_j) mod p for each p of the nonempty list primes, of each n x n
    matrix j whose nonzeros lie among the distinct positions
    (rows[e], cols[e]), with int64 values vals[j, e]: one kernel run over
    all k len(primes) (matrix, prime) lanes, with the pivoting fallback for
    a lane whose pivot block vanishes."""
    k = len(vals)
    if n == 0:
        return [[1] * len(primes) for _ in range(k)]
    w, reach, places, bvals = _band_form(n, rows, cols, vals)
    # lane q: matrix q mod k, prime q // k
    lanes = [(j, p) for p in primes for j in range(k)]
    # A buffer of 2 (w + 2) rows, the fewest for which a slide moves fewer
    # rows than it enters (under w + 2 against over w + 2), once per
    # (w + 3) / 2 pivot pairs or more; n + w + 1 rows, padding included,
    # hold the whole band and never slide.  A lane's working set is its
    # buffer, the uint64 factors of its rows and the two uint64 temporaries
    # of a pair's trailing update.
    span = min(n + w + 1, 2 * (w + 2))
    lane_bytes = span * ((2 * w + 2) * 4 + 8) + 2 * 8 * (w + 1) ** 2
    chunks = -(-len(lanes) // max(1, BAND_BYTES_CAP // lane_bytes))
    chunk = -(-len(lanes) // chunks)
    out = []
    for s in range(0, len(lanes), chunk):
        js, ps = map(list, zip(*lanes[s:s + chunk]))
        for j, p, rp in zip(js, ps, _det_band(w, span, reach, places,
                                              bvals, js, ps)):
            out.append(_det_swaps(n, w, places, bvals, j, p) if rp is None
                       else rp)
    return [out[j::k] for j in range(k)]


def _crt(primes: list[int], residues: list[list[int]],
         bound: int) -> list[int]:
    """The integer x with |x| <= bound and x = rs[i] mod primes[i], for each
    row rs of residues, where the product of the primes exceeds 2 bound.
    ArithmeticError if some x lies past bound: then the bound was wrong."""
    steps, modulus = [], 1
    for p in primes:
        # incremental CRT: the inverse of each partial modulus is shared by
        # every row
        steps.append((p, modulus, pow(modulus % p, -1, p)))
        modulus *= p
    out = []
    for rs in residues:
        x = 0
        for (p, m, inv), r in zip(steps, rs):
            x += m * ((r - x % p) * inv % p)
        if x > modulus // 2:
            x -= modulus
        if abs(x) > bound:
            raise ArithmeticError("CRT value exceeded its a-priori bound")
        out.append(x)
    return out


def det_pattern(n: int, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> int:
    """Exact determinant of the n x n matrix M whose nonzeros lie among the
    distinct positions (rows[e], cols[e]), with int64 values vals[e].

    det M = c_0 ... c_{n-1} det M', where c_r is the content of row r and
    M' is M with each row r divided by c_r: the primes of M''s Hadamard
    bound, one kernel run and one CRT give det M'.  A row with a common
    factor, which uniform edge multiplicities (a repeated jump) give a
    reduced Laplacian, takes that factor's bits off the bound, so fewer
    primes are needed."""
    if n == 0:
        return 1
    rowwise = _row_norms(n, rows, vals)
    if rowwise is None:
        return 0
    norms, contents = rowwise
    if 0 in contents:
        return 0  # a row whose values are all 0, before any division
    scale = math.prod(contents)
    if scale != 1:
        vals = vals // np.array(contents)[rows]
    # c_r^2 divides row r's squared norm, so this is M''s bound squared
    bound = _isqrt_ceil(math.prod(norms) // (scale * scale))
    primes = _primes_above(2 * bound + 1)
    residues = det_residues(n, rows, cols, vals[None], primes)
    return scale * _crt(primes, residues, bound)[0]
