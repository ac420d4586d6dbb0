"""Exact integer linear algebra.

One determinant engine for k integer matrices that share one pattern of
n x n positions (rows, cols), given as a k x nnz table of their values
there and never as a dense matrix.  ``det_residues`` takes the determinant
of every matrix mod each prime of one list shared by all k: the primes are
lanes, the last axis of one array of residues, a lane per (matrix, prime)
pair.  ``det_pattern`` is the exact determinant of one matrix (k = 1):
each row divided by its content (the gcd of its values' magnitudes), the
primes of a bound on the divided matrix's determinant, then
``det_residues``, then ``_crt``, the one CRT, which refuses a result past
its bound, times the product of the contents.  So it is exact, not
probabilistic.  The bound is the one its caller states, divided by the
contents, as ``serre.spanning_tree_count`` states its diagonal's product:
no matrix is inspected for its shape, and no float is computed.
``zeta.pencil_det`` calls ``det_residues`` with its 2n + 1 node matrices
and the primes of the pencil's unit-circle Hadamard bound, from
``_hadamard_bound``, and ``_crt`` after it has interpolated mod each prime.

The kernel reorders the pattern by Cuthill-McKee, which narrows the band of
a circulant cover's reduced Laplacian, and eliminates inside that band
without row swaps, two rows at a time: one vectorized update of the
trailing block per 2 x 2 pivot block for every lane at once, with one
reduction mod p (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Every
lane slides a buffer of at least 2 (w + 2) band rows down the matrix, w
the half-bandwidth, and rows enter it, reduced mod each lane's prime, as
it reaches the pivot pairs that touch them.  A lane needs O(w^2) memory,
not O(n w), and the lanes are split into chunks only when the buffers, row
factors and pair temporaries of all of them pass ``BAND_BYTES_CAP``.

A band long enough is eliminated from both ends at once.  It is cut into a
top T of c rows, a middle of g >= w rows and a bottom B of c rows, so T and
B share no entry; one kernel run over twice the lanes pivots T in every
matrix M and B in its reversal J M J, each in half the sequential pivot
pairs, and leaves the two g x g Schur complements of the middle.  Their sum
less the middle block is the Schur complement of T and B together, dense,
and a second run with one such matrix per lane takes its determinant.  A
lane whose pivot block vanishes, in either run, falls back to
``_det_swaps``, banded elimination with row swaps of the whole matrix in a
window of w + 1 by 2w + 1 entries, so singular matrices and zero leading
minors of even order stay exact in O(w^2) memory too.

The elimination divides by nothing: a pivot block of determinant delta
multiplies the rows it updates by delta instead, and the determinant is
the product of the pivots over the product of the factors their rows
carry, so each lane takes one modular inverse, after its last run.  A
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
    (u^(2m + 2) - 1) / (u^2 - 1)), and their lanes would need the fallback.
    No product code calls it: perfbench/tracer.py reads it to count the
    primes of each CRT it traces."""
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


def _band_order(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(w, rows, cols): the pattern put into Cuthill-McKee order by a
    symmetric permutation, which leaves every determinant unchanged, and
    its half-bandwidth w."""
    pos = np.empty(n, dtype=np.int64)
    pos[_cuthill_mckee(rows, cols, n)] = np.arange(n)
    rows, cols = pos[rows], pos[cols]
    return int(np.abs(rows - cols).max()), rows, cols


def _band_form(n: int, w: int, rows: np.ndarray, cols: np.ndarray,
               vals: np.ndarray) -> tuple:
    """(reach, places, values) of the pattern (rows, cols), all within w of
    the diagonal: reach is the envelope, and places[e] = r (2w + 2) + (c -
    r + w) is the place of entry e, now at (r, c), in a row-major band of
    2w + 2 columns.  The entries are sorted by place, so by row, and
    values[:, e] holds vals at entry e.  Apart from det_residues so that
    its temporaries are freed before the kernel allocates its buffer."""
    # Elimination without swaps keeps the envelope of the symmetrized
    # pattern (George & Liu, 1981): the nonzeros of column k below the
    # diagonal, and of row k right of it, stay within k + 1..reach[k].
    first = np.arange(n)
    np.minimum.at(first, rows, cols)
    np.minimum.at(first, cols, rows)
    reach = np.arange(n)
    np.maximum.at(reach, first, np.arange(n))
    reach = np.maximum.accumulate(reach).tolist()
    places = rows * (2 * w + 1) + cols + w
    order = np.argsort(places)
    return reach, places[order], vals[:, order]


def _det_band(w: int, span: int, reach: list[int], places: np.ndarray,
              vals: np.ndarray, js: list[int], primes: list[int],
              held: int = 0) -> tuple:
    """Eliminate the first n - held rows of matrix js[q] mod primes[q], n =
    len(reach), for every lane q, from its entries vals[js[q]] at the band
    places of ``_band_form`` (all within w of the diagonal), by block
    elimination without row swaps or division: the 2 x 2 pivot block of
    rows k, k + 1 (k = 0, 2, 4, ...) updates rows and columns k + 2..
    reach[k + 1] <= k + 1 + w, and an odd n with nothing held ends on one
    single pivot.  Only span >= w + 2 band rows are held at a time.

    Returns (num, den), arrays over the lanes, with num / den = det mod p,
    or with held = g > 0 (n - g even) (num, den, rest, sig): rest[a, b] =
    sig[a] S[a, b] for a, b < g, S the Schur complement of the leading
    n - g rows in rows and columns n - g..n - 1, and num / den is the
    leading block's determinant over prod(sig).  den = 0 for a lane whose
    pivot block vanished with rows still to update."""
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

    def slide(k: int) -> None:
        """Move the rows from k on, fewer than w + 4 since the rows above k
        are done, to the top; the rows after them enter."""
        nonlocal base
        keep = base + span - k
        buf[:keep] = buf[k - base:]
        buf[keep:] = 0
        sig[:keep] = sig[k - base:]
        sig[keep:] = 1
        base = k
        load(k + keep, k + span)

    base, edge = 0, -1
    load(0, span)
    # dets[m - 1]: the product of the pivot block determinants of the pairs
    # that update m - 1 rows, and in dets[0] the last single pivot
    dets = np.ones((w + 1, ps.size), dtype=np.uint64)
    # uint64 temporaries: two of a pair's update, of m - 1 <= w rows, and
    # one of a scaling, of r rows and m + 1 - r columns
    scratch = np.empty((2, (w + 1) ** 2 * ps.size), dtype=np.uint64)
    for k in range(0, n - held, 2):
        if k + w + 2 > base + span:
            slide(k)
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
    den[(dets[1:] == 0).any(axis=0)] = 0
    if not held:
        return dets[0], den
    lo = n - held
    if n > base + span:
        slide(lo)
    # the held rows lo.., whole within the band: those up to edge carry
    # their factors up to column edge, so their columns past it are scaled
    a, b = np.nonzero(abs(np.subtract.outer(range(held), range(held))) <= w)
    rest = np.zeros((held, held, ps.size), dtype=np.uint64)
    rest[a, b] = buf[lo - base + a, w + b - a]
    sig = sig[lo - base:n - base]
    top = max(edge + 1 - lo, 0)
    rest[:top, top:] = rest[:top, top:] * sig[:top, None] % pu
    return dets[0], den, rest, sig


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


def _row_reduce(ufunc, n: int, rows: np.ndarray,
                vals: np.ndarray) -> np.ndarray | None:
    """ufunc (np.gcd or np.add) reduced over each row of the n x n matrix,
    n >= 1, whose entries in row rows[e] are vals[e], in row order; None
    for a matrix with a row that has no entry."""
    counts = np.bincount(rows, minlength=n)
    if counts.min() == 0:
        return None
    return ufunc.reduceat(vals[np.argsort(rows, kind="stable")],
                          np.cumsum(counts) - counts)


def _hadamard_bound(n: int, rows: np.ndarray, vals: np.ndarray) -> int:
    """Row-norm Hadamard bound of the n x n matrix whose entries in row
    rows[e] are the integers vals[e]; 0 for a matrix with a zero row."""
    if n == 0:
        return 1
    # a row's squared norm is below top^2 times its entry count, at most
    # len(vals): Python ints where an int64 one could overflow
    top = max(int(vals.max(initial=0)), -int(vals.min(initial=0)))
    if top * top * len(vals) >= 1 << 63:
        vals = vals.astype(object)
    norms = _row_reduce(np.add, n, rows, vals * vals)
    return 0 if norms is None else _isqrt_ceil(math.prod(norms.tolist()))


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


def _band_runs(w: int, reach: list[int], places: np.ndarray,
               vals: np.ndarray, js: list[int], primes: list[int],
               held: int = 0) -> list[np.ndarray]:
    """``_det_band`` over the lanes (js[q], primes[q]), in as few chunks of
    about equal size as ``BAND_BYTES_CAP`` allows, with each of its outputs
    joined along the lane axis."""
    n = len(reach)
    # A buffer of 2 (w + 2) rows, the fewest for which a slide moves fewer
    # rows than it enters (under w + 2 against over w + 2), and of 64 /
    # (w + 1) rows at least, 512 bytes a lane, so that a narrow band slides
    # once per a dozen pivot pairs, not every other one; n + w + 1 rows,
    # padding included, hold the whole band and never slide.  A lane's
    # working set is its buffer, the uint64 factors of its rows and the two
    # uint64 temporaries of a pair's trailing update.
    span = min(n + w + 1, max(2 * (w + 2), 64 // (w + 1)))
    lane_bytes = span * ((2 * w + 2) * 4 + 8) + 2 * 8 * (w + 1) ** 2
    chunks = -(-len(js) // max(1, BAND_BYTES_CAP // lane_bytes))
    chunk = -(-len(js) // chunks)
    runs = [_det_band(w, span, reach, places, vals, js[s:s + chunk],
                      primes[s:s + chunk], held)
            for s in range(0, len(js), chunk)]
    if len(runs) == 1:
        return runs[0]
    return [np.concatenate(out, axis=-1) for out in zip(*runs)]


def _two_ends(n: int, w: int, g: int, rows: np.ndarray, cols: np.ndarray,
              vals: np.ndarray, primes: list[int]) -> tuple:
    """(num, den, places, values) for ``det_residues`` from both ends of the
    band of the k matrices on the pattern (rows, cols), in Cuthill-McKee
    order: c = (n - g) / 2 rows at the top, g >= w rows between and c at
    the bottom, lanes in det_residues' order.  The ends share no entry, so
    det M = det T det B det S, S the Schur complement of both ends in the
    middle block M_mid, the sum of the ends' own complements less M_mid.
    One kernel run pivots the top of every M and of its reversal J M J, M's
    bottom, and a second takes det of sig_T sig_B S, one dense g x g matrix
    a lane; num / den is their product over the row factors.  places and
    values are of the union of M's pattern and its reversal's."""
    k, c = len(vals), (n - g) // 2
    lane_primes = [p for p in primes for _ in range(k)]
    inside = (np.minimum(rows, cols) >= c) & (np.maximum(rows, cols) < c + g)
    mid = np.zeros((k, g, g), dtype=np.int64)
    mid[:, rows[inside] - c, cols[inside] - c] = vals[:, inside]
    # matrices k..2k - 1 are the reversals J M_j J: on the union of the two
    # patterns, one run pivots the top of each M_j and of its reversal, that
    # is M_j's bottom, and holds their middle rows
    zero = np.zeros_like(vals)
    reach, places, bvals = _band_form(
        n, w, np.concatenate([rows, n - 1 - rows]),
        np.concatenate([cols, n - 1 - cols]),
        np.block([[vals, zero], [zero, vals]]))
    # a place of both patterns holds the sum of its two entries, one of them
    # 0 in every matrix
    starts = np.flatnonzero(np.diff(places, prepend=-1))
    places = places[starts]
    bvals = np.add.reduceat(bvals, starts, axis=1)
    cut = np.searchsorted(places, (c + g) * (2 * w + 2))
    ends = _band_runs(w, reach[:c + g], places[:cut], bvals[:, :cut],
                      list(range(2 * k)) * len(primes),
                      [p for p in primes for _ in range(2 * k)], g)
    num, den, rest, sig = (a.reshape(*a.shape[:-1], len(primes), 2, k)
                           for a in ends)
    # sig_B sig_T S = sig_B T + sig_T B - sig_T sig_B M_mid in each row, T
    # and B the complements of each end: every product is below 2^62
    ps = np.array(primes, dtype=np.int64)[:, None]
    pu = ps.astype(np.uint64)
    top, bottom = rest[..., 0, :], rest[::-1, ::-1, ..., 1, :]
    sig_t, sig_b = sig[:, None, ..., 0, :], sig[::-1, None, ..., 1, :]
    mixed = (sig_b * top + sig_t * bottom).astype(np.int64)
    mixed -= ((sig_t * sig_b % pu).astype(np.int64)
              * (mid.transpose(1, 2, 0)[:, :, None] % ps))
    mixed %= ps
    # one dense g x g matrix a lane, in its natural order
    dense = (np.arange(g)[:, None] * (2 * g - 1) + np.arange(g) + g - 1)
    num_s, den_s = _band_runs(g - 1, [g - 1] * g, dense.ravel(),
                              mixed.reshape(g * g, -1).T,
                              list(range(len(lane_primes))), lane_primes)
    return ((num[..., 0, :] * num[..., 1, :] % pu).ravel() * num_s,
            (den[..., 0, :] * den[..., 1, :] % pu).ravel() * den_s,
            places, bvals)


def det_residues(n: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, primes: list[int]) -> list[list[int]]:
    """det(M_j) mod p for each p of the nonempty list primes, of each n x n
    matrix j whose nonzeros lie among the distinct positions
    (rows[e], cols[e]), with int64 values vals[j, e]: kernel runs over all
    k len(primes) (matrix, prime) lanes, lane q being matrix q mod k and
    prime q // k, with the pivoting fallback for a lane whose pivot block
    vanishes."""
    k = len(vals)
    if n == 0:
        return [[1] * len(primes) for _ in range(k)]
    w, rows, cols = _band_order(n, rows, cols)
    lane_primes = [p for p in primes for _ in range(k)]
    # The band splits into rows 0..c - 1, g rows between and c rows below
    # them, with g >= w, so that the top and the bottom share no entry, and
    # c even, so that each end is whole pivot pairs.  Two ends pay where a
    # pair's fixed cost, some 50 numpy calls, outweighs its work: when they
    # save c / 2 >= 8 pair steps, against the second run and the join, and
    # when the pair window of twice the lanes, 2 (w + 2)^2 k len(primes)
    # cells, stays within 2^16 (about 1.3 MB with the update's
    # temporaries); past that the doubled lanes cost more than the steps
    # they save.
    g = max(w, 1)
    g += (n - g) % 4
    c = (n - g) // 2
    if c < 16 or (w + 2) ** 2 * len(lane_primes) > 1 << 15:
        reach, places, bvals = _band_form(n, w, rows, cols, vals)
        num, den = _band_runs(w, reach, places, bvals,
                              list(range(k)) * len(primes), lane_primes)
    else:
        num, den, places, bvals = _two_ends(n, w, g, rows, cols, vals, primes)
    out = []
    for q, (x, y, p) in enumerate(zip(num.tolist(), den.tolist(),
                                      lane_primes)):
        # the lane's one inverse; den = 0 mod p marks a vanished pivot block
        y %= p
        out.append(x * pow(y, -1, p) % p if y
                   else _det_swaps(n, w, places, bvals, q % k, p))
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
                vals: np.ndarray, *, bound: int) -> int:
    """Exact determinant of the n x n matrix M whose nonzeros lie among the
    distinct positions (rows[e], cols[e]), with int64 values vals[e], given
    bound >= |det M| by the code that built M.

    det M = c_0 ... c_{n-1} det M', where c_r >= 0 is the content of row r
    and M' is M with each row r divided by c_r: the primes above twice
    bound // (c_0 ... c_{n-1}), a bound on the integer |det M'|, one kernel
    run and one CRT give det M'.  A row with a common factor, which uniform
    edge multiplicities (a repeated jump) give a reduced Laplacian, takes
    that factor's bits off the bound, so fewer primes are needed."""
    if n == 0:
        return 1
    contents = _row_reduce(np.gcd, n, rows, np.abs(vals))
    if contents is None or not contents.all():
        return 0  # a row with no entry, or whose values are all 0
    scale = math.prod(contents.tolist())
    bound //= scale
    if scale != 1:
        vals = vals // contents[rows]
    primes = _primes_above(2 * bound + 1)
    residues = det_residues(n, rows, cols, vals[None], primes)
    return scale * _crt(primes, residues, bound)[0]
