"""The certified modular walk behind ``exact.nullspace_vector``.

A kernel vector comes from one walk over integer rows.  A caller with
rational rows scales each to integers first, by
:func:`~jointlab.exact.integer_form`, which changes no nullspace.  The
rows are eliminated modulo a prime below 2^30, so every residue,
multiplier and pivot inverse is one 30-bit digit of a CPython int
(Cabay, "Exact solution of linear equations", SYMSAC 1971).  The walk makes
no row swaps: it records the row of each pivot, and the rows keep the
matrix's own order.  A pivot step holds its multipliers packed as one int
of 64-bit lanes, lane i for row i, in the native byte order of
``array("Q")``, with a mask of one byte per row that marks the nonzero
lanes.  Applying a step to a column is one big-int multiply-add over every
row at once.  Lanes are never negative and are reduced mod p after every
2^64 // p^2 - 1 multiply-adds, so none carries into the next, and the
masks let a column skip a step whose pivot row it holds as zero without
reading the lane.  A caller may name column counts at which the walk may
stop: it then stops at the end of the first leading block of those widths
that has a free column, and the kernel vector is that block's.  So one walk
of the fit matrix at a degree bound b finds the fit of least degree, since
its leading columns are the fit matrices of the lower degrees with each row
scaled, which changes no kernel.  A caller may also give each column's
monomial, as an exponent vector in a monomial order such as graded lex.
The walk then skips, unreduced, every column whose monomial is a multiple
of an earlier free column's: if g vanishes on the points, so does x^u g,
whose leading monomial is that of g times x^u.  Only the corners, the free
columns divisible by no earlier free column, and the selected column are
certified (the staircase of the Buchberger-Moller algorithm:
Moller and Buchberger, "The construction of multivariate polynomials with
preassigned zeros", EUROCAM 1982; Abbott, Bigatti, Kreuzer and Robbiano,
"Computing ideals of points", J. Symbolic Comput. 30, 2000).

The kernel vectors an answer needs are back-substituted mod p, recovered as
integer numerators over one denominator by rational reconstruction (Wang,
Guy and Davenport, "P-adic reconstruction of rational numbers", SIGSAM
Bull. 1982) and checked exactly in integers, M x = 0.  The checks prove
that the pivots found mod p are the rational ones, so every answer is exact
and is the one the selection rule defines.  A vector that fails to
reconstruct, or fails its check, is checked once more as its own digit: the
residues nearest 0, as integers.  One whose numerators are still too large
for one prime is lifted p-adically on the walk's own pivot steps (Dixon,
"Exact solution of linear equations using p-adic expansions", Numer. Math.
1982) and reconstructed modulo p^s after 1, 2, 4, ... lift steps, so one
walk serves every fit.  A lift step pays only for the nonzero digits of its
vector, and a Hadamard guard, built once per prime from the full pivot
rows, bounds how far any lift may go.  A prime whose pivots are not the
rational ones is dropped, and the next prime walks from scratch.  The
kernel names no Fraction: integers in, integers out.

Only a run that fits loads this module: ``exact`` imports it on the first
call of ``nullspace_vector``.  ``exact.rank`` eliminates fraction-free and
needs none of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import isqrt, prod
from operator import mul
from sys import byteorder
from typing import Iterator, Sequence

from .errors import InternalInvariantViolation
from .exact import lowest_terms

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list[int] = []  # found by _primes, largest first
_BITS = 8 * array("Q").itemsize  # bits per lane of a packed column
_LANE_MAX = (1 << _BITS) - 1


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2..37 decide every odd n below
    3.3 * 10^24, far above 2^30."""
    if n in _BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes below 2^30 in descending order, from the largest one,
    2^30 - 35 (``tests/test_exact.py`` checks that no odd number above it is
    prime).  Each is one 30-bit digit of a CPython int, and so is every
    residue, multiplier and pivot inverse mod it.  Each is searched for once
    and kept in ``_PRIMES``."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = _PRIMES[-1] - 2 if _PRIMES else 2**30 - 35
            while not _is_prime(p):
                p -= 2
            _PRIMES.append(p)
        yield _PRIMES[i]
        i += 1


def _walk(
    columns: Sequence[Sequence[int]],
    m: int,
    p: int,
    ends: Sequence[int] = (),
    exps: Sequence[Sequence[int]] | None = None,
):
    """Left-looking row echelon walk of integer columns mod p, with no row
    swaps.

    Columns are walked left to right.  A column is reduced only when the walk
    reaches it, by :func:`_reduce` with the pivot steps recorded so far.  Its
    first nonzero entry in a row that holds no pivot yet, in the matrix's own
    row order, then becomes a pivot, and the step is recorded: the pivot row,
    the pivot inverse, the packed multipliers and their byte mask.  Lane i of
    the multipliers holds p - f, for f the multiplier of row i, at each row
    that holds no pivot and whose entry is nonzero, and 0 at every other
    row; byte i of the mask is 1 exactly where lane i is nonzero.  The walk
    stops once every row holds a pivot, or on reaching one of the column
    counts ``ends`` past a column that took no pivot.

    With ``exps``, the exponent vectors of the columns' monomials in a
    monomial order, the walk keeps the corners: the free columns whose
    exponents are divisible by no earlier free column's.  A column divisible
    by a corner's exponents is a monomial multiple of it and is free too, so
    it is skipped unreduced.

    Returns the pivot columns, the reduced columns the walk reached and the
    steps.  A reduced column is its entries in the pivot rows of the steps
    before it, in step order: for a free column the right-hand side of its
    back-substitution, for a pivot column its part of the triangular factor.
    A skipped column is None.
    """
    pivots: list[int] = []
    reduced: list[list[int] | None] = []
    steps: list[tuple] = []
    rows: list[int] = []  # the pivot rows, in step order
    corners: list[Sequence[int]] = []
    for j, column in enumerate(columns):
        if len(rows) == m or (len(pivots) < j and j in ends):
            break
        if corners and any(all(map(int.__le__, c, exps[j])) for c in corners):
            reduced.append(None)
            continue
        col = _reduce(column, steps, p)
        reduced.append([col[i] for i in rows])
        for i in rows:
            col[i] = 0
        top = next(filter(None, col), 0)
        if not top:
            if exps is not None:
                corners.append(exps[j])
            continue
        sel = col.index(top)
        inv = pow(top, -1, p)
        col[sel] = 0
        mask = int.from_bytes(bytes(map(bool, col)), "little")
        neg = p - inv  # -1 / top
        steps.append((sel, inv, _pack([v and v * neg % p for v in col]), mask))
        rows.append(sel)
        pivots.append(j)
    return pivots, reduced, steps


def _pack(residues) -> int:
    """Residues below 2^64 as one int of 64-bit lanes, lane i holding
    residue i, in the native byte order."""
    return int.from_bytes(array("Q", residues).tobytes(), byteorder)


def _unpack(col: int, m: int):
    """The m lanes of a packed column, as a ``memoryview`` of 64-bit
    unsigned ints."""
    return memoryview(col.to_bytes(_BITS // 8 * m, byteorder)).cast("Q")


def _reduce(column: Sequence[int], steps: list[tuple], p: int) -> list[int]:
    """One integer column mod p, in the matrix's row order, with the
    recorded steps applied in order.  Step s reads top, the column's entry
    in its pivot row, and adds top times its packed multipliers, so every
    lane i gains top * (p - f), which is -top * f mod p: one multiply-add.

    The column's residues stay a list, and the updates of the steps add up
    in one packed int, which starts at 0.  A step whose pivot row is zero
    both in the residues and in the masks of the steps applied so far is
    skipped without reading the lane; a step whose top is 0 is skipped once
    the lane is read.  After t multiply-adds a lane is below
    p + t (p - 1)^2, so the lanes are reduced mod p after every
    2^64 // p^2 - 1 of them (15 for p below 2^30), which keeps each within
    its 64 bits, and added to the residues once at the end.
    """
    m = len(column)
    res = [v % p for v in column]
    cadence = left = (1 << _BITS) // (p * p) - 1
    flip = (m - 1) * (byteorder == "big")  # lane i sits |flip - i| lanes up
    col = supp = 0
    for q, _, mults, mask in steps:
        if res[q] or supp >> 8 * q & 1:
            top = (res[q] + (col >> _BITS * abs(flip - q) & _LANE_MAX)) % p
            if top:
                col += top * mults
                supp |= mask
                left -= 1
                if not left:
                    col = _pack([v % p for v in _unpack(col, m).tolist()])
                    left = cadence
    if col:
        res = [(r + v) % p if v else r for r, v in zip(res, _unpack(col, m))]
    return res


def _back_substitute(y: list[int], walk, p: int) -> list[int]:
    """The kernel vector mod p that is 1 at a free column, 0 at the other
    free columns and supported on the k pivots before it: its pivot entries,
    in pivot order, each the residue nearest 0 (at most p // 2 in absolute
    value).  y is the free column reduced by those k steps of the walk, read
    at their pivot rows in step order.  An integer vector within p // 2 is
    so its own digit, and the exact check passes it with no lift."""
    pivots, reduced, steps = walk
    y = list(y)
    for r in reversed(range(len(y))):
        t = y[r] * steps[r][1] % p
        y[r] = t
        if t:
            y[:r] = [(v - u * t) % p for v, u in zip(y[:r], reduced[pivots[r]])]
    h = p // 2
    return [h - (t + h) % p for t in y]


def _rational_numerators(residues: list[int], modulus: int):
    """Integer numerators over one common denominator for residues mod
    modulus: ``(nums, den)``, or None.

    Each residue is scaled by the denominator found so far.  Only when that
    is not already a small integer does rational reconstruction (the
    extended Euclidean algorithm, stopped at the bound) find a further
    denominator.  Numerators and the denominator stay within
    ``isqrt(modulus // 2)``, so a reconstruction is unique; whether it is
    the right one is decided by the exact check.
    """
    bound = isqrt(modulus // 2)
    den, nums = 1, []
    for a in residues:
        v = a * den % modulus
        if v > bound:  # either a small negative or no integer at all
            v -= modulus
        if -v > bound:
            r0, r1, t0, t1 = modulus, v + modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            den *= t1
            if den > bound:
                return None
            nums = [x * t1 for x in nums]
            v = r1
        nums.append(v)
    return nums, den


def _combination(acc: list[int], cols, coefs) -> list[int]:
    """acc plus coefs[t] times cols[t] for each t, entrywise in exact
    integers.  A zero coefficient skips its column, which is never read, and
    each column is read only as far as acc reaches."""
    for col, a in zip(cols, coefs):
        if a:
            acc = [s + a * v for s, v in zip(acc, col)]
    return acc


def _in_kernel(
    columns: Sequence[Sequence[int]], f: int, support: list[int], nums: list[int], den: int
) -> bool:
    """Exact integer check of M x = 0 for x with den at column f, nums at
    the support columns and 0 elsewhere."""
    acc = [den * v for v in columns[f]]
    return not any(_combination(acc, map(columns.__getitem__, support), nums))


def _pivot_block(rows: Sequence[Sequence[int]], pivots: list[int], steps: list[tuple]):
    """The walk's row order, its pivot block and the Hadamard guard of every
    lift on it.  ``order`` is the pivot rows in step order followed by the
    other rows, and ``block[t]`` holds the entries of pivot column
    ``pivots[t]`` in the pivot rows ``order[:K]``, in that order.  The
    leading k x k block is the matrix that the first k steps factor mod p.
    The guard is 2 * prod |row|^2 over the full pivot rows.  A full row's
    |row|^2 bounds that of the part any leading block and free column
    reach, and each factor is at least 1, so one guard serves every column
    lifted on this prime."""
    order = [q for q, *_ in steps]
    order += sorted(set(range(len(rows))).difference(order))
    top = [rows[i] for i in order[: len(pivots)]]
    cols = list(zip(*top))
    block = [cols[j] for j in pivots]
    guard = 2 * prod(sum(map(mul, row, row)) for row in top)
    return order, block, guard


def _lift(residual: list[int], digit: list[int], block, order, walk, p: int):
    """One step of p-adic lifting (Dixon 1982) for A y = -b, with A the
    leading k x k pivot block and k = len(digit).

    The residual r (initially b) over the first k rows of the walk's row
    order is updated by the last digit in exact integers, r <- (r + A y)/p,
    column by column over the block's columns of nonzero digits.  The next
    digit, the solution mod p of A y = -r, is found with the walk's own
    steps: :func:`_reduce` with the first k of them, then
    :func:`_back_substitute`.
    Returns the new residual and digit.
    """
    k = len(digit)
    residual = [v // p for v in _combination(residual, block, digit)]
    col = [0] * len(order)
    for i, c in zip(order, residual):
        col[i] = c
    col = _reduce(col, walk[2][:k], p)
    return residual, _back_substitute([col[i] for i in order[:k]], walk, p)


def _lifted(columns, f: int, digit: list[int], found, pivot_block, walk, p: int):
    """The kernel vector with 1 at free column f, supported on the k pivots
    before it, as ``(nums, den)``; or None when p is unlucky for f.

    digit is its pivot entries mod p and found their reconstruction mod p,
    which failed the exact check, or None.  The vector is lifted one digit
    at a time and reconstructed modulo p^s after s = 1, 2, 4, ... steps and
    after the last step before the guard, so the reconstructions are
    logarithmic in the lift's length (output-sensitive lifting: Steffy,
    "Exact solutions to linear systems of equations using output sensitive
    lifting", ACM Commun. Comput. Algebra 44(4), 2010).  It stops at a
    reconstruction that passes the exact check, which certifies it, or fails
    it but satisfies the k pivot rows.  Such a vector is the only rational
    solution on the pivot rows, since the pivot block is invertible mod p
    and so over Q; as it fails another row, column f is independent of the
    pivots before it over Q, and p is unlucky.  That is decided only on a
    reconstruction of every digit lifted so far.  Cramer's rule and
    Hadamard's bound put the solution within reach of reconstruction once
    p^s exceeds 2 * prod |row|^2 over the pivot rows, and so once it exceeds
    the guard of :func:`_pivot_block`; passing the guard is an
    implementation bug.
    """
    order, block, guard = pivot_block
    k = len(digit)
    support = walk[0][:k]
    b = [columns[f][i] for i in order[:k]]
    residual, total, modulus, s = b, digit, p, 0
    while True:
        if found is not None:
            nums, den = found
            if not any(_combination([den * c for c in b], block, nums)):
                return None
        if modulus > guard:
            raise InternalInvariantViolation(
                f"p-adic lifting passed the Hadamard bound at column {f}"
            )
        residual, digit = _lift(residual, digit, block, order, walk, p)
        total = [t + modulus * d for t, d in zip(total, digit)]
        modulus *= p
        s += 1
        found = None
        if not s & (s - 1) or modulus > guard:
            found = _rational_numerators(total, modulus)
            if found is not None and _in_kernel(columns, f, support, *found):
                return found


def _certified_walk(
    rows: Sequence[Sequence[int]],
    ends: Sequence[int] = (),
    exps: Sequence[Sequence[int]] | None = None,
):
    """The selection rule's kernel vector as ``(nums, den)``, or None when
    the kernel is zero.

    Entries are ints, and the vector is the :func:`integer_form` of the
    rational one, in :func:`lowest_terms`.  With ``ends``, column counts at
    which the walk may stop, the rule applies within the first leading block
    of one of those widths, or of the full width, that has a free column.
    The walk stops at the end of that block, so the pivots are those it
    holds, and the vector is 0 past it.

    With ``exps``, the exponent vectors of the columns' monomials in a
    monomial order, the walk skips the monomial multiples of its free
    columns (see :func:`_walk`), and only the corners it reduced are
    checked.  The selected column, the highest free column of the block,
    need not be the last one, and it may be skipped: then it is reduced
    alone, with the steps of the pivots before it, and checked as a corner
    is.

    Certificate.  No leading block of columns has a higher rank mod p than
    over Q, since a minor that is nonzero mod p is nonzero: the walk's
    pivots are independent mod p, so they are independent over Q.  A free
    column the walk reduced depends over Q on the pivots before it once the
    kernel vector with 1 there, supported on those pivots, passes the exact
    check.  A skipped column, of monomial x^u times a corner's, depends over
    Q on the columns before it through x^u g, for g the corner's certified
    vector read as a polynomial: x^u g vanishes on the points too, and as
    the order is a monomial order, its other monomials come before the
    column's.  Once every check passes, the ranks agree on every leading
    block, so the pivots mod p are the pivots over Q, and the first block
    with a free column is the same over Q as mod p.  This holds for every
    prime: an unlucky corner still fails its check and drops the prime.  The
    selected column is checked the same way, and the vector that passes is
    the only kernel vector with its support.

    A vector whose reconstruction mod p fails, or fails the check, is
    checked once more as its own digit, the residues nearest 0 over
    denominator 1, which an integral vector within p // 2 passes.  Failing
    that too, it is lifted by :func:`_lifted` on the pivot block and its
    guard, which are built once per prime and only then.  Lifting either
    certifies the vector or shows that its column is a pivot over Q that p
    missed.  Such a prime is unlucky: it is dropped and the next prime walks
    from scratch.  Only the finitely many primes dividing a pivot minor are
    unlucky, so the loop ends.
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    m = len(rows)
    columns = list(zip(*rows))
    n = len(columns)
    for p in _primes():
        walk = pivots, reduced, steps = _walk(columns, m, p, ends, exps)
        if len(pivots) == n:
            return None
        r = len(reduced)
        # the end of the block the walk stopped in: r if r is an end past a
        # free column, else the first end past r, as column r is free once
        # every row holds a pivot
        width = min(e for e in (*ends, n) if e > r or e == r > len(pivots))
        pivot_set = set(pivots)
        free = [j for j in range(r) if j not in pivot_set]
        needed = [j for j in free if reduced[j] is not None]  # not skipped
        cols = [reduced[j] for j in needed]
        # the selected column: the block's last once every row holds a pivot,
        # else the highest free column the walk reached
        f = width - 1 if r < width else free[-1]
        if f >= r or reduced[f] is None:  # reduced alone
            k = bisect_left(pivots, f)
            col = _reduce(columns[f], steps[:k], p)
            needed.append(f)
            cols.append([col[q] for q, *_ in steps[:k]])
        pivot_block = None
        for f, col in zip(needed, cols):
            support = pivots[: len(col)]
            digit = _back_substitute(col, walk, p)
            found = _rational_numerators(digit, p)
            if found is not None and _in_kernel(columns, f, support, *found):
                continue
            if _in_kernel(columns, f, support, digit, 1):
                found = digit, 1
                continue
            if pivot_block is None:
                pivot_block = _pivot_block(rows, pivots, steps)
            found = _lifted(columns, f, digit, found, pivot_block, walk, p)
            if found is None:
                break
        else:
            nums, den = found
            x = [0] * n
            x[needed[-1]] = den
            for j, a in zip(pivots, nums):
                x[j] = a
            return lowest_terms(x, den)
