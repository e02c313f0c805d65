"""The certified modular walk behind ``exact.rank`` and
``exact.nullspace_vector``.

Rank and nullspace come from one walk over integer rows.  A caller with
rational rows scales each to integers first, by
:func:`~jointlab.exact.integer_form`, which changes neither rank nor
nullspace.  The rows are eliminated modulo a prime below 2^30, so every
residue, multiplier and pivot inverse is one 30-bit digit of a CPython int
(Cabay, "Exact solution of linear equations", SYMSAC 1971).  The kernel
vectors an answer needs are back-substituted mod p, recovered as integer
numerators over one denominator by rational reconstruction (Wang, Guy and
Davenport, "P-adic reconstruction of rational numbers", SIGSAM Bull. 1982)
and checked exactly in integers, M x = 0.  The checks prove that the pivots
found mod p are the rational ones, so every answer is exact and is the one
the selection rule defines.  A vector whose numerators are too large for one
prime is lifted p-adically on the walk's own pivot steps (Dixon, "Exact
solution of linear equations using p-adic expansions", Numer. Math. 1982)
and reconstructed modulo p^s, so one walk serves every fit.  A lift step
pays only for the nonzero digits of its vector, and a Hadamard guard, built
once per prime from the full pivot rows, bounds how far any lift may go.  A
prime whose pivots are not the rational ones is dropped, and the next prime
walks from scratch.  The kernel names no Fraction: integers in, integers
out.

Only a run that ranks or fits loads this module: ``exact`` imports it on
the first call of ``rank`` or ``nullspace_vector``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt, prod
from operator import mul
from typing import Iterator, Sequence

from .errors import InternalInvariantViolation
from .exact import lowest_terms

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list[int] = []  # found by _primes, largest first


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


def _walk(columns: Sequence[Sequence[int]], m: int, p: int):
    """Left-looking row echelon walk of integer columns mod p.

    Columns are walked left to right.  A column is reduced only when the walk
    reaches it, by :func:`_reduce` with the pivot steps recorded so far.  Its
    first nonzero entry at or below the next pivot row then becomes a pivot,
    and the step is recorded: the row swap, the pivot inverse and, for each
    row below the pivot whose entry is nonzero, in increasing order, the
    pair (row, multiplier).  Rows with a zero multiplier are left out, so
    applying the step touches only the entries it changes.
    The walk stops once every row holds a pivot.

    Returns the pivot columns, the reduced columns the walk reached and the
    steps.  Entry r of a reduced column is final once r steps precede it.
    """
    pivots: list[int] = []
    reduced: list[list[int]] = []
    steps: list[tuple] = []
    for j, column in enumerate(columns):
        r = len(pivots)
        if r == m:
            break
        col = _reduce(column, steps, p)
        reduced.append(col)
        sel = next((i for i in range(r, m) if col[i]), None)
        if sel is None:
            continue
        col[r], col[sel] = col[sel], col[r]
        inv = pow(col[r], -1, p)
        below = [(i, v * inv % p) for i, v in enumerate(col[r + 1 :], r + 1) if v]
        steps.append((sel, inv, below))
        pivots.append(j)
    return pivots, reduced, steps


def _reduce(column: Sequence[int], steps: list[tuple], p: int) -> list[int]:
    """One integer column mod p with the recorded steps applied in order:
    step r swaps rows r and sel, then, in place, takes each recorded
    multiplier times entry r from the entry of its row.  A zero entry r
    skips the step, and rows with a zero multiplier are never visited.

    Only entry r is reduced mod p at step r; the entries below it are
    reduced once at the end, which stays exact and saves a division per
    update.
    """
    col = [v % p for v in column]
    for r, (sel, _, below) in enumerate(steps):
        col[r], col[sel] = col[sel], col[r]
        top = col[r] % p
        col[r] = top
        if top:
            for i, f in below:
                col[i] -= f * top
    return [v % p for v in col]


def _back_substitute(
    col: list[int],
    k: int,
    reduced: list[list[int]],
    pivots: list[int],
    steps: list[tuple],
    p: int,
) -> list[int]:
    """The kernel vector mod p that is 1 at a free column, 0 at the other
    free columns and supported on the k pivots before it: its pivot entries,
    in pivot order, each the residue nearest 0 (at most p // 2 in absolute
    value).  col is the free column reduced by those k steps.  An integer
    vector within p // 2 is so its own digit, and :func:`_lift` finds a zero
    residual for it."""
    y = col[:k]
    for r in reversed(range(k)):
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
    lift on it.  ``order[r]`` is the row that the swaps of the steps leave in
    row r, and ``block[t]`` holds the entries of pivot column ``pivots[t]``
    in the pivot rows ``order[:K]``, in that order.  The leading k x k block
    is the matrix that the first k steps factor mod p.  The guard is
    2 * prod |row|^2 over the full pivot rows.  A full row's |row|^2 bounds
    that of the part any leading block and free column reach, and each
    factor is at least 1, so one guard serves every column lifted on this
    prime."""
    order = list(range(len(rows)))
    for r, (sel, _, _) in enumerate(steps):
        order[r], order[sel] = order[sel], order[r]
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
    steps: :func:`_reduce`, then :func:`_back_substitute`.
    Returns the new residual and digit.
    """
    pivots, reduced, steps = walk
    k = len(digit)
    residual = [v // p for v in _combination(residual, block, digit)]
    col = [0] * len(order)
    for i, c in zip(order, residual):
        col[i] = c
    digit = _back_substitute(_reduce(col, steps[:k], p), k, reduced, pivots, steps, p)
    return residual, digit


def _lifted(columns, f: int, digit: list[int], found, pivot_block, walk, p: int):
    """The kernel vector with 1 at free column f, supported on the k pivots
    before it, as ``(nums, den)``; or None when p is unlucky for f.

    digit is its pivot entries mod p and found their reconstruction mod p,
    which failed the exact check, or None.  The vector is lifted one more
    digit and reconstructed modulo p^s until a reconstruction passes the
    exact check, which certifies it, or fails it but satisfies the k pivot
    rows.  Such a vector is the only rational solution on the pivot rows,
    since the pivot block is invertible mod p and so over Q; as it fails
    another row, column f is independent of the pivots before it over Q,
    and p is unlucky.  Cramer's rule and Hadamard's bound put the solution
    within reach of reconstruction once p^s exceeds 2 * prod |row|^2 over
    the pivot rows, and so once it exceeds the guard of
    :func:`_pivot_block`; passing the guard is an implementation bug.
    """
    order, block, guard = pivot_block
    k = len(digit)
    support = walk[0][:k]
    b = [columns[f][i] for i in order[:k]]
    residual, total, modulus = b, digit, p
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
        found = _rational_numerators(total, modulus)
        if found is not None and _in_kernel(columns, f, support, *found):
            return found


def _certified_walk(rows: Sequence[Sequence[int]], select: bool):
    """The pivot columns over Q and, if select, the selection rule's kernel
    vector as ``(nums, den)`` (None when the kernel is zero); without
    select, None.

    Entries are ints, and the vector is the :func:`integer_form` of the
    rational one, in :func:`lowest_terms`.

    Certificate.  No leading block of columns has a higher rank mod p than
    over Q, since a minor that is nonzero mod p is nonzero.  A free column
    the walk reached depends over Q on the pivots before it once the kernel
    vector with 1 there, supported on those pivots, passes the exact check.
    Once every such column passes, the ranks agree on every leading block,
    so the pivots mod p are the pivots over Q.  So rank needs these checks
    only when the mod-p rank is below both dimensions.  The selected column,
    the highest free one, is checked the same way, and the vector that
    passes is the only kernel vector with its support.

    A vector whose reconstruction mod p fails, or fails the check, is
    lifted by :func:`_lifted` on the pivot block and its guard, which are
    built once per prime and only then.  Lifting either certifies the vector
    or shows that its column is a pivot over Q that p missed.  Such a prime
    is unlucky: it is dropped and the next prime walks from scratch.  Only
    the finitely many primes dividing a pivot minor are unlucky, so the loop
    ends.
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    m = len(rows)
    columns = list(zip(*rows))
    n = len(columns)
    for p in _primes():
        walk = pivots, reduced, steps = _walk(columns, m, p)
        if len(pivots) == n or (len(pivots) == m and not select):
            return pivots, None
        pivot_set = set(pivots)
        needed = [j for j in range(len(reduced)) if j not in pivot_set]
        cols = [reduced[j] for j in needed]
        if select and len(reduced) < n:
            needed.append(n - 1)
            cols.append(_reduce(columns[-1], steps, p))
        pivot_block = None
        for f, col in zip(needed, cols):
            k = bisect_left(pivots, f)
            digit = _back_substitute(col, k, reduced, pivots, steps, p)
            found = _rational_numerators(digit, p)
            if found is None or not _in_kernel(columns, f, pivots[:k], *found):
                if pivot_block is None:
                    pivot_block = _pivot_block(rows, pivots, steps)
                found = _lifted(columns, f, digit, found, pivot_block, walk, p)
                if found is None:
                    break
        else:
            if not select:
                return pivots, None
            nums, den = found
            x = [0] * n
            x[needed[-1]] = den
            for j, a in zip(pivots, nums):
                x[j] = a
            return pivots, lowest_terms(x, den)
