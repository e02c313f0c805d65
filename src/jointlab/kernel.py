"""The certified modular walk behind ``exact.rank`` and
``exact.nullspace_vector``.

Rank and nullspace come from one walk over integer rows.  A caller with
rational rows scales each to integers first, by
:func:`~jointlab.exact.integer_form`, which changes neither rank nor
nullspace.  The rows are eliminated modulo a prime below 2^61, so every
intermediate stays a few machine words long (Cabay, "Exact solution of
linear equations", SYMSAC 1971).  The kernel vectors an answer needs are
back-substituted mod p, recovered as integer numerators over one
denominator by rational reconstruction (Wang, Guy and Davenport, "P-adic
reconstruction of rational numbers", SIGSAM Bull. 1982) and checked exactly
in integers, M x = 0.  The checks prove that the pivots found mod p are the
rational ones, so every answer is exact and is the one the selection rule
defines.  When a reconstruction or a check fails, the next prime joins by
the Chinese remainder theorem.  The kernel names no Fraction: integers in,
integers out.

Only a run that ranks or fits loads this module: ``exact`` imports it on
the first call of ``rank`` or ``nullspace_vector``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import Iterator, Sequence

from .exact import lowest_terms

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list[int] = []  # found by _primes, largest first


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2..37 decide every odd n below
    3.3 * 10^24, far above 2^61."""
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
    """The primes below 2^61 in descending order, from the Mersenne prime
    2^61 - 1.  Each is searched for once and kept in ``_PRIMES``."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
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
    in pivot order.  col is the free column reduced by those k steps."""
    y = col[:k]
    for r in reversed(range(k)):
        t = y[r] * steps[r][1] % p
        y[r] = t
        if t:
            y[:r] = [(v - u * t) % p for v, u in zip(y[:r], reduced[pivots[r]])]
    return [-t % p for t in y]


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


def _in_kernel(
    columns: Sequence[Sequence[int]], f: int, support: list[int], nums: list[int], den: int
) -> bool:
    """Exact integer check of M x = 0 for x with den at column f, nums at
    the support columns and 0 elsewhere."""
    acc = [den * v for v in columns[f]]
    for j, a in zip(support, nums):
        if a:
            acc = [s + a * v for s, v in zip(acc, columns[j])]
    return not any(acc)


def _certified_walk(rows: Sequence[Sequence[int]], select: bool):
    """The pivot columns over Q and, if select, the selection rule's kernel
    vector as ``(nums, den)`` (None when the kernel is zero); without
    select, None.

    Entries are ints, and the vector is the :func:`integer_form` of the
    rational one, in :func:`lowest_terms`.

    Certificate.  Pivots found mod p are pivots over Q, since a minor that
    is nonzero mod p is nonzero.  A free column the walk reached is free
    over Q once the kernel vector with 1 there, supported on the pivots
    before it, passes the exact check.  So rank needs these checks only when
    the mod-p rank is below both dimensions.  The selected column, the
    highest free one, is checked the same way, and the vector that passes is
    the only kernel vector with its support.

    A failed reconstruction or check takes the next prime.  Primes whose
    pivot lists agree are combined by CRT.  A prime with a smaller key
    (-len, pivots) restarts the accumulation, one with a larger key is
    skipped.  No prime's key is below that of the rational pivots, and all
    but finitely many primes have that key, so the loop ends.
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    m = len(rows)
    columns = list(zip(*rows))
    n = len(columns)
    best = None
    for p in _primes():
        pivots, reduced, steps = _walk(columns, m, p)
        if len(pivots) == n or (len(pivots) == m and not select):
            return pivots, None
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivot_set = set(pivots)
        needed = [j for j in range(len(reduced)) if j not in pivot_set]
        cols = [reduced[j] for j in needed]
        if select and len(reduced) < n:
            needed.append(n - 1)
            cols.append(_reduce(columns[-1], steps, p))
        residues = [
            _back_substitute(col, bisect_left(pivots, f), reduced, pivots, steps, p)
            for f, col in zip(needed, cols)
        ]
        if key != best:
            best, modulus, acc = key, p, residues
        else:
            inv = pow(modulus, -1, p)
            acc = [
                [a + modulus * ((b - a) * inv % p) for a, b in zip(old, new)]
                for old, new in zip(acc, residues)
            ]
            modulus *= p
        found = [_rational_numerators(res, modulus) for res in acc]
        if all(
            v is not None and _in_kernel(columns, f, pivots[: len(res)], *v)
            for f, res, v in zip(needed, acc, found)
        ):
            if not select:
                return pivots, None
            nums, den = found[-1]
            x = [0] * n
            x[needed[-1]] = den
            for j, a in zip(pivots, nums):
                x[j] = a
            return pivots, lowest_terms(x, den)

