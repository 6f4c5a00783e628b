"""Schur polynomials and the partition family of the equivariant pure complex.

Schur polynomials are computed two independent ways: as a bialternant
ratio of determinants and as a sum over semistandard Young tableaux.
The two routes cross-check each other in the test suite.
"""

from __future__ import annotations

from math import gcd as _int_gcd

from .laurent import (
    LaurentPoly,
    det,
    exact_div,
    frobenius,
    gcd_list,
)


# -- partitions --------------------------------------------------------------


def check_partition(lam):
    """Validate a weakly decreasing tuple of nonnegative integers."""
    lam = tuple(lam)
    if any(not isinstance(p, int) for p in lam):
        raise ValueError(f"partition {lam} must consist of integers")
    if any(p < 0 for p in lam):
        raise ValueError(f"partition {lam} has negative parts")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition {lam} is not weakly decreasing")
    return lam


def pad_partition(lam, n):
    """Pad with zeros (or drop trailing zeros) to exactly n parts."""
    lam = check_partition(lam)
    if len(lam) > n:
        if any(lam[n:]):
            raise ValueError(f"partition {lam} has more than {n} nonzero parts")
        return lam[:n]
    return lam + (0,) * (n - len(lam))


def staircase(n):
    """The staircase partition (n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def partitions(size, max_parts):
    """All partitions of the given size into at most max_parts parts."""
    def rec(remaining, parts_left, bound):
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest
    yield from rec(size, max_parts, size)


# -- difference vectors ------------------------------------------------------


def check_difference_vector(e):
    """Validate a tuple of positive integers (strict purity gaps)."""
    e = tuple(e)
    if not e:
        raise ValueError("difference vector must be nonempty")
    if any(not isinstance(v, int) or v < 1 for v in e):
        raise ValueError(f"difference vector {e} must consist of positive integers")
    return e


def frobenius_split(e):
    """Split e = r * e' with r the gcd of the entries."""
    e = check_difference_vector(e)
    r = 0
    for v in e:
        r = _int_gcd(r, v)
    return r, tuple(v // r for v in e)


def term_partition(e, i):
    """Partition labeling homological term i of the equivariant pure complex.

    With base parts lam_j = sum_{k > j} (e_k - 1), the first i parts are
    bumped by their gap: (lam_1 + e_1, ..., lam_i + e_i, lam_{i+1}, ..., lam_n).
    Sizes step by e_i from one term to the next.
    """
    e = check_difference_vector(e)
    n = len(e)
    if not 0 <= i <= n:
        raise ValueError(f"homological index {i} out of range 0..{n}")
    base = [sum(v - 1 for v in e[j + 1:]) for j in range(n)]
    bumped = [base[j] + e[j] if j < i else base[j] for j in range(n)]
    return check_partition(tuple(bumped))


# -- Schur polynomials -------------------------------------------------------


def schur_bialternant(lam, n):
    """Schur polynomial in n variables as a ratio of alternant determinants.

    Both determinants are expanded exactly; the quotient is exact and its
    coefficients are positive integers with lex-leading coefficient 1.
    """
    lam = pad_partition(lam, n)
    num_rows = []
    den_rows = []
    for i in range(1, n + 1):
        num_rows.append([_power(i, lam[j] + n - 1 - j, n) for j in range(n)])
        den_rows.append([_power(i, n - 1 - j, n) for j in range(n)])
    numerator = det(num_rows)
    denominator = det(den_rows)
    result = exact_div(numerator, denominator)
    if any(c < 0 for c in result.terms.values()):
        raise AssertionError("bialternant quotient came out signed")
    if result.coeff(lam) != 1:
        raise AssertionError("bialternant quotient has lex-leading coefficient != 1")
    return result


def _power(var, e, n):
    exp = tuple(e if j == var - 1 else 0 for j in range(n))
    return LaurentPoly.monomial(1, exp)


def schur_ssyt(lam, n):
    """Schur polynomial as the content generating function of SSYT.

    Sums t^content over all semistandard Young tableaux of shape lam with
    entries from 1..n (rows weakly increase, columns strictly increase).
    Serves as an independent oracle for schur_bialternant.
    """
    lam = pad_partition(lam, n)
    shape = [p for p in lam if p > 0]
    if not shape:
        return LaurentPoly.one(n)
    if len(shape) > n:
        return LaurentPoly.zero(n)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    rows = [[0] * p for p in shape]
    content = [0] * n
    table = {}

    def fill(pos):
        if pos == len(cells):
            key = tuple(content)
            table[key] = table.get(key, 0) + 1
            return
        r, c = cells[pos]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            content[v - 1] += 1
            fill(pos + 1)
            content[v - 1] -= 1
        rows[r][c] = 0

    fill(0)
    return LaurentPoly(n, table)


def complete_homogeneous2(a):
    """t1^(a-1) + t1^(a-2)*t2 + ... + t2^(a-1), the two-variable Schur s_(a-1,0)."""
    if a < 1:
        raise ValueError("need a positive integer")
    return LaurentPoly(2, {(a - 1 - k, k): 1 for k in range(a)})


def schur_gcd_family(e):
    """Gcd and cofactors of the Schur family attached to a difference vector.

    Returns (r, g, cofactors) where r = gcd(e), g is the Schur polynomial
    of the partition (r-1) * staircase, and cofactors[i] is the Frobenius
    lift by r of the Schur polynomial for the reduced vector e' = e / r,
    so that schur(term_partition(e, i)) == g * cofactors[i].  That
    factorization is a theorem, not re-checked here; the test suite
    verifies it against the direct Schur polynomials.
    """
    e = check_difference_vector(e)
    n = len(e)
    r, e_red = frobenius_split(e)
    g = schur_bialternant(tuple((r - 1) * p for p in staircase(n)), n)
    cofactors = [
        frobenius(schur_bialternant(term_partition(e_red, i), n), r)
        for i in range(n + 1)
    ]
    return r, g, cofactors


def schur_family_gcd_bruteforce(e):
    """Fold the generic polynomial gcd over the Schur family (test oracle)."""
    e = check_difference_vector(e)
    n = len(e)
    return gcd_list(schur_bialternant(term_partition(e, i), n)
                    for i in range(n + 1))
