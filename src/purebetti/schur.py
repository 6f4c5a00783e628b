"""Schur polynomials and the partition family of the equivariant pure complex.

The production route is `schur_polys`, the branching rule over
Gelfand-Tsetlin patterns: no determinant and no division.  Two
independent routes are kept as test oracles that the library never
calls: `schur_bialternant`, a ratio of alternant determinants, and
`schur_ssyt`, a sum over semistandard Young tableaux.
"""

from __future__ import annotations

from itertools import product
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


def schur_polys(partitions, n):
    """Schur polynomials s_lam(t1..tn) for a family of partitions, as a list.

    Uses the branching rule (Macdonald, Symmetric Functions and Hall
    Polynomials, I.5.11)

        s_lam(t1..tn) = sum over mu interlacing lam of
                        s_mu(t1..t_{n-1}) * t_n^(|lam| - |mu|),

    where mu interlaces lam when lam_1 >= mu_1 >= lam_2 >= ... >= mu_{n-1}
    >= lam_n.  One memo, local to the call, holds the term tables of the
    partitions with at most n-2 parts.  Each (n-1)-part mu that interlaces
    a family member is expanded once, added into every member it
    interlaces and then released, so only the outputs and the tables in
    at most n-2 variables stay alive.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lams = [pad_partition(lam, n) for lam in partitions]
    if n == 0:
        return [LaurentPoly.one(0) for _ in lams]
    members = {}
    for index, lam in enumerate(lams):
        for mu in _interlacing(lam):
            members.setdefault(mu, []).append(index)
    memo = {}
    tables = [{} for _ in lams]
    for mu, indices in members.items():
        sub = _branch(mu, memo)
        for index in indices:
            _add_shifted(tables[index], sub, sum(lams[index]) - sum(mu))
    result = []
    for lam, table in zip(lams, tables):
        if any(c < 0 for c in table.values()):
            raise AssertionError("branching sum came out signed")
        if table.get(lam) != 1:
            raise AssertionError("branching sum has lex-leading coefficient != 1")
        result.append(LaurentPoly._trusted(n, table))
    return result


def _interlacing(lam):
    """The partitions mu with lam_1 >= mu_1 >= lam_2 >= ... >= mu_{k-1} >= lam_k."""
    return product(*(range(lam[j + 1], lam[j] + 1) for j in range(len(lam) - 1)))


def _branch(lam, memo):
    """Term table of s_lam in len(lam) variables; memoises every smaller table."""
    if not lam:
        return {(): 1}
    table = {}
    for mu in _interlacing(lam):
        sub = memo.get(mu)
        if sub is None:
            sub = memo[mu] = _branch(mu, memo)
        _add_shifted(table, sub, sum(lam) - sum(mu))
    return table


def _add_shifted(table, sub, d):
    """Add sub * t_last^d into table, appending d as the last exponent."""
    last = (d,)
    for exp, c in sub.items():
        key = exp + last
        table[key] = table.get(key, 0) + c


def schur_bialternant(lam, n):
    """Schur polynomial in n variables as a ratio of alternant determinants.

    A test oracle for schur_polys.  Both determinants are expanded
    exactly; the quotient is exact and its coefficients are positive
    integers with lex-leading coefficient 1.
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
    A second test oracle for schur_polys, independent of the bialternant.
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
    so that schur(term_partition(e, i)) == g * cofactors[i].  All n+2
    Schur polynomials come from one schur_polys call.  The factorization
    is a theorem, not re-checked here; the test suite verifies it against
    the direct Schur polynomials of the oracles schur_bialternant and
    schur_ssyt.
    """
    e = check_difference_vector(e)
    n = len(e)
    r, e_red = frobenius_split(e)
    g, *reduced = schur_polys(
        [tuple((r - 1) * p for p in staircase(n))]
        + [term_partition(e_red, i) for i in range(n + 1)], n)
    return r, g, [frobenius(f, r) for f in reduced]


def schur_family_gcd_bruteforce(e):
    """Fold the generic polynomial gcd over the Schur family (test oracle)."""
    e = check_difference_vector(e)
    n = len(e)
    return gcd_list(schur_polys(
        [term_partition(e, i) for i in range(n + 1)], n))
