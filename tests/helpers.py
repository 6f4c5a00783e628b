"""Test data builders, reference helpers and one-line views of the library."""

from fractions import Fraction

from purebetti import LaurentPoly, canonical_generator, parse_poly
from purebetti.laurent import _quo_or_none, var_slice


def P(text, nvars=2):
    return parse_poly(text, nvars)


def divides(g, f):
    """True when g divides f exactly in the Laurent ring."""
    return _quo_or_none(f, g) is not None


def top_slice(f):
    """Coefficient of the highest power of t1 in f != 0, in t2..tn."""
    return var_slice(f, f.var_degree(1))


def bottom_slice(f):
    """Coefficient of the lowest power of t1 in f != 0, in t2..tn."""
    return var_slice(f, f.min_exponents()[0])


def set_var_one(f, k):
    """Substitute t_k = 1 (k is 1-based); the result lives in n-1 variables.

    The reference projection that check_hk is tested against.
    """
    if type(k) is not int or not 1 <= k <= f.nvars:
        raise ValueError(f"variable index {k!r} out of range 1..{f.nvars}")
    table = {}
    for exp, c in f.terms.items():
        cut = exp[:k - 1] + exp[k:]
        table[cut] = table.get(cut, 0) + c
    return LaurentPoly(f.nvars - 1, table)


def is_symmetric(f):
    """True when f is invariant under all adjacent variable swaps."""
    for i in range(f.nvars - 1):
        for exp, c in f.terms.items():
            swapped = list(exp)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if f.terms.get(tuple(swapped), 0) != c:
                return False
    return True


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


def rand_coeff(rng, allow_fraction=False):
    num = rng.choice([v for v in range(-5, 6) if v])
    if allow_fraction and rng.random() < 0.3:
        return Fraction(num, rng.randint(2, 5))
    return num


def rand_poly(rng, nvars, max_terms=6, lo=-3, hi=3, allow_fraction=True):
    """Random nonzero Laurent polynomial."""
    table = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(lo, hi) for _ in range(nvars))
        table[exp] = table.get(exp, 0) + rand_coeff(rng, allow_fraction)
    poly = LaurentPoly(nvars, table)
    if not poly:
        poly = LaurentPoly.monomial(1, (0,) * nvars)
    return poly


def rand_hom_poly(rng, nvars, degree=None, max_terms=5, allow_fraction=False):
    """Random nonzero homogeneous Laurent polynomial."""
    if degree is None:
        degree = rng.randint(-2, 4)
    table = {}
    for _ in range(rng.randint(1, max_terms)):
        head = [rng.randint(-2, max(2, degree + 2)) for _ in range(nvars - 1)]
        exp = tuple(head + [degree - sum(head)])
        table[exp] = table.get(exp, 0) + rand_coeff(rng, allow_fraction)
    poly = LaurentPoly(nvars, table)
    if not poly:
        poly = LaurentPoly.monomial(1, (degree,) + (0,) * (nvars - 1))
    return poly


def rand_unit(rng, nvars):
    exp = tuple(rng.randint(-4, 4) for _ in range(nvars))
    return LaurentPoly.monomial(rand_coeff(rng, allow_fraction=True), exp)


def rand_member(rng, e, max_terms=5, allow_fraction=False):
    """Random nonzero multiple of the canonical generator for e."""
    gen = canonical_generator(e)
    cofactor = rand_hom_poly(rng, len(e), max_terms=max_terms,
                             allow_fraction=allow_fraction)
    return cofactor, cofactor * gen, gen
