"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success; a failing assertion is
the FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
report.  Everything runs with exact rational arithmetic; there are no
numeric tolerances anywhere.
"""

import heapq
import itertools
import random
from fractions import Fraction

import pytest

import purebetti.hkspace as hkspace_module
from purebetti.betti import (
    _equivariant_minors,
    check_hk,
    equivariant_diagram,
    equivariant_tuple,
    hilbert_numerator,
)
from purebetti.cli import main as cli_main
from purebetti.hkspace import (
    NotMultipleError,
    canonical_generator,
    decompose,
    find_generator,
    membership,
    poly_valuation,
    valuation,
)
from purebetti.laurent import (
    ExactDivisionError,
    LaurentPoly,
    canonical,
    frobenius,
    lex_leading,
    parse_poly,
)
from purebetti.schur import (
    frobenius_split,
    schur_bialternant,
    schur_family_gcd_bruteforce,
    schur_gcd_family,
    schur_polys,
    schur_ssyt,
    staircase,
    term_partition,
)

from helpers import bottom_slice, partitions, rand_hom_poly, rand_unit, top_slice


def small_gap_vectors():
    """Every gap vector with at most 3 entries, each between 1 and 4."""
    for n in range(1, 4):
        yield from itertools.product(range(1, 5), repeat=n)


def _report(num, text):
    print(f"criterion {num}: PASS  {text}")


def test_criterion_1_equivariant_reproduction(capsys):
    d = equivariant_diagram((2, 3))
    by_index = {0: set(), 1: set(), 2: set()}
    for (i, a), m in d.entries.items():
        assert m == 1
        by_index[i].add(a)
    assert by_index[0] == {(2, 0), (1, 1), (0, 2)}
    assert by_index[1] == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
    assert by_index[2] == {(4, 3), (3, 4)}
    assert d.collapse_total() == {(0, 2): 3, (1, 4): 5, (2, 7): 2}
    assert cli_main(["equivariant", "--e", "2,3"]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[1:] == [
        "i=0  rank=3  (2,0) (1,1) (0,2)",
        "i=1  rank=5  (4,0) (3,1) (2,2) (1,3) (0,4)",
        "i=2  rank=2  (4,3) (3,4)",
    ]
    _report(1, "equivariant diagram for e=(2,3) matches bidegrees and ranks (3,5,2)")


def test_criterion_2_decomposition_of_the_companion_resolution():
    base = canonical_generator((2, 3))
    cofactor = parse_poly("t1^2 - t1*t2 + t2^2", 2)
    companion = cofactor * base
    report = membership(companion, (2, 3))
    assert report.in_space and report.integral
    assert report.cofactor == cofactor
    with pytest.raises(NotMultipleError):
        decompose(base, companion)
    combination = base.twist((2, 0)) - base.twist((1, 1)) + base.twist((0, 2))
    assert companion == combination
    assert companion.to_diagram() == combination.to_diagram()
    _report(2, "companion diagram = cofactor * generator, reverse fails, "
               "twist identity holds entrywise")


def test_criterion_3_schur_oracle_equivalence():
    checked = 0
    for n in range(1, 5):
        lams = [lam for size in range(0, 13) for lam in partitions(size, n)]
        for lam, f in zip(lams, schur_polys(lams, n)):
            assert f == schur_bialternant(lam, n) == schur_ssyt(lam, n), lam
            checked += 1
    [f] = schur_polys([(4, 2, 1)], 3)
    assert sum(f.terms.values()) == 15
    assert lex_leading(f) == ((4, 2, 1), 1)
    assert top_slice(f) == schur_bialternant((2, 1), 2)
    assert bottom_slice(f) == (
        parse_poly("t1*t2", 2) * schur_bialternant((3, 1), 2))
    _report(3, f"branching rule == bialternant == tableau sum on {checked} "
               "partitions (|lam| <= 12, n <= 4), slice identities included")


def test_criterion_4_family_gcd_and_factorization():
    for e in small_gap_vectors():
        n = len(e)
        r, e_red = frobenius_split(e)
        stair = schur_bialternant(tuple((r - 1) * p for p in staircase(n)), n)
        brute = schur_family_gcd_bruteforce(e)
        assert canonical(brute) == canonical(stair), e
        lifts = [frobenius(schur_bialternant(term_partition(e_red, i), n), r)
                 for i in range(n + 1)]
        assert schur_gcd_family(e) == (r, stair, lifts), e
        for i in range(n + 1):
            lhs = schur_bialternant(term_partition(e, i), n)
            assert lhs == stair * lifts[i], (e, i)
    assert schur_family_gcd_bruteforce((2, 2)) == parse_poly("t1 + t2", 2)
    _report(4, "brute-force family gcd equals the staircase Schur polynomial "
               "and schur_gcd_family's cofactors factor every Schur term exactly "
               "for all e (n <= 3, entries <= 4)")


def test_criterion_5_hk_equations():
    rng = random.Random(20260808)
    diagrams = 0
    perturbations = 0
    for e in small_gap_vectors():
        n = len(e)
        B = equivariant_tuple(e)
        assert B.components == tuple(_equivariant_minors(e)), e
        assert check_hk(B).passed, e
        diagrams += 1
        for _ in range(50):
            shift = tuple(rng.randint(-3, 3) for _ in range(n))
            r = rng.randint(1, 3)
            assert check_hk(B.twist(shift).frobenius(r)).passed, e
        for i, component in enumerate(B.components):
            for exp in component.terms:
                for delta in (1, -1):
                    bump = LaurentPoly.monomial(delta, exp)
                    polys = list(B.components)
                    polys[i] = polys[i] + bump
                    assert not check_hk(polys).passed, (e, i, exp, delta)
                    perturbations += 1
    _report(5, f"HK equations hold for {diagrams} equivariant diagrams "
               "(each equal to the maximal-minor oracle) and "
               f"50 twist/Frobenius images each; all {perturbations} "
               "single-entry perturbations fail")


def test_criterion_6_valuation():
    from purebetti.betti import BettiTuple

    zero3 = LaurentPoly.zero(3)
    B = BettiTuple((schur_bialternant((4, 2, 1), 3), zero3, zero3, zero3))
    assert valuation(B) == (3, 1, 0)
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 3)
        f = rand_hom_poly(rng, n, max_terms=6)
        assert poly_valuation(rand_unit(rng, n) * f) == poly_valuation(f)
    _report(6, "valuation of the (4,2,1) Schur tuple is (3,1,0); "
               "unit-invariant on 100 random samples")


def test_criterion_7_reduction_and_generator(monkeypatch):
    rng = random.Random(42)
    original = hkspace_module._reduce
    steps = {"count": 0}

    def checked_reduce(A, B):
        p, q, C = original(A, B)
        if not C.is_zero():
            assert valuation(C) < max(valuation(A), valuation(B))
        steps["count"] += 1
        return p, q, C

    monkeypatch.setattr(hkspace_module, "_reduce", checked_reduce)
    vectors = 0
    for e in small_gap_vectors():
        n = len(e)
        gen = canonical_generator(e)
        window = [gen.twist(a) for a in itertools.product(range(3), repeat=n)]
        extras = [rand_hom_poly(rng, n, max_terms=5) * gen for _ in range(5)]
        result = find_generator(window + extras)
        cof = decompose(result, gen)
        assert len(cof.terms) == 1, e
        assert result == gen, e
        vectors += 1
    assert steps["count"] > 0
    _report(7, f"find_generator recovers the canonical generator for all "
               f"{vectors} gap vectors; every one of {steps['count']} "
               "reduction steps lowered the valuation")


def test_criterion_8_collapse_is_integer_multiple():
    rng = random.Random(43)
    for sample in range(20):
        e = rng.choice([(2,), (3,), (1, 2), (2, 3), (2, 2), (1, 1, 2), (2, 2, 2)])
        n = len(e)
        gen = canonical_generator(e)
        p = rand_hom_poly(rng, n, max_terms=4, allow_fraction=False)
        member = p * gen
        multiplier = sum(p.terms.values())
        assert isinstance(multiplier, int)
        twist = (p.degree(),) + (0,) * (n - 1)
        reference = gen.twist(twist).to_diagram().collapse_total()
        expected = {key: multiplier * m for key, m in reference.items()}
        expected = {key: m for key, m in expected.items() if m}
        assert member.to_diagram().collapse_total() == expected, (e, sample)
    _report(8, "collapsed diagrams of 20 random integral members are integer "
               "multiples of the collapsed twisted generator")


def test_criterion_9_hilbert_numerator():
    for e in small_gap_vectors():
        numerator = hilbert_numerator(equivariant_tuple(e))
        assert all(isinstance(c, int) and c > 0
                   for c in numerator.terms.values()), e
    rng = random.Random(44)
    for _ in range(20):
        e = rng.choice(list(small_gap_vectors()))
        B = equivariant_tuple(e)
        polys = list(B.components)
        i = rng.randrange(len(polys))
        exp = rng.choice(list(polys[i].terms))
        polys[i] = polys[i] + LaurentPoly.monomial(rng.choice((1, -1)), exp)
        if check_hk(polys).passed:
            hilbert_numerator(polys)
        else:
            with pytest.raises(ExactDivisionError):
                hilbert_numerator(polys)
    _report(9, "Hilbert numerators of equivariant diagrams have nonnegative "
               "integer coefficients; divisibility fails exactly with HK")


def _box_monomials(n, degree, M):
    """Exponent vectors in [0, M]^n of the given total degree."""
    if n == 0:
        return [()] if degree == 0 else []
    return [(a,) + rest for a in range(min(degree, M) + 1)
            for rest in _box_monomials(n - 1, degree - a, M)]


def _rank(rows):
    """Rank over Q of sparse rows {column: coefficient}, by exact elimination.

    Markowitz order: the shortest remaining row is eliminated next, on its
    column with the fewest entries, which keeps the HK systems sparse.
    """
    rows = [dict(row) for row in rows]
    cols = {}
    for r, row in enumerate(rows):
        for v in row:
            cols.setdefault(v, set()).add(r)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    done = set()
    rank = 0
    while heap:
        size, r = heapq.heappop(heap)
        row = rows[r]
        # every change to a row pushes its new length, so a stale entry is skipped
        if r in done or size != len(row):
            continue
        done.add(r)
        if not row:
            continue
        rank += 1
        v = min(row, key=lambda w: (len(cols[w]), w))
        for w in row:
            cols[w].discard(r)
        for r2 in list(cols[v]):
            other = rows[r2]
            factor = Fraction(other[v]) / row[v]
            for w, x in row.items():
                y = other.get(w, 0) - factor * x
                if y:
                    if w not in other:
                        cols[w].add(r2)
                    other[w] = y
                else:
                    del other[w]
                    cols[w].discard(r2)
            heapq.heappush(heap, (len(other), r2))
    return rank


def _hk_dimension(degrees, M):
    """Dimension of the tuples with B_i of total degree degrees[i] in [0, M]^n
    that satisfy the HK equations: unknowns minus the rank of the equations."""
    n = len(degrees) - 1
    unknowns = [(i, exp) for i, d in enumerate(degrees)
                for exp in _box_monomials(n, d, M)]
    rows = []
    for k in range(n):
        # the alternating sum at t_{k+1} = 1: one equation per remaining exponent
        equations = {}
        for i, exp in unknowns:
            equations.setdefault(exp[:k] + exp[k + 1:], {})[(i, exp)] = (-1) ** i
        rows.extend(equations.values())
    return len(unknowns) - _rank(rows)


def _fitting_twists(gen, s, M):
    """The a with |a| = s for which t^a * gen lies in [0, M]^n."""
    n = gen.nvars
    lo = [min(f.min_exponents()[j] for f in gen) for j in range(n)]
    hi = [max(f.var_degree(j + 1) for f in gen) for j in range(n)]
    ranges = [range(-lo[j], M - hi[j] + 1) for j in range(n)]
    return [a for a in itertools.product(*ranges) if sum(a) == s]


def test_criterion_10_twists_of_the_generator_are_a_basis():
    # the paper's theorem, slice by slice: in the box [0, M]^n and at total-
    # degree shift s, the pure HK tuples of type e are spanned by the twists
    # t^a * generator (|a| = s) that fit the box, and those twists are
    # independent (distinct lex-leading terms)
    cases = []
    for e in [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 2), (2, 3, 4), (3, 4, 5),
              (1, 1, 1, 1), (1, 1, 1, 2)]:
        gen = canonical_generator(e)
        M = max(f.var_degree(j) for f in gen for j in range(1, len(e) + 1)) + 3
        cases.append((e, M, range(M + 1)))
    cases.append(((1, 2, 3, 4), 9, range(5)))
    slices = members = 0
    for e, M, shifts in cases:
        gen = canonical_generator(e)
        for s in shifts:
            degrees = tuple(d + s for d in gen.degrees)
            twists = [gen.twist(a) for a in _fitting_twists(gen, s, M)]
            assert _hk_dimension(degrees, M) == len(twists), (e, M, s)
            for T in twists:
                assert T.degrees == degrees
                assert all(0 <= x <= M for f in T for exp in f.terms for x in exp)
                assert check_hk(T).passed, (e, s)
            assert len({lex_leading(T[0])[0] for T in twists}) == len(twists)
            slices += 1
            members += len(twists)
    _report(10, f"in {slices} box slices (n <= 4) the HK space has the "
                f"dimension of its fitting generator twists; all {members} "
                "twists pass HK and are independent")
