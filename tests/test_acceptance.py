"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success; a failing assertion is
the FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
report.  Everything runs with exact rational arithmetic; there are no
numeric tolerances anywhere.
"""

import itertools
import random

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
    frobenius,
    leading_coeff,
    lex_leading,
    parse_poly,
    trailing_coeff,
    unit_equal,
)
from purebetti.schur import (
    frobenius_split,
    partitions,
    schur_bialternant,
    schur_family_gcd_bruteforce,
    schur_gcd_family,
    schur_polys,
    schur_ssyt,
    staircase,
    term_partition,
)

from helpers import rand_hom_poly, rand_unit


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
    b1 = base.to_diagram()
    b2 = companion.to_diagram()
    assert b2 == b1.twist((2, 0)) - b1.twist((1, 1)) + b1.twist((0, 2))
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
    assert f.evaluate([1, 1, 1]) == 15
    assert lex_leading(f) == ((4, 2, 1), 1)
    assert leading_coeff(f) == schur_bialternant((2, 1), 2)
    assert trailing_coeff(f) == (
        parse_poly("t1*t2", 2) * schur_bialternant((3, 1), 2))
    _report(3, f"branching rule == bialternant == tableau sum on {checked} "
               "partitions (|lam| <= 12, n <= 4), slice identities included")


def test_criterion_4_family_gcd_and_factorization():
    for e in small_gap_vectors():
        n = len(e)
        r, e_red = frobenius_split(e)
        stair = schur_bialternant(tuple((r - 1) * p for p in staircase(n)), n)
        brute = schur_family_gcd_bruteforce(e)
        assert unit_equal(brute, stair), e
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
        multiplier = p.evaluate([1] * n)
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
