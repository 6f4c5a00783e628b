import random
from math import gcd as int_gcd

import pytest

import purebetti.schur as schur_module
from purebetti.laurent import (
    LaurentPoly,
    canonical,
    frobenius,
    gcd,
    lex_leading,
    parse_poly,
)
from purebetti.schur import (
    check_difference_vector,
    check_partition,
    frobenius_split,
    pad_partition,
    schur_bialternant,
    schur_family_gcd_bruteforce,
    schur_gcd_family,
    schur_polys,
    schur_ssyt,
    staircase,
    term_partition,
)

from helpers import P, bottom_slice, divides, is_symmetric, partitions, top_slice


def embed_pair(f, i, j, n):
    """Map a 2-variable polynomial into n variables at positions (i, j), 1-based."""
    table = {}
    for (a, b), c in f.terms.items():
        exp = [0] * n
        exp[i - 1] = a
        exp[j - 1] = b
        table[tuple(exp)] = c
    return LaurentPoly(n, table)


def complete_homogeneous2(a):
    """t1^(a-1) + t1^(a-2)*t2 + ... + t2^(a-1), by its closed form."""
    return LaurentPoly(2, {(a - 1 - k, k): 1 for k in range(a)})


class TestPartitions:
    def test_check(self):
        assert check_partition((4, 2, 1)) == (4, 2, 1)
        with pytest.raises(ValueError):
            check_partition((1, 2))
        with pytest.raises(ValueError):
            check_partition((2, -1))

    def test_pad(self):
        assert pad_partition((2,), 3) == (2, 0, 0)
        assert pad_partition((2, 1, 0, 0), 3) == (2, 1, 0)
        with pytest.raises(ValueError):
            pad_partition((2, 1, 1), 2)

    def test_staircase(self):
        assert staircase(4) == (3, 2, 1, 0)
        assert staircase(1) == (0,)

    def test_enumeration(self):
        assert sorted(partitions(5, 5)) == sorted(
            [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
             (1, 1, 1, 1, 1)])
        assert list(partitions(4, 2)) == [(4,), (3, 1), (2, 2)]
        assert list(partitions(0, 3)) == [()]


class TestDifferenceVectors:
    def test_check(self):
        assert check_difference_vector((2, 3)) == (2, 3)
        with pytest.raises(ValueError):
            check_difference_vector(())
        with pytest.raises(ValueError):
            check_difference_vector((2, 0))

    def test_split(self):
        assert frobenius_split((2, 3)) == (1, (2, 3))
        assert frobenius_split((2, 2)) == (2, (1, 1))
        assert frobenius_split((6, 4, 2)) == (2, (3, 2, 1))


class TestTermPartitions:
    def test_two_variable_family(self):
        assert [term_partition((2, 3), i) for i in range(3)] == [
            (2, 0), (4, 0), (4, 3)]

    def test_koszul_family(self):
        for n in (1, 2, 3, 4):
            e = (1,) * n
            for i in range(n + 1):
                assert term_partition(e, i) == (1,) * i + (0,) * (n - i)

    def test_repeated_gap_family(self):
        assert [term_partition((2, 2), i) for i in range(3)] == [
            (1, 0), (3, 0), (3, 2)]

    def test_size_steps_by_gap(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 4)
            e = tuple(rng.randint(1, 5) for _ in range(n))
            sizes = [sum(term_partition(e, i)) for i in range(n + 1)]
            for i in range(1, n + 1):
                assert sizes[i] - sizes[i - 1] == e[i - 1]

    def test_index_range(self):
        with pytest.raises(ValueError):
            term_partition((2, 3), 3)
        with pytest.raises(ValueError):
            term_partition((2, 3), -1)


class TestSchurPolynomials:
    def test_two_variable_values(self):
        assert schur_bialternant((2, 0), 2) == P("t1^2 + t1*t2 + t2^2")
        assert schur_bialternant((4, 3), 2) == P("t1^4*t2^3 + t1^3*t2^4")
        assert schur_ssyt((1, 0), 2) == P("t1 + t2")
        assert schur_ssyt((4, 3), 2) == P("t1^4*t2^3 + t1^3*t2^4")

    def test_trivial_partition(self):
        for n in (1, 2, 3, 4):
            assert schur_bialternant((0,) * n, n) == LaurentPoly.one(n)
            assert schur_ssyt((), n) == LaurentPoly.one(n)

    def test_tableau_sum_421(self):
        # orbit sums: permutations of (4,2,1) and (3,3,1) once, (3,2,2) twice
        f = schur_bialternant((4, 2, 1), 3)
        orbits = {(4, 2, 1): 1, (3, 3, 1): 1, (3, 2, 2): 2}
        expected = {}
        for base, coeff in orbits.items():
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        if {a, b, c} == {0, 1, 2}:
                            expected[(base[a], base[b], base[c])] = coeff
        assert f.terms == expected
        assert sum(f.terms.values()) == 15
        assert lex_leading(f) == ((4, 2, 1), 1)
        assert schur_ssyt((4, 2, 1), 3) == f

    def test_oracle_agreement_small(self):
        for n in range(1, 4):
            for size in range(0, 9):
                for lam in partitions(size, n):
                    assert schur_bialternant(lam, n) == schur_ssyt(lam, n)

    def test_symmetric_positive_normalized(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(2, 4)
            lam = pad_partition(rng.choice(list(partitions(rng.randint(1, 7), n))), n)
            f = schur_bialternant(lam, n)
            assert is_symmetric(f)
            assert f.is_homogeneous() and f.degree() == sum(lam)
            assert all(isinstance(c, int) and c > 0 for c in f.terms.values())
            assert lex_leading(f) == (lam, 1)
            assert sum(f.terms.values()) == sum(schur_ssyt(lam, n).terms.values())

    def test_full_column_is_monomial_factor(self):
        lam = (4, 3, 2)
        inner = (2, 1, 0)
        lhs = schur_bialternant(lam, 3)
        rhs = parse_poly("t1^2*t2^2*t3^2", 3) * schur_bialternant(inner, 3)
        assert lhs == rhs

    def test_slice_identities(self):
        # top t1-slice drops the first part; bottom slice subtracts the last
        rng = random.Random(14)
        for _ in range(12):
            n = rng.randint(2, 4)
            lam = pad_partition(rng.choice(list(partitions(rng.randint(1, 6), n))), n)
            f = schur_bialternant(lam, n)
            assert top_slice(f) == schur_bialternant(lam[1:], n - 1)
            lam_low = tuple(p - lam[-1] for p in lam[:-1])
            shift = LaurentPoly.monomial(1, (lam[-1],) * (n - 1))
            assert bottom_slice(f) == shift * schur_bialternant(lam_low, n - 1)

    def test_slices_of_421(self):
        f = schur_bialternant((4, 2, 1), 3)
        assert top_slice(f) == schur_bialternant((2, 1), 2)
        assert bottom_slice(f) == P("t1*t2") * schur_bialternant((3, 1), 2)


class TestCompleteHomogeneous:
    def test_values(self):
        # the one-row Schur polynomial s_(a-1) in two variables is h_(a-1)
        assert complete_homogeneous2(3) == P("t1^2 + t1*t2 + t2^2")
        assert schur_polys([(a - 1,) for a in range(1, 8)], 2) == [
            complete_homogeneous2(a) for a in range(1, 8)]
        assert complete_homogeneous2(4) == schur_bialternant((3, 0), 2)

    def test_coprime_when_orders_are(self):
        assert gcd(complete_homogeneous2(2), complete_homogeneous2(3)) == LaurentPoly.one(2)
        assert gcd(complete_homogeneous2(4), complete_homogeneous2(6)) == complete_homogeneous2(2)


class TestFamilyGcd:
    def test_coprime_gaps(self):
        r, g, cof = schur_gcd_family((2, 3))
        assert r == 1 and g == LaurentPoly.one(2)
        assert cof[0] == schur_bialternant((2, 0), 2)
        assert cof[1] == schur_bialternant((4, 0), 2)
        assert cof[2] == schur_bialternant((4, 3), 2)

    def test_even_gaps(self):
        r, g, cof = schur_gcd_family((2, 2))
        assert r == 2 and g == P("t1 + t2")
        assert cof == [frobenius(schur_bialternant(lam, 2), 2)
                       for lam in [(0, 0), (1, 0), (1, 1)]]
        assert canonical(schur_family_gcd_bruteforce((2, 2))) == canonical(g)

    def test_constant_gap_staircase_product(self):
        for n, r in ((2, 3), (3, 2), (3, 3)):
            _, g, _ = schur_gcd_family((r,) * n)
            product = LaurentPoly.one(n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    product = product * embed_pair(complete_homogeneous2(r), i, j, n)
            assert g == schur_bialternant(tuple((r - 1) * p for p in staircase(n)), n)
            assert g == product

    def test_builds_each_schur_polynomial_once(self, monkeypatch):
        # one branching-rule call for the gcd and the n+1 reduced-vector
        # Schur polynomials, no re-check and no oracle
        calls = []
        oracle_calls = []
        original = schur_module.schur_polys
        oracle = schur_module.schur_bialternant

        def counted(lams, n):
            calls.append(list(lams))
            return original(calls[-1], n)

        def counted_oracle(lam, n):
            oracle_calls.append(lam)
            return oracle(lam, n)

        monkeypatch.setattr(schur_module, "schur_polys", counted)
        monkeypatch.setattr(schur_module, "schur_bialternant", counted_oracle)
        for e in [(2, 3), (2, 2), (2, 4, 2), (3, 3, 3)]:
            calls.clear()
            schur_gcd_family(e)
            assert len(calls) == 1, e
            assert len(calls[0]) == len(e) + 2, e
        assert oracle_calls == []

    def test_brute_force_matches(self):
        for e in [(3, 3), (4, 2), (2, 4, 2), (3, 3, 3), (2, 3, 4)]:
            r, g, _ = schur_gcd_family(e)
            assert canonical(schur_family_gcd_bruteforce(e)) == canonical(g)


class TestStaircaseFactorizations:
    def test_common_divisor_factorization(self):
        # s_{lam - rho} = s_{lam' - rho}^(r) * s_{r*rho - rho} for lam = r * lam'
        for n in (2, 3, 4):
            rho = staircase(n)
            for r in (1, 2, 3, 4):
                for size in range(0, 4):
                    for mu in partitions(size, n):
                        lam_prime = tuple(a + b for a, b in zip(pad_partition(mu, n), rho))
                        lam = tuple(r * p for p in lam_prime)
                        lhs = schur_bialternant(tuple(a - b for a, b in zip(lam, rho)), n)
                        rhs = (frobenius(schur_bialternant(
                            tuple(a - b for a, b in zip(lam_prime, rho)), n), r)
                            * schur_bialternant(tuple((r - 1) * p for p in rho), n))
                        assert lhs == rhs

    def test_frobenius_image_coprime_to_staircase(self):
        rng = random.Random(15)
        for _ in range(8):
            n = rng.randint(2, 3)
            r = rng.randint(2, 3)
            lam = pad_partition(rng.choice(list(partitions(rng.randint(1, 5), n))), n)
            lifted = frobenius(schur_bialternant(lam, n), r)
            stair = schur_bialternant(tuple((r - 1) * p for p in staircase(n)), n)
            assert gcd(lifted, stair) == LaurentPoly.one(n)

    def test_coprime_gap_coprime_to_staircase(self):
        rng = random.Random(16)
        for _ in range(8):
            n = rng.randint(2, 3)
            rho = staircase(n)
            mu = pad_partition(rng.choice(list(partitions(rng.randint(1, 5), n))), n)
            lam = tuple(a + b for a, b in zip(mu, rho))
            gaps = [lam[i] - lam[i + 1] for i in range(n - 1)]
            candidates = [r for r in (2, 3, 4)
                          if any(int_gcd(r, gp) == 1 for gp in gaps)]
            if not candidates:
                continue
            r = rng.choice(candidates)
            lhs = schur_bialternant(tuple(a - b for a, b in zip(lam, rho)), n)
            stair = schur_bialternant(tuple((r - 1) * p for p in rho), n)
            assert gcd(lhs, stair) == LaurentPoly.one(n)

    def test_recover_staircase_factor_by_trial_division(self):
        rng = random.Random(17)
        symmetric_pool = [
            lambda n: schur_bialternant(pad_partition((2,), n), n),
            lambda n: schur_bialternant(pad_partition((1, 1), n), n),
            lambda n: schur_bialternant(pad_partition((2, 1), n), n),
        ]
        for _ in range(6):
            n = rng.randint(2, 3)
            p = rng.choice((2, 3))
            stair = schur_bialternant(tuple((p - 1) * q for q in staircase(n)), n)
            f = rng.choice(symmetric_pool)(n) * rng.choice(symmetric_pool)(n)
            g = stair * f
            recovered = [q for q in (2, 3, 4)
                         if divides(schur_bialternant(
                             tuple((q - 1) * s for s in staircase(n)), n), g)]
            assert p in recovered
