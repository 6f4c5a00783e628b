import itertools
import random
from fractions import Fraction

import pytest

from purebetti.betti import (
    _equivariant_minors,
    BettiDiagram,
    BettiTuple,
    NotPureError,
    check_hk,
    equivariant_diagram,
    equivariant_tuple,
    hilbert_numerator,
    koszul_diagram,
)
from purebetti.laurent import (
    ExactDivisionError,
    LaurentPoly,
    frobenius,
    is_symmetric,
    leading_coeff,
    lex_leading,
    parse_poly,
    set_var_one,
)
from purebetti.schur import schur_bialternant, term_partition

from helpers import P, rand_coeff, rand_hom_poly


def weyl_dimension(lam):
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i): the value s_lam(1, ..., 1)."""
    num = den = 1
    for i, j in itertools.combinations(range(len(lam)), 2):
        num *= lam[i] - lam[j] + j - i
        den *= j - i
    return Fraction(num, den)


def first_failing_projection(polys):
    """(k, residual) of the first t_k = 1 where the alternating sum survives."""
    alt = LaurentPoly.zero(polys[0].nvars)
    for i, f in enumerate(polys):
        alt = alt + f if i % 2 == 0 else alt - f
    for k in range(1, alt.nvars + 1):
        residual = set_var_one(alt, k)
        if residual:
            return k, residual
    return None, None


def worked_pair():
    """The two-variable gap (2,3) generator tuple and its degree-2 multiple."""
    base = equivariant_tuple((2, 3))
    multiple = P("t1^2 - t1*t2 + t2^2") * base
    return base, multiple


class TestDiagramBasics:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BettiDiagram(2, {(3, (0, 0)): 1})
        with pytest.raises(ValueError):
            BettiDiagram(2, {(0, (0, 0, 0)): 1})

    def test_zero_entries_dropped(self):
        d = BettiDiagram(2, {(0, (1, 0)): 1})
        assert (d - d).entries == {}

    def test_linear_combinations(self):
        d = equivariant_diagram((2, 3))
        assert d + d == 2 * d
        assert Fraction(1, 2) * (2 * d) == d

    def test_tuple_round_trip(self):
        d = equivariant_diagram((2, 3))
        assert d.to_tuple().to_diagram() == d

    def test_integrality_predicates(self):
        d = equivariant_diagram((2, 3))
        assert d.is_integral() and d.is_nonnegative()
        half = Fraction(1, 2) * d
        assert not half.is_integral() and half.is_nonnegative()
        assert not (d - 2 * d).is_nonnegative()


class TestEquivariantDiagram:
    def test_gap_two_three(self):
        d = equivariant_diagram((2, 3))
        by_index = {i: set() for i in range(3)}
        for (i, a), m in d.entries.items():
            assert m == 1
            by_index[i].add(a)
        assert by_index[0] == {(2, 0), (1, 1), (0, 2)}
        assert by_index[1] == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
        assert by_index[2] == {(4, 3), (3, 4)}
        assert d.collapse_total() == {(0, 2): 3, (1, 4): 5, (2, 7): 2}
        assert d.purity().degrees == (2, 4, 7)
        assert d.purity().diffs == (2, 3)

    def test_tuple_components_are_schur(self):
        B = equivariant_tuple((2, 3))
        assert B.components == tuple(
            schur_bialternant(term_partition((2, 3), i), 2) for i in range(3))

    def test_koszul(self):
        d = koszul_diagram(3)
        for (i, a), m in d.entries.items():
            assert m == 1
            assert set(a) <= {0, 1} and sum(a) == i
        assert len([1 for (i, _) in d.entries if i == 2]) == 3

    def test_repeated_gap(self):
        B = equivariant_tuple((2, 2))
        assert B.components == tuple(
            schur_bialternant(lam, 2) for lam in [(1, 0), (3, 0), (3, 2)])

    def test_positive_integer_multiplicities(self):
        for e in [(3,), (1, 4), (2, 2, 2), (3, 1, 2)]:
            d = equivariant_diagram(e)
            assert d.is_integral() and d.is_nonnegative()

    def test_ladder_sizes_match_the_bialternant(self):
        for e in [(1, 2, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5), (1, 1, 1, 1, 1),
                  (2, 2, 2, 2, 2)]:
            n = len(e)
            assert equivariant_tuple(e).components == tuple(
                schur_bialternant(term_partition(e, i), n)
                for i in range(n + 1)), e

    def test_top_ladder_rung_by_independent_invariants(self):
        # the bialternant takes many seconds here, so check what the
        # Schur polynomials must satisfy instead
        e = (1, 2, 3, 4, 5)
        n = len(e)
        B = equivariant_tuple(e)
        for i, f in enumerate(B.components):
            lam = term_partition(e, i)
            assert sum(f.terms.values()) == weyl_dimension(lam), i
            assert is_symmetric(f), i
            assert lex_leading(f) == (lam, 1), i
        assert check_hk(B).passed
        assert len(B.to_diagram().entries) == 35783


class TestWorkedPairDiagrams:
    def test_multiple_has_expected_bidegrees(self):
        _, multiple = worked_pair()
        d = multiple.to_diagram()
        by_index = {i: set() for i in range(3)}
        for (i, a), m in d.entries.items():
            assert m == 1
            by_index[i].add(a)
        assert by_index[0] == {(4, 0), (2, 2), (0, 4)}
        assert by_index[1] == {(6, 0), (4, 2), (3, 3), (2, 4), (0, 6)}
        assert by_index[2] == {(6, 3), (3, 6)}
        assert d.collapse_total() == {(0, 4): 3, (1, 6): 5, (2, 9): 2}

    def test_twist_combination_identity(self):
        base, multiple = worked_pair()
        b1 = base.to_diagram()
        b2 = multiple.to_diagram()
        assert b2 == b1.twist((2, 0)) - b1.twist((1, 1)) + b1.twist((0, 2))


class TestTwist:
    def test_zero_twist(self):
        d = equivariant_diagram((2, 3))
        assert d.twist((0, 0)) == d

    def test_twist_inverse(self):
        d = equivariant_diagram((2, 3))
        assert d.twist((3, -2)).twist((-3, 2)) == d

    def test_twist_matches_monomial_on_tuples(self):
        B = equivariant_tuple((2, 3))
        twisted = B.to_diagram().twist((1, 2)).to_tuple()
        assert twisted == B.twist((1, 2))
        unit = LaurentPoly.monomial(1, (1, 2))
        assert twisted == unit * B


class TestFrobenius:
    def test_identity(self):
        d = equivariant_diagram((2, 3))
        assert d.frobenius(1) == d

    def test_koszul_profile_scales(self):
        d = koszul_diagram(2).frobenius(2)
        assert d.purity().degrees == (0, 2, 4)
        assert d.purity().diffs == (2, 2)

    def test_commutes_with_tuple_conversion(self):
        d = equivariant_diagram((2, 3))
        lhs = d.frobenius(3).to_tuple().components
        rhs = tuple(frobenius(f, 3) for f in d.to_tuple().components)
        assert lhs == rhs

    def test_invalid(self):
        with pytest.raises(ValueError):
            koszul_diagram(2).frobenius(0)


class TestCollapse:
    def test_zero_diagram(self):
        assert BettiDiagram(2).collapse_total() == {}

    def test_rational_entries(self):
        d = BettiDiagram(1, {(0, (0,)): Fraction(1, 2), (1, (1,)): Fraction(1, 2)})
        assert d.collapse_total() == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}


class TestPurity:
    def test_empty_diagram_gives_zero_tuple(self):
        zero = BettiDiagram(2).to_tuple()
        assert zero.is_zero()
        assert zero.purity().is_zero

    def test_mixed_degrees_witnessed(self):
        d = BettiDiagram(2, {(0, (1, 0)): 1, (0, (0, 2)): 1})
        profile = d.purity()
        assert profile.witness == (0, (1, 2))
        with pytest.raises(NotPureError):
            d.to_tuple()

    def test_zero_slot_witnessed(self):
        d = BettiDiagram(2, {(0, (0, 0)): 1, (2, (2, 1)): 1})
        assert d.purity().witness == (1, "zero homological slot")

    def test_non_increasing_degrees_witnessed(self):
        d = BettiDiagram(1, {(0, (2,)): 1, (1, (1,)): 1})
        assert d.purity().witness == (1, (2, 1))

    def test_tuple_requires_homogeneous_components(self):
        with pytest.raises(ValueError):
            BettiTuple((P("t1 + 1"), P("t1^2"), P("t1^2*t2")))

    def test_tuple_length_enforced(self):
        with pytest.raises(ValueError):
            BettiTuple((P("t1"), P("t1^2")))


class TestHerzogKuhl:
    def test_equivariant_families_pass(self):
        for n in range(1, 4):
            for e in itertools.product(range(1, 4), repeat=n):
                assert check_hk(equivariant_tuple(e)).passed

    def test_large_gap_vectors_pass(self):
        for e in [(4, 4, 4, 4), (1, 1, 1, 1), (3, 1, 4, 2), (2, 4, 3, 1)]:
            B = equivariant_tuple(e)
            assert B.components == tuple(_equivariant_minors(e)), e
            assert check_hk(B).passed

    def test_report_matches_projection_of_the_sum(self):
        # single-entry perturbations fail at k = 1; a pair c*t^a in B_0 and
        # c*t^(a + e_1 * unit_1) in B_1 cancels at t_1 = 1 and first fails
        # at k = 2
        rng = random.Random(22)
        for e in [(2, 3), (2, 2), (1, 2, 3), (3, 4, 5), (1, 2, 2, 3)]:
            B = equivariant_tuple(e)
            report = check_hk(B)
            assert (report.k, report.residual) == (None, None)
            assert first_failing_projection(B.components) == (None, None)
            for _ in range(10):
                c = rand_coeff(rng, allow_fraction=True)
                polys = list(B.components)
                i = rng.randrange(len(polys))
                exp = rng.choice(sorted(polys[i].terms))
                polys[i] = polys[i] + LaurentPoly.monomial(c, exp)
                report = check_hk(polys)
                assert (report.k, report.residual) == first_failing_projection(polys)
                assert not report.passed and report.k == 1

                polys = list(B.components)
                a = rng.choice(sorted(polys[0].terms))
                polys[0] = polys[0] + LaurentPoly.monomial(c, a)
                polys[1] = polys[1] + LaurentPoly.monomial(
                    c, (a[0] + e[0],) + a[1:])
                report = check_hk(polys)
                assert (report.k, report.residual) == first_failing_projection(polys)
                assert not report.passed and report.k == 2

    def test_zero_tuple_passes(self):
        zero = BettiTuple((LaurentPoly.zero(2),) * 3)
        assert check_hk(zero).passed

    def test_perturbation_fails_with_witness(self):
        base = equivariant_diagram((2, 3))
        bumped = (base + BettiDiagram(2, {(1, (3, 1)): 1})).to_tuple()
        report = check_hk(bumped)
        assert not report.passed
        assert report.k == 1 and report.residual

    def test_invariance_under_twist_and_frobenius(self):
        rng = random.Random(18)
        B = equivariant_tuple((2, 3))
        for _ in range(10):
            shift = tuple(rng.randint(-3, 3) for _ in range(2))
            r = rng.randint(1, 3)
            assert check_hk(B.twist(shift).frobenius(r)).passed

    def test_polynomial_multiples_preserve_and_reflect(self):
        rng = random.Random(19)
        good = equivariant_tuple((2, 3))
        bad = (equivariant_diagram((2, 3))
               + BettiDiagram(2, {(0, (2, 0)): 1})).to_tuple()
        for _ in range(10):
            p = rand_hom_poly(rng, 2, max_terms=4)
            assert check_hk(p * good).passed
            assert not check_hk(p * bad).passed


class TestHilbertNumerator:
    def test_koszul_residue_field(self):
        for n in (1, 2, 3):
            assert hilbert_numerator(koszul_diagram(n).to_tuple()) == LaurentPoly.one(n)

    def test_gap_two_three_value(self):
        h = hilbert_numerator(equivariant_tuple((2, 3)))
        expected = parse_poly(
            "t1^3*t2^2 + t1^3*t2 + t1^3 + t1^2*t2^3 + 2*t1^2*t2^2 + 2*t1^2*t2"
            " + t1^2 + t1*t2^3 + 2*t1*t2^2 + t1*t2 + t2^3 + t2^2", 2)
        assert h == expected
        # multiply back against the alternating sum as an independent check
        ring_factor = (LaurentPoly.one(2) - P("t1")) * (LaurentPoly.one(2) - P("t2"))
        assert h * ring_factor == equivariant_tuple((2, 3)).alternating_sum()
        assert h.evaluate([1, 1]) == 15

    def test_nonnegative_for_equivariant(self):
        for e in [(2,), (3, 2), (2, 2), (1, 2, 3)]:
            h = hilbert_numerator(equivariant_tuple(e))
            assert all(isinstance(c, int) and c > 0 for c in h.terms.values())

    def test_fails_exactly_when_hk_fails(self):
        rng = random.Random(20)
        for _ in range(10):
            d = equivariant_diagram((2, 2))
            if rng.random() < 0.5:
                d = d + BettiDiagram(2, {(1, (2, 1)): 1})
            B = d.to_tuple()
            if check_hk(B).passed:
                hilbert_numerator(B)
            else:
                with pytest.raises(ExactDivisionError):
                    hilbert_numerator(B)


class TestTopSliceAlignment:
    def test_member_top_degrees(self):
        # multiples of the generator keep the forced top-t1 alignment:
        # every component past the first tops out e_1 above the first
        rng = random.Random(21)
        for e in [(2, 3), (2, 2), (1, 2, 2)]:
            gen = equivariant_tuple(e)
            for _ in range(5):
                p = rand_hom_poly(rng, len(e), max_terms=3)
                B = p * gen
                top0 = B[0].var_degree(1)
                for i in range(1, len(e) + 1):
                    assert B[i].var_degree(1) == top0 + e[0]
                assert leading_coeff(B[1]) == leading_coeff(B[0])


class TestInterchange:
    def test_json_round_trip(self):
        d = equivariant_diagram((2, 3)).twist((-1, 2))
        assert BettiDiagram.from_json(d.to_json()) == d

    def test_json_deterministic_order(self):
        d = equivariant_diagram((2, 3))
        entries = d.to_json()["entries"]
        keys = [(item["i"], tuple(-x for x in item["deg"])) for item in entries]
        assert keys == sorted(keys)
        assert d.dumps() == BettiDiagram.from_json(d.to_json()).dumps()

    def test_format_table(self):
        table = equivariant_diagram((2, 3)).format_table()
        assert table.splitlines() == [
            "i=0  rank=3  (2,0) (1,1) (0,2)",
            "i=1  rank=5  (4,0) (3,1) (2,2) (1,3) (0,4)",
            "i=2  rank=2  (4,3) (3,4)",
        ]

    def test_json_rejects_bad_schema(self):
        with pytest.raises(ValueError):
            BettiDiagram.from_json({"entries": []})
        with pytest.raises(ValueError):
            BettiDiagram.from_json({"nvars": -1, "entries": []})
        with pytest.raises(ValueError):
            BettiDiagram.from_json({"nvars": 2, "entries": {"i": 0}})
