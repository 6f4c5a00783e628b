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
)
from purebetti.laurent import (
    ExactDivisionError,
    LaurentPoly,
    frobenius,
    lex_leading,
    parse_poly,
)
from purebetti.schur import schur_bialternant, term_partition

from helpers import (
    P, is_symmetric, rand_coeff, rand_hom_poly, set_var_one, top_slice,
)


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
        d = BettiDiagram(2, [((0, (1, 0)), 1), ((0, (1, 0)), -1)])
        assert d.entries == {}
        B = equivariant_tuple((2, 3))
        assert (B - B).to_diagram().entries == {}

    def test_linear_combinations(self):
        B = equivariant_tuple((2, 3))
        assert B + B == 2 * B
        assert Fraction(1, 2) * (2 * B) == B
        assert (B + B).to_diagram() == BettiDiagram(
            2, {key: 2 * m for key, m in B.to_diagram().entries.items()})

    def test_tuple_round_trip(self):
        d = equivariant_diagram((2, 3))
        assert d.to_tuple().to_diagram() == d

    def test_integrality_predicates(self):
        B = equivariant_tuple((2, 3))
        assert all(type(m) is int and m > 0 for m in B.to_diagram().entries.values())
        half = (Fraction(1, 2) * B).to_diagram()
        assert all(m == Fraction(1, 2) for m in half.entries.values())
        assert all(m < 0 for m in (B - 2 * B).to_diagram().entries.values())


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
        d = equivariant_diagram((1,) * 3)
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
            assert all(type(m) is int and m > 0 for m in d.entries.values())

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
        combination = base.twist((2, 0)) - base.twist((1, 1)) + base.twist((0, 2))
        assert multiple.to_diagram() == combination.to_diagram()


class TestTwist:
    def test_zero_twist(self):
        B = equivariant_tuple((2, 3))
        assert B.twist((0, 0)) == B

    def test_twist_inverse(self):
        B = equivariant_tuple((2, 3))
        assert B.twist((3, -2)).twist((-3, 2)) == B

    def test_twist_matches_monomial_on_tuples(self):
        # on the diagram a twist shifts every multidegree and keeps the index
        B = equivariant_tuple((2, 3))
        twisted = B.twist((1, 2))
        assert twisted.to_diagram() == BettiDiagram(2, {
            (i, (a + 1, b + 2)): m
            for (i, (a, b)), m in B.to_diagram().entries.items()})
        unit = LaurentPoly.monomial(1, (1, 2))
        assert twisted == unit * B


class TestFrobenius:
    def test_identity(self):
        B = equivariant_tuple((2, 3))
        assert B.frobenius(1) == B

    def test_koszul_profile_scales(self):
        d = equivariant_tuple((1,) * 2).frobenius(2).to_diagram()
        assert d.purity().degrees == (0, 2, 4)
        assert d.purity().diffs == (2, 2)

    def test_commutes_with_tuple_conversion(self):
        # on the diagram Frobenius scales every multidegree by r
        B = equivariant_tuple((2, 3))
        assert B.frobenius(3).components == tuple(frobenius(f, 3) for f in B)
        assert B.frobenius(3).to_diagram() == BettiDiagram(2, {
            (i, (3 * a, 3 * b)): m
            for (i, (a, b)), m in B.to_diagram().entries.items()})

    def test_invalid(self):
        with pytest.raises(ValueError):
            equivariant_tuple((1,) * 2).frobenius(0)


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
        base = equivariant_tuple((2, 3))
        bumped = BettiTuple((base[0], base[1] + P("t1^3*t2"), base[2]))
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
        bad = BettiTuple((good[0] + P("t1^2"), good[1], good[2]))
        for _ in range(10):
            p = rand_hom_poly(rng, 2, max_terms=4)
            assert check_hk(p * good).passed
            assert not check_hk(p * bad).passed


class TestHilbertNumerator:
    def test_koszul_residue_field(self):
        for n in (1, 2, 3):
            assert hilbert_numerator(equivariant_tuple((1,) * n)) == LaurentPoly.one(n)

    def test_empty_input_rejected(self):
        # one entry check for both: an empty sequence has no variable count
        for fn in (check_hk, hilbert_numerator):
            with pytest.raises(ValueError, match="at least one Betti polynomial"):
                fn([])

    def test_gap_two_three_value(self):
        h = hilbert_numerator(equivariant_tuple((2, 3)))
        expected = parse_poly(
            "t1^3*t2^2 + t1^3*t2 + t1^3 + t1^2*t2^3 + 2*t1^2*t2^2 + 2*t1^2*t2"
            " + t1^2 + t1*t2^3 + 2*t1*t2^2 + t1*t2 + t2^3 + t2^2", 2)
        assert h == expected
        # multiply back against the alternating sum as an independent check
        ring_factor = (LaurentPoly.one(2) - P("t1")) * (LaurentPoly.one(2) - P("t2"))
        B = equivariant_tuple((2, 3))
        assert h * ring_factor == B[0] - B[1] + B[2]
        assert sum(h.terms.values()) == 15

    def test_nonnegative_for_equivariant(self):
        for e in [(2,), (3, 2), (2, 2), (1, 2, 3)]:
            h = hilbert_numerator(equivariant_tuple(e))
            assert all(isinstance(c, int) and c > 0 for c in h.terms.values())

    def test_fails_exactly_when_hk_fails(self):
        rng = random.Random(20)
        for _ in range(10):
            B = equivariant_tuple((2, 2))
            if rng.random() < 0.5:
                B = BettiTuple((B[0], B[1] + P("t1^2*t2"), B[2]))
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
                assert top_slice(B[1]) == top_slice(B[0])


class TestInterchange:
    def test_json_round_trip(self):
        d = equivariant_tuple((2, 3)).twist((-1, 2)).to_diagram()
        assert BettiDiagram.from_json(d.to_json()) == d

    def test_json_deterministic_order(self):
        d = equivariant_diagram((2, 3))
        entries = d.to_json()["entries"]
        keys = [(item["i"], tuple(-x for x in item["deg"])) for item in entries]
        assert keys == sorted(keys)
        assert BettiDiagram.from_json(d.to_json()).to_json() == d.to_json()

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
