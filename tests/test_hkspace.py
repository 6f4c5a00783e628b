import itertools
import random
from fractions import Fraction

import pytest

import purebetti.betti as betti_module
import purebetti.cli as cli_module
import purebetti.hkspace as hkspace_module
import purebetti.laurent as laurent_module
import purebetti.schur as schur_module
from purebetti.betti import BettiDiagram, BettiTuple, equivariant_diagram, equivariant_tuple
from purebetti.cli import main as cli_main
from purebetti.hkspace import (
    NotMultipleError,
    _peel_cofactor,
    canonical_generator,
    canonical_tuple,
    component_gcd,
    decompose,
    descend,
    find_generator,
    membership,
    poly_valuation,
    reduce_pair,
    valuation,
)
from purebetti.laurent import (
    LaurentPoly,
    is_unit,
    lex_leading,
)
from purebetti.schur import schur_bialternant, schur_gcd_family

from helpers import P, rand_hom_poly, rand_member, rand_unit


def tuple_with_first(f):
    """Tuple whose first component is f and later components are zero."""
    zero = LaurentPoly.zero(f.nvars)
    return BettiTuple((f,) + (zero,) * f.nvars)


class TestValuation:
    def test_tableau_sum_421(self):
        B = tuple_with_first(schur_bialternant((4, 2, 1), 3))
        assert valuation(B) == (3, 1, 0)

    def test_single_monomial(self):
        B = tuple_with_first(P("7*t1^3*t2^-2"))
        assert valuation(B) == (0, 0)

    def test_two_variable_schur(self):
        assert poly_valuation(schur_bialternant((2, 0), 2)) == (2, 0)

    def test_unit_invariance(self):
        rng = random.Random(22)
        f = schur_bialternant((4, 2, 1), 3)
        for _ in range(50):
            assert poly_valuation(rand_unit(rng, 3) * f) == (3, 1, 0)

    def test_last_entry_zero_when_homogeneous(self):
        rng = random.Random(23)
        for _ in range(20):
            f = rand_hom_poly(rng, 3, max_terms=6)
            assert poly_valuation(f)[-1] == 0

    def test_zero_first_component_rejected(self):
        zero = LaurentPoly.zero(2)
        broken = BettiTuple((zero, P("t1"), zero))
        with pytest.raises(ValueError):
            valuation(broken)
        with pytest.raises(ValueError):
            valuation(BettiTuple((zero, zero, zero)))

    def test_grows_under_multiplication(self):
        # valuation of a multiple is at least the valuation of the base
        rng = random.Random(24)
        for e in [(2, 3), (2, 2), (1, 2, 2)]:
            gen = canonical_generator(e)
            for _ in range(8):
                p = rand_hom_poly(rng, len(e), max_terms=4)
                assert valuation(p * gen) >= valuation(gen)


class TestCanonicalGenerator:
    def test_gap_two_three(self):
        gen = canonical_generator((2, 3))
        assert gen == equivariant_tuple((2, 3))

    def test_even_gaps_frobenius_lift(self):
        gen = canonical_generator((2, 2))
        assert [str(f) for f in gen.components] == [
            "1", "t1^2 + t2^2", "t1^2*t2^2"]

    def test_koszul_elementary_symmetric(self):
        gen = canonical_generator((1, 1, 1))
        assert [str(f) for f in gen.components] == [
            "1",
            "t1 + t2 + t3",
            "t1*t2 + t1*t3 + t2*t3",
            "t1*t2*t3",
        ]

    def test_components_coprime_with_unit_leads(self):
        for e in [(2, 3), (2, 2), (4, 2), (2, 2, 2), (1, 2, 3)]:
            gen = canonical_generator(e)
            assert component_gcd(gen) == LaurentPoly.one(len(e))
            for f in gen.components:
                assert lex_leading(f)[1] == 1


class TestDecompose:
    def test_worked_pair(self):
        base = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * base
        assert decompose(multiple, base) == P("t1^2 - t1*t2 + t2^2")
        with pytest.raises(NotMultipleError):
            decompose(base, multiple)

    def test_self(self):
        base = canonical_generator((2, 3))
        assert decompose(base, base) == LaurentPoly.one(2)

    def test_zero_tuple(self):
        base = canonical_generator((2, 3))
        zero = BettiTuple((LaurentPoly.zero(2),) * 3)
        assert decompose(zero, base) == LaurentPoly.zero(2)

    def test_zero_pivot_rejected(self):
        base = canonical_generator((2, 3))
        zero = BettiTuple((LaurentPoly.zero(2),) * 3)
        with pytest.raises(ValueError):
            decompose(base, zero)

    def test_partial_multiple_rejected(self):
        base = canonical_generator((2, 3))
        p = P("t1 + t2")
        mangled = BettiTuple((p * base[0], p * base[1], P("t1^2") * base[2]))
        with pytest.raises(NotMultipleError):
            decompose(mangled, base)

    def test_round_trip_random(self):
        # for n >= 2, membership's cofactor also equals the lex-leading
        # peeling oracle, on integral and on fractional cofactors
        rng = random.Random(25)
        integral_seen = set()
        for n in (1, 2, 3):
            for e in itertools.product(range(1, 4), repeat=n):
                gen = canonical_generator(e)
                for _ in range(3):
                    p = rand_hom_poly(rng, n, max_terms=5)
                    assert decompose(p * gen, gen) == p
                    if n == 1:
                        continue
                    for cofactor in (p, Fraction(1, 2) * p):
                        member = cofactor * gen
                        report = membership(member, e)
                        assert report.cofactor == cofactor
                        assert _peel_cofactor(member[0], gen[0]) == report.cofactor
                        integral_seen.add(report.integral)
        assert integral_seen == {True, False}


class TestReducePair:
    def test_proportional_tuples(self):
        base = canonical_generator((2, 3))
        twisted = base.twist((1, 2))
        p, q, C = reduce_pair(base, twisted)
        assert C.is_zero()
        assert is_unit(p) and is_unit(q)
        assert (q * twisted - p * base).is_zero()

    def test_one_variable_base_case(self):
        A = BettiTuple((P("3*t1^2", 1), P("3*t1^5", 1)))
        B = BettiTuple((P("1/2*t1^-1", 1), P("1/2*t1^2", 1)))
        p, q, C = reduce_pair(A, B)
        assert C.is_zero()
        assert (q * B - p * A).is_zero()

    def test_contract_on_members(self):
        rng = random.Random(26)
        for e in [(2, 3), (2, 2), (1, 2, 2), (2, 3, 1)]:
            gen = canonical_generator(e)
            for _ in range(4):
                pa = rand_hom_poly(rng, len(e), max_terms=3)
                pb = rand_hom_poly(rng, len(e), max_terms=3)
                A, B = pa * gen, pb * gen
                p, q, C = reduce_pair(A, B)
                assert not p.is_zero() and not q.is_zero()
                assert C == q * B - p * A
                if not C.is_zero():
                    assert valuation(C) < max(valuation(A), valuation(B))

    def test_rejects_bad_inputs(self):
        gen = canonical_generator((2, 3))
        zero = BettiTuple((LaurentPoly.zero(2),) * 3)
        with pytest.raises(ValueError):
            reduce_pair(gen, zero)
        broken = (gen.to_diagram() + BettiDiagram(2, {(0, (2, 0)): 1})).to_tuple()
        with pytest.raises(ValueError):
            reduce_pair(gen, broken)
        with pytest.raises(ValueError):
            reduce_pair(gen, canonical_generator((2, 2)))


class TestDescend:
    def test_proportional_zero_in_one_step(self):
        base = canonical_generator((2, 2))
        p, q, C = descend(base, base.twist((2, 1)))
        assert C.is_zero()

    def test_generator_plus_multiple_terminates_at_zero(self):
        rng = random.Random(27)
        for e in [(2, 3), (2, 2), (1, 1, 2)]:
            gen = canonical_generator(e)
            for _ in range(4):
                p = rand_hom_poly(rng, len(e), max_terms=4)
                pr, qr, C = descend(gen, p * gen)
                assert C.is_zero()
                assert (qr * (p * gen) - pr * gen).is_zero()

    def test_below_both_valuations(self):
        rng = random.Random(28)
        for e in [(2, 3), (2, 2)]:
            gen = canonical_generator(e)
            for _ in range(6):
                A = rand_hom_poly(rng, 2, max_terms=3) * gen
                B = rand_hom_poly(rng, 2, max_terms=3) * gen
                p, q, C = descend(A, B)
                assert C == q * B - p * A
                if not C.is_zero():
                    assert valuation(C) < min(valuation(A), valuation(B))

    def test_worked_pair_relation(self):
        base = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * base
        p, q, C = descend(base, multiple)
        assert C.is_zero()
        # q * multiple == p * base, so p/q recovers the cofactor
        assert p == q * P("t1^2 - t1*t2 + t2^2")


class TestFindGenerator:
    def test_twist_window(self):
        for e in [(2, 3), (2, 2)]:
            gen = canonical_generator(e)
            window = [gen.twist(a) for a in itertools.product(range(3), repeat=2)]
            assert find_generator(window) == gen

    def test_worked_pair(self):
        base = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * base
        assert find_generator([multiple, base]) == base
        assert find_generator([multiple]) == base

    def test_single_input_with_component_gcd(self):
        gen = canonical_generator((2, 2))
        result = find_generator([P("t1^3 + 2*t1^2*t2") * gen])
        assert result == gen

    def test_mixed_multiples(self):
        rng = random.Random(29)
        gen = canonical_generator((1, 2))
        inputs = [gen.twist((a, b)) for a in range(2) for b in range(2)]
        inputs += [rand_hom_poly(rng, 2, max_terms=4) * gen for _ in range(5)]
        assert find_generator(inputs) == gen

    def test_permutation_invariant(self):
        rng = random.Random(30)
        gen = canonical_generator((2, 3))
        inputs = [gen.twist((2, 1)), P("t1 + t2") * gen, gen.twist((0, 2))]
        for _ in range(4):
            rng.shuffle(inputs)
            assert find_generator(inputs) == gen

    def test_rejects_mixed_gap_vectors(self):
        with pytest.raises(ValueError):
            find_generator([canonical_generator((2, 3)),
                            canonical_generator((2, 2))])

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            find_generator([])
        zero = BettiTuple((LaurentPoly.zero(2),) * 3)
        with pytest.raises(ValueError):
            find_generator([zero])


class TestMembership:
    def test_worked_pair_member(self):
        base = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * base
        report = membership(multiple, (2, 3))
        assert report.in_space
        assert report.cofactor == P("t1^2 - t1*t2 + t2^2")
        assert report.integral
        assert report.reasons == ()

    def test_reverse_direction_not_member(self):
        base = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * base
        # the base is pure of gaps (2,3) but not a multiple of the bigger tuple;
        # against the space of the multiple's own gaps it simply is the generator
        report = membership(base, (2, 3))
        assert report.in_space and report.cofactor == LaurentPoly.one(2)

    def test_rational_scaling_not_integral(self):
        half = Fraction(1, 2) * canonical_generator((2, 3))
        report = membership(half, (2, 3))
        assert report.in_space and not report.integral
        assert report.cofactor == LaurentPoly.constant(Fraction(1, 2), 2)

    def test_hk_failure_reported(self):
        from purebetti.betti import koszul_diagram

        doubled = koszul_diagram(2) + BettiDiagram(2, {(0, (0, 0)): 1})
        report = membership(doubled.to_tuple(), (1, 1))
        assert not report.in_space
        assert any("HK" in reason for reason in report.reasons)

    def test_wrong_gap_vector_reported(self):
        base = canonical_generator((2, 3))
        report = membership(base, (3, 2))
        assert not report.in_space
        assert any("gap vector" in reason for reason in report.reasons)

    def test_variable_count_mismatch_is_error(self):
        base = canonical_generator((2, 3))
        with pytest.raises(ValueError):
            membership(base, (2, 3, 1))

    def test_json_schema(self):
        base = canonical_generator((2, 3))
        payload = membership(base, (2, 3)).to_json()
        assert set(payload) == {"in_space", "cofactor", "integral", "reasons"}
        assert payload["in_space"] is True
        assert payload["reasons"] == []

    def test_twists_stay_members(self):
        rng = random.Random(31)
        base = canonical_generator((2, 2))
        for _ in range(10):
            shift = tuple(rng.randint(-3, 3) for _ in range(2))
            report = membership(base.twist(shift), (2, 2))
            assert report.in_space and report.integral
            assert is_unit(report.cofactor)


class TestUniqueness:
    def test_unit_twists_pass_lattice_probe(self):
        # candidates equal to a signed monomial twist of the generator both
        # divide it integrally and are divided by it integrally
        gen = canonical_generator((2, 3))
        for candidate in [gen.twist((1, -1)), -1 * gen, gen.twist((0, 3))]:
            forward = decompose(candidate, gen)
            backward = decompose(gen, candidate)
            assert is_unit(forward) and is_unit(backward)
            assert abs(lex_leading(forward)[1]) == 1

    def test_scaled_candidate_fails_probe(self):
        gen = canonical_generator((2, 3))
        doubled = 2 * gen
        backward = decompose(gen, doubled)
        assert backward == LaurentPoly.constant(Fraction(1, 2), 2)
        assert any(c.denominator != 1 for c in backward.terms.values())

    def test_proper_multiple_fails_probe(self):
        gen = canonical_generator((2, 3))
        multiple = P("t1^2 - t1*t2 + t2^2") * gen
        with pytest.raises(NotMultipleError):
            decompose(gen, multiple)


class TestCollapseMultiplier:
    def test_integral_members_collapse_to_integer_multiple(self):
        rng = random.Random(32)
        for _ in range(10):
            e = rng.choice([(2, 3), (2, 2), (1, 2)])
            p, member, gen = rand_member(rng, e, max_terms=4)
            multiplier = p.evaluate([1] * len(e))
            twist = (p.degree(),) + (0,) * (len(e) - 1)
            reference = gen.twist(twist).to_diagram().collapse_total()
            collapsed = member.to_diagram().collapse_total()
            assert isinstance(multiplier, int)
            scaled = {key: multiplier * m for key, m in reference.items()}
            scaled = {key: m for key, m in scaled.items() if m}
            assert collapsed == scaled


class TestCanonicalTuple:
    def test_generator_fixed_point(self):
        for e in [(2, 3), (2, 2), (1, 1, 1)]:
            gen = canonical_generator(e)
            assert canonical_tuple(gen) == gen

    def test_strips_units(self):
        rng = random.Random(33)
        gen = canonical_generator((2, 3))
        for _ in range(10):
            assert canonical_tuple(rand_unit(rng, 2) * gen) == gen


def test_generator_is_built_once_per_gap_vector(monkeypatch):
    hkspace_module._canonical_generator.cache_clear()
    builds = []
    original = betti_module.schur_polys

    def counted(lams, n):
        builds.append(n)
        return original(lams, n)

    monkeypatch.setattr(betti_module, "schur_polys", counted)
    assert canonical_generator((2, 3)) is canonical_generator([2, 3])
    assert builds == [2]
    member = P("t1 - 2*t2") * canonical_generator((2, 4))
    assert membership(member, (2, 4)).in_space
    assert membership(member, [2, 4]).in_space
    assert builds == [2, 2]


def test_request_path_never_calls_the_oracles(monkeypatch, tmp_path, capsys):
    # a generator left in the memo by an earlier test would skip the build path
    hkspace_module._canonical_generator.cache_clear()

    def oracle(*args):
        raise RuntimeError("a test oracle ran on the request path")

    monkeypatch.setattr(betti_module, "_equivariant_minors", oracle)
    monkeypatch.setattr(hkspace_module, "_peel_cofactor", oracle)
    for module in (schur_module, cli_module):
        monkeypatch.setattr(module, "schur_bialternant", oracle)
    for module in (laurent_module, schur_module, betti_module):
        monkeypatch.setattr(module, "det", oracle)
    assert equivariant_diagram((2, 3)) == equivariant_tuple((2, 3)).to_diagram()
    gen = canonical_generator((2, 4))
    member = P("t1^2 - t1*t2 + t2^2") * gen
    assert membership(member, (2, 4)).in_space
    assert schur_gcd_family((2, 4))[0] == 2
    path = tmp_path / "member.json"
    path.write_text(member.to_diagram().dumps())
    assert cli_main(["decompose", "--in", str(path), "--e", "2,4"]) == 0
    assert capsys.readouterr().out == (
        "in_space: yes\ncofactor: t1^2 - t1*t2 + t2^2\nintegral: yes\n")
    assert cli_main(["schur", "--lambda", "2,1", "--nvars", "2"]) == 0
    assert capsys.readouterr().out == "t1^2*t2 + t1*t2^2\n"
