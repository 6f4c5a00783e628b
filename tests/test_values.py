"""Values are immutable, and tables the library builds itself are canonical.

`LaurentPoly._trusted` and `BettiDiagram._trusted` wrap a table without
re-checking it.  The oracle for every site that uses them is the public,
validating constructor: the result must equal its re-validated copy and
hold no zero coefficient, no integral Fraction and no malformed key.
"""

import random
from fractions import Fraction

import pytest

from purebetti.betti import BettiDiagram, equivariant_diagram, equivariant_tuple
from purebetti.laurent import (
    LaurentPoly,
    _json_coeff,
    _quo_or_none,
    frobenius,
    insert_variable,
    parse_poly,
    poly_from_json,
    var_slice,
)
from purebetti.schur import (
    check_difference_vector,
    check_partition,
    schur_polys,
    term_partition,
)

from helpers import partitions, rand_hom_poly, rand_poly, set_var_one


def _canonical_value(c):
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator != 1


def _int_key(exp, nvars):
    return type(exp) is tuple and len(exp) == nvars and all(type(x) is int for x in exp)


def assert_canonical_poly(f):
    assert f == LaurentPoly(f.nvars, dict(f.terms))
    for exp, c in f.terms.items():
        assert _int_key(exp, f.nvars), exp
        assert _canonical_value(c), (exp, c)


def assert_canonical_diagram(d):
    assert d == BettiDiagram(d.nvars, dict(d.entries))
    for (i, exp), m in d.entries.items():
        assert type(i) is int and 0 <= i <= d.nvars
        assert _int_key(exp, d.nvars), exp
        assert _canonical_value(m), (i, exp, m)


def _pairs(seed, count=40):
    """Seeded polynomial pairs, half of them built to cancel or clear denominators."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 3)
        f = rand_poly(rng, nvars)
        g = rand_poly(rng, nvars)
        if rng.random() < 0.5:
            # shares terms with f, with the sign flipped or the coefficient doubled
            g = g + Fraction(rng.choice([-1, 2, 1, -2]), 2) * f
        yield rng, f, g


class TestTrustedSites:
    def test_ring_operations(self):
        for rng, f, g in _pairs(71):
            for result in (f + g, f - g, f - f, -f, f * g, g * f):
                assert_canonical_poly(result)
            for scalar in (2, -3, Fraction(1, 2), Fraction(4, 2), Fraction(-3, 7), True):
                assert_canonical_poly(f * scalar)
                assert_canonical_poly(scalar * f)
            assert (f * Fraction(2, 3)) * Fraction(3, 2) == f

    def test_unit_maps(self):
        for rng, f, _ in _pairs(72):
            n = f.nvars
            assert_canonical_poly(f.shift(tuple(rng.randint(-3, 3) for _ in range(n))))
            assert_canonical_poly(frobenius(f, rng.randint(1, 3)))
            assert_canonical_poly(var_slice(f, rng.choice(sorted(e[0] for e in f.terms))))
            assert_canonical_poly(var_slice(f, 99))
            assert_canonical_poly(insert_variable(f, rng.randint(-2, 2)))

    def test_exact_quotient(self):
        for _, f, g in _pairs(73):
            if not g:
                continue
            q = _quo_or_none(f * g, g)
            assert q == f
            assert_canonical_poly(q)

    def test_schur_polys(self):
        for n in range(1, 4):
            lams = [lam for size in range(5) for lam in partitions(size, n)]
            for f in schur_polys(lams, n):
                assert_canonical_poly(f)

    def test_diagram_sites(self):
        rng = random.Random(74)
        for e in [(2, 3), (1, 2, 2), (3,)]:
            B = equivariant_tuple(e)
            for _ in range(5):
                p = rand_hom_poly(rng, len(e), max_terms=3, allow_fraction=True)
                d = (p * B).to_diagram()
                assert_canonical_diagram(d)
                assert_canonical_diagram(BettiDiagram.from_json(d.to_json()))
                for f in d.components:
                    assert_canonical_poly(f)
                assert d.to_tuple() == p * B

    def test_duplicates_are_summed(self):
        poly = LaurentPoly(1, [((1,), 1), ((1,), -1), ((2,), 0), ((3,), Fraction(1, 2))])
        assert poly.terms == {(3,): Fraction(1, 2)}
        half = Fraction(1, 2)
        diagram = BettiDiagram(1, [((0, (1,)), half), ((0, (1,)), half), ((1, (2,)), 0)])
        assert diagram.entries == {(0, (1,)): 1}
        assert_canonical_diagram(diagram)

        def load(*mults):
            return BettiDiagram.from_json({"nvars": 1, "entries": [
                {"i": 0, "deg": [1], "mult": m} for m in mults]})

        assert load("1/2", "-1/2").entries == {}
        assert load("3", "-3", "0").entries == {}
        halves = load("1/2", "1/2")
        assert halves.entries == {(0, (1,)): 1}
        assert_canonical_diagram(halves)
        assert load("1/3", "1/2").entries == {(0, (1,)): Fraction(5, 6)}


@pytest.mark.parametrize("text", [
    "3", "-3", "+3", " 3 ", "03", "3/1", "6/4", "1.5", "-0", "3_0", "٣", "²", "abc",
])
def test_json_coeff_matches_fraction(text):
    try:
        want = Fraction(str(text))
    except ValueError:
        with pytest.raises(ValueError):
            _json_coeff(text)
        with pytest.raises(ValueError):
            BettiDiagram.from_json(
                {"nvars": 1, "entries": [{"i": 0, "deg": [0], "mult": text}]})
        return
    got = _json_coeff(text)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
    d = BettiDiagram.from_json(
        {"nvars": 1, "entries": [{"i": 0, "deg": [0], "mult": text}]})
    assert d.entries.get((0, (0,)), 0) == want


@pytest.mark.parametrize("text", ["1/0", "0/0", "12/00"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match=text):
        _json_coeff(text)
    with pytest.raises(ValueError, match=text):
        parse_poly(f"{text}*t1", 1)
    with pytest.raises(ValueError, match=text):
        poly_from_json({"nvars": 1, "terms": [{"exp": [1], "coeff": text}]})
    with pytest.raises(ValueError, match=text):
        BettiDiagram.from_json(
            {"nvars": 1, "entries": [{"i": 0, "deg": [1], "mult": text}]})


class TestBooleansRejected:
    def test_polynomial_exponents(self):
        with pytest.raises(ValueError):
            LaurentPoly(2, {(True, 2): 1})
        with pytest.raises(ValueError):
            LaurentPoly.one(2).shift((True, 0))
        with pytest.raises(ValueError):
            insert_variable(LaurentPoly.one(1), True)
        with pytest.raises(ValueError):
            frobenius(LaurentPoly.one(1), True)

    def test_diagram_indices(self):
        with pytest.raises(ValueError):
            BettiDiagram(1, [((True, (1,)), 1)])
        with pytest.raises(ValueError):
            BettiDiagram(1, [((0, (False,)), 1)])
        with pytest.raises(ValueError):
            BettiDiagram(1, [((0, (1.5,)), 1)])

    @pytest.mark.parametrize("call", [
        lambda: check_difference_vector((True, 2)),
        lambda: check_difference_vector((2, 1.0)),
        lambda: check_partition((2, True)),
        lambda: check_partition((2.0, 1)),
        lambda: equivariant_diagram((2, 3)).to_tuple().twist((True, 0)),
        lambda: equivariant_diagram((2, 3)).to_tuple().twist((0.5, 0)),
        lambda: equivariant_tuple((2, 3)).twist((True, 0)),
        lambda: equivariant_diagram((2, 3)).to_tuple().frobenius(True),
        lambda: equivariant_diagram((2, 3)).to_tuple().frobenius(2.0),
        lambda: equivariant_tuple((2, 3)).frobenius(True),
        lambda: LaurentPoly(True, {(1,): 1}),
        lambda: LaurentPoly(2.0),
        lambda: BettiDiagram(1.0, {(0, (1,)): 1}),
        lambda: BettiDiagram(True),
        lambda: schur_polys([(1,)], True),
        lambda: term_partition((2, 3), True),
        lambda: LaurentPoly.variable(True, 2),
        lambda: set_var_one(LaurentPoly.one(2), True),
        lambda: LaurentPoly.one(2) ** True,
        lambda: LaurentPoly.one(2).var_degree(True),
        lambda: LaurentPoly.one(2).var_degree(1.0),
    ], ids=[
        "gap-bool", "gap-float", "partition-bool", "partition-float",
        "diagram-twist-bool", "diagram-twist-float", "tuple-twist-bool",
        "diagram-frobenius-bool", "diagram-frobenius-float", "tuple-frobenius-bool",
        "poly-nvars-bool", "poly-nvars-float", "diagram-nvars-float",
        "diagram-nvars-bool", "schur-nvars-bool", "term-index-bool",
        "variable-index-bool", "set-var-one-bool", "power-bool",
        "var-degree-bool", "var-degree-float",
    ])
    def test_non_int_values(self, call):
        # type(x) is int: bools and floats are refused wherever an integer is due
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_var_degree_index_in_range(self, i):
        # a 0 or negative index used to read another variable's degree
        f = LaurentPoly(2, {(3, 1): 1, (0, 5): 1})
        assert (f.var_degree(1), f.var_degree(2)) == (3, 5)
        with pytest.raises(ValueError, match="out of range 1..2"):
            f.var_degree(i)


class TestImmutable:
    def test_polynomial(self):
        f = LaurentPoly(2, {(1, 0): 1})
        with pytest.raises(TypeError):
            f.terms[(0, 1)] = 2
        with pytest.raises(AttributeError):
            f.nvars = 3
        with pytest.raises(AttributeError):
            del f.terms
        assert f.terms == {(1, 0): 1}
        assert LaurentPoly(2, f.terms) == f

    def test_tuple_and_diagram(self):
        B = equivariant_tuple((2, 3))
        d = equivariant_diagram((2, 3))
        with pytest.raises(TypeError):
            d.entries[(0, (9, 9))] = 1
        with pytest.raises(TypeError):
            del B[0].terms[(2, 0)]
        for value, attr in [(B, "components"), (B, "nvars"), (B, "degrees"),
                            (d, "entries"), (d, "nvars")]:
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
        assert d == equivariant_diagram((2, 3))
        assert B == equivariant_tuple((2, 3))
