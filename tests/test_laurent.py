import random
from fractions import Fraction

import pytest

from purebetti.laurent import (
    ExactDivisionError,
    LaurentPoly,
    canonical,
    det,
    exact_div,
    format_poly,
    frobenius,
    gcd,
    gcd_list,
    insert_variable,
    lex_leading,
    parse_poly,
    poly_from_json,
    poly_to_json,
    var_slice,
)

from helpers import (
    P, bottom_slice, divides, is_symmetric, rand_hom_poly, rand_poly, rand_unit,
    set_var_one, top_slice,
)

S421_TEXT = (
    "t1^4*t2^2*t3 + t1^4*t2*t3^2 + t1^3*t2^3*t3 + 2*t1^3*t2^2*t3^2"
    " + t1^3*t2*t3^3 + t1^2*t2^4*t3 + 2*t1^2*t2^3*t3^2 + 2*t1^2*t2^2*t3^3"
    " + t1^2*t2*t3^4 + t1*t2^4*t3^2 + t1*t2^3*t3^3 + t1*t2^2*t3^4"
)


def s421():
    return parse_poly(S421_TEXT, 3)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("t1 + t2") * P("t1 - t2") == P("t1^2 - t2^2")

    def test_multiplicative_identity(self):
        f = P("3*t1^2 - 1/2*t2 + t1^-3*t2^-1")
        assert f * LaurentPoly.one(2) == f

    def test_worked_pair_product(self):
        lhs = P("t1^2 + t1*t2 + t2^2") * P("t1^2 - t1*t2 + t2^2")
        assert lhs == P("t1^4 + t1^2*t2^2 + t2^4")

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            P("t1", 2) + parse_poly("t1", 3)
        with pytest.raises(ValueError):
            P("t1", 2) * parse_poly("t1", 1)

    def test_add_sub_round_trip(self):
        rng = random.Random(1)
        for _ in range(25):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 3)
            assert (f + g) - g == f
            assert f - f == LaurentPoly.zero(3)

    def test_scalar_multiplication(self):
        f = P("t1 + t2")
        assert 2 * f == f + f
        assert Fraction(1, 2) * (2 * f) == f
        assert 0 * f == LaurentPoly.zero(2)

    def test_zero_coefficients_never_stored(self):
        f = P("t1 + t2") - P("t2")
        assert set(f.terms) == {(1, 0)}


class TestExactDivision:
    def test_cubes_quotient(self):
        f = P("t2^3 - t1^3")
        g = P("t2 - t1")
        q = exact_div(f, g)
        assert q == P("t1^2 + t1*t2 + t2^2")
        assert q * g == f

    def test_self_quotient(self):
        f = P("t1^2 - 5*t1*t2 + 1/3*t2^2")
        assert exact_div(f, f) == LaurentPoly.one(2)

    def test_worked_pair_quotient(self):
        q = exact_div(P("t1^4 + t1^2*t2^2 + t2^4"), P("t1^2 + t1*t2 + t2^2"))
        assert q == P("t1^2 - t1*t2 + t2^2")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P("t1"), LaurentPoly.zero(2))

    def test_not_divisible(self):
        with pytest.raises(ExactDivisionError):
            exact_div(P("t1^2 + t2"), P("t1 + t2"))
        assert not divides(P("t1 + t2"), P("t1"))

    def test_monomials_are_units(self):
        # monomial factors of the divisor never obstruct Laurent division
        f = P("t1^-2*t2 + t1^-1")
        assert exact_div(f, P("t1^-1")) == P("t1^-1*t2 + 1")
        assert exact_div(f, P("3*t1^-5*t2^2")) * P("3*t1^-5*t2^2") == f

    def test_round_trip_random(self):
        rng = random.Random(2)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            f = rand_hom_poly(rng, nvars)
            g = rand_hom_poly(rng, nvars)
            assert exact_div(f * g, g) == f

    def test_zero_dividend(self):
        assert exact_div(LaurentPoly.zero(2), P("t1 + t2")) == LaurentPoly.zero(2)


class TestGcd:
    def test_linear_factor(self):
        f = P("t1 + t2")
        g = P("t1^3 + t1^2*t2 + t1*t2^2 + t2^3")
        assert exact_div(g, f) == P("t1^2 + t2^2")
        assert gcd(f, g) == f

    def test_gcd_with_one(self):
        assert gcd(P("t1^5 - t2"), LaurentPoly.one(2)) == LaurentPoly.one(2)

    def test_schur_family_two_vars(self):
        family = [
            P("t1 + t2"),
            P("t1^3 + t1^2*t2 + t1*t2^2 + t2^3"),
            P("t1^3*t2^2 + t1^2*t2^3"),
        ]
        assert gcd_list(family) == P("t1 + t2")

    def test_common_factor_property(self):
        rng = random.Random(3)
        for _ in range(15):
            nvars = rng.randint(1, 3)
            f = rand_hom_poly(rng, nvars, max_terms=3)
            g = rand_hom_poly(rng, nvars, max_terms=3)
            h = rand_hom_poly(rng, nvars, max_terms=3)
            d = gcd(f * h, g * h)
            assert divides(h, d)
            assert divides(d, f * h) and divides(d, g * h)
            assert canonical(d) == canonical(gcd(f, g) * h)

    def test_frobenius_property(self):
        rng = random.Random(4)
        for _ in range(10):
            f = rand_hom_poly(rng, 2, max_terms=3)
            g = rand_hom_poly(rng, 2, max_terms=3)
            h = rand_hom_poly(rng, 2, max_terms=2)
            for r in (2, 3):
                lhs = gcd(frobenius(f * h, r), frobenius(g * h, r))
                rhs = frobenius(gcd(f * h, g * h), r)
                assert canonical(lhs) == canonical(rhs)

    def test_symmetric_inputs_symmetric_gcd(self):
        rng = random.Random(5)
        sym = [P("t1 + t2"), P("t1*t2"), P("t1^2 + t2^2"),
               P("t1^2 + t1*t2 + t2^2")]
        for _ in range(10):
            f = rng.choice(sym) * rng.choice(sym)
            g = rng.choice(sym) * rng.choice(sym)
            assert is_symmetric(gcd(f, g))

    def test_canonical_form(self):
        d = gcd(P("4*t1^3*t2 + 4*t1^2*t2^2"), P("6*t1^2*t2^3 + 6*t1*t2^4"))
        # no monomial factor, content one, positive lex-leading coefficient
        assert d == P("t1 + t2")
        assert d.min_exponents() == (0, 0)

    def test_negative_lead_normalized(self):
        assert gcd(P("-2*t1 - 2*t2"), P("-4*t1 - 4*t2")) == P("t1 + t2")

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(LaurentPoly.zero(2), LaurentPoly.zero(2))

    def test_gcd_with_zero(self):
        assert gcd(LaurentPoly.zero(2), P("2*t1^2 + 2*t1*t2")) == P("t1 + t2")

    def test_rational_inputs(self):
        f = Fraction(3, 7) * P("t1 + t2")
        g = Fraction(2, 5) * P("t1^2 - t2^2")
        assert gcd(f, g) == P("t1 + t2")

    def test_common_factor_hidden_in_contents(self):
        # the common divisor lives entirely inside the t1-contents; the
        # content computation must carry full integer parts to stay exact
        f = parse_poly(
            "6*t1^3*t2^5*t3 + 6*t1^3*t2^4*t3^2 + 4*t1^3*t2^3*t3"
            " + 16*t1^3*t2^2*t3^2 + 8*t1^3*t3^2 - 9*t1*t2^3 - 6*t1*t2", 3)
        g = parse_poly(
            "-3*t1^4*t2^5*t3^3 + 3*t1^4*t2^4 - 2*t1^4*t2^3*t3^3"
            " + 2*t1^4*t2^2 - 6*t1*t2^2*t3^2 - 4*t1*t3^2", 3)
        d = gcd(f, g)
        assert d == parse_poly("3*t2^2 + 2", 3)
        assert divides(d, f) and divides(d, g)

    def test_dense_random_inputs_terminate_quickly(self):
        rng = random.Random(34)
        for _ in range(25):
            nvars = rng.randint(2, 4)
            def dense(deg, terms):
                table = {}
                for _ in range(terms):
                    exp = tuple(rng.randint(0, deg) for _ in range(nvars))
                    table[exp] = table.get(exp, 0) + rng.randint(-4, 4)
                poly = LaurentPoly(nvars, table)
                return poly if poly else LaurentPoly.one(nvars)
            h = dense(2, 3)
            f = dense(3, 4) * h
            g = dense(3, 4) * h
            d = gcd(f, g)
            assert divides(d, f) and divides(d, g) and divides(h, d)


class TestSubstitutions:
    def test_frobenius_squares(self):
        assert frobenius(P("t1 + t2"), 2) == P("t1^2 + t2^2")

    def test_frobenius_identity(self):
        f = P("t1^-1 + 5*t2^3")
        assert frobenius(f, 1) == f

    def test_frobenius_invalid(self):
        with pytest.raises(ValueError):
            frobenius(P("t1"), 0)

    def test_frobenius_schur_factor(self):
        # (t1^3 + t2^3)(t1^2 + t1*t2 + t2^2) is the full homogeneous sum of degree 5
        lhs = frobenius(P("t1 + t2"), 3) * P("t1^2 + t1*t2 + t2^2")
        assert lhs == P("t1^5 + t1^4*t2 + t1^3*t2^2 + t1^2*t2^3 + t1*t2^4 + t2^5")

    def test_set_var_one(self):
        assert set_var_one(P("t1^2 + t1*t2 + t2^2"), 2) == parse_poly("t1^2 + t1 + 1", 1)
        assert set_var_one(LaurentPoly.one(2), 1) == LaurentPoly.one(1)

    def test_set_var_one_out_of_range(self):
        with pytest.raises(ValueError):
            set_var_one(P("t1"), 3)

    def test_set_var_one_commutes_with_arithmetic(self):
        rng = random.Random(6)
        for _ in range(20):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 3)
            k = rng.randint(1, 3)
            assert set_var_one(f + g, k) == set_var_one(f, k) + set_var_one(g, k)
            assert set_var_one(f * g, k) == set_var_one(f, k) * set_var_one(g, k)

    def test_alternating_family_vanishes_at_one(self):
        s20 = P("t1^2 + t1*t2 + t2^2")
        s40 = P("t1^4 + t1^3*t2 + t1^2*t2^2 + t1*t2^3 + t2^4")
        s43 = P("t1^4*t2^3 + t1^3*t2^4")
        alt = s20 - s40 + s43
        assert set_var_one(alt, 1) == LaurentPoly.zero(1)
        assert set_var_one(alt, 2) == LaurentPoly.zero(1)


class TestSlices:
    def test_leading_slice_of_tableau_sum(self):
        assert top_slice(s421()) == P("t1^2*t2 + t1*t2^2")

    def test_trailing_slice_of_tableau_sum(self):
        assert bottom_slice(s421()) == P("t1^4*t2^2 + t1^3*t2^3 + t1^2*t2^4")

    def test_leading_of_single_variable(self):
        assert top_slice(parse_poly("t1", 1)) == LaurentPoly.one(0)

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_poly(rng, 3, max_terms=4)
            g = rand_poly(rng, 3, max_terms=4)
            assert top_slice(f * g) == top_slice(f) * top_slice(g)
            assert bottom_slice(f * g) == bottom_slice(f) * bottom_slice(g)

    def test_zero_rejected(self):
        # the zero polynomial has no top t1 power to slice at
        with pytest.raises(ValueError):
            LaurentPoly.zero(2).var_degree(1)
        with pytest.raises(ValueError):
            LaurentPoly.zero(2).min_exponents()
        with pytest.raises(ValueError):
            var_slice(LaurentPoly.one(0), 0)

    def test_insert_variable(self):
        f = P("t1 + t2")
        lifted = insert_variable(f, 3)
        assert lifted == parse_poly("t1^3*t2 + t1^3*t3", 3)


class TestLexLeading:
    def test_tableau_sum(self):
        assert lex_leading(s421()) == ((4, 2, 1), 1)

    def test_negative_exponents(self):
        assert lex_leading(P("5*t1^-2*t2")) == ((-2, 1), 5)

    def test_two_terms(self):
        assert lex_leading(P("t1 + t2")) == ((1, 0), 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lex_leading(LaurentPoly.zero(2))


class TestPredicates:
    def test_symmetric(self):
        assert is_symmetric(s421())
        assert not is_symmetric(parse_poly("t1", 2))
        assert is_symmetric(LaurentPoly.zero(3))

    def test_homogeneous(self):
        assert not P("t1^2 + t2").is_homogeneous()
        assert P("t1^2 + t1*t2").is_homogeneous()
        assert LaurentPoly.zero(2).is_homogeneous()

    def test_degree(self):
        assert P("t1*t2^-3").degree() == -2
        assert LaurentPoly.zero(2).degree() is None
        with pytest.raises(ValueError):
            P("t1 + 1").degree()


class TestUnits:
    def test_not_a_unit(self):
        # the units are the single nonzero terms: their canonical associate is one
        assert canonical(P("3/2*t1^-1*t2^2")) == LaurentPoly.one(2)
        assert canonical(P("t1 + t2")) != LaurentPoly.one(2)
        assert canonical(LaurentPoly.zero(2)) != LaurentPoly.one(2)

    def test_unit_equal(self):
        # canonical(f) == canonical(g) exactly when f and g agree up to a unit
        rng = random.Random(8)
        for _ in range(20):
            f = rand_poly(rng, 2)
            u = rand_unit(rng, 2)
            assert canonical(f) == canonical(u * f)
        assert canonical(P("t1 + t2")) != canonical(P("t1 - t2"))
        assert canonical(LaurentPoly.zero(2)) == LaurentPoly.zero(2)
        assert canonical(P("t1")) != LaurentPoly.zero(2)

    def test_canonical_strips_units(self):
        f = P("2/3*t1^-2*t2^5 + 4/3*t1^-1*t2^4")
        assert canonical(f) == P("t2 + 2*t1")


class TestDeterminant:
    def test_two_by_two(self):
        m = [[P("t1"), P("t2")], [LaurentPoly.one(2), LaurentPoly.one(2)]]
        assert det(m) == P("t1 - t2")

    def test_vandermonde_three(self):
        rows = []
        for i in (1, 2, 3):
            rows.append([parse_poly(f"t{i}^2", 3), parse_poly(f"t{i}", 3),
                         parse_poly("1", 3)])
        expected = (parse_poly("t1 - t2", 3) * parse_poly("t1 - t3", 3)
                    * parse_poly("t2 - t3", 3))
        assert det(rows) == expected

    def test_singular(self):
        row = [P("t1"), P("t2")]
        assert det([row, row]) == LaurentPoly.zero(2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det([[P("t1")], [P("t2")]])


class TestFormats:
    def test_text_examples(self):
        assert format_poly(P("t1^2 - t1*t2 + t2^2")) == "t1^2 - t1*t2 + t2^2"
        assert format_poly(LaurentPoly.zero(2)) == "0"
        assert format_poly(P("-t1 + 1/2*t2 - 3")) == "-t1 + 1/2*t2 - 3"
        assert format_poly(P("t1^-2*t2")) == "t1^-2*t2"

    def test_parse_round_trip(self):
        rng = random.Random(10)
        for _ in range(30):
            nvars = rng.randint(1, 4)
            f = rand_poly(rng, nvars)
            assert parse_poly(format_poly(f), nvars) == f

    def test_parse_whitespace_and_signs(self):
        assert P("  t1+t2 ") == P("t1 + t2")
        assert P("-t1-t2") == -P("t1 + t2")
        assert P("2*t1*t1") == P("2*t1^2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("t1 + x2", 2)
        with pytest.raises(ValueError):
            parse_poly("t3", 2)
        with pytest.raises(ValueError):
            parse_poly("", 2)

    def test_json_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            f = rand_poly(rng, nvars)
            assert poly_from_json(poly_to_json(f)) == f

    @pytest.mark.parametrize("obj", [
        {"nvars": "2", "terms": []},
        {"nvars": 2, "terms": "t1"},
        {"nvars": 2, "terms": [{"exp": [1, 0]}]},
        {"nvars": 2, "terms": [{"exp": 5, "coeff": "1"}]},
    ])
    def test_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            poly_from_json(obj)

    def test_json_shape(self):
        obj = poly_to_json(P("1/2*t2 + t1"))
        assert obj == {
            "nvars": 2,
            "terms": [
                {"exp": [1, 0], "coeff": "1"},
                {"exp": [0, 1], "coeff": "1/2"},
            ],
        }

    def test_output_deterministic(self):
        f = s421()
        assert format_poly(f) == format_poly(parse_poly(format_poly(f), 3))
        assert format_poly(f) == S421_TEXT
