"""The linear space of pure diagram tuples satisfying the Herzog-Kuhl equations.

For a fixed gap vector e this space is a rank-one module over the Laurent
polynomial ring, generated by the tuple of the (Frobenius-twisted)
equivariant resolution.  This module implements the valuation on tuples,
the pairwise reduction step and its descent loop, generator extraction,
and membership decisions with exact cofactors.

The valuation of a nonzero homogeneous tuple B is read off its first
component: with t^c the lex-largest term of B_0 and b_i the smallest
exponent of t_i over the terms of B_0 agreeing with c in coordinates
1..i-1, the valuation is (c_1 - b_1, ..., c_n - b_n), compared
lexicographically.  It is invariant under multiplying B by units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .betti import BettiTuple, check_hk, equivariant_tuple
from .laurent import (
    LaurentPoly,
    _coeff_div,
    _quo_or_none,
    gcd_list,
    insert_variable,
    lex_leading,
    poly_to_json,
    var_slice,
)
from .schur import check_difference_vector, frobenius_split


class NotMultipleError(ArithmeticError):
    """The tuple is not an exact Laurent-polynomial multiple of the reference."""


class ReductionError(RuntimeError):
    """A reduction contract failed; the inputs do not satisfy the HK closure."""


class GeneratorError(RuntimeError):
    """The inputs are not closed under the divisions a common generator needs."""


# -- valuation ---------------------------------------------------------------


def _valuation_parts(f):
    """(c, b): lex-largest exponent of f and the prefix-constrained minima."""
    exps = list(f.terms)
    c = max(exps)
    b = []
    pool = exps
    for i in range(f.nvars):
        pool = [e for e in pool if e[: i] == c[: i]]
        b.append(min(e[i] for e in pool))
    return c, tuple(b)


def poly_valuation(f):
    """Valuation vector of a nonzero Laurent polynomial."""
    if not f:
        raise ValueError("the zero polynomial has no valuation")
    c, b = _valuation_parts(f)
    return tuple(x - y for x, y in zip(c, b))


def valuation(B):
    """Valuation of a tuple: the valuation of its first component.

    A tuple satisfying the HK equations is zero as soon as its first
    component is, so a nonzero first component is required; violating
    that signals the input lies in no HK space at all.
    """
    if not B[0]:
        raise ValueError(
            "first component is zero; tuple lies in no pure HK space"
            if not B.is_zero() else "the zero tuple has no valuation")
    return poly_valuation(B[0])


# -- reduction ---------------------------------------------------------------


def _tuple_top_degree(B):
    """Largest t1 exponent over all components."""
    return max(f.var_degree(1) for f in B if f)


def _top_slice(B):
    """Coefficient tuple of the top t1 power, as an n-component tuple in t2..tn.

    The first component never reaches the top power, and every later
    component does; both facts are checked because they are equivalent to
    the input satisfying the HK equations.
    """
    top = _tuple_top_degree(B)
    if B[0] and B[0].var_degree(1) >= top:
        raise ReductionError("first component reaches the top t1 degree")
    sliced = []
    for i in range(1, len(B)):
        piece = var_slice(B[i], top)
        if not piece:
            raise ReductionError(
                f"component {i} misses the top t1 degree; not an HK tuple")
        sliced.append(piece)
    return top, BettiTuple(tuple(sliced))


def _unit_normalized(B):
    """(B * t^-b, t^-b): shift so the lex-leading exponent of B_0 is its valuation."""
    _, b = _valuation_parts(B[0])
    shift = tuple(-x for x in b)
    return B.twist(shift), LaurentPoly.monomial(1, shift)


def _check_family(tuples):
    """Require nonzero, pure HK tuples that share one gap vector (up to twist).

    Tuples in different variable counts have gap vectors of different
    lengths, so the last check covers a variable count mismatch too.
    """
    for T in tuples:
        if T.is_zero():
            raise ValueError("inputs must be nonzero")
        if not check_hk(T).passed:
            raise ValueError("inputs must satisfy the HK equations")
        if not T.purity().is_pure:
            raise ValueError("inputs must be pure")
    if len({T.purity().diffs for T in tuples}) > 1:
        raise ValueError("inputs must share one gap vector (up to twist)")


def reduce_pair(A, B):
    """One reduction step: nonzero p, q with C = q*B - p*A zero or smaller.

    "Smaller" means valuation(C) < max(valuation(A), valuation(B)) in the
    lex order.  Both inputs must be nonzero, satisfy the HK equations and
    share one gap vector up to twist.
    """
    _check_family((A, B))
    p, q, C = _reduce(A, B)
    if not C.is_zero():
        if not valuation(C) < max(valuation(A), valuation(B)):
            raise ReductionError("reduction step failed to lower the valuation")
    return p, q, C


def _reduce(A, B):
    n = A.nvars
    if n == 1:
        # homogeneous one-variable tuples are (a t^d0, a t^d1, ...): any two
        # are proportional and cancel in one step
        a_exp, a_c = lex_leading(A[0])
        b_exp, b_c = lex_leading(B[0])
        p = LaurentPoly.monomial(b_c, (b_exp[0] - a_exp[0],))
        q = LaurentPoly.constant(a_c, 1)
        zero = BettiTuple(tuple(LaurentPoly.zero(1) for _ in range(len(A))))
        return p, q, zero
    if valuation(A)[0] > valuation(B)[0]:
        p, q, C = _reduce_ordered(B, A)
        return q, p, -C
    return _reduce_ordered(A, B)


def _reduce_ordered(A, B):
    """Reduction with the top t1 degree of A at most that of B."""
    An, unit_a = _unit_normalized(A)
    Bn, unit_b = _unit_normalized(B)
    a1, A_top = _top_slice(An)
    b1, B_top = _top_slice(Bn)
    if b1 < a1:
        raise ReductionError("tuple ordering violated; inputs are not HK tuples")
    p_low, q_low, _ = _descend(A_top, B_top)
    p = insert_variable(p_low, b1 - a1) * unit_a
    q = insert_variable(q_low, 0) * unit_b
    C = q * B - p * A
    return p, q, C


def descend(A, B):
    """Iterate reduce_pair until below both valuations.

    Returns nonzero p, q with C = q*B - p*A either zero or of valuation
    strictly below min(valuation(A), valuation(B)).  Each intermediate
    step must strictly lower the valuation of the working tuple; a
    violation raises ReductionError rather than looping.
    """
    _check_family((A, B))
    return _descend(A, B)


def _descend(A, B):
    if valuation(B) < valuation(A):
        p, q, C = _descend(B, A)
        return q, p, -C
    n = A.nvars
    v_low = valuation(A)
    p_acc = LaurentPoly.zero(n)
    q_acc = LaurentPoly.one(n)
    cur = B
    v_cur = valuation(B)
    while True:
        p_i, q_i, C = _reduce(A, cur)
        p_acc = q_i * p_acc + p_i
        q_acc = q_i * q_acc
        if C.is_zero():
            break
        v_next = valuation(C)
        if v_next < v_low:
            break
        if not v_next < v_cur:
            raise ReductionError(
                "descent stopped decreasing; inputs are not HK tuples")
        cur, v_cur = C, v_next
    if p_acc.is_zero() or q_acc.is_zero():
        raise ReductionError("descent produced a degenerate combination")
    return p_acc, q_acc, C


# -- generators and decomposition --------------------------------------------


def component_gcd(B):
    """Canonical gcd of the nonzero components of a tuple."""
    return gcd_list(B.components)


def canonical_tuple(B):
    """Deterministic unit normalization of a nonzero tuple.

    Multiplies by the unit making the prefix minima of the first component
    zero and its lex-leading coefficient one.  Tuples of Schur polynomials
    are fixed points.
    """
    if B.is_zero():
        return B
    _, b = _valuation_parts(B[0])
    shifted = B.twist(tuple(-x for x in b))
    _, lead = lex_leading(shifted[0])
    return _coeff_div(1, lead) * shifted


def decompose(B, S):
    """Cofactor p with B = p * S, using the first component as pivot.

    Raises NotMultipleError when no exact Laurent cofactor exists.  The
    pivot choice is sound because a nonzero HK tuple has a nonzero first
    component; S with zero first component is rejected outright.
    """
    if not S[0]:
        raise ValueError("reference tuple has zero first component")
    if B.nvars != S.nvars:
        raise ValueError("variable count mismatch")
    p = _quo_or_none(B[0], S[0])
    if p is None:
        raise NotMultipleError("first components do not divide")
    for i in range(1, len(S)):
        if B[i] != p * S[i]:
            raise NotMultipleError(f"component {i} is not the same multiple")
    return p


def canonical_generator(e):
    """Generator tuple of the HK space for gap vector e.

    With e = r * e', this is the componentwise Frobenius lift by r of the
    equivariant tuple for e'.  Its components are Schur polynomials with
    no common factor, each with lex-leading coefficient one.  The tuple is
    built once per e and shared from a bounded cache; it is immutable.
    """
    return _canonical_generator(check_difference_vector(e))


@lru_cache(maxsize=16)
def _canonical_generator(e):
    r, e_red = frobenius_split(e)
    return equivariant_tuple(e_red).frobenius(r)


def find_generator(inputs):
    """Common generator of a family of tuples from one HK space.

    Folds the descent over the inputs in ascending valuation order,
    keeping the smallest-valuation survivor; the survivor is divided by
    the gcd of its components and unit-normalized.  Every input must then
    be an exact multiple of the result; when the inputs all lie in one HK
    space this is guaranteed, otherwise GeneratorError is raised.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one tuple")
    _check_family(inputs)
    order = sorted(range(len(inputs)), key=lambda i: (valuation(inputs[i]), i))
    survivor = inputs[order[0]]
    for idx in order[1:]:
        _, _, C = _descend(survivor, inputs[idx])
        if not C.is_zero():
            # strictly smaller valuation: adopt the combination
            survivor = C
    g = component_gcd(survivor)
    reduced = []
    for f in survivor.components:
        q = _quo_or_none(f, g)
        if q is None:
            raise GeneratorError("component gcd does not divide a component")
        reduced.append(q)
    result = canonical_tuple(BettiTuple(tuple(reduced)))
    for T in inputs:
        try:
            decompose(T, result)
        except NotMultipleError as exc:
            raise GeneratorError(
                "inputs are not multiples of a common tuple; they do not "
                "lie in one HK space") from exc
    return result


# -- membership --------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    """Decision for one tuple against the HK space of a gap vector."""

    in_space: bool
    cofactor: LaurentPoly | None
    integral: bool
    reasons: tuple = ()

    def to_json(self):
        return {
            "in_space": self.in_space,
            "cofactor": poly_to_json(self.cofactor) if self.cofactor is not None else None,
            "integral": self.integral,
            "reasons": list(self.reasons),
        }


def _peel_cofactor(b0, s0):
    """Cofactor b0 / s0 by repeated lex-leading subtraction.

    Kept as a test oracle for the cofactor that membership computes by
    exact division.  The lex-leading coefficient of s0 must be one, so each peeled
    coefficient equals a coefficient of the cofactor exactly; with
    divisibility known in advance the loop terminates.
    """
    s_exp, lead = lex_leading(s0)
    if lead != 1:
        raise ValueError("peeling needs a lex-leading coefficient of one")
    rem = b0
    table = {}
    while rem:
        r_exp, r_c = lex_leading(rem)
        step = tuple(a - b for a, b in zip(r_exp, s_exp))
        table[step] = r_c
        rem = rem - LaurentPoly.monomial(r_c, step) * s0
    return LaurentPoly(b0.nvars, table)


def membership(B, e):
    """Decide B = p * s against the canonical generator s for gap vector e.

    The zero tuple is the zero vector of every HK space: it is a member
    with cofactor 0 for any e.  Otherwise membership needs the purity gaps
    of B to equal e, the HK equations to hold, and the exact division to
    succeed.  The cofactor is computed once, by decompose; the integral
    flag states whether it has integer coefficients.
    """
    e = check_difference_vector(e)
    if B.nvars != len(e):
        raise ValueError(
            f"tuple has {B.nvars} variables but the gap vector has {len(e)} entries")
    gen = canonical_generator(e)
    reasons = []
    profile = B.purity()
    if profile.is_zero:
        return MembershipReport(True, LaurentPoly.zero(B.nvars), True)
    if not profile.is_pure:
        reasons.append(f"tuple is not pure: {profile.witness}")
    elif profile.diffs != e:
        reasons.append(f"gap vector is {profile.diffs}, expected {e}")
    hk = check_hk(B)
    if not hk.passed:
        reasons.append(f"HK equation fails at k={hk.k}")
    cofactor = None
    if not reasons:
        try:
            cofactor = decompose(B, gen)
        except NotMultipleError:
            reasons.append("not a Laurent multiple of the generator")
    if reasons:
        return MembershipReport(False, None, False, tuple(reasons))
    integral = all(c.denominator == 1 for c in cofactor.terms.values())
    return MembershipReport(True, cofactor, integral)
