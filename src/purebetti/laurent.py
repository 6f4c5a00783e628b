"""Exact sparse multivariate Laurent polynomials over the rationals.

A polynomial in variables t1, ..., tn is stored as a map from exponent
vectors (tuples of n signed integers) to nonzero rational coefficients.
Coefficients are Python ints or fractions.Fraction; arithmetic is always
exact.  The monomial order used throughout is lexicographic with
t1 > t2 > ... > tn, exponents compared left to right.

The public constructor, parse_poly and poly_from_json check every term
of outside input.  Term tables the library builds itself (sums,
products, shifts, quotients, slices) are wrapped by the private
LaurentPoly._trusted without a second check.  `terms` is a read-only
mapping and attributes cannot be assigned, so values are immutable and
all operations are pure functions: everything here is safe to share
between threads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd as _int_gcd
from types import MappingProxyType


class ExactDivisionError(ArithmeticError):
    """Raised when an exact quotient does not exist in the Laurent ring."""


def _norm_coeff(c):
    """Normalize a coefficient to int (when integral) or Fraction."""
    if isinstance(c, bool):
        return int(c)
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _normalized(table):
    """A summed term table with zeros dropped and integral Fractions made int."""
    return {e: c.numerator if c.denominator == 1 else c
            for e, c in table.items() if c}


def _check_nvars(nvars):
    """Reject a variable count that is not a nonnegative int (booleans excluded)."""
    if type(nvars) is not int:
        raise ValueError(f"variable count must be an integer, got {nvars!r}")
    if nvars < 0:
        raise ValueError("variable count must be nonnegative")


def _is_int_vector(exp):
    """True when every entry of the tuple is an int (booleans excluded)."""
    return all(type(x) is int for x in exp)


def _frozen(self, *args):
    """Attribute assignment and deletion: values are immutable."""
    raise AttributeError(f"{type(self).__name__} is immutable")


def _coeff_div(a, b):
    """Exact rational quotient a / b, normalized like _norm_coeff."""
    q = Fraction(a) / Fraction(b)
    return int(q) if q.denominator == 1 else q


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        _check_nvars(nvars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        table = {}
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(
                    f"exponent {exp} has length {len(exp)}, expected {nvars}")
            if not _is_int_vector(exp):
                raise ValueError(f"exponent {exp} must consist of integers")
            c = _norm_coeff(c)
            if exp in table:
                c = _norm_coeff(table[exp] + c)
            if c:
                table[exp] = c
            else:
                table.pop(exp, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(table))

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def _trusted(cls, nvars, table):
        """Wrap a term table the library built itself, without re-checking it.

        The caller guarantees what __init__ would check: every key is a
        tuple of nvars ints, every value a nonzero int or a non-integral
        Fraction, and no one else holds the table.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(table))
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, c, exp):
        exp = tuple(exp)
        return cls(len(exp), {exp: c})

    @classmethod
    def variable(cls, i, nvars):
        """The variable t_i (1-based, matching the t1..tn naming)."""
        if type(i) is not int or not 1 <= i <= nvars:
            raise ValueError(f"variable index {i!r} out of range 1..{nvars}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, 0)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), 0)

    def sorted_terms(self):
        """Terms as (exponent, coefficient) pairs in descending lex order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def total_degrees(self):
        return {sum(e) for e in self.terms}

    def is_homogeneous(self):
        return len(self.total_degrees()) <= 1

    def degree(self):
        """Total degree of a homogeneous polynomial (None for zero)."""
        degs = self.total_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def min_exponents(self):
        """Componentwise minimum exponent over the support (f != 0)."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def var_degree(self, i):
        """Largest exponent of t_i (1-based) over the support (f != 0)."""
        if type(i) is not int or not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i!r} out of range 1..{self.nvars}")
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(e[i - 1] for e in self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        table = self.terms.copy()
        for exp, c in other.terms.items():
            table[exp] = table.get(exp, 0) + c
        return LaurentPoly._trusted(self.nvars, _normalized(table))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        table = self.terms.copy()
        for exp, c in other.terms.items():
            table[exp] = table.get(exp, 0) - c
        return LaurentPoly._trusted(self.nvars, _normalized(table))

    def __neg__(self):
        return LaurentPoly._trusted(
            self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly._trusted(self.nvars, _normalized(
                {e: c * other for e, c in self.terms.items()}))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        table = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                table[exp] = table.get(exp, 0) + c1 * c2
        return LaurentPoly._trusted(self.nvars, _normalized(table))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = LaurentPoly.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def shift(self, exp):
        """Multiply by the monomial t^exp (a unit of the Laurent ring)."""
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("shift vector has wrong length")
        if not _is_int_vector(exp):
            raise ValueError(f"shift vector {exp} must consist of integers")
        return LaurentPoly._trusted(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exp)): c
             for e, c in self.terms.items()})

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)!r})"


# -- the named Laurent-ring operations ------------------------------------


def lex_leading(f):
    """Exponent and coefficient of the lex-largest monomial of f != 0."""
    if not f:
        raise ValueError("zero polynomial has no leading term")
    exp = max(f.terms)
    return exp, f.terms[exp]


def frobenius(f, r):
    """Substitute t_i -> t_i^r: every exponent vector is scaled by r."""
    if type(r) is not int or r < 1:
        raise ValueError("frobenius exponent must be a positive integer")
    return LaurentPoly._trusted(
        f.nvars,
        {tuple(r * e for e in exp): c for exp, c in f.terms.items()})


def var_slice(f, d):
    """Coefficient of t1^d as a polynomial in t2..tn (may be zero)."""
    if f.nvars < 1:
        raise ValueError("need at least one variable")
    return LaurentPoly._trusted(
        f.nvars - 1,
        {exp[1:]: c for exp, c in f.terms.items() if exp[0] == d})


def insert_variable(f, exp=0):
    """Embed an (n-1)-variable polynomial into n variables as t1^exp * f."""
    if type(exp) is not int:
        raise ValueError(f"exponent {exp!r} must be an integer")
    return LaurentPoly._trusted(
        f.nvars + 1, {(exp,) + e: c for e, c in f.terms.items()})


# -- exact division --------------------------------------------------------


def _quo_or_none(f, g):
    """Exact Laurent quotient f / g, or None when g does not divide f.

    Both are shifted by monomial units into ordinary polynomials first;
    ordinary single-divisor lex division with zero remainder then decides
    divisibility (the remainder is unique for a principal ideal).
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_compatible(g)
    if not f:
        return LaurentPoly.zero(f.nvars)
    mf = f.min_exponents()
    mg = g.min_exponents()
    fw = f.shift(tuple(-e for e in mf))
    gw = g.shift(tuple(-e for e in mg))
    gl_exp = max(gw.terms)
    gl_c = gw.terms[gl_exp]
    rem = fw.terms.copy()
    quo = {}
    while rem:
        r_exp = max(rem)
        q_exp = tuple(a - b for a, b in zip(r_exp, gl_exp))
        if any(e < 0 for e in q_exp):
            return None
        q_c = _coeff_div(rem[r_exp], gl_c)
        quo[q_exp] = q_c
        for e2, c2 in gw.terms.items():
            exp = tuple(a + b for a, b in zip(q_exp, e2))
            acc = rem.get(exp, 0) - q_c * c2
            if acc:
                rem[exp] = acc
            else:
                rem.pop(exp, None)
    shift_back = tuple(a - b for a, b in zip(mf, mg))
    return LaurentPoly._trusted(f.nvars, quo).shift(shift_back)


def exact_div(f, g):
    """Exact quotient in the Laurent ring; raises ExactDivisionError otherwise."""
    q = _quo_or_none(f, g)
    if q is None:
        raise ExactDivisionError("polynomial is not an exact multiple")
    return q


# -- units and canonical form ----------------------------------------------


def canonical(f):
    """Canonical associate of f under multiplication by units.

    The minimum exponent of every variable is shifted to 0, coefficients
    are cleared to integers of content 1, and the lex-leading coefficient
    is made positive.  canonical(f) == canonical(g) iff f and g agree up
    to a unit.
    """
    if not f:
        return f
    shifted = f.shift(tuple(-e for e in f.min_exponents()))
    denom_lcm = 1
    for c in shifted.terms.values():
        d = c.denominator
        denom_lcm = denom_lcm * d // _int_gcd(denom_lcm, d)
    nums = [int(c * denom_lcm) for c in shifted.terms.values()]
    content = 0
    for v in nums:
        content = _int_gcd(content, v)
    scale = Fraction(denom_lcm, content)
    result = shifted * scale
    if result.terms[max(result.terms)] < 0:
        result = -result
    return result


# -- multivariate gcd -------------------------------------------------------
#
# Recursive content/primitive-part reduction with a subresultant polynomial
# remainder sequence in the first active variable (Brown's algorithm; the
# predicted divisors keep coefficient growth polynomial).  Inputs are
# shifted by monomial units into ordinary integer polynomials; the result
# is returned in the canonical form described above.


def _int_content(f):
    g = 0
    for c in f.terms.values():
        if c.denominator != 1:
            raise AssertionError("gcd internals require integer coefficients")
        g = _int_gcd(g, int(c))
        if g == 1:
            return 1
    return g


def _strip_int_content(f):
    c = _int_content(f)
    if c in (0, 1):
        return f
    return LaurentPoly(f.nvars, {e: v // c for e, v in f.terms.items()})


def _var_deg(f, k):
    return max(e[k] for e in f.terms)


def _coeff_table(f, k):
    """Split f by powers of variable k: degree -> polynomial with t_k removed from the exponent."""
    table = {}
    for exp, c in f.terms.items():
        d = exp[k]
        cleared = exp[:k] + (0,) + exp[k + 1:]
        table.setdefault(d, {})[cleared] = c
    return {d: LaurentPoly(f.nvars, t) for d, t in table.items()}


def _content(f, k, scan_from):
    """Gcd over the integers of the t_k-coefficient polynomials of f.

    This must be the full content, integer part included: primitive parts
    are taken by exact division, which would go fractional otherwise.
    """
    coeffs = sorted(_coeff_table(f, k).items())
    cont = None
    for _, c in coeffs:
        cont = c if cont is None else _gcd_rec(cont, c, scan_from)
        if cont.is_constant() and abs(cont.constant_value()) == 1:
            break
    return cont


def _primitive(f, k, scan_from):
    """f divided by its full t_k-content (an exact integer division)."""
    cont = _content(f, k, scan_from)
    if cont.is_constant():
        return _strip_int_content(f)
    q = _quo_or_none(f, cont)
    if q is None:
        raise AssertionError("content division must be exact")
    return _strip_int_content(q)


def _lead_k(f, k):
    """Leading coefficient of f as a polynomial in t_k (t_k cleared)."""
    d = _var_deg(f, k)
    table = {}
    for exp, c in f.terms.items():
        if exp[k] == d:
            table[exp[:k] + (0,) + exp[k + 1:]] = c
    return LaurentPoly(f.nvars, table)


def _shift_k(f, k, j):
    """Multiply by t_k^j."""
    return LaurentPoly(
        f.nvars,
        {exp[:k] + (exp[k] + j,) + exp[k + 1:]: c for exp, c in f.terms.items()})


def _prem(a, b, k):
    """Classical pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b in t_k."""
    da = _var_deg(a, k)
    db = _var_deg(b, k)
    lb = _lead_k(b, k)
    r = a
    n = da - db + 1
    while r:
        dr = _var_deg(r, k)
        if dr < db:
            break
        lr = _lead_k(r, k)
        n -= 1
        r = lb * r - _shift_k(lr * b, k, dr - db)
    return (lb ** n) * r if n else r


def _subresultant_last(f, g, k):
    """Last nonzero element of the subresultant remainder sequence in t_k."""
    n = _var_deg(f, k)
    m = _var_deg(g, k)
    if n < m:
        f, g = g, f
        n, m = m, n
    d = n - m
    h = _prem(f, g, k)
    if d % 2 == 0:
        h = -h
    lc = _lead_k(g, k)
    c = -(lc ** d)
    last = g
    while h:
        deg_h = _var_deg(h, k)
        last = h
        f, g, m, d = g, h, deg_h, m - deg_h
        b = -(lc * (c ** d))
        h = _prem(f, g, k)
        h = exact_div(h, b)
        lc = _lead_k(g, k)
        if d > 1:
            c = exact_div((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return last


def _gcd_rec(f, g, scan_from):
    """True gcd over the integers of ordinary polynomials (not both zero)."""
    if not f:
        return g
    if not g:
        return f
    if f.is_constant() or g.is_constant():
        return LaurentPoly.constant(
            _int_gcd(_int_content(f), _int_content(g)), f.nvars)
    k = None
    for i in range(scan_from, f.nvars):
        if _var_deg(f, i) > 0 or _var_deg(g, i) > 0:
            k = i
            break
    if k is None:
        return LaurentPoly.constant(
            _int_gcd(_int_content(f), _int_content(g)), f.nvars)
    df = _var_deg(f, k)
    dg = _var_deg(g, k)
    if df == 0:
        return _gcd_rec(f, _content(g, k, k + 1), k + 1)
    if dg == 0:
        return _gcd_rec(_content(f, k, k + 1), g, k + 1)
    cf = _content(f, k, k + 1)
    cg = _content(g, k, k + 1)
    d = _gcd_rec(cf, cg, k + 1)
    h = _subresultant_last(exact_div(f, cf), exact_div(g, cg), k)
    if _var_deg(h, k) == 0:
        # primitive inputs with no common t_k dependence are coprime
        return d
    return d * _primitive(h, k, k + 1)


def gcd(f, g):
    """Canonical-form gcd in the Laurent ring (see canonical()).

    A greatest common divisor is only defined up to a unit; the canonical
    representative has no monomial factor, integer coefficients of content
    1 and a positive lex-leading coefficient.
    """
    f._check_compatible(g)
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    if not f:
        return canonical(g)
    if not g:
        return canonical(f)
    a = canonical(f)
    b = canonical(g)
    if a == b:
        return a
    # cheap trial divisions catch the frequent divisor/multiple case
    if len(a.terms) <= len(b.terms) and _quo_or_none(b, a) is not None:
        return a
    if len(b.terms) < len(a.terms) and _quo_or_none(a, b) is not None:
        return b
    return canonical(_gcd_rec(a, b, 0))


def gcd_list(polys):
    """Fold gcd over a sequence, ignoring zeros (not all may be zero)."""
    acc = None
    one = None
    for f in polys:
        if one is None:
            one = LaurentPoly.one(f.nvars)
        if not f:
            continue
        acc = canonical(f) if acc is None else gcd(acc, f)
        if acc == one:
            return acc
    if acc is None:
        raise ValueError("gcd of all-zero family is undefined")
    return acc


# -- determinants -----------------------------------------------------------


def det(rows):
    """Determinant of a square matrix of LaurentPoly entries, by cofactor expansion.

    A test oracle; its callers pass matrices of monomials, on which the
    expansion stays sparse.
    """
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise ValueError("matrix must be square and nonempty")
    if m == 1:
        return rows[0][0]
    total = LaurentPoly.zero(rows[0][0].nvars)
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        term = entry * det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


# -- text and JSON formats ---------------------------------------------------


def _format_coeff(c):
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def format_poly(f):
    """Render in the text format: terms in descending lex order, e.g. t1^2 - t1*t2 + t2^2."""
    if not f:
        return "0"
    pieces = []
    for exp, c in f.sorted_terms():
        factors = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            factors.append(f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


_FACTOR_RE = re.compile(r"^(?:(\d+(?:/\d+)?)|t(\d+)(?:\^(-?\d+))?)$")


def parse_poly(text, nvars):
    """Parse the text format produced by format_poly."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    if compact == "0":
        return LaurentPoly.zero(nvars)
    # split into signed terms; '-' after '^', '*' or '/' belongs to the term
    pieces = []
    start = 0
    for i, ch in enumerate(compact):
        if ch in "+-" and i > start and compact[i - 1] not in "^*/+-":
            pieces.append(compact[start:i])
            start = i
    pieces.append(compact[start:])
    table = {}
    for piece in pieces:
        sign = 1
        if piece.startswith("+"):
            piece = piece[1:]
        elif piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        if not piece:
            raise ValueError(f"malformed term in {text!r}")
        coeff = Fraction(sign)
        exp = [0] * nvars
        for factor in piece.split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= _json_coeff(m.group(1))
            else:
                idx = int(m.group(2))
                if not 1 <= idx <= nvars:
                    raise ValueError(
                        f"variable t{idx} out of range for {nvars} variables")
                exp[idx - 1] += int(m.group(3)) if m.group(3) else 1
        key = tuple(exp)
        table[key] = table.get(key, 0) + coeff
    return LaurentPoly(nvars, table)


def poly_to_json(f):
    """JSON-ready dict: {"nvars": n, "terms": [{"exp": [...], "coeff": "num/den"}]}."""
    return {
        "nvars": f.nvars,
        "terms": [
            {"exp": list(exp), "coeff": _format_coeff(c)}
            for exp, c in f.sorted_terms()
        ],
    }


def _json_int(value, name):
    """A JSON integer field (booleans excluded), or ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_ints(value, name):
    """A JSON list of integers as a tuple, or ValueError."""
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError(f"{name} must be a list of integers, got {value!r}")
    return tuple(value)


def _json_coeff(value):
    """The coefficient Fraction(str(value)), normalized like _norm_coeff.

    A plain ASCII integer with an optional '-' is parsed by int, which is
    faster; everything else goes through Fraction.  Malformed text and a
    zero denominator raise ValueError.
    """
    text = str(value)
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    try:
        return _norm_coeff(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


def poly_from_json(obj):
    if not isinstance(obj, dict) or "nvars" not in obj or "terms" not in obj:
        raise ValueError("polynomial JSON must have 'nvars' and 'terms'")
    nvars = _json_int(obj["nvars"], "'nvars'")
    if not isinstance(obj["terms"], list):
        raise ValueError("'terms' must be a list")
    terms = []
    for item in obj["terms"]:
        try:
            exp, coeff = item["exp"], item["coeff"]
        except (KeyError, TypeError):
            raise ValueError("each polynomial term must have 'exp' and 'coeff'") from None
        terms.append((_json_ints(exp, "'exp'"), _json_coeff(coeff)))
    return LaurentPoly(nvars, terms)
