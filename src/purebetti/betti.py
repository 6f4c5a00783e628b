"""Multigraded Betti diagrams, Betti polynomial tuples, and the equivariant diagram.

A diagram stores rational multiplicities indexed by homological degree i
and multidegree a; slice i is equivalently encoded by its Betti polynomial
sum_a beta_{i,a} t^a.  Diagrams of actual resolutions have nonnegative
integer entries, but rational entries of either sign are allowed so that
arbitrary elements of the linear span share the same type.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .laurent import (
    LaurentPoly,
    _frozen,
    _is_int_vector,
    _json_coeff,
    _json_int,
    _json_ints,
    _norm_coeff,
    det,
    exact_div,
    frobenius,
)
from .schur import check_difference_vector, schur_polys, term_partition


class NotPureError(ValueError):
    """Diagram is not pure by total degrees; .witness holds (i, detail)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"diagram is not pure by total degrees: {witness}")


@dataclass(frozen=True)
class PurityProfile:
    """Total degrees and gaps of a pure diagram, or the offending witness."""

    degrees: tuple | None
    diffs: tuple | None
    witness: tuple | None

    @property
    def is_pure(self):
        return self.witness is None and self.degrees is not None

    @property
    def is_zero(self):
        return self.witness is None and self.degrees is None


@dataclass(frozen=True)
class HKReport:
    """Outcome of the alternating-sum vanishing checks at each t_k = 1."""

    passed: bool
    k: int | None = None
    residual: LaurentPoly | None = None

    def __bool__(self):
        return self.passed


def _profile_from_degrees(degrees):
    """Purity profile from per-slot degree values (None marks a zero slot)."""
    if all(d is None for d in degrees):
        return PurityProfile(None, None, None)
    for i, d in enumerate(degrees):
        if d is None:
            return PurityProfile(None, None, (i, "zero homological slot"))
    for i in range(1, len(degrees)):
        if degrees[i] <= degrees[i - 1]:
            return PurityProfile(
                None, None, (i, (degrees[i - 1], degrees[i])))
    degrees = tuple(degrees)
    diffs = tuple(degrees[i] - degrees[i - 1] for i in range(1, len(degrees)))
    return PurityProfile(degrees, diffs, None)


def _purity(polys):
    """Purity profile of a diagram given as its Betti polynomials."""
    degrees = []
    for i, f in enumerate(polys):
        degs = f.total_degrees()
        if not degs:
            degrees.append(None)
        elif len(degs) > 1:
            return PurityProfile(None, None, (i, tuple(sorted(degs))))
        else:
            degrees.append(degs.pop())
    return _profile_from_degrees(degrees)


class BettiTuple:
    """An (n+1)-tuple of homogeneous Betti polynomials in n variables."""

    __slots__ = ("nvars", "components", "degrees")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("tuple must have at least one component")
        nvars = components[0].nvars
        if len(components) != nvars + 1:
            raise ValueError(
                f"need {nvars + 1} components for {nvars} variables, "
                f"got {len(components)}")
        degrees = []
        for i, f in enumerate(components):
            if f.nvars != nvars:
                raise ValueError("components have mixed variable counts")
            if not f.is_homogeneous():
                raise ValueError(f"component {i} is not homogeneous")
            degrees.append(f.degree())
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degrees", tuple(degrees))

    __setattr__ = __delattr__ = _frozen

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, BettiTuple):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __repr__(self):
        return f"BettiTuple({[str(f) for f in self.components]})"

    def is_zero(self):
        return all(f.is_zero() for f in self.components)

    def __rmul__(self, other):
        """Componentwise multiplication by a Laurent polynomial or scalar."""
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return BettiTuple(tuple(other * f for f in self.components))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, BettiTuple):
            return NotImplemented
        return BettiTuple(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, BettiTuple):
            return NotImplemented
        return BettiTuple(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return BettiTuple(tuple(-f for f in self.components))

    def twist(self, exp):
        """Shift all multidegrees by exp: multiplication by the unit t^exp."""
        return BettiTuple(tuple(f.shift(exp) for f in self.components))

    def frobenius(self, r):
        return BettiTuple(tuple(frobenius(f, r) for f in self.components))

    def alternating_sum(self):
        return LaurentPoly(self.nvars, _alternating_terms(self.components))

    def purity(self):
        return _profile_from_degrees(self.degrees)

    def to_diagram(self):
        return BettiDiagram._trusted(self.nvars, {
            (i, exp): c
            for i, f in enumerate(self.components)
            for exp, c in f.terms.items()})


class BettiDiagram:
    """Map (homological index, multidegree) -> rational multiplicity."""

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars, entries=()):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        items = entries.items() if isinstance(entries, Mapping) else entries
        table = {}
        for (i, exp), mult in items:
            exp = tuple(exp)
            if type(i) is not int:
                raise ValueError(f"homological index {i!r} must be an integer")
            if not _is_int_vector(exp):
                raise ValueError(f"multidegree {exp} must consist of integers")
            _add_entry(table, nvars, i, exp, _norm_coeff(mult))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", MappingProxyType(table))

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def _trusted(cls, nvars, table):
        """Wrap an entry table the library built itself, without re-checking it.

        The caller guarantees what __init__ would check: every key is
        (i, exp) with 0 <= i <= nvars and exp a tuple of nvars ints, every
        value a nonzero int or a non-integral Fraction, and no one else
        holds the table.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", MappingProxyType(table))
        return self

    def __eq__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self.nvars == other.nvars and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"BettiDiagram(nvars={self.nvars}, entries={len(self.entries)})"

    def multiplicity(self, i, exp):
        return self.entries.get((i, tuple(exp)), 0)

    def __add__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        table = self.entries.copy()
        for key, mult in other.entries.items():
            table[key] = table.get(key, 0) + mult
        return BettiDiagram(self.nvars, table)

    def __sub__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        table = self.entries.copy()
        for key, mult in other.entries.items():
            table[key] = table.get(key, 0) - mult
        return BettiDiagram(self.nvars, table)

    def __rmul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return BettiDiagram(
            self.nvars, {key: c * m for key, m in self.entries.items()})

    def twist(self, exp):
        """Shift every multidegree by exp (t^exp on Betti polynomials)."""
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("twist vector has wrong length")
        return BettiDiagram(
            self.nvars,
            {(i, tuple(x + y for x, y in zip(a, exp))): m
             for (i, a), m in self.entries.items()})

    def frobenius(self, r):
        """Scale every multidegree by r; a pure profile d becomes r*d."""
        if r < 1:
            raise ValueError("frobenius exponent must be a positive integer")
        return BettiDiagram(
            self.nvars,
            {(i, tuple(r * x for x in a)): m
             for (i, a), m in self.entries.items()})

    def betti_polynomials(self):
        """Betti polynomials B_i = sum_a beta_{i,a} t^a for i = 0..n."""
        tables = [{} for _ in range(self.nvars + 1)]
        for (i, exp), m in self.entries.items():
            tables[i][exp] = m
        return tuple(LaurentPoly._trusted(self.nvars, t) for t in tables)

    def collapse_total(self):
        """Sum multiplicities over multidegrees of equal total degree."""
        table = {}
        for (i, exp), m in self.entries.items():
            key = (i, sum(exp))
            acc = table.get(key, 0) + m
            if acc:
                table[key] = acc
            else:
                table.pop(key, None)
        return table

    def purity(self):
        return _purity(self.betti_polynomials())

    def to_tuple(self):
        """Betti polynomial tuple of a pure (or empty) diagram."""
        polys = self.betti_polynomials()
        profile = _purity(polys)
        if profile.witness is not None:
            raise NotPureError(profile.witness)
        return BettiTuple(polys)

    def is_integral(self):
        return all(m.denominator == 1 for m in self.entries.values())

    def is_nonnegative(self):
        return all(m > 0 for m in self.entries.values())

    # -- interchange formats ------------------------------------------------

    def to_json(self):
        entries = sorted(self.entries.items(),
                         key=lambda kv: (kv[0][0], tuple(-x for x in kv[0][1])))
        return {
            "nvars": self.nvars,
            "entries": [
                {"i": i, "deg": list(exp), "mult": _mult_str(m)}
                for (i, exp), m in entries
            ],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "nvars" not in obj or "entries" not in obj:
            raise ValueError("diagram JSON must have 'nvars' and 'entries'")
        nvars = _json_int(obj["nvars"], "'nvars'")
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        if not isinstance(obj["entries"], list):
            raise ValueError("'entries' must be a list")
        table = {}
        for item in obj["entries"]:
            try:
                i, deg, mult = item["i"], item["deg"], item["mult"]
            except (KeyError, TypeError):
                raise ValueError(
                    "each diagram entry must have 'i', 'deg' and 'mult'") from None
            _add_entry(table, nvars, _json_int(i, "'i'"),
                       _json_ints(deg, "'deg'"), _json_coeff(mult))
        return cls._trusted(nvars, table)

    def dumps(self, **kwargs):
        return json.dumps(self.to_json(), **kwargs)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))

    def format_table(self):
        """Group by homological index, multidegrees in descending lex order."""
        lines = []
        polys = self.betti_polynomials()
        for i, f in enumerate(polys):
            cells = []
            for exp, m in f.sorted_terms():
                cell = "(" + ",".join(str(x) for x in exp) + ")"
                if m != 1:
                    cell += f"*{_mult_str(m)}"
                cells.append(cell)
            body = " ".join(cells) if cells else "-"
            rank = sum(f.terms.values()) if f else 0
            lines.append(f"i={i}  rank={_mult_str(rank)}  {body}")
        return "\n".join(lines)


def _add_entry(table, nvars, i, exp, mult):
    """Range-check one entry and add its normalized multiplicity into table."""
    if not 0 <= i <= nvars:
        raise ValueError(f"homological index {i} out of range 0..{nvars}")
    if len(exp) != nvars:
        raise ValueError(f"multidegree {exp} has wrong length")
    key = (i, exp)
    if key in table:
        mult = _norm_coeff(table[key] + mult)
    if mult:
        table[key] = mult
    else:
        table.pop(key, None)


def _mult_str(m):
    return f"{m.numerator}/{m.denominator}" if m.denominator != 1 else str(m.numerator)


def _alternating_terms(polys):
    """Term table of sum_i (-1)^i polys[i]; zero coefficients may remain."""
    nvars = polys[0].nvars
    total = {}
    for i, f in enumerate(polys):
        if f.nvars != nvars:
            raise ValueError(
                f"variable count mismatch: {nvars} vs {f.nvars}")
        sign = 1 if i % 2 == 0 else -1
        for exp, c in f.terms.items():
            total[exp] = total.get(exp, 0) + sign * c
    return total


def check_hk(B):
    """Herzog-Kuhl check for a BettiTuple (or plain sequence of polynomials).

    For each k the alternating sum of the polynomials must vanish at
    t_k = 1; the failure report carries the first failing k and the
    nonzero residual.
    """
    polys = B.components if isinstance(B, BettiTuple) else list(B)
    if not polys:
        raise ValueError("need at least one Betti polynomial")
    alt = _alternating_terms(polys)
    nvars = polys[0].nvars
    for k in range(nvars):
        projected = {}
        for exp, c in alt.items():
            cut = exp[:k] + exp[k + 1:]
            projected[cut] = projected.get(cut, 0) + c
        if any(projected.values()):
            return HKReport(False, k + 1, LaurentPoly(nvars - 1, projected))
    return HKReport(True)


def hilbert_numerator(B):
    """Numerator of the multigraded Hilbert series: alt. sum / prod (1 - t_k).

    Exists exactly when the Herzog-Kuhl equations hold (vanishing at
    t_k = 1 is divisibility by 1 - t_k); raises ExactDivisionError
    otherwise.
    """
    polys = B.components if isinstance(B, BettiTuple) else list(B)
    n = polys[0].nvars
    product = LaurentPoly.one(n)
    for k in range(1, n + 1):
        product = product * (LaurentPoly.one(n) - LaurentPoly.variable(k, n))
    return exact_div(LaurentPoly(n, _alternating_terms(polys)), product)


def equivariant_tuple(e):
    """Betti polynomial tuple of the equivariant pure resolution for e.

    Component i is the Schur polynomial of term_partition(e, i) in
    n = len(e) variables, so every multiplicity is a positive integer.
    All n+1 components come from one schur_polys call (the branching
    rule); the tests compare them with the oracles schur_bialternant and
    schur_ssyt and with the maximal-minor construction below.
    """
    e = check_difference_vector(e)
    n = len(e)
    return BettiTuple(schur_polys(
        [term_partition(e, i) for i in range(n + 1)], n))


def equivariant_diagram(e):
    """Multigraded Betti diagram of the equivariant pure resolution for e."""
    return equivariant_tuple(e).to_diagram()


def _equivariant_minors(e):
    """Betti polynomials as signed maximal minors over the Vandermonde.

    A second construction of equivariant_tuple(e), kept as a test oracle:
    the maximal minors of the n x (n+1) matrix whose row i lists t_i
    raised to the reversed partial sums of e, each divided by the
    Vandermonde determinant.
    """
    n = len(e)
    partial = [0] * (n + 1)
    for j in range(1, n + 1):
        partial[j] = partial[j - 1] + e[n - j]
    rows = []
    for i in range(1, n + 1):
        rows.append([
            LaurentPoly.monomial(
                1, tuple(partial[j] if v == i - 1 else 0 for v in range(n)))
            for j in range(n + 1)
        ])
    vandermonde = det([
        [LaurentPoly.monomial(1, tuple(n - 1 - j if v == i else 0 for v in range(n)))
         for j in range(n)]
        for i in range(n)
    ])
    polys = []
    for i in range(n + 1):
        drop = n - i
        minor = det([row[:drop] + row[drop + 1:] for row in rows])
        quotient = exact_div(minor, vandermonde)
        coeffs = list(quotient.terms.values())
        if coeffs and all(c < 0 for c in coeffs):
            quotient = -quotient
        if any(c < 0 for c in quotient.terms.values()):
            raise AssertionError(f"minor for e={e}, i={i} is not single-signed")
        polys.append(quotient)
    return polys


def koszul_diagram(n):
    """The diagram for e = (1,...,1): multiplicity one at each 0/1 vector."""
    return equivariant_diagram((1,) * n)
