"""Multigraded Betti diagrams, Betti polynomial tuples, and the equivariant diagram.

A diagram holds rational multiplicities beta_{i,a} indexed by homological
degree i and multidegree a, stored as its n+1 Betti polynomials
B_i = sum_a beta_{i,a} t^a.  Diagrams of actual resolutions have
nonnegative integer entries, but rational entries of either sign are
allowed so that arbitrary elements of the linear span can be read and
written.  The linear-space arithmetic (sums, multiples, twists, Frobenius
rescaling) lives on BettiTuple; BettiDiagram is the interchange format.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .laurent import (
    LaurentPoly,
    _check_nvars,
    _format_coeff,
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
    """An (n+1)-tuple of homogeneous Betti polynomials in n variables.

    A vector of the HK space: sums, differences, multiples by scalars and
    Laurent polynomials, twists and Frobenius rescaling act componentwise.
    """

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

    def purity(self):
        return _profile_from_degrees(self.degrees)

    def to_diagram(self):
        return BettiDiagram._trusted(self.nvars, self.components)


class BettiDiagram:
    """The n+1 Betti polynomials of a diagram, which need not be homogeneous.

    The checked interchange form of a diagram (JSON, tables, collapse);
    to_tuple gives the BettiTuple that does the arithmetic.
    """

    __slots__ = ("nvars", "components")

    def __init__(self, nvars, entries=()):
        _check_nvars(nvars)
        items = entries.items() if isinstance(entries, Mapping) else entries
        tables = [{} for _ in range(nvars + 1)]
        for (i, exp), mult in items:
            exp = tuple(exp)
            if type(i) is not int:
                raise ValueError(f"homological index {i!r} must be an integer")
            if not _is_int_vector(exp):
                raise ValueError(f"multidegree {exp} must consist of integers")
            _add_entry(tables, nvars, i, exp, _norm_coeff(mult))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "components", tuple(
            LaurentPoly._trusted(nvars, t) for t in tables))

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def _trusted(cls, nvars, components):
        """Wrap polynomials the library built itself, without re-checking them.

        The caller guarantees that components is a tuple of nvars + 1
        LaurentPoly values in nvars variables.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "components", components)
        return self

    @property
    def entries(self):
        """Read-only view {(i, multidegree): multiplicity}, built on access."""
        return MappingProxyType({
            (i, exp): m
            for i, f in enumerate(self.components)
            for exp, m in f.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    __hash__ = None

    def __repr__(self):
        return f"BettiDiagram(nvars={self.nvars}, entries={len(self.entries)})"

    def __rmul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return BettiDiagram._trusted(
            self.nvars, tuple(c * f for f in self.components))

    def collapse_total(self):
        """Sum multiplicities over multidegrees of equal total degree."""
        table = {}
        for i, f in enumerate(self.components):
            for exp, m in f.terms.items():
                key = (i, sum(exp))
                acc = table.get(key, 0) + m
                if acc:
                    table[key] = acc
                else:
                    table.pop(key, None)
        return table

    def purity(self):
        return _purity(self.components)

    def to_tuple(self):
        """Betti polynomial tuple of a pure (or empty) diagram."""
        profile = _purity(self.components)
        if profile.witness is not None:
            raise NotPureError(profile.witness)
        return BettiTuple(self.components)

    # -- interchange formats ------------------------------------------------

    def to_json(self):
        return {
            "nvars": self.nvars,
            "entries": [
                {"i": i, "deg": list(exp), "mult": _format_coeff(m)}
                for i, f in enumerate(self.components)
                for exp, m in f.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "nvars" not in obj or "entries" not in obj:
            raise ValueError("diagram JSON must have 'nvars' and 'entries'")
        nvars = _json_int(obj["nvars"], "'nvars'")
        _check_nvars(nvars)
        if not isinstance(obj["entries"], list):
            raise ValueError("'entries' must be a list")
        tables = [{} for _ in range(nvars + 1)]
        for item in obj["entries"]:
            try:
                i, deg, mult = item["i"], item["deg"], item["mult"]
            except (KeyError, TypeError):
                raise ValueError(
                    "each diagram entry must have 'i', 'deg' and 'mult'") from None
            _add_entry(tables, nvars, _json_int(i, "'i'"),
                       _json_ints(deg, "'deg'"), _json_coeff(mult))
        return cls._trusted(
            nvars, tuple(LaurentPoly._trusted(nvars, t) for t in tables))

    def format_table(self):
        """Group by homological index, multidegrees in descending lex order."""
        lines = []
        for i, f in enumerate(self.components):
            cells = []
            for exp, m in f.sorted_terms():
                cell = "(" + ",".join(str(x) for x in exp) + ")"
                if m != 1:
                    cell += f"*{_format_coeff(m)}"
                cells.append(cell)
            body = " ".join(cells) if cells else "-"
            rank = sum(f.terms.values()) if f else 0
            lines.append(f"i={i}  rank={_format_coeff(rank)}  {body}")
        return "\n".join(lines)


def _add_entry(tables, nvars, i, exp, mult):
    """Range-check one entry and add its normalized multiplicity into tables[i]."""
    if not 0 <= i <= nvars:
        raise ValueError(f"homological index {i} out of range 0..{nvars}")
    if len(exp) != nvars:
        raise ValueError(f"multidegree {exp} has wrong length")
    table = tables[i]
    if exp in table:
        mult = _norm_coeff(table[exp] + mult)
    if mult:
        table[exp] = mult
    else:
        table.pop(exp, None)


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


def _betti_polys(B):
    """The polynomials of a BettiTuple or of a nonempty plain sequence."""
    polys = tuple(B)
    if not polys:
        raise ValueError("need at least one Betti polynomial")
    return polys


def check_hk(B):
    """Herzog-Kuhl check for a BettiTuple (or plain sequence of polynomials).

    For each k the alternating sum of the polynomials must vanish at
    t_k = 1; the failure report carries the first failing k and the
    nonzero residual.
    """
    polys = _betti_polys(B)
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
    polys = _betti_polys(B)
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
