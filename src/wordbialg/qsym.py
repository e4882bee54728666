"""Degree-truncated quasi-symmetric and symmetric function arithmetic.

Everything is stored in the monomial basis: a :class:`QSym` maps
compositions to exact rationals and carries the truncation degree up to
which its coefficients are meaningful.  Coefficients follow
:mod:`lincomb`'s convention: a plain ``int`` when whole, a ``Fraction``
only where a division made one (the Schur-Q pivot ``2^l(lam)``).
Fundamental, peak, and the symmetric bases (monomial, Schur, Schur-Q) are
conversion layers.  Every change between the monomial and fundamental
bases, and the character kernel's expansion, is one subset transform per
degree over a table by cut mask (:func:`_subset_transform`): ``d 2^d``
for degree ``d``, not one term per refinement; a peak function reads it at
the thickened cut sets (:func:`_peak_expand`).

Multiplication is the overlapping shuffle of compositions, which agrees
with multiplying the underlying power series.  The Schur and Schur-Q
bases share one path: a basis element's monomial coefficient at each
partition is a tableau count (semistandard, or marked shifted), spread
over that partition's rearrangements, and both expansions invert by
triangular elimination along reverse-lexicographic (dominance-compatible)
order.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from .lincomb import _add_into, _exact, format_scalar
from .words import (
    Composition,
    Partition,
    comp_sort,
    comp_transpose,
    compositions,
    is_peak_composition,
    is_strict_partition,
    multiset_permutations,
    partitions,
)


class QSym:
    """A quasi-symmetric function known up to total degree ``degree``."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[Composition, object] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for alpha, c in items:
            if c and sum(alpha) <= degree:
                _add_into(clean, tuple(alpha), _exact(c))
        self.degree = degree
        self.terms = clean

    def coeff(self, alpha: Composition) -> int | Fraction:
        return self.terms.get(tuple(alpha), 0)

    def homogeneous(self, d: int) -> "QSym":
        return QSym(self.degree, {a: c for a, c in self.terms.items() if sum(a) == d})

    def __add__(self, other: "QSym") -> "QSym":
        degree = min(self.degree, other.degree)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            _add_into(out, alpha, c)
        return QSym(degree, out)

    def __sub__(self, other: "QSym") -> "QSym":
        return self + other.scale(-1)

    def scale(self, c) -> "QSym":
        c = _exact(c)
        return QSym(self.degree, {a: c * x for a, x in self.terms.items()})

    def __mul__(self, other: "QSym") -> "QSym":
        degree = min(self.degree, other.degree)
        out: dict = {}
        for alpha, ca in self.terms.items():
            for beta, cb in other.terms.items():
                if sum(alpha) + sum(beta) > degree:
                    continue
                for gamma, mult in quasi_shuffle(alpha, beta).items():
                    _add_into(out, gamma, ca * cb * mult)
        return QSym(degree, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSym):
            return NotImplemented
        d = min(self.degree, other.degree)
        return {a: c for a, c in self.terms.items() if sum(a) <= d} == {
            a: c for a, c in other.terms.items() if sum(a) <= d
        }

    def __repr__(self) -> str:
        if not self.terms:
            return f"QSym<{self.degree}>(0)"
        bits = [f"{format_scalar(c)}*M{a}" for a, c in sorted(self.terms.items())]
        return f"QSym<{self.degree}>(" + " + ".join(bits) + ")"


class SymExpansion:
    """Coefficients of a symmetric function in a named partition basis."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms: Mapping[Partition, object] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.basis = basis
        self.degree = degree
        self.terms = {tuple(lam): _exact(c) for lam, c in items if c}

    def coeff(self, lam: Partition) -> int | Fraction:
        return self.terms.get(tuple(lam), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpansion):
            return NotImplemented
        return (self.basis, self.terms) == (other.basis, other.terms)

    def __repr__(self) -> str:
        bits = [f"{format_scalar(c)}*{self.basis}{l}" for l, c in sorted(self.terms.items())]
        return f"SymExpansion[{self.basis}]<{self.degree}>(" + (" + ".join(bits) or "0") + ")"


@dataclass(frozen=True)
class PositivityCertificate:
    basis: str
    expansion: SymExpansion
    nonnegative: bool
    negative_terms: tuple


@lru_cache(maxsize=None)
def quasi_shuffle(alpha: Composition, beta: Composition) -> dict:
    """Overlapping shuffle of two compositions, with multiplicities."""
    if not alpha:
        return {beta: 1}
    if not beta:
        return {alpha: 1}
    out: dict[Composition, int] = {}

    def absorb(head: Composition, tail: dict) -> None:
        for gamma, mult in tail.items():
            key = head + gamma
            out[key] = out.get(key, 0) + mult

    absorb((alpha[0],), quasi_shuffle(alpha[1:], beta))
    absorb((beta[0],), quasi_shuffle(alpha, beta[1:]))
    absorb((alpha[0] + beta[0],), quasi_shuffle(alpha[1:], beta[1:]))
    return out


def qs_zero(degree: int) -> QSym:
    return QSym(degree, {})


def qs_one(degree: int) -> QSym:
    return QSym(degree, {(): 1})


def monomial(alpha: Composition, degree: int | None = None) -> QSym:
    alpha = tuple(alpha)
    if degree is None:
        degree = sum(alpha)
    if sum(alpha) > degree:
        raise ValueError(f"|{alpha}| exceeds truncation degree {degree}")
    return QSym(degree, {alpha: 1})


@lru_cache(maxsize=None)
def _compositions_of(n: int) -> tuple[Composition, ...]:
    """Compositions of ``n`` indexed by the mask of their cut set (cut
    ``i`` is bit ``i - 1``), the order :func:`compositions` yields."""
    return tuple(compositions(n))


def _subset_transform(values: list, op=operator.add) -> None:
    """Zeta transform in place over a table indexed by masks of ``[n-1]``:
    ``values[m]`` becomes the sum over submasks of ``m``; with
    ``operator.sub``, its inverse, the Möbius transform.  ``L_S`` is the
    sum of ``M_T`` over ``T`` containing ``S``, so zeta takes fundamental
    coefficients by cut mask to monomial ones, and Möbius back.  Each bit
    is one pass of slice maps: one strided slice per offset or one
    contiguous slice per block, whichever are fewer."""
    size = len(values)
    step = 1
    while step < size:
        span = 2 * step
        if step * span < size:
            for j in range(step, span):
                values[j::span] = map(op, values[j::span], values[j - step :: span])
        else:
            for j in range(step, size, span):
                values[j : j + step] = map(op, values[j : j + step], values[j - step : j])
        step = span


def _cut_mask(alpha: Composition) -> int:
    """Cut ``i`` of a composition as bit ``i - 1``: its index in
    :func:`_compositions_of`."""
    return sum(1 << (t - 1) for t in itertools.accumulate(alpha[:-1]))


def _peak_expand(values: list, n: int) -> list:
    """Monomial coefficients by cut mask of ``sum c_P K_P`` from the table
    of ``c_P`` by mask, zeta-transformed in place: ``K_P`` sums ``2^l(S)
    M_S`` over ``S`` whose cut set, thickened by one, contains ``P``."""
    _subset_transform(values)
    full = len(values) - 1
    return [
        ((2 << s.bit_count()) if n else 1) * values[(s | s << 1) & full]
        for s in range(len(values))
    ]


def _change_basis(terms, op) -> list:
    """``(composition, coefficient)`` pairs moved between the F and M bases,
    zeros included: each size's coefficients as one table by cut mask,
    Möbius-transformed (``operator.sub``) or zeta-transformed (``add``)."""
    tables: dict[int, list] = {}
    for alpha, c in terms:
        n = sum(alpha)
        if n not in tables:
            tables[n] = [0] * (1 << max(n - 1, 0))
        tables[n][_cut_mask(alpha)] += c
    out: list = []
    for n, table in tables.items():
        _subset_transform(table, op)
        out += zip(_compositions_of(n), table)
    return out


def to_fundamental(f: QSym) -> dict[Composition, int | Fraction]:
    """Coefficients in the fundamental basis."""
    pairs = _change_basis(f.terms.items(), operator.sub)
    return {alpha: _exact(c) for alpha, c in pairs if c}


def from_fundamental(coeffs: Mapping[Composition, object], degree: int) -> QSym:
    """The function with the given fundamental coefficients."""
    kept = ((tuple(a), c) for a, c in coeffs.items() if sum(a) <= degree)
    return QSym(degree, _change_basis(kept, operator.add))


def fundamental_L(alpha: Composition, degree: int | None = None) -> QSym:
    """Sum of ``M_beta`` over refinements ``beta`` of ``alpha``."""
    f = monomial(alpha, degree)
    return from_fundamental(f.terms, f.degree)


def peak_K(alpha: Composition, degree: int | None = None) -> QSym:
    """Peak function: ``sum 2^{l(beta)} M_beta`` over ``beta`` whose cut set,
    thickened by one, covers the cut set of ``alpha``."""
    alpha = tuple(alpha)
    if not is_peak_composition(alpha):
        raise ValueError(f"{alpha} is not a peak composition")
    n = sum(alpha)
    if degree is None:
        degree = n
    if n > degree:
        raise ValueError(f"|{alpha}| exceeds truncation degree {degree}")
    values = [0] * (1 << max(n - 1, 0))
    values[_cut_mask(alpha)] = 1
    return QSym(degree, zip(_compositions_of(n), _peak_expand(values, n)))


@lru_cache(maxsize=None)
def _rearrangements(lam: Partition) -> tuple[Composition, ...]:
    return tuple(multiset_permutations(lam))


def is_symmetric(f: QSym) -> bool:
    """Monomial coefficients must be constant on sorting fibers, degree-wise."""
    seen: set[Partition] = set()
    for alpha, coeff in f.terms.items():
        lam = comp_sort(alpha)
        if lam in seen:
            continue
        seen.add(lam)
        if any(f.coeff(beta) != coeff for beta in _rearrangements(lam)):
            return False
    return True


def to_monomial_sym(f: QSym) -> SymExpansion:
    if not is_symmetric(f):
        raise ValueError("not a symmetric function within the truncation")
    terms = {a: c for a, c in f.terms.items() if tuple(a) == comp_sort(a)}
    return SymExpansion("m", f.degree, terms)


def monomial_sym(lam: Partition, degree: int | None = None) -> QSym:
    lam = tuple(lam)
    if degree is None:
        degree = sum(lam)
    return QSym(degree, dict.fromkeys(_rearrangements(lam), 1))


def homogeneous_h(n: int, degree: int | None = None) -> QSym:
    return fundamental_L((n,) if n else (), degree)


# --- Schur functions ----------------------------------------------------


@lru_cache(maxsize=None)
def kostka(lam: Partition, content: Composition) -> int:
    """Number of semistandard tableaux of shape ``lam`` and given content,
    by peeling horizontal strips of the largest letter."""
    if sum(lam) != sum(content):
        return 0
    if not content:
        return 1 if not lam else 0
    size = content[-1]
    return sum(
        kostka(mu, content[:-1]) for mu in _horizontal_strip_removals(lam, size)
    )


@lru_cache(maxsize=None)
def _horizontal_strip_removals(lam: Partition, size: int) -> tuple[Partition, ...]:
    """Shapes ``mu`` with ``lam/mu`` a horizontal strip of ``size`` cells."""
    rows = len(lam)
    out = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == rows:
            if remaining == 0:
                out.append(tuple(a for a in acc if a))
            return
        lower = lam[i + 1] if i + 1 < rows else 0
        for new in range(max(lower, lam[i] - remaining), lam[i] + 1):
            acc.append(new)
            rec(i + 1, remaining - (lam[i] - new), acc)
            acc.pop()

    rec(0, size, [])
    return tuple(out)


def schur(lam: Partition, degree: int | None = None) -> QSym:
    """Schur function in the monomial basis via Kostka numbers."""
    return _basis_element(lam, "s", degree)


def _triangular_solve(
    terms: Mapping[Partition, object], basis: str
) -> dict[Partition, object]:
    """Coefficients of the symmetric function with monomial expansion
    ``terms`` in the Schur (``"s"``) or Schur-Q (``"Q"``) basis.

    Elimination runs from the largest residual partition down, since each
    basis element has only smaller monomials besides its own; a largest
    one that indexes no basis element (non-strict, for Schur-Q) can never
    cancel, so the element is outside the span.  Exact: ints stay ints
    while the Schur-Q pivot ``2^l(lam)`` divides, Fractions where not."""
    residual = {lam: c for lam, c in terms.items() if c}
    coeffs: dict[Partition, object] = {}
    while residual:
        lam = max(residual)
        c = residual[lam]
        if basis == "Q":
            if not is_strict_partition(lam):
                raise ValueError(
                    f"element is not in the span of the Q basis; residual at {lam}"
                )
            pivot = 1 << len(lam)
            c = c // pivot if isinstance(c, int) and not c % pivot else Fraction(c, pivot)
        coeffs[lam] = c
        for mu, x in _in_m(lam, basis).items():
            _add_into(residual, mu, -c * x)
    return coeffs


@lru_cache(maxsize=None)
def _in_m(lam: Partition, basis: str) -> dict[Partition, int]:
    """Monomial coefficients, by partition, of the Schur (``"s"``) or
    Schur-Q (``"Q"``) function of ``lam``: tableau counts by content."""
    count = kostka if basis == "s" else marked_shifted_count
    return {mu: c for mu in partitions(sum(lam)) if (c := count(lam, mu))}


def _basis_element(lam: Partition, basis: str, degree: int | None) -> QSym:
    """The basis element of ``lam``, its coefficient at each partition
    spread over that partition's rearrangements."""
    lam = tuple(lam)
    return QSym(
        sum(lam) if degree is None else degree,
        (
            (alpha, c)
            for mu, c in _in_m(lam, basis).items()
            for alpha in _rearrangements(mu)
        ),
    )


def _expand(f: QSym, basis: str) -> SymExpansion:
    return SymExpansion(
        basis, f.degree, _triangular_solve(to_monomial_sym(f).terms, basis)
    )


def _positive(f: QSym, basis: str) -> PositivityCertificate:
    expansion = _expand(f, basis)
    negative = tuple((lam, c) for lam, c in sorted(expansion.terms.items()) if c < 0)
    return PositivityCertificate(basis, expansion, not negative, negative)


def schur_expand(f: QSym) -> SymExpansion:
    return _expand(f, "s")


def schur_positive(f: QSym) -> PositivityCertificate:
    return _positive(f, "s")


# --- Schur Q-functions ---------------------------------------------------


@lru_cache(maxsize=None)
def marked_shifted_count(lam: Partition, content: Composition) -> int:
    """Number of marked shifted tableaux of strict shape ``lam`` with the
    given content (primed and unprimed copies counted together).

    Entries come from the ordered alphabet 1' < 1 < 2' < 2 < ...; rows and
    columns weakly increase, no primed letter repeats in a row, no unprimed
    letter repeats in a column.  The cells holding the largest letter form
    a strip ``lam / mu``, and each connected piece of the strip can be
    filled in exactly two ways (Macdonald, ch. III), so the count is the
    sum over those ``mu`` of ``2^pieces`` times the count of ``mu`` with
    the last letter removed.
    """
    if not is_strict_partition(lam):
        raise ValueError(f"{lam} is not strict")
    if sum(content) != sum(lam):
        return 0
    if not content:
        return 1
    total = 0
    for mu, pieces in _strips(tuple(lam), content[-1]):
        total += marked_shifted_count(mu, tuple(content[:-1])) << pieces
    return total


def _strips(lam: Partition, size: int) -> Iterator[tuple[Partition, int]]:
    """``(mu, pieces)`` for every strict ``mu`` inside ``lam`` such that the
    shifted skew shape ``lam / mu`` has ``size`` cells, no 2x2 block and no
    cell whose left and lower neighbours both lie in it; ``pieces`` counts
    its connected components."""
    for cut in itertools.product(*(range(part + 1) for part in lam)):
        mu = tuple(part for part in cut if part)
        if sum(lam) - sum(mu) != size or cut[: len(mu)] != mu:
            continue
        if not is_strict_partition(mu):
            continue
        cells = {
            (i, j) for i, (a, b) in enumerate(zip(lam, cut)) for j in range(i + b, i + a)
        }
        if any(
            (i + 1, j) in cells
            and ((i, j - 1) in cells or {(i, j + 1), (i + 1, j + 1)} <= cells)
            for i, j in cells
        ):
            continue
        pieces = 0
        while cells:
            pieces += 1
            stack = [cells.pop()]
            while stack:
                i, j = stack.pop()
                for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if cell in cells:
                        cells.remove(cell)
                        stack.append(cell)
        yield mu, pieces


def q_function(n: int, degree: int | None = None) -> QSym:
    """The doubled homogeneous generator: ``sum 2^{l(a)} M_a`` over ``a`` of ``n``."""
    if n == 0:
        return qs_one(degree if degree is not None else 0)
    return peak_K((n,), degree)


def schur_q(lam: Partition, degree: int | None = None) -> QSym:
    """Schur Q-function of a strict partition, in the monomial basis."""
    return _basis_element(lam, "Q", degree)


def schur_q_expand(f: QSym) -> SymExpansion:
    return _expand(f, "Q")


def schur_q_positive(f: QSym) -> PositivityCertificate:
    return _positive(f, "Q")


# --- involutions and substitution ----------------------------------------


def _map_fundamental(f: QSym, comp_map) -> QSym:
    coeffs = to_fundamental(f)
    return from_fundamental(
        {comp_map(alpha): c for alpha, c in coeffs.items()}, f.degree
    )


def omega_L(f: QSym) -> QSym:
    """The involution sending each fundamental to its transpose index."""
    return _map_fundamental(f, comp_transpose)


def substitute_geometric(f: QSym) -> QSym:
    """Substitute ``x_i -> x_i + x_i^2 + ...`` in every variable.

    Sends ``M_alpha`` to ``sum prod_j C(b_j - 1, a_j - 1) M_beta`` over
    same-length compositions ``beta >= alpha`` componentwise, truncated at
    the ambient degree.
    """
    out: dict = {}
    degree = f.degree
    for alpha, coeff in f.terms.items():
        for beta in _componentwise_dominating(alpha, degree):
            mult = math.prod(math.comb(b - 1, a - 1) for a, b in zip(alpha, beta))
            _add_into(out, beta, coeff * mult)
    return QSym(degree, out)


def _componentwise_dominating(alpha: Composition, degree: int):
    slack = degree - sum(alpha)
    if slack < 0:
        return
    parts = len(alpha)

    def rec(i: int, budget: int, acc: list[int]):
        if i == parts:
            yield tuple(acc)
            return
        for extra in range(budget + 1):
            acc.append(alpha[i] + extra)
            yield from rec(i + 1, budget - extra, acc)
            acc.pop()

    yield from rec(0, slack, [])


# --- coproduct and the canonical character --------------------------------


def coproduct_terms(f: QSym) -> dict[tuple[Composition, Composition], int | Fraction]:
    """Deconcatenation coproduct of compositions, extended linearly."""
    out: dict = {}
    for alpha, c in f.terms.items():
        for i in range(len(alpha) + 1):
            _add_into(out, (alpha[:i], alpha[i:]), c)
    return out


def canonical_character(f: QSym) -> dict[int, int | Fraction]:
    """Set ``x_1 = t`` and all other variables to zero; coefficients by degree."""
    out: dict = {}
    for alpha, c in f.terms.items():
        if len(alpha) <= 1:
            _add_into(out, sum(alpha), c)
    return out


# --- serialization --------------------------------------------------------


def qsym_to_json(f: QSym) -> dict:
    return {
        "degree": f.degree,
        "terms": [
            {"comp": list(alpha), "coeff": format_scalar(c)}
            for alpha, c in sorted(f.terms.items())
        ],
    }


def sym_expansion_to_json(e: SymExpansion) -> dict:
    return {
        "basis": e.basis,
        "degree": e.degree,
        "terms": [
            {"partition": list(lam), "coeff": format_scalar(c)}
            for lam, c in sorted(e.terms.items())
        ],
    }
