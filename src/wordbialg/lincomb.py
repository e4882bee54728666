"""Sparse formal linear combinations with exact rational coefficients.

Keys may be any hashable, comparable basis labels (words, anchored words,
tensor pairs, compositions).  Zero coefficients are never stored, so
equality is support-and-coefficient equality.  A coefficient is a plain
``int`` unless a division made it fractional, and only then a
``Fraction``; every structure constant of the word bialgebras is an
integer, so their arithmetic never builds a ``Fraction``.  :mod:`qsym`
keeps its coefficients by the same convention, through :func:`_exact`
and :func:`_add_into`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator


def format_scalar(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_scalar(s: str) -> Fraction:
    return Fraction(s)


def _exact(x):
    """``x`` as an ``int`` when it is whole, else as a ``Fraction``."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _add_into(out: dict, key, c) -> None:
    """``out[key] += c``, dropping a zero sum and keeping whole sums ``int``."""
    acc = out.get(key, 0) + c
    if not acc:
        out.pop(key, None)
    elif type(acc) is int or acc.denominator != 1:
        out[key] = acc
    else:
        out[key] = acc.numerator


class LinComb:
    """A finitely supported map from basis keys to nonzero rationals
    (``int`` when whole, ``Fraction`` otherwise)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, object]] | dict = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            if coeff:
                _add_into(data, key, _exact(coeff))
        self._terms = data

    @classmethod
    def _of(cls, terms: dict) -> "LinComb":
        """Wrap a dict that already holds only nonzero, normalised
        coefficients."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls) -> "LinComb":
        return cls._of({})

    @classmethod
    def basis(cls, key: Hashable, coeff=1) -> "LinComb":
        coeff = _exact(coeff)
        return cls._of({key: coeff} if coeff else {})

    def coeff(self, key: Hashable) -> int | Fraction:
        return self._terms.get(key, 0)

    def items(self) -> Iterator[tuple[Hashable, int | Fraction]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Hashable, int | Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: repr(kv[0]))

    def support(self) -> set:
        return set(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            _add_into(out, key, coeff)
        return LinComb._of(out)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = _exact(c)
        if not c:
            return LinComb.zero()
        return LinComb._of(
            {key: _exact(c * coeff) for key, coeff in self._terms.items()}
        )

    def tensor(self, other: "LinComb") -> "LinComb":
        """Tensor product; keys of the result are ordered pairs of keys."""
        return LinComb._of(
            {
                (k1, k2): _exact(c1 * c2)
                for k1, c1 in self._terms.items()
                for k2, c2 in other._terms.items()
            }
        )

    def apply(self, f: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map ``key -> LinComb``."""
        out: dict = {}
        for key, coeff in self._terms.items():
            for k2, c2 in f(key)._terms.items():
                _add_into(out, k2, coeff * c2)
        return LinComb._of(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        bits = [f"{format_scalar(c)}*{k!r}" for k, c in self.sorted_items()]
        return "LinComb(" + " + ".join(bits) + ")"
