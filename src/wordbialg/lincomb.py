"""Sparse formal linear combinations with exact rational coefficients.

Keys may be any hashable, comparable basis labels (words, anchored words,
tensor pairs, compositions).  Zero coefficients are never stored, so
equality is support-and-coefficient equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator


def format_scalar(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_scalar(s: str) -> Fraction:
    return Fraction(s)


class LinComb:
    """A finitely supported map from basis keys to nonzero rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, object]] | dict = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            acc = data.get(key, 0) + coeff
            if acc:
                data[key] = acc
            else:
                data.pop(key, None)
        self._terms = data

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def basis(cls, key: Hashable, coeff=1) -> "LinComb":
        return cls([(key, coeff)])

    def coeff(self, key: Hashable) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def items(self) -> Iterator[tuple[Hashable, Fraction]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Hashable, Fraction]]:
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
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        result = LinComb.zero()
        result._terms = out
        return result

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = Fraction(c)
        if not c:
            return LinComb.zero()
        result = LinComb.zero()
        result._terms = {key: c * coeff for key, coeff in self._terms.items()}
        return result

    def tensor(self, other: "LinComb") -> "LinComb":
        """Tensor product; keys of the result are ordered pairs of keys."""
        result = LinComb.zero()
        result._terms = {
            (k1, k2): c1 * c2
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
        }
        return result

    def apply(self, f: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map ``key -> LinComb``."""
        out: dict = {}
        for key, coeff in self._terms.items():
            for k2, c2 in f(key)._terms.items():
                acc = out.get(k2, 0) + coeff * c2
                if acc:
                    out[k2] = acc
                else:
                    out.pop(k2, None)
        result = LinComb.zero()
        result._terms = out
        return result

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        bits = [f"{format_scalar(c)}*{k!r}" for k, c in self.sorted_items()]
        return "LinComb(" + " + ".join(bits) + ")"

