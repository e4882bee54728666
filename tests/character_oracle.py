"""Brute-force oracle for character images.

The character is evaluated on each block of each composition through the
cut coproduct itself (every cut of the block, every adjacent pair of
letters compared), in exact rationals and one word at a time.  Nothing
here reads a violation mask, so the library's mask kernel
(``wordbialg.characters``) is checked against an independent path.
``comp_flat`` is the composition map that relates the peak characters of
a word to those of its reverse; ``peak_terms`` lists the monomial terms of
a peak function one composition at a time.  ``descent_composition`` (the
fundamental index of a word), the index sets (``descents``, ``ascents``,
their weak forms, ``peaks`` and ``valleys``), ``all_reduced_words`` and
``strict_partitions`` (the Schur-Q indices) are the word, permutation and
partition helpers the tests share.
"""

from fractions import Fraction
from functools import lru_cache

from wordbialg.lincomb import LinComb
from wordbialg.qsym import QSym
from wordbialg.words import (
    Anchored,
    comp_to_set,
    compositions,
    descent_letters,
    is_peak_composition,
    partitions,
    swap_values,
)

KINDS = ("le", "ge", "lt", "gt")
ALL_CHARACTERS = list(KINDS) + [(a, b) for a in KINDS for b in KINDS]

_COMPARE = {
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "gt": lambda a, b: a > b,
}


def _as_word(x):
    return x.word if isinstance(x, Anchored) else tuple(x)


def is_monotone(w, kind) -> bool:
    cmp = _COMPARE[kind]
    return all(cmp(w[i], w[i + 1]) for i in range(len(w) - 1))


@lru_cache(maxsize=None)
def _value(char, w) -> int:
    """The character's coefficient of ``t^len(w)`` on the word ``w``."""
    if isinstance(char, str):
        return int(is_monotone(w, char))
    first, second = char
    return sum(
        1
        for i in range(len(w) + 1)
        if is_monotone(w[:i], first) and is_monotone(w[i:], second)
    )


def _blocks(char, w, alpha) -> int:
    """The product of the character's values on the blocks of ``w`` of
    lengths ``alpha``."""
    out, pos = 1, 0
    for part in alpha:
        out *= _value(char, w[pos : pos + part])
        pos += part
    return out


def character_poly(char, x) -> dict[int, Fraction]:
    """The image of a word under the character, as ``{degree: coeff}``.

    Convolutions are evaluated through the cut coproduct: the sum over
    two-block cuts of the product of the factors' values."""
    w = _as_word(x)
    value = _value(char, w)
    return {len(w): Fraction(value)} if value else {}


def character_on_lincomb(char, x: LinComb) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for key, coeff in x.items():
        for d, c in character_poly(char, key).items():
            out[d] = out.get(d, Fraction(0)) + coeff * c
    return {d: c for d, c in out.items() if c}


def character_coefficient(char, x, alpha) -> Fraction:
    """Coefficient of ``t^{a_1} (x) ... (x) t^{a_l}`` after iterating the cut
    coproduct and applying the character in every slot.

    Since each block contributes only in its own length, only the cut of
    the word into consecutive blocks of lengths ``alpha`` survives."""
    alpha = tuple(alpha)
    if isinstance(x, LinComb):
        return sum(
            (c * character_coefficient(char, k, alpha) for k, c in x.items()),
            Fraction(0),
        )
    w = _as_word(x)
    if sum(alpha) != len(w):
        return Fraction(0)
    return Fraction(_blocks(char, w, alpha))


@lru_cache(maxsize=None)
def _word_terms(char, w) -> dict:
    """The monomial coefficients of the image of ``w``; not to be mutated."""
    terms = {}
    for alpha in compositions(len(w)):
        c = _blocks(char, w, alpha)
        if c:
            terms[alpha] = c
    return terms


def oracle_image(x, char, degree=None) -> QSym:
    """The image of one word: its coefficient at every composition of its
    length, zero when the word is longer than ``degree``."""
    return oracle_sum([(x, 1)], char, len(_as_word(x)) if degree is None else degree)


def oracle_sum(weighted, char, degree) -> QSym:
    """``sum c * image(w)`` over ``(w, c)`` pairs, words longer than
    ``degree`` contributing nothing."""
    terms: dict = {}
    for x, c in weighted:
        w = _as_word(x)
        if len(w) <= degree:
            for alpha, value in _word_terms(char, w).items():
                terms[alpha] = terms.get(alpha, 0) + c * value
    return QSym(degree, terms)


def comp_flat(alpha):
    """Reverse ``alpha``, adding 1 to the new first part, subtracting 1 from the last."""
    if not is_peak_composition(alpha):
        raise ValueError(f"{alpha} is not a peak composition")
    if len(alpha) <= 1:
        return alpha
    rev = list(alpha[::-1])
    rev[0] += 1
    rev[-1] -= 1
    return tuple(p for p in rev if p > 0)


@lru_cache(maxsize=None)
def peak_terms(alpha):
    """The monomial terms of the peak function ``K_alpha``: ``2^l(beta)`` at
    every ``beta`` whose cut set, thickened by one, contains ``alpha``'s."""
    n = sum(alpha)
    cuts = comp_to_set(alpha)
    out = []
    for beta in compositions(n):
        spread = comp_to_set(beta)
        spread = spread | {i + 1 for i in spread}
        if cuts <= spread:
            out.append((beta, 2 ** len(beta)))
    return tuple(out)


def descents(w):
    """``{i in [n-1] : w_i > w_{i+1}}`` (positions 1-indexed)."""
    return {i for i in range(1, len(w)) if w[i - 1] > w[i]}


def weak_descents(w):
    return {i for i in range(1, len(w)) if w[i - 1] >= w[i]}


def ascents(w):
    return {i for i in range(1, len(w)) if w[i - 1] < w[i]}


def weak_ascents(w):
    return {i for i in range(1, len(w)) if w[i - 1] <= w[i]}


def peaks(w):
    """``{i in [2, n-1] : w_{i-1} <= w_i > w_{i+1}}``."""
    return {i for i in range(2, len(w)) if w[i - 2] <= w[i - 1] > w[i]}


def valleys(w):
    """``{i in [2, n-1] : w_{i-1} >= w_i < w_{i+1}}``."""
    return {i for i in range(2, len(w)) if w[i - 2] >= w[i - 1] < w[i]}


def all_reduced_words(pi):
    """Every reduced word of ``pi``, by peeling the last-acting letter."""
    if not descent_letters(pi):
        return [()]
    out = []
    for a in descent_letters(pi):
        for w in all_reduced_words(swap_values(pi, a)):
            out.append(w + (a,))
    return out


def descent_composition(w):
    """The composition of ``len(w)`` cut after every descent ``w[i] > w[i+1]``."""
    parts, run = [], 0
    for i, a in enumerate(w):
        run += 1
        if i + 1 == len(w) or a > w[i + 1]:
            parts.append(run)
            run = 0
    return tuple(parts)


def strict_partitions(n):
    return tuple(lam for lam in partitions(n) if len(set(lam)) == len(lam))
