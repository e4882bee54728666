"""Characters on words and the canonical morphisms into truncated QSym.

A character is one of the four monotonicity kinds (``le``, ``ge``, ``lt``,
``gt``), sending a word to ``t^len`` when the whole word satisfies the
comparison and to zero otherwise, or a convolution pair such as
``('gt', 'le')`` built from the cut coproduct.

The induced morphism sends a word to the sum over compositions of its
length of the character's block coefficients times monomial functions.
For the four basic kinds this collapses to a single fundamental function
indexed by the violation set; for the four peak-style convolutions it
collapses to a peak function indexed by the peak or valley set.

Images of classes and linear combinations therefore depend on one bit
mask per word: the violation mask for a basic kind, the peak mask (read
off a violation mask) for a peak convolution.  Words are binned by length
and mask, and each length's histogram is expanded into monomial
coefficients indexed by cut mask with one subset-sum (zeta) transform:
the transform itself for a fundamental, the transform read at the
thickened cut set and scaled by ``2^l`` for a peak function.  The scans
read symmetry and positivity off the same per-length coefficient lists
(:func:`image_by_mask`).  Convolution pairs without a closed form fall
back to the generic per-word image.  Class images are truncated by
degree; their correctness rests on the relation engine's headroom
stability certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable

from .lincomb import LinComb
from .qsym import QSym, fundamental_L, omega_L, peak_K, qs_zero
from .words import (
    Anchored,
    Composition,
    Partition,
    Permutation,
    Word,
    all_reduced_words,
    ascents,
    comp_from_set,
    descent_letters,
    descents,
    grassmannian_permutation,
    identity_permutation,
    permutation_length,
    swap_values,
    weak_ascents,
    weak_descents,
)

BASIC_KINDS = ("le", "ge", "lt", "gt")

_COMPARE = {
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "gt": lambda a, b: a > b,
}

# positions where a block may NOT be cut-free, per kind
_VIOLATIONS = {
    "le": descents,
    "ge": ascents,
    "lt": weak_descents,
    "gt": weak_ascents,
}

Character = str | tuple[str, str]


def parse_character(spec: str) -> Character:
    spec = spec.strip()
    if "-" in spec:
        a, _, b = spec.partition("-")
        if a in BASIC_KINDS and b in BASIC_KINDS:
            return (a, b)
    if spec in BASIC_KINDS:
        return spec
    raise ValueError(f"unknown character {spec!r}")


def format_character(char: Character) -> str:
    return char if isinstance(char, str) else f"{char[0]}-{char[1]}"


def _as_word(x) -> Word:
    if isinstance(x, Anchored):
        return x.word
    return tuple(x)


def is_monotone(w: Word, kind: str) -> bool:
    cmp = _COMPARE[kind]
    return all(cmp(w[i], w[i + 1]) for i in range(len(w) - 1))


def character_poly(char: Character, x) -> dict[int, Fraction]:
    """The image of a word under the character, as ``{degree: coeff}``.

    Convolutions are evaluated through the cut coproduct: the sum over
    two-block cuts of the product of the factors' values."""
    w = _as_word(x)
    if isinstance(char, str):
        return {len(w): Fraction(1)} if is_monotone(w, char) else {}
    first, second = char
    count = sum(
        1
        for i in range(len(w) + 1)
        if is_monotone(w[:i], first) and is_monotone(w[i:], second)
    )
    return {len(w): Fraction(count)} if count else {}


def character_on_lincomb(char: Character, x: LinComb) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for key, coeff in x.items():
        for d, c in character_poly(char, key).items():
            out[d] = out.get(d, Fraction(0)) + coeff * c
    return {d: c for d, c in out.items() if c}


def character_coefficient(char: Character, x, alpha: Composition) -> Fraction:
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
    out = Fraction(1)
    pos = 0
    for part in alpha:
        block = w[pos : pos + part]
        pos += part
        value = character_poly(char, block).get(part, Fraction(0))
        if not value:
            return Fraction(0)
        out *= value
    return out


def word_image(w: Word, char: Character, degree: int | None = None) -> QSym:
    """The morphism image of a single (packed or anchored) word."""
    w = _as_word(w)
    n = len(w)
    if degree is None:
        degree = n
    if n > degree:
        return qs_zero(degree)
    if isinstance(char, str):
        return fundamental_L(
            comp_from_set(n, _VIOLATIONS[char](w)), degree
        )
    terms = {}
    for alpha in _compositions_of(n):
        c = character_coefficient(char, w, alpha)
        if c:
            terms[alpha] = c
    return QSym(degree, terms)


@lru_cache(maxsize=None)
def _compositions_of(n: int) -> tuple[Composition, ...]:
    """Compositions of ``n`` indexed by the mask of their cut set (cut
    ``i`` is bit ``i - 1``), the order :func:`compositions` yields."""
    from .words import compositions

    return tuple(compositions(n))


# The peak statistic of each closed form, read off the violation mask V of
# a basic kind: position i >= 2 is a peak when i is in V and i - 1 is not
# (``True``), or when i - 1 is in V and i is not (``False``).  The first
# two are the peak and valley sets; the two reversed kinds give the peak
# and valley sets of the reversed word, flattened.
_PEAK_FORMS = {
    ("gt", "le"): ("le", True),
    ("lt", "ge"): ("ge", True),
    ("ge", "lt"): ("ge", False),
    ("le", "gt"): ("le", False),
}


def _peak_mask(w: Word, char: tuple[str, str]) -> int:
    """Cut mask of the peak composition indexing the closed form."""
    kind, starts = _PEAK_FORMS[char]
    return _peak_of_violation(_violation_mask(w, kind), len(w), starts)


def _peak_of_violation(v: int, n: int, starts: bool) -> int:
    """The peak mask of a word of length ``n`` with violation mask ``v``."""
    if starts:
        return v & ~(v << 1) & ~1
    return (v << 1) & ~v & ((1 << max(n - 1, 0)) - 1)


def peak_image_closed_form(w: Word, char: tuple[str, str], degree: int | None = None) -> QSym:
    """Closed form for the four peak-style convolutions: a single peak
    function whose index is read off the peak or valley set of the word
    (of its reversal for the two reversed kinds)."""
    if char not in _PEAK_FORMS:
        raise ValueError(f"no closed form for {char}")
    w = _as_word(w)
    n = len(w)
    return peak_K(_compositions_of(n)[_peak_mask(w, char)], n if degree is None else degree)


def _violation_mask(w: Word, kind: str) -> int:
    """The violation set of a basic kind as a bit mask: position ``i`` is
    bit ``i - 1``, the bit order of :func:`_compositions_of`."""
    mask = 0
    for i in _VIOLATIONS[kind](w):
        mask |= 1 << (i - 1)
    return mask


def _subset_sums(values: list) -> None:
    """Zeta transform in place over a table indexed by masks of ``[n-1]``:
    ``values[m]`` becomes the sum over submasks of ``m``.  On fundamental
    coefficients by violation mask this gives the monomial coefficients."""
    for bit in range(len(values).bit_length() - 1):
        step = 1 << bit
        for mask in range(len(values)):
            if mask & step:
                values[mask] += values[mask ^ step]


def image_by_mask(
    weighted: Iterable[tuple[Word, object]], char: Character, n: int
) -> list:
    """Monomial coefficients of ``sum c * image(w)`` over ``(w, c)`` pairs
    of words of length ``n``, as a list indexed by cut mask (the order of
    :func:`_compositions_of`).

    A closed form bins the words by violation or peak mask and expands the
    histogram with one zeta transform ``z``.  A fundamental ``L_V`` is the
    sum of ``M_S`` over ``S`` containing ``V``, so ``z`` is the answer; a
    peak function ``K_P`` is ``2^l(S)`` times the sum of ``M_S`` over ``S``
    whose cut set, thickened by one, contains ``P``, so the coefficient at
    ``S`` is ``2^l(S) * z[(S | S << 1) & full]``.  A pair without a closed
    form sums its members' generic images."""
    values = [0] * (1 << max(n - 1, 0))
    if isinstance(char, str) or char in _PEAK_FORMS:
        stat = _violation_mask if isinstance(char, str) else _peak_mask
        for w, c in weighted:
            values[stat(w, char)] += c
        return image_of_histogram(values, char, n)
    position = {alpha: m for m, alpha in enumerate(_compositions_of(n))}
    for w, c in weighted:
        for beta, x in word_image(w, char, n).terms.items():
            values[position[beta]] += c * x
    return values


def image_of_histogram(values: list, char: Character, n: int) -> list:
    """Monomial coefficients by cut mask of the image of words of length
    ``n`` of a closed-form character, from ``values[m]``, the weight of the
    words whose violation (basic kind) or peak mask is ``m``.  The list is
    transformed in place."""
    _subset_sums(values)
    if isinstance(char, str):
        return values
    full = len(values) - 1
    return [
        ((2 << s.bit_count()) if n else 1) * values[(s | s << 1) & full]
        for s in range(len(values))
    ]


def _image_terms(
    weighted: Iterable[tuple[Word, object]], char: Character, degree: int
) -> dict[Composition, object]:
    """Monomial coefficients of ``sum c * image(w)`` over ``(w, c)`` pairs,
    words longer than ``degree`` contributing nothing.

    The pairs are split by length and each length goes through
    :func:`image_by_mask` once, so coefficients stay plain ints (or the
    weights' type) until the caller builds a single QSym."""
    by_length: dict[int, list] = {}
    for w, c in weighted:
        w = _as_word(w)
        if len(w) <= degree:
            by_length.setdefault(len(w), []).append((w, c))
    terms: dict[Composition, object] = {}
    for n, pairs in by_length.items():
        terms.update(
            (alpha, c)
            for alpha, c in zip(_compositions_of(n), image_by_mask(pairs, char, n))
            if c
        )
    return terms


def class_image(
    members: Iterable[Word], char: Character, degree: int
) -> QSym:
    """Sum of member images, truncated: members longer than the degree
    bound contribute nothing."""
    return QSym(degree, _image_terms(zip(members, repeat(1)), char, degree))


def lincomb_image(x: LinComb, char: Character, degree: int) -> QSym:
    return QSym(degree, _image_terms(x.items(), char, degree))


# --- multi-fundamental functions ------------------------------------------


def multi_fundamental(alpha: Composition, degree: int) -> QSym:
    """Truncation of the chain-indexed fundamental analogue.

    Chains of nonempty variable sets weakly ordered slotwise (strictly at
    the cut set) contribute their exponent patterns; with exact contents
    the sets are forced to be intervals tiling an initial variable range,
    sharing at most endpoints across weak boundaries.  Enumeration runs
    over those tilings.
    """
    alpha = tuple(alpha)
    n = sum(alpha)  # number of chain slots
    strict_after = set(_comp_cut_positions(alpha))
    terms: dict[Composition, int] = {}
    if n == 0:
        return QSym(degree, {(): 1})

    def rec(slot: int, beta: list[int], total: int) -> None:
        if slot == n:
            terms[tuple(beta)] = terms.get(tuple(beta), 0) + 1
            return
        may_share = slot > 0 and slot not in strict_after
        for share in ((False, True) if may_share else (False,)):
            base_total = total
            if share:
                beta[-1] += 1
                base_total += 1
                if base_total > degree:
                    beta[-1] -= 1
                    continue
                min_new = 0
            else:
                min_new = 1
            for new in range(min_new, degree - base_total + 1):
                beta.extend([1] * new)
                rec(slot + 1, beta, base_total + new)
                del beta[len(beta) - new :]
            if share:
                beta[-1] -= 1

    rec(0, [], 0)
    return QSym(degree, {b: Fraction(c) for b, c in terms.items()})


def _comp_cut_positions(alpha: Composition) -> list[int]:
    out, total = [], 0
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return out


# --- Hecke words and the stable family -------------------------------------


@lru_cache(maxsize=None)
def hecke_words(pi: Permutation, length: int) -> tuple[Word, ...]:
    """All words of the given length whose bounded-transposition product
    is ``pi``, by peeling the last (last-acting) letter."""
    if length == 0:
        return ((),) if pi == identity_permutation(len(pi)) else ()
    out = []
    for a in descent_letters(pi):
        shorter = swap_values(pi, a)
        for prefix in hecke_words(pi, length - 1):
            out.append(prefix + (a,))
        for prefix in hecke_words(shorter, length - 1):
            out.append(prefix + (a,))
    return tuple(out)


def grothendieck_family(pi: Permutation, degree: int) -> dict[str, QSym]:
    """The three stable series attached to a permutation's Hecke class.

    ``K`` is the image under the strictly-decreasing character, ``J`` under
    the weakly-increasing one, and ``G`` twists ``K`` by a sign per degree
    above the permutation length.  ``J = omega(K)`` is asserted.
    """
    ell = permutation_length(pi)
    words = [(w, 1) for d in range(ell, degree + 1) for w in hecke_words(pi, d)]
    k_image = QSym(degree, _image_terms(words, "gt", degree))
    j_image = QSym(degree, _image_terms(words, "le", degree))
    if j_image != omega_L(k_image):
        raise AssertionError("weak and signless stable images are not omega-related")
    g_terms = {
        alpha: c * (-1) ** (ell + sum(alpha)) for alpha, c in k_image.terms.items()
    }
    return {"K": k_image, "J": j_image, "G": QSym(degree, g_terms)}


def grassmannian_stable_family(lam: Partition, degree: int) -> dict[str, QSym]:
    return grothendieck_family(grassmannian_permutation(lam), degree)


def stanley_symmetric_bottom(pi: Permutation) -> QSym:
    """Degree-``length`` part of the stable family from reduced words only."""
    ell = permutation_length(pi)
    return QSym(ell, _image_terms(zip(all_reduced_words(pi), repeat(1)), "gt", ell))


# --- identities used as cross-checks ---------------------------------------


def nsym_generator_image(n: int, char: Character, degree: int | None = None) -> QSym:
    """Image of the one-letter-repeated packed word of length ``n``."""
    return word_image((1,) * n, char, degree)
