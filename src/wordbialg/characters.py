"""Characters on words and the canonical morphisms into truncated QSym.

A character is one of the four monotonicity kinds (``le``, ``ge``, ``lt``,
``gt``), sending a word to ``t^len`` when the whole word satisfies the
comparison and to zero otherwise, or a convolution pair such as
``('gt', 'le')`` built from the cut coproduct.

The induced morphism sends a word to the sum over compositions of its
length of the character's block coefficients times monomial functions.
Every block coefficient is read off violation masks (bit ``i - 1`` set
when letters ``i`` and ``i + 1`` break a kind's comparison):

- a basic kind gives a single fundamental function indexed by its
  violation set;
- the four peak-style convolutions give a single peak function indexed
  by the peak or valley set, read off one violation mask;
- any other pair ``(a, b)`` allows ``max(0, f - l + 1)`` cuts in a block
  of length ``m``, where ``f`` is the block's first ``a``-violation (``m``
  if none) and ``l`` its last ``b``-violation (0 if none); a monomial
  coefficient is the product over the blocks.

So the image of a word depends on one statistic (:func:`_statistic`): the
violation mask, the peak mask, or the pair of violation masks.  Words are
binned by length and statistic, and each length's histogram is expanded
into monomial coefficients indexed by cut mask (:func:`image_of_histogram`):
one subset-sum (zeta) transform for a fundamental (the transform between
the M and F bases, :func:`qsym._subset_transform`), the expansion of
:func:`qsym.peak_K` (:func:`qsym._peak_expand`) for a peak function, the
block product for a pair of masks.  A violation mask is read off a word in
one pass of comparisons.  Words, classes, linear combinations and the
scans all go through that kernel.  Class images are truncated by degree;
their correctness rests on the relation engine's headroom stability
certificate.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress, repeat, tee
from typing import Iterable

from .lincomb import LinComb
from .qsym import QSym, _compositions_of, _peak_expand, _subset_transform, omega_L
from .words import (
    Anchored,
    Composition,
    Partition,
    Permutation,
    Word,
    comp_to_set,
    descent_letters,
    grassmannian_permutation,
    identity_permutation,
    permutation_length,
    swap_values,
)

BASIC_KINDS = ("le", "ge", "lt", "gt")

# letters w_i, w_(i+1) that break a kind's comparison, so that a block may
# not be cut-free at position i: descents, ascents, weak descents, weak ascents
_VIOLATES = {"le": operator.gt, "ge": operator.lt, "lt": operator.ge, "gt": operator.le}
_BITS = bytes.maketrans(b"\0\1", b"01")

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


def word_image(w: Word, char: Character, degree: int | None = None) -> QSym:
    """The morphism image of a single (packed or anchored) word."""
    w = _as_word(w)
    if degree is None:
        degree = len(w)
    return QSym(degree, _image_terms([(w, 1)], char, degree))


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


def _violation_mask(w: Word, kind: str) -> int:
    """The violation set of a basic kind as a bit mask: position ``i`` is
    bit ``i - 1``, the bit order of :func:`_compositions_of`, read off one
    comparison per adjacent pair as a string of binary digits."""
    if len(w) < 2:
        return 0
    return int(bytes(map(_VIOLATES[kind], w, w[1:])).translate(_BITS)[::-1], 2)


def _statistic(w: Word, char: Character):
    """What the image of a word depends on: its violation mask for a basic
    kind, the cut mask of the peak composition indexing the closed form for
    a peak convolution, and the pair of its factors' violation masks for
    any other convolution."""
    if isinstance(char, str):
        return _violation_mask(w, char)
    if char not in _PEAK_FORMS:
        return (_violation_mask(w, char[0]), _violation_mask(w, char[1]))
    kind, starts = _PEAK_FORMS[char]
    v = _violation_mask(w, kind)
    if starts:
        return v & ~(v << 1) & ~1
    return (v << 1) & ~v & ((1 << max(len(w) - 1, 0)) - 1)


def _block_products(v1: int, v2: int, n: int) -> list[int]:
    """Monomial coefficients by cut mask of the image of one word of length
    ``n`` under a convolution pair whose factors have violation masks
    ``v1`` and ``v2`` on it.

    The block of positions ``a + 1 .. b`` admits the cuts that leave no
    ``v1`` position before them and no ``v2`` position after them.  A mask
    whose highest cut is ``a`` continues a mask of ``[a - 1]``, so the
    products for the prefixes of length ``b`` are built from the shorter
    ones, each list in cut-mask order."""

    def cuts(a: int, b: int) -> int:
        inner = ((1 << (b - a - 1)) - 1) << a  # positions a + 1 .. b - 1
        first, last = v1 & inner, v2 & inner
        f = (first & -first).bit_length() - a if first else b - a
        l = last.bit_length() - a if last else 0
        return max(0, f - l + 1)

    prefixes = [[1]]
    for b in range(1, n + 1):
        row = [cuts(0, b)]
        for a in range(1, b):
            x = cuts(a, b)
            row += [p * x for p in prefixes[a]]
        prefixes.append(row)
    return prefixes[n]


def image_of_histogram(
    hist: Iterable[tuple[object, object]], char: Character, n: int
) -> list:
    """Monomial coefficients of the image of words of length ``n``, as a
    list indexed by cut mask (the order of :func:`_compositions_of`), from
    ``(statistic, weight)`` pairs, the weight of the words with that
    :func:`_statistic`.

    A closed form expands the histogram as a table by mask: ``L_V`` is the
    sum of ``M_S`` over ``S`` containing ``V``, so one zeta transform is the
    answer, and :func:`qsym._peak_expand` expands ``K_P``.  Any other pair
    adds up the block products of its pairs of masks."""
    values = [0] * (1 << max(n - 1, 0))
    if not (isinstance(char, str) or char in _PEAK_FORMS):
        for (v1, v2), c in hist:
            for s, x in enumerate(_block_products(v1, v2, n)):
                values[s] += c * x
        return values
    for m, c in hist:
        values[m] += c
    if char in _PEAK_FORMS:
        return _peak_expand(values, n)
    _subset_transform(values)
    return values


def _image_terms(
    weighted: Iterable[tuple[Word, object]], char: Character, degree: int
) -> dict[Composition, object]:
    """Monomial coefficients of ``sum c * image(w)`` over ``(w, c)`` pairs,
    words longer than ``degree`` contributing nothing.

    The words are binned by length and :func:`_statistic`, and each
    length's histogram is expanded once (:func:`image_of_histogram`), so
    coefficients stay plain ints (or the weights' type) until the caller
    builds a single QSym."""
    hists: dict[int, dict] = {}
    for w, c in weighted:
        if type(w) is not tuple:
            w = _as_word(w)
        if len(w) <= degree:
            hist = hists.setdefault(len(w), {})
            s = _statistic(w, char)
            hist[s] = hist.get(s, 0) + c
    terms: dict[Composition, object] = {}
    for n, hist in hists.items():
        coeffs = image_of_histogram(hist.items(), char, n)
        terms.update((alpha, c) for alpha, c in zip(_compositions_of(n), coeffs) if c)
    return terms


def class_image(
    members: Iterable[Word], char: Character, degree: int
) -> QSym:
    """Sum of member images, truncated: members (plain words) longer than
    the degree bound contribute nothing, and are dropped unread."""
    kept, sizes = tee(members)
    short = compress(kept, map(degree.__ge__, map(len, sizes)))
    return QSym(degree, _image_terms(zip(short, repeat(1)), char, degree))


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
    strict_after = comp_to_set(alpha)
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
    return QSym(degree, terms)


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


# --- identities used as cross-checks ---------------------------------------


def nsym_generator_image(n: int, char: Character, degree: int | None = None) -> QSym:
    """Image of the one-letter-repeated packed word of length ``n``."""
    return word_image((1,) * n, char, degree)
