"""Words, compositions, partitions, tableau words, and permutations.

Conventions used throughout the package:

- A *word* is a tuple of positive integers, possibly empty.  Positions in
  index sets are 1-indexed, so that e.g. ``comp_to_set((1, 2)) == {1}``.
- An *anchored word* pairs a word with an alphabet bound (its "anchor"),
  at least as large as every letter.
- A *composition* is a tuple of positive integers summing to its size; a
  *partition* is a weakly decreasing composition.
- A *permutation* is a tuple in one-line notation containing each of
  ``1..n`` exactly once.  Permutations carry their ambient ``n``
  explicitly via the tuple length.

Words serialize as digit strings when every letter is at most 9
(``"3421"``) and as comma-separated integers otherwise (``"10,2,3"``);
anchored words serialize as ``"[3421|4]"``.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

Word = tuple[int, ...]
Composition = tuple[int, ...]
Partition = tuple[int, ...]
Permutation = tuple[int, ...]


class Anchored(NamedTuple):
    """A word together with an alphabet bound ``anchor >= max(word)``."""

    word: Word
    anchor: int


def check_word(w: Iterable[int]) -> Word:
    w = tuple(w)
    if any(a < 1 for a in w):
        raise ValueError(f"letters must be positive: {w}")
    return w


def word_max(w: Word) -> int:
    """Largest letter of ``w``, with ``word_max(()) == 0``."""
    return max(w) if w else 0


def anchored(w: Iterable[int], anchor: int) -> Anchored:
    w = check_word(w)
    if anchor < word_max(w):
        raise ValueError(f"anchor {anchor} below max letter of {w}")
    return Anchored(w, anchor)


def flatten(w: Word) -> Word:
    """Replace letters by their rank in the letter set of ``w``.

    >>> flatten((2, 5, 5, 2))
    (1, 2, 2, 1)
    >>> flatten(())
    ()
    """
    rank = {a: i for i, a in enumerate(sorted(set(w)), start=1)}
    return tuple(rank[a] for a in w)


def is_packed(w: Word) -> bool:
    """True when the letter set of ``w`` is an initial segment of 1, 2, ..."""
    letters = set(w)
    return letters == set(range(1, len(letters) + 1))


def restrict(w: Word, letters: Iterable[int]) -> Word:
    """Subword of ``w`` keeping exactly the letters in ``letters``."""
    allowed = set(letters)
    return tuple(a for a in w if a in allowed)


def shift(w: Word, m: int) -> Word:
    """Add ``m`` to every letter; negative shifts must keep letters positive."""
    if w and min(w) + m < 1:
        raise ValueError(f"shift by {m} makes a letter of {w} nonpositive")
    return tuple(a + m for a in w)


def all_words(alphabet: int, max_len: int) -> Iterator[Word]:
    """All words with letters in ``[alphabet]`` and length at most ``max_len``."""
    for n in range(max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=n)


def multiset_permutations(items: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, in lexicographic order."""
    w = sorted(items)
    letters = sorted(set(w))
    out = [((), tuple(w.count(a) for a in letters))]  # (prefix, counts left)
    for _ in w:
        out = [
            (word + (a,), left[:i] + (left[i] - 1,) + left[i + 1 :])
            for word, left in out
            for i, a in enumerate(letters)
            if left[i]
        ]
    return (word for word, _ in out)


def packed_words(length: int) -> Iterator[Word]:
    """All words of a length whose letter set is an initial segment,
    grouped by alphabet size and lexicographic within it."""
    if length == 0:
        yield ()
        return
    word = [0] * length
    for m in range(1, length + 1):

        def rec(pos: int, used: int) -> Iterator[Word]:
            missing = m - used.bit_count()
            if length - pos < missing:
                return
            if pos == length:
                yield tuple(word)
                return
            for a in range(1, m + 1):
                word[pos] = a
                yield from rec(pos + 1, used | (1 << a))

        yield from rec(0, 0)


# --- serialization ------------------------------------------------------


def format_word(w: Word) -> str:
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def parse_word(s: str) -> Word:
    s = s.strip()
    if not s:
        return ()
    if "," in s:
        return check_word(int(p) for p in s.split(","))
    return check_word(int(c) for c in s)


# --- compositions -------------------------------------------------------


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of ``n``, by subsets of ``[n-1]``."""
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        yield comp_from_set(n, [i + 1 for i in range(n - 1) if mask >> i & 1])


def comp_to_set(alpha: Composition) -> frozenset[int]:
    """The subset ``I(alpha)`` of ``[n-1]`` of partial sums."""
    out, total = [], 0
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def comp_from_set(n: int, subset: Iterable[int]) -> Composition:
    """Inverse of :func:`comp_to_set` for compositions of ``n``."""
    cuts = sorted(subset)
    if cuts and not (1 <= cuts[0] and cuts[-1] <= n - 1):
        raise ValueError(f"subset {cuts} not inside [{n - 1}]")
    prev, parts = 0, []
    for c in cuts + [n]:
        parts.append(c - prev)
        prev = c
    return tuple(p for p in parts if p > 0) if n else ()


def comp_reverse(alpha: Composition) -> Composition:
    return alpha[::-1]


def comp_complement(alpha: Composition) -> Composition:
    n = sum(alpha)
    full = set(range(1, n)) - comp_to_set(alpha)
    return comp_from_set(n, full)


def comp_transpose(alpha: Composition) -> Composition:
    return comp_complement(comp_reverse(alpha))


def is_peak_composition(alpha: Composition) -> bool:
    return all(a >= 2 for a in alpha[:-1])


def comp_sort(alpha: Composition) -> Partition:
    """The partition rearranging ``alpha`` (zero parts dropped)."""
    return tuple(sorted((a for a in alpha if a > 0), reverse=True))


# --- partitions ---------------------------------------------------------


def is_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return all(a >= 1 for a in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def is_strict_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return is_partition(lam) and len(set(lam)) == len(lam)


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


# --- tableau words ------------------------------------------------------


def increasing_runs(w: Word) -> list[Word]:
    """Factor ``w`` into maximal weakly increasing consecutive subwords."""
    runs: list[Word] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i - 1] > w[i]:
            runs.append(w[start:i])
            start = i
    return runs


def tableau_shape(w: Word) -> Partition | None:
    """Shape of ``w`` as a row-reading tableau word, or None.

    The runs of ``w`` are the rows read bottom-to-top: run lengths must be
    weakly increasing and letters must strictly decrease down each column.

    >>> tableau_shape((6, 4, 5, 1, 2, 3))
    (3, 2, 1)
    >>> tableau_shape((2, 2, 1, 1))
    (2, 2)
    """
    if not w:
        return ()
    runs = increasing_runs(w)
    for upper, lower in zip(runs, runs[1:]):
        if len(upper) > len(lower):
            return None
        if any(a <= b for a, b in zip(upper, lower)):
            return None
    return tuple(len(r) for r in reversed(runs))


def is_increasing_tableau(w: Word) -> bool:
    """Tableau word with no equal adjacent letters.

    >>> is_increasing_tableau((5, 6, 1, 2))
    True
    >>> is_increasing_tableau((6, 5, 5, 1, 3, 3))
    False
    """
    if any(w[i] == w[i + 1] for i in range(len(w) - 1)):
        return False
    return tableau_shape(w) is not None


def rsk_insert(w: Word) -> tuple[Word, ...]:
    """Row-insertion tableau of ``w``, as a tuple of rows (top row first)."""
    rows: list[list[int]] = []
    for a in w:
        for row in rows:
            # smallest entry strictly larger than a gets bumped
            pos = bisect.bisect_right(row, a)
            if pos == len(row):
                row.append(a)
                a = -1
                break
            row[pos], a = a, row[pos]
        if a != -1:
            rows.append([a])
    return tuple(tuple(r) for r in rows)


# --- permutations -------------------------------------------------------


def check_permutation(pi: Iterable[int]) -> Permutation:
    pi = tuple(pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"not a permutation in one-line notation: {pi}")
    return pi


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def permutation_length(pi: Permutation) -> int:
    """Number of inversions."""
    n = len(pi)
    return sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])


def descent_letters(pi: Permutation) -> list[int]:
    """Letters ``a`` with ``a + 1`` appearing before ``a`` in one-line order."""
    position = {v: i for i, v in enumerate(pi)}
    return [a for a in range(1, len(pi)) if position[a + 1] < position[a]]


def swap_values(pi: Permutation, a: int) -> Permutation:
    """Exchange the letters ``a`` and ``a + 1`` wherever they sit."""
    return tuple(a + 1 if v == a else (a if v == a + 1 else v) for v in pi)


def bounded_multiply(pi: Permutation, a: int) -> Permutation:
    """Demazure step: apply the transposition of ``a, a+1`` after ``pi``
    only when that increases the length."""
    i, j = pi.index(a), pi.index(a + 1)
    if i < j:
        return swap_values(pi, a)
    return pi


def eval_hecke_word(w: Word, n: int) -> Permutation:
    """Compose the letters of ``w`` as bounded transpositions in S_{n+1};
    the first letter acts first."""
    if word_max(w) > n:
        raise ValueError(f"letter above alphabet bound {n}: {w}")
    pi = identity_permutation(n + 1)
    for a in w:
        pi = bounded_multiply(pi, a)
    return pi


def grassmannian_permutation(lam: Partition) -> Permutation:
    """Smallest-ambient Grassmannian permutation with the given shape."""
    if not lam:
        return (1,)
    p = len(lam)
    head = tuple(lam[p - i] + i for i in range(1, p + 1))
    n = lam[0] + p
    tail = tuple(sorted(set(range(1, n + 1)) - set(head)))
    return check_permutation(head + tail)
