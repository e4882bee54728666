"""Integer-coded words: the data format of the content-sliced scans.

A word of length ``n`` is one integer of ``n`` lanes of ``LANE`` = 5 bits,
first letter in the most significant lane (:func:`encode_word`).  A lane
holds four value bits under one guard bit, so letters, and hence packed
words, go up to length 15; longer lengths raise ``ValueError``
(:func:`check_codable`).  On words of one length integer order is
lexicographic order, so the least code of a class is its least word.

- :func:`compile_coded_rewrites` reads the window tables that
  :func:`rewrite.compile_neighbors` also reads and merges every window
  length into one lookup per window start.  A rewrite of a homogeneous
  presentation changes a word only inside its window, so it is an xor.
- :func:`guard_compare` compares every pair of adjacent letters of a code
  at once, one subtraction with the guard bits set; the guard pattern it
  leaves fixes a character's statistic, which :mod:`characters` reads.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from .relations import RelationPresentation
from .rewrite import _ANYWHERE, _WHOLE, _rewrite_tables
from .words import Word

LANE = 5  # bits per letter: four value bits under one guard bit
MAX_CODED_LETTER = (1 << (LANE - 1)) - 1  # 15
_LETTER = (1 << LANE) - 1


def encode_word(w: Iterable[int]) -> int:
    """The word as one integer, first letter in the most significant lane,
    so that on words of one length integer order is lexicographic order."""
    code = 0
    for a in w:
        code = code << LANE | a
    return code


def decode_word(code: int, length: int) -> Word:
    """Inverse of :func:`encode_word` on words of the given length."""
    return tuple(code >> (LANE * k) & _LETTER for k in range(length - 1, -1, -1))


class CodedRewrites(NamedTuple):
    """One-step rewrites of the coded words of one length: per window start
    that some rewrite fits, ``(shift, mask, deltas)`` where ``deltas`` maps
    the window's code ``(x >> shift) & mask`` to the xor deltas that turn
    ``x`` into each neighbour."""

    length: int
    windows: tuple[tuple[int, int, Callable[[int], tuple[int, ...] | None]], ...]


def check_codable(pres: RelationPresentation, length: int) -> None:
    """Raise ``ValueError`` unless the presentation's classes split by
    content and the packed words of ``length`` fit the lanes."""
    if not (pres.homogeneous and pres.content_preserving):
        raise ValueError(f"{pres.name} does not split by content")
    if length > MAX_CODED_LETTER:
        raise ValueError(
            f"coded words hold letters up to {MAX_CODED_LETTER}, not {length}"
        )


def compile_coded_rewrites(pres: RelationPresentation, length: int) -> CodedRewrites:
    """The window rewrites of the presentation for the coded words of one
    length, merged into one lookup per window start.

    Each start reads the widest window that fits there and holds every
    rewrite of every window length that starts there, a shorter window
    padded with each possible tail; anchored rewrites go to start 0 only,
    whole-word ones only when they span the word.  So a table grows by
    ``alphabet`` to the power of the difference in window lengths, which is
    at most 1 for every built-in.  Packed words of ``length`` use letters
    up to ``length``."""
    check_codable(pres, length)
    rewrites = [
        (where, a, bs)
        for (where, _, _), table in _rewrite_tables(pres, length).items()
        for a, bs in table.items()
    ]
    top = max((len(a) for _, a, _ in rewrites), default=0)
    letters = range(1, length + 1)
    windows = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per move set
    for start in range(length):
        width = min(top, length - start)
        shift = LANE * (length - start - width)
        deltas: dict[int, set[int]] = {}
        for where, a, bs in rewrites:
            piece = len(a)
            if piece > width or (where != _ANYWHERE and start):
                continue
            if where == _WHOLE and piece != length:
                continue
            pad = LANE * (width - piece)
            moves = {(encode_word(a) ^ encode_word(b)) << pad << shift for b in bs}
            for tail in itertools.product(letters, repeat=width - piece):
                deltas.setdefault(encode_word(a + tail), set()).update(moves)
        if deltas:
            table = {}
            for key, ds in deltas.items():
                ds = tuple(sorted(ds))
                table[key] = shared.setdefault(ds, ds)
            windows.append((shift, (1 << LANE * width) - 1, table.get))
    return CodedRewrites(length, tuple(windows))


def guard_compare(length: int, kinds) -> Callable[[int], int]:
    """``guards(code)`` for a character built from the basic ``kinds``: one
    guard bit per adjacent pair of lanes and comparison, so that the guard
    pattern of a word fixes its :func:`characters._statistic`.

    Lane ``k`` of a code holds letter ``length - 1 - k``.  With the guard
    bit set in every lane, ``(x >> LANE | G) - (x & low)`` subtracts each
    letter from the one before it without borrowing across lanes, and a
    lane keeps its guard bit exactly when the earlier letter is at least the
    later one; the operands swapped test at most, which ``le`` and ``gt``
    read (so each peak form reads one test).  Kinds that need both tests
    keep the at-least test's guard bits one place lower."""
    pairs = max(length - 1, 0)
    guard = sum(1 << (LANE * k + LANE - 1) for k in range(pairs))
    low = (1 << LANE * pairs) - 1

    def at_most(x: int) -> int:  # guard bit where the earlier letter is at most
        return ((x & low | guard) - (x >> LANE)) & guard

    def at_least(x: int) -> int:  # guard bit where the earlier letter is at least
        return ((x >> LANE | guard) - (x & low)) & guard

    tests = {kind in ("le", "gt") for kind in kinds}  # True: the at-most test
    if len(tests) == 2:
        return lambda x: at_most(x) | at_least(x) >> 1
    return at_most if True in tests else at_least
