"""The per-word flood fill: the brute-force oracle of the level fill
(:class:`wordbialg.scans.LevelFill`).

Words are integer-coded: a word of length ``n`` is one integer of ``n``
lanes of ``LANE`` = 5 bits, first letter in the most significant lane
(:func:`encode_word`).  A lane holds four value bits under one guard bit,
so letters, and hence packed words, go up to length 15; longer lengths
raise ``ValueError`` (:func:`check_codable`).  On words of one length
integer order is lexicographic order, so the least code of a class is its
least word.

- :func:`compile_coded_rewrites` reads the window tables that
  :func:`rewrite.compile_neighbors` also reads and merges every window
  length into one lookup per window start.  A rewrite of a homogeneous
  presentation changes a word only inside its window, so it is an xor.
- :func:`flood_components` fills the components of one content word by
  word, from every word's code, in increasing order.  Unlike the level
  fill it takes any homogeneous, content-preserving presentation: prefix
  and whole-word rules and non-uniform generators too.
- :func:`word_class` gives a list of words the form of a class that the
  level fill yields, and :func:`flood_classes` yields a content's classes
  in that form, in place of :func:`wordbialg.scans.content_components`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from wordbialg.relations import RelationPresentation
from wordbialg.rewrite import _ANYWHERE, _WHOLE, _rewrite_tables
from wordbialg.scans import ContentClass, _comparison_code, _lane_width
from wordbialg.words import Word, multiset_permutations

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


@functools.cache
def compile_coded_rewrites(pres: RelationPresentation, length: int) -> CodedRewrites:
    """The window rewrites of the presentation for the coded words of one
    length, merged into one lookup per window start.

    Each start reads the widest window that fits there and holds every
    rewrite of every window length that starts there, a shorter window
    padded with each possible tail; anchored rewrites go to start 0 only,
    whole-word ones only when they span the word.  Packed words of
    ``length`` use letters up to ``length``."""
    check_codable(pres, length)
    letters = range(1, length + 1)
    rewrites = [
        (where, a, bs)
        for (where, _, _), table in _rewrite_tables(pres, letters, length).items()
        for a, bs in table.items()
    ]
    top = max((len(a) for _, a, _ in rewrites), default=0)
    windows = []
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
            table = {key: tuple(sorted(ds)) for key, ds in deltas.items()}
            windows.append((shift, (1 << LANE * width) - 1, table.get))
    return CodedRewrites(length, tuple(windows))


def flood_components(content, rewrites: CodedRewrites) -> Iterator[list[int]]:
    """Connected components of the rewrite graph on one content, as lists
    of word codes, each headed by its least code, in the order of their
    least codes."""
    n = rewrites.length
    if sum(content) != n:
        raise ValueError(f"content {content} is not of length {n}")
    letters = [a for a, c in enumerate(content, 1) for _ in range(c)]
    seen: set[int] = set()
    for start in map(encode_word, multiset_permutations(letters)):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        for x in component:
            for shift, mask, deltas in rewrites.windows:
                for d in deltas(x >> shift & mask) or ():
                    y = x ^ d
                    if y not in seen:
                        seen.add(y)
                        component.append(y)
        yield component


def word_class(members: Iterable[Word], key=None) -> ContentClass:
    """The class of the given words as the level fill yields it: least word,
    size and, with ``key``, its histogram, a one per word in lane
    ``key[code]`` of :func:`wordbialg.scans._lane_width` bits.  Raises
    ``ValueError`` if a lane would carry into the next one."""
    members = list(map(tuple, members))
    hist = None
    if key is not None:
        width = _lane_width(len(members[0]))
        lanes = Counter(key[_comparison_code(w)] for w in members)
        if max(lanes.values()) >> width:
            raise ValueError(f"a lane of {width} bits cannot count {max(lanes.values())} words")
        hist = sum(count << width * lane for lane, count in lanes.items())
    return ContentClass(min(members), len(members), hist)


def flood_classes(content, fill) -> Iterator[ContentClass]:
    """:func:`wordbialg.scans.content_components` through the flood fill:
    the classes of one content, each as :func:`word_class` gives it, keyed
    as ``fill`` keys its histograms."""
    n = sum(content)
    rewrites = compile_coded_rewrites(fill.pres, n)
    for component in flood_components(content, rewrites):
        yield word_class((decode_word(x, n) for x in component), fill.key)
