"""The rewrite engine: every generating pair of a presentation as a window
rewrite, and one step compiler for words and for the ``a ~ aa`` quotient.

:func:`_rewrite_tables` reads each generating pair of each part of a
presentation both ways, as a rewrite ``a -> b`` of a window, in one table
per (where the window may sit: anywhere, as a prefix, or as the whole
word; window length; length change).  :func:`compile_neighbors` applies
every table through one lookup per window; the content scans' level fill
(:mod:`scans`) reads its start windows off the same tables.

Every presentation with a Coxeter part contains ``a ~ aa``, and there the
search runs on the quotient by it.  A word is related to its run
reduction (each run of equal letters collapsed to one letter), and the
run fiber of a reduced word ``r`` at bound ``L`` (every word of length
``<= L`` reducing to ``r``) is connected inside the bound and holds
``C(L, len(r))`` words.  So a class is a union of fibers, and its
components are found among reduced words, with the step compiler of plain
words (:func:`compile_neighbors`) on reduced windows.  The fibers are
listed at the end (:func:`_fibers`): one cached ``itemgetter`` per number
of runs and length reads every fiber word of that length off a reduced
word at once, and each length is sorted once.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .words import Word, shift

if TYPE_CHECKING:
    from .relations import RelationPresentation


# --- window rewrites -------------------------------------------------------

# where a window may sit in the word it rewrites
_ANYWHERE, _PREFIX, _WHOLE = range(3)


def _alternating(a: int, b: int, length: int) -> Word:
    return tuple(a if i % 2 == 0 else b for i in range(length))


def _explicit_pairs(
    pres: RelationPresentation, letters: Sequence[int], limit: int
) -> set[tuple[Word, Word]]:
    pairs: set[tuple[Word, Word]] = set()
    for v, w in pres.generators:
        if max(len(v), len(w)) > limit:
            continue  # a side longer than every word never fires
        if pres.uniform:
            # the images under the order-preserving injections of [max(v)]:
            # v's letters go in order to letters with no gap narrower, the
            # gap below the least letter included
            used = sorted(set(v))
            gaps = [b - a for a, b in zip((0, *used), used)]
            for image in itertools.combinations(letters, len(used)):
                if all(q - p >= g for p, q, g in zip((0, *image), image, gaps)):
                    phi = dict(zip(used, image)).get
                    pairs.add((tuple(map(phi, v)), tuple(map(phi, w))))
        else:
            pairs.add((v, w))
        # close under down-shifts: a(v|m)b ~ a(w|m)b for 0 <= m < min(v)
        lo = min(v) if v else 1
        for k in range(1, lo):
            pairs.add((shift(v, -k), shift(w, -k)))
    allowed = set(letters)
    return {(v, w) for v, w in pairs if allowed.issuperset(v)}


def _window_pairs(
    pres: RelationPresentation, letters: Sequence[int], limit: int
) -> Iterator[tuple[int, Word, Word]]:
    """``(where, v, w)`` for every generating pair ``v ~ w`` of the
    presentation itself (not of its union members) on the given letters,
    explicit pairs only if both sides fit words of ``limit`` letters; the
    Coxeter kind's ``a ~ aa`` is not among them."""
    if pres.coxeter is not None:
        for a, b in itertools.combinations(letters, 2):
            order = pres.coxeter.value(a, b)
            if order is not None:
                yield _ANYWHERE, _alternating(a, b, order), _alternating(b, a, order)
    where = _ANYWHERE if pres.context_rewrites else _WHOLE
    for v, w in _explicit_pairs(pres, letters, limit):
        yield where, v, w
    if pres.initial_swap:
        for a, b in itertools.combinations(letters, 2):
            yield _PREFIX, (a, b), (b, a)


def _parts(pres: RelationPresentation) -> Iterator[RelationPresentation]:
    """The presentation and, recursively, the members of its union."""
    yield pres
    for sub in pres.union_of:
        yield from _parts(sub)


def _rewrite_tables(
    pres: RelationPresentation, letters: Sequence[int], limit: int
) -> dict[tuple[int, int, int], dict[Word, set[Word]]]:
    """Every generating pair of every part that words of at most ``limit``
    letters, all among ``letters``, can use, read both ways, as a window
    rewrite ``a -> b``, in one table per (where the window may sit, window
    length, length change)."""
    groups: dict[tuple[int, int, int], dict[Word, set[Word]]] = {}
    for part in _parts(pres):
        for where, v, w in _window_pairs(part, letters, limit):
            for a, b in ((v, w), (w, v)):
                table = groups.setdefault((where, len(a), len(b) - len(a)), {})
                table.setdefault(a, set()).add(b)
    return groups


# --- the a ~ aa quotient ---------------------------------------------------


def _has_runs(pres: RelationPresentation) -> bool:
    """Whether ``a ~ aa`` is a relation of ``pres``: some part is of the
    Coxeter kind."""
    return any(part.coxeter is not None for part in _parts(pres))


def _reduce(w: Word) -> Word:
    """The run reduction of ``w``: each run of equal letters as one letter."""
    return tuple(a for a, _ in itertools.groupby(w))


def _join(u: Word, v: Word) -> Word:
    """The run reduction of ``u + v`` for run-reduced ``u`` and ``v``."""
    return u + v[1:] if u and v and u[-1] == v[0] else u + v


def _reduced_words(alphabet: int, limit: int) -> list[Word]:
    """The run-reduced words of length at most ``limit``, length-major."""
    layer: list[Word] = [()]
    out = list(layer)
    for _ in range(limit):
        layer = [
            w + (a,)
            for w in layer
            for a in range(1, alphabet + 1)
            if not w or w[-1] != a
        ]
        out += layer
    return out


@functools.cache
def _run_gather(k: int, m: int) -> Callable:
    """One gather reading off a reduced word of length ``k >= 2`` its fiber
    words of length ``m`` one after another, one per vector of run lengths:
    a fiber word's position ``p`` reads the letter at the number of run
    starts ``<= p``."""
    return operator.itemgetter(
        *[
            bisect.bisect_right(starts, p)
            for starts in itertools.combinations(range(1, m), k - 1)
            for p in range(m)
        ]
    )


def _fibers(reduced: Iterable[Word], bound: int) -> list[Word]:
    """The union of the run fibers of the run-reduced words ``reduced`` at
    ``bound >= 0``, in shortlex order.  The fiber of ``r`` is every word of
    length at most ``bound`` that reduces to ``r``, ``C(bound, len(r))``
    words, read off ``r`` by :func:`_run_gather`."""
    reduced = sorted(reduced, key=len)
    top = bound if reduced and reduced[-1] else 0  # the fiber of () is () alone
    bins: list[list[Word]] = [[] for _ in range(top + 1)]
    for k, rs in itertools.groupby(reduced, len):
        rs = list(rs)
        if k < 2:  # r * m, () at m = 0 only; a one-index gather gives a letter
            for m in range(k, bound + 1 if k else 1):
                bins[m] += [r * m for r in rs]
        else:
            for m in range(k, bound + 1):
                gather = _run_gather(k, m)
                for r in rs:  # split the gathered letters into words of m
                    bins[m] += zip(*[iter(gather(r))] * m)
    for words in bins:
        words.sort()
    return list(itertools.chain.from_iterable(bins))


# --- one rewrite step ------------------------------------------------------


def compile_neighbors(
    pres: RelationPresentation,
    letters: Sequence[int],
    limit: int,
    one_way: bool = False,
) -> Callable[[Word], list[Word]]:
    """Compile a presentation into a one-step rewrite generator: on words
    over ``letters``, or, with ``a ~ aa`` (:func:`_has_runs`), on
    run-reduced words over them.

    Each window rewrite ``a -> b`` of :func:`_rewrite_tables` fires at
    every occurrence of ``red(a)`` in the word ``r``, say ``r[j..j']``,
    where ``red`` is the run reduction with ``a ~ aa`` and the identity
    without.  In a word of the run fiber, the first and the last run of the
    window may extend past it (by α, β in {0, 1} letters; without ``a ~
    aa`` both are 0), and the step goes to ``red(r[:j] + r[j]·α + b +
    r[j']·β + r[j'+1:])``.  It is kept when its shortest witness fits:
    ``len(r) - len(red(a)) + len(a) + α + β`` letters, plus ``len(b) -
    len(a)`` if that is positive; so no neighbour is longer than
    ``limit``.  Prefix rules take ``j = 0`` and ``α = 0``, whole-word
    rules ``r == red(a)`` and ``α = β = 0``.  An extension that ``b``
    continues with the same letter gives the step without it, so it is
    skipped.  The steps are symmetric, like the rewrites.

    ``one_way`` generates each edge from one end at least, for a
    union-find over every word.  With ``a ~ aa`` it keeps α = β = 0: a
    step with α = 1 (or β = 1) is the step from its target back with α = 0
    (β = 0), whose witness is the rewritten word.  Without, it keeps only
    the rewrites toward the shortlex-smaller word, so each edge is
    generated from its longer or larger end and no neighbour is longer
    than the word."""
    runs = _has_runs(pres)
    red = _reduce if runs else tuple
    join = _join if runs else operator.add
    extend = (0, 1) if runs and not one_way else (0,)
    # (where, len(red(a)), need) -> red(a) -> (α, red(b), window end - β, α + β)
    groups: dict[tuple[int, int, int], dict[Word, list]] = {}
    for (where, piece, grow), table in _rewrite_tables(pres, letters, limit).items():
        for a, bs in table.items():
            ra = red(a)
            if not ra:
                # the sides of a pair have one letter set, so only () ~ ()
                # has an empty side, and it rewrites nothing
                continue
            for b in sorted(bs):
                if one_way and not runs and (len(b), b) >= (len(a), a):
                    continue
                b = red(b)
                alphas = extend if where == _ANYWHERE and b[0] != ra[0] else (0,)
                betas = extend if where != _WHOLE and b[-1] != ra[-1] else (0,)
                need = piece - len(ra) + max(grow, 0)
                group = groups.setdefault((where, len(ra), need), {})
                group.setdefault(ra, []).extend(
                    (alpha, b, len(ra) - beta, alpha + beta)
                    for alpha in alphas
                    for beta in betas
                )
    lookups = [(*key, group.get) for key, group in sorted(groups.items())]

    def neighbors(r: Word) -> list[Word]:
        n = len(r)
        out = []
        for where, k, need, lookup in lookups:
            last = n - k  # the last window start
            room = limit - n - need  # letters left for α + β
            if last < 0 or room < 0 or (where == _WHOLE and last):
                continue
            for j in range(last + 1 if where == _ANYWHERE else 1):
                steps = lookup(r[j : j + k])
                if steps:  # most windows start no rewrite
                    for alpha, b, end, extra in steps:
                        if extra <= room:
                            out.append(join(join(r[: j + alpha], b), r[j + end :]))
        return out

    return neighbors
