"""Class enumeration scans and bounded conjecture searches.

Homogeneous, content-preserving relations (Knuth, exotic Knuth,
commutation) never mix letter multisets, so their packed classes split by
content: each composition of the length is an independent flood-fill over
the distinct rearrangements of its multiset.  That slicing is what makes
the length-8/9 runs tractable and embarrassingly parallel; workers handle
whole contents and the parent merges in sorted content order, so output
is deterministic for any worker count.  A content's result is one row,
the unit a resumable run caches: a resumed run hands the scan its cache,
whose rows are folded in with the fresh ones, and each fresh row is
recorded there as it comes.

The flood fill works on integer-coded words (:mod:`coded`: one 5-bit lane
per letter, first letter most significant, so letters and lengths up to
15).  A content's codes are listed by halves: each arrangement of the
first half of its letters is coded once, and each distinct multiset of
letters it leaves has its arrangements coded once, so a block of codes is
one head code or-ed onto a list of tail codes.  The codes come in
increasing order and are never listed whole; the visited set holds codes,
and a one-step rewrite is one lookup per window start in the merged window
tables of :func:`coded.compile_coded_rewrites` followed by an xor.
Integer order is word order, so each component's least code is its
lexicographically least word, the representative.

Per class, the scan counts the guard patterns of the codes (one guard-bit
subtraction compares all adjacent letters at once), reads the character's
statistic off one decoded member per pattern (a pattern fixes it), bins
the class into a histogram of statistics, and expands it into monomial
coefficients by cut mask with the characters kernel
(:func:`characters.image_of_histogram`), for every one of the sixteen
characters.  Symmetry is constancy on sorting fibers; Schur and Schur-Q
positivity come from the exact triangular solve in :mod:`qsym`, fed the
coefficient at one partition per fiber.  Classes share few histograms
(152 among the 6,465 exotic classes of length 8), so the verdict is
memoised on the sorted histogram.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from typing import Iterator, Sequence

from .characters import _statistic, format_character, image_of_histogram
from .qsym import _compositions_of, _triangular_solve
from .coded import (
    LANE,
    CodedRewrites,
    check_codable,
    compile_coded_rewrites,
    decode_word,
    encode_word,
    guard_compare,
)
from .relations import (
    DEFAULT_CAP,
    _check_cap,
    builtin_relation,
    class_roots,
    default_headroom,
    universe_size,
    weak_variant,
)
from .words import (
    Composition,
    Partition,
    _arrangements,
    all_words,
    comp_sort,
    compositions,
    format_word,
    multiset_permutations,
)


def packed_contents(length: int) -> list[Composition]:
    """Letter multisets of packed words of a length, largest classes first."""
    out = sorted(
        compositions(length),
        key=lambda c: (-_multinomial(c), c),
    )
    return out


def largest_content(length: int, done) -> int:
    """The most words of a packed content of the length not in ``done``
    (0 if there is none): what one worker of a content scan holds."""
    return next((_multinomial(c) for c in packed_contents(length) if c not in done), 0)


def _multinomial(content: Composition) -> int:
    from math import factorial

    num = factorial(sum(content))
    for c in content:
        num //= factorial(c)
    return num


def content_components(
    content: Composition, rewrites: CodedRewrites
) -> Iterator[list[int]]:
    """Connected components of the rewrite graph on one content class, as
    lists of word codes (:func:`coded.encode_word`), each headed by its
    least code.

    The codes come in increasing order, by halves: each arrangement of the
    first half of the letters is coded once and joined to the codes of the
    arrangements of the letters it leaves, coded once per distinct leftover.
    A block of codes the enumeration has passed is dropped from the visited
    set: its components are closed, so no later search can reach it."""
    n = rewrites.length
    if sum(content) != n:
        raise ValueError(f"content {content} is not of length {n}")
    windows = rewrites.windows
    letters = list(range(1, len(content) + 1))
    half = n // 2
    width = LANE * (n - half)
    tails: dict[tuple[int, ...], list[int]] = {}
    seen: set[int] = set()
    for head, left in _arrangements(letters, tuple(content), half):
        codes = tails.get(left)
        if codes is None:
            rest = [a for a, c in zip(letters, left) for _ in range(c)]
            codes = tails[left] = list(map(encode_word, multiset_permutations(rest)))
        block = list(map((encode_word(head) << width).__or__, codes))
        for start in block:
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            for x in component:
                for shift, mask, deltas in windows:
                    moves = deltas(x >> shift & mask)
                    if moves:
                        for d in moves:
                            y = x ^ d
                            if y not in seen:
                                seen.add(y)
                                component.append(y)
            yield component
        seen.difference_update(block)


# --- class verdicts ---------------------------------------------------------


class ScanTables:
    """The sorting fibers of one length, for deciding symmetry and
    positivity of class images in one basis or several.

    Classes come as word codes.  The verdict depends only on the class's
    histogram of character statistics, which is counted off the codes: one
    guard-bit subtraction compares every pair of adjacent lanes at once,
    and a pattern fixes the statistic, read off one decoded member per
    pattern.  Verdicts are memoised on the sorted histogram, so the
    expansion and the solve run once per distinct histogram."""

    def __init__(self, length: int, character, bases: tuple[str, ...]):
        self.bases = tuple(bases)
        for b in self.bases:
            if b not in ("s", "Q"):
                raise ValueError(f"unknown basis {b!r}")
        self.length = length
        self.character = character
        comps = _compositions_of(length)
        # fibers of sorting: partition -> cut masks of its rearrangements
        self.fibers: dict[Partition, list[int]] = {}
        for mask, comp in enumerate(comps):
            self.fibers.setdefault(comp_sort(comp), []).append(mask)
        self.mask_of_partition = {
            lam: next(m for m in masks if comps[m] == lam)
            for lam, masks in self.fibers.items()
        }
        kinds = (character,) if isinstance(character, str) else character
        self._guards = guard_compare(length, kinds)
        self._stats: dict = {}  # guard pattern -> statistic
        self._memo: dict[tuple, tuple[bool, dict]] = {}  # histogram -> verdict

    def class_verdict(self, members: Sequence[int]) -> dict:
        """Aggregate one class, given as word codes, and decide symmetry
        plus positivity in each basis; an image outside a basis span is not
        positive there.  ``positive`` maps each basis to its verdict."""
        guards, stats = self._guards, self._stats
        counts = Counter(map(guards, members))
        if not counts.keys() <= stats.keys():
            # a guard pattern fixes the statistic: read it off one member
            for raw, x in dict(zip(map(guards, members), members)).items():
                if raw not in stats:
                    stats[raw] = _statistic(decode_word(x, self.length), self.character)
        hist: dict = {}
        for raw, c in counts.items():
            m = stats[raw]
            hist[m] = hist.get(m, 0) + c
        key = tuple(sorted(hist.items()))
        decided = self._memo.get(key)
        if decided is None:
            coeffs = image_of_histogram(key, self.character, self.length)
            decided = self._memo[key] = self._decide(coeffs)
        symmetric, positive = decided
        return dict(size=len(members), symmetric=symmetric, positive=dict(positive))

    def _decide(self, coeffs: list) -> tuple[bool, dict[str, bool | None]]:
        """Symmetry, and positivity per basis, of the monomial coefficients
        of one image by cut mask."""
        symmetric = all(
            len({coeffs[m] for m in masks}) == 1 for masks in self.fibers.values()
        )
        positive: dict[str, bool | None] = dict.fromkeys(self.bases)
        if symmetric:
            m_terms = {lam: coeffs[m] for lam, m in self.mask_of_partition.items()}
            for b in self.bases:
                try:
                    expansion = _triangular_solve(m_terms, b)
                except ValueError:
                    positive[b] = False
                else:
                    positive[b] = all(c >= 0 for c in expansion.values())
        return symmetric, positive


# --- multiprocessing workers ------------------------------------------------

_WORKER: dict = {}


def _init_worker(builtin_name: str, length: int, scan_args) -> None:
    _WORKER["rewrites"] = compile_coded_rewrites(builtin_relation(builtin_name), length)
    if scan_args:
        character, bases, detail = scan_args
        _WORKER["tables"] = ScanTables(length, character, bases)
        _WORKER["detail"] = detail
    else:
        _WORKER["tables"] = None
        _WORKER["detail"] = False


def _count_content(content: Composition) -> tuple[Composition, dict]:
    classes = words = 0
    for component in content_components(content, _WORKER["rewrites"]):
        classes += 1
        words += len(component)
    return content, {"classes": classes, "words": words}


def _scan_content(content: Composition) -> tuple[Composition, dict]:
    rewrites = _WORKER["rewrites"]
    tables: ScanTables = _WORKER["tables"]
    detail: bool = _WORKER["detail"]
    out = []
    for component in content_components(content, rewrites):
        verdict = tables.class_verdict(component)
        failing = not verdict["symmetric"] or not all(
            verdict["positive"].values()
        )
        if failing or detail:
            verdict["representative"] = format_word(
                decode_word(component[0], rewrites.length)
            )
        out.append(verdict)
    return content, {"verdicts": out}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for ``tasks`` contents: never more workers than requested,
    than usable CPUs, or than contents to hand out, and at least one."""
    return max(1, min(jobs, _usable_cpus(), tasks))


def _pool(builtin_name: str, length: int, scan_args, jobs: int):
    import multiprocessing  # only pooled scans pay for importing it

    return multiprocessing.get_context("fork").Pool(
        jobs, initializer=_init_worker, initargs=(builtin_name, length, scan_args)
    )


def _rows(
    builtin_name: str, length: int, scan_args, task, jobs: int, cache
) -> Iterator[dict]:
    """The row of every packed content of the length: first the rows that
    ``cache.done`` holds, then ``task(content)``'s for the other contents,
    computed in one process or on a clamped fork pool and each recorded
    with ``cache.record`` as it comes."""
    check_codable(builtin_relation(builtin_name), length)
    done = {} if cache is None else cache.done
    yield from done.values()
    contents = [c for c in packed_contents(length) if c not in done]
    jobs = _worker_count(jobs, len(contents))
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            _init_worker(builtin_name, length, scan_args)
            fresh = map(task, contents)
        else:
            pool = stack.enter_context(_pool(builtin_name, length, scan_args, jobs))
            fresh = pool.imap_unordered(task, contents)
        for content, row in fresh:
            if cache is not None:
                cache.record(content, row)
            yield row


def packed_class_count(
    builtin_name: str, length: int, jobs: int = 1, cache=None
) -> tuple[int, int]:
    """(number of packed classes, number of packed words) at one length.

    Only valid for homogeneous, content-preserving built-ins.  ``cache``
    resumes a run: any object with ``done``, the rows of the contents
    already counted by content, and ``record(content, row)``, which is
    handed each fresh row ``{"classes", "words"}`` (``cli.ContentCache``
    is one)."""
    classes = words = 0
    for row in _rows(builtin_name, length, None, _count_content, jobs, cache):
        classes += row["classes"]
        words += row["words"]
    return classes, words


def positivity_scan_homogeneous(
    builtin_name: str,
    length: int,
    character,
    basis: str | tuple[str, ...],
    jobs: int = 1,
    cache=None,
    detail: bool = False,
) -> dict:
    """Symmetry and positivity of every packed class image at one length.

    ``basis`` may name one basis or several; the report counts classes,
    symmetric classes, and positive-in-every-basis classes, listing a
    representative for each failure (for every class with ``detail``).
    ``cache`` resumes a run as in :func:`packed_class_count`; its rows are
    ``{"verdicts"}``, one content's verdicts each."""
    bases = (basis,) if isinstance(basis, str) else tuple(basis)
    totals = {"classes": 0, "symmetric": 0, "positive": 0}
    non_symmetric: list[str] = []
    non_positive: list[str] = []
    details: list[dict] = []
    scan_args = (character, bases, detail)
    for row in _rows(builtin_name, length, scan_args, _scan_content, jobs, cache):
        for v in row["verdicts"]:
            totals["classes"] += 1
            if v["symmetric"]:
                totals["symmetric"] += 1
                if all(v["positive"].values()):
                    totals["positive"] += 1
                else:
                    non_positive.append(v["representative"])
            else:
                non_symmetric.append(v["representative"])
            if detail:
                details.append(v)
    report = {
        "relation": builtin_name,
        "character": format_character(character),
        "basis": "+".join(bases),
        "length": length,
        "total_classes": totals["classes"],
        "symmetric": totals["symmetric"],
        "positive": totals["positive"],
        "non_symmetric": sorted(non_symmetric),
        "non_positive": sorted(non_positive),
    }
    if detail:
        report["classes"] = sorted(details, key=lambda v: v["representative"])
    return report


# --- bounded conjecture searches ---------------------------------------------


def doubling_check(
    base_name: str,
    alphabet: int,
    max_len: int,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Compare the weak variant of a relation with equivalence of reversed
    doublings: ``v ~weak w`` against ``v^r v ~ w^r w``.

    Returns the list of disagreeing pairs (empty means the bounded search
    found no counterexample).  Each side answers through the component roots
    of its union-find (:func:`relations.class_roots`), which runs on the
    run-reduced words for relations with ``a ~ aa``.  Raises
    ``ResourceCapError`` when the words of length at most ``max_len`` or a
    union-find would number more than ``cap``."""
    base = builtin_relation(base_name)
    headroom = default_headroom(base)
    # the pairs' words, then the larger union-find, so an oversized request
    # fails before any work
    _check_cap("universe", universe_size(alphabet, max_len, cap), cap)
    doubled = class_roots(base, alphabet, 2 * max_len + headroom, cap)
    weak = class_roots(weak_variant(base), alphabet, max_len + headroom, cap)
    words = list(all_words(alphabet, max_len))
    # each word's letter set and its class on either side
    keys = [(frozenset(w), weak(w), doubled(w[::-1] + w)) for w in words]
    mismatches = []
    checked = 0
    for i, (v, (letters, weak_v, doubled_v)) in enumerate(zip(words, keys)):
        for w, (letters_w, weak_w, doubled_w) in zip(words[i + 1 :], keys[i + 1 :]):
            if letters != letters_w:
                continue
            checked += 1
            lhs = weak_v == weak_w
            rhs = doubled_v == doubled_w
            if lhs != rhs:
                mismatches.append(
                    {
                        "pair": (format_word(v), format_word(w)),
                        "weak": lhs,
                        "doubled": rhs,
                    }
                )
    return {
        "relation": base_name,
        "bounds": {"alphabet": alphabet, "max_len": max_len, "headroom": headroom},
        "checked_pairs": checked,
        "mismatches": mismatches,
    }
