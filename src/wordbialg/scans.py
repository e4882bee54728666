"""Class enumeration scans and bounded conjecture searches.

Homogeneous, content-preserving relations (Knuth, exotic Knuth,
commutation) never mix letter multisets, so their packed classes split by
content: each composition of the length is an independent flood-fill over
the distinct rearrangements of its multiset.  That slicing is what makes
the length-8/9 runs tractable and embarrassingly parallel; workers handle
whole contents and the parent merges in sorted content order, so output
is deterministic for any worker count.

Per class, a morphism image is aggregated as an integer vector indexed by
violation or peak sets; symmetry and Schur/Schur-Q positivity are then
decided by exact triangular solves against cached tableau-count matrices.
"""

from __future__ import annotations

import multiprocessing
import os
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .characters import (
    _compositions_of,
    _subset_sums,
    _violation_mask,
    class_image,
)
from .qsym import (
    _schur_in_m,
    _schur_q_in_m,
    is_symmetric,
    schur_positive,
    schur_q_positive,
)
from .relations import (
    builtin_relation,
    close,
    compile_neighbors,
    weak_variant,
)
from .words import (
    Composition,
    Word,
    all_words,
    comp_sort,
    compositions,
    format_word,
    multiset_permutations,
    partitions,
    peaks,
    strict_partitions,
    valleys,
)

Members = list[Word]


def packed_contents(length: int) -> list[Composition]:
    """Letter multisets of packed words of a length, largest classes first."""
    out = sorted(
        compositions(length),
        key=lambda c: (-_multinomial(c), c),
    )
    return out


def _multinomial(content: Composition) -> int:
    from math import factorial

    num = factorial(sum(content))
    for c in content:
        num //= factorial(c)
    return num


def content_components(
    content: Composition, neighbors: Callable[[Word], list[Word]]
) -> Iterator[Members]:
    """Connected components of the rewrite graph on one content class."""
    letters: list[int] = []
    for a, c in enumerate(content, start=1):
        letters.extend([a] * c)
    words = list(multiset_permutations(letters))
    index = {w: i for i, w in enumerate(words)}
    visited = bytearray(len(words))
    for start, w0 in enumerate(words):
        if visited[start]:
            continue
        visited[start] = 1
        component = [w0]
        stack = [w0]
        while stack:
            w = stack.pop()
            for nb in neighbors(w):
                j = index.get(nb)
                if j is not None and not visited[j]:
                    visited[j] = 1
                    component.append(nb)
                    stack.append(nb)
        yield component


# --- aggregated class statistics -------------------------------------------


def _peak_mask(w: Word, conv: tuple[str, str]) -> int:
    if conv == ("gt", "le"):
        spots = peaks(w)
    elif conv == ("lt", "ge"):
        spots = valleys(w)
    else:
        raise ValueError(f"scan supports gt-le and lt-ge convolutions, not {conv}")
    mask = 0
    for i in spots:
        mask |= 1 << (i - 1)
    return mask


class ScanTables:
    """Shared exact data for deciding symmetry and positivity at one length."""

    def __init__(self, length: int, character, basis: str):
        self.length = length
        self.character = character
        self.basis = basis
        n = length
        self.nmasks = 1 << max(n - 1, 0)
        self.comp_by_mask = _compositions_of(n)
        # fibers of sorting: partition -> masks of its rearrangements
        self.fibers: dict[Composition, list[int]] = {}
        for mask, comp in enumerate(self.comp_by_mask):
            self.fibers.setdefault(comp_sort(comp), []).append(mask)
        self.partitions = sorted(partitions(n), reverse=True)
        self.mask_of_partition = {
            lam: next(
                m for m in self.fibers[lam] if self.comp_by_mask[m] == lam
            )
            for lam in self.partitions
        }
        if isinstance(character, tuple):
            # peak-style: element = sum of peak functions by peak set
            self.peak_masks = [
                m
                for m in range(self.nmasks)
                if not (m & 1) and not (m & (m << 1))
            ]
            self.peak_index = {m: i for i, m in enumerate(self.peak_masks)}
            self.compat = []
            for mask in range(self.nmasks):
                allowed = mask | (mask << 1)
                self.compat.append(
                    tuple(
                        i
                        for i, p in enumerate(self.peak_masks)
                        if p & ~allowed == 0
                    )
                )
        if basis == "s":
            self.matrix = {lam: _schur_in_m(lam) for lam in partitions(n)}
            self.index = sorted(partitions(n), reverse=True)
            self.pivot = {lam: Fraction(1) for lam in self.index}
        elif basis == "Q":
            self.matrix = {lam: _schur_q_in_m(lam) for lam in strict_partitions(n)}
            self.index = sorted(strict_partitions(n), reverse=True)
            self.pivot = {lam: Fraction(2 ** len(lam)) for lam in self.index}
        else:
            raise ValueError(f"unknown basis {basis!r}")

    def class_verdict(self, members: Sequence[Word]) -> dict:
        """Aggregate one class and decide symmetry plus positivity."""
        char = self.character
        if isinstance(char, tuple):
            counts = [0] * len(self.peak_masks)
            for w in members:
                counts[self.peak_index[_peak_mask(w, char)]] += 1
            coeff_at = [0] * self.nmasks  # monomial coefficient / 2^{l(beta)}
            for mask in range(self.nmasks):
                coeff_at[mask] = sum(counts[i] for i in self.compat[mask])
            scale = lambda mask: 1 << (bin(mask).count("1") + 1)
        else:
            coeff_at = [0] * self.nmasks
            for w in members:
                coeff_at[_violation_mask(w, char)] += 1
            _subset_sums(coeff_at)  # fundamental -> monomial
            scale = lambda mask: 1
        symmetric = True
        for lam, masks in self.fibers.items():
            first = coeff_at[masks[0]]
            if any(coeff_at[m] != first for m in masks[1:]):
                symmetric = False
                break
        result = {
            "size": len(members),
            "symmetric": symmetric,
            "positive": None,
        }
        if not symmetric:
            return result
        residual = {
            lam: Fraction(coeff_at[self.mask_of_partition[lam]] * scale(self.mask_of_partition[lam]))
            for lam in self.partitions
            if coeff_at[self.mask_of_partition[lam]]
        }
        positive = True
        in_span = True
        for lam in self.index:
            c = residual.get(lam)
            if not c:
                continue
            c = c / self.pivot[lam]
            if c < 0:
                positive = False
            for mu, x in self.matrix[lam].items():
                acc = residual.get(mu, Fraction(0)) - c * x
                if acc:
                    residual[mu] = acc
                else:
                    residual.pop(mu, None)
        if residual:
            in_span = False
            positive = False
        result["positive"] = positive
        result["in_span"] = in_span
        return result


# --- multiprocessing workers ------------------------------------------------

_WORKER: dict = {}


def _init_worker(builtin_name: str, length: int, scan_args) -> None:
    _WORKER["neighbors"] = compile_neighbors(
        builtin_relation(builtin_name), length, length
    )
    if scan_args:
        character, bases, detail = scan_args
        _WORKER["tables"] = [ScanTables(length, character, b) for b in bases]
        _WORKER["detail"] = detail
    else:
        _WORKER["tables"] = None
        _WORKER["detail"] = False


def _count_content(content: Composition) -> tuple[Composition, int, int]:
    neighbors = _WORKER["neighbors"]
    classes = 0
    words = 0
    for component in content_components(content, neighbors):
        classes += 1
        words += len(component)
    return content, classes, words


def _scan_content(content: Composition) -> tuple[Composition, list[dict]]:
    neighbors = _WORKER["neighbors"]
    tables_by_basis: list[ScanTables] = _WORKER["tables"]
    detail: bool = _WORKER["detail"]
    out = []
    for component in content_components(content, neighbors):
        verdict: dict = {"positive": {}}
        for tables in tables_by_basis:
            v = tables.class_verdict(component)
            verdict["size"] = v["size"]
            verdict["symmetric"] = v["symmetric"]
            verdict["positive"][tables.basis] = v["positive"]
        failing = not verdict["symmetric"] or not all(
            verdict["positive"].values()
        )
        if failing or detail:
            verdict["representative"] = format_word(min(component))
        out.append(verdict)
    return content, out


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
    return multiprocessing.get_context("fork").Pool(
        jobs, initializer=_init_worker, initargs=(builtin_name, length, scan_args)
    )


def packed_class_count(
    builtin_name: str,
    length: int,
    jobs: int = 1,
    progress: Callable[[Composition, int, int], None] | None = None,
    skip_contents: Iterable[Composition] = (),
) -> tuple[int, int]:
    """(number of packed classes, number of packed words) at one length.

    Only valid for homogeneous, content-preserving built-ins.  ``progress``
    receives each finished content with its class and word counts;
    ``skip_contents`` supports resuming from a cache."""
    pres = builtin_relation(builtin_name)
    if not (pres.homogeneous and pres.content_preserving):
        raise ValueError(f"{builtin_name} does not split by content")
    skip = set(skip_contents)
    contents = [c for c in packed_contents(length) if c not in skip]
    total_classes = 0
    total_words = 0

    def absorb(content, classes, words):
        nonlocal total_classes, total_words
        total_classes += classes
        total_words += words
        if progress is not None:
            progress(content, classes, words)

    jobs = _worker_count(jobs, len(contents))
    if jobs == 1:
        _init_worker(builtin_name, length, None)
        for content in contents:
            absorb(*_count_content(content))
    else:
        with _pool(builtin_name, length, None, jobs) as pool:
            for content, classes, words in pool.imap_unordered(
                _count_content, contents
            ):
                absorb(content, classes, words)
    return total_classes, total_words


def positivity_scan_homogeneous(
    builtin_name: str,
    length: int,
    character,
    basis: str | tuple[str, ...],
    jobs: int = 1,
    progress: Callable[[Composition, list[dict]], None] | None = None,
    skip_contents: Iterable[Composition] = (),
    detail: bool = False,
) -> dict:
    """Symmetry and positivity of every packed class image at one length.

    ``basis`` may name one basis or several; the report counts classes,
    symmetric classes, and positive-in-every-basis classes, listing a
    representative for each failure (for every class with ``detail``).
    ``progress`` receives each content's finished batch (for streaming and
    caching); ``skip_contents`` supports resuming an interrupted run."""
    pres = builtin_relation(builtin_name)
    if not (pres.homogeneous and pres.content_preserving):
        raise ValueError(f"{builtin_name} does not split by content")
    bases = (basis,) if isinstance(basis, str) else tuple(basis)
    skip = set(skip_contents)
    contents = [c for c in packed_contents(length) if c not in skip]
    totals = {"classes": 0, "symmetric": 0, "positive": 0}
    non_symmetric: list[str] = []
    non_positive: list[str] = []
    rows: list[dict] = []

    def absorb(content, verdicts):
        for v in verdicts:
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
                rows.append(v)
        if progress is not None:
            progress(content, verdicts)

    scan_args = (character, bases, detail)
    jobs = _worker_count(jobs, len(contents))
    if jobs == 1:
        _init_worker(builtin_name, length, scan_args)
        for content in contents:
            absorb(*_scan_content(content))
    else:
        with _pool(builtin_name, length, scan_args, jobs) as pool:
            for content, verdicts in pool.imap_unordered(_scan_content, contents):
                absorb(content, verdicts)
    report = {
        "relation": builtin_name,
        "character": character if isinstance(character, str) else "-".join(character),
        "basis": "+".join(bases),
        "length": length,
        "total_classes": totals["classes"],
        "symmetric": totals["symmetric"],
        "positive": totals["positive"],
        "non_symmetric": sorted(non_symmetric),
        "non_positive": sorted(non_positive),
    }
    if detail:
        report["classes"] = sorted(rows, key=lambda v: v["representative"])
    return report


# --- generic (instance-based) scans -----------------------------------------


def instance_scan(
    inst,
    character,
    degree: int,
    basis: str | None = None,
    lengths: Iterable[int] | None = None,
) -> dict:
    """Symmetry (and optional positivity) scan over the packed classes of a
    closed relation instance, summing member images up to ``degree``."""
    if degree > inst.max_len:
        raise ValueError("degree bound exceeds the instance's certified slice")
    if lengths is None:
        lengths = range(inst.max_len + 1)
    seen: set[int] = set()
    total = 0
    non_symmetric: list[str] = []
    non_positive: list[str] = []
    for length in lengths:
        for members in inst.packed_classes(length):
            cid = inst.class_id(members[0])
            if cid in seen:
                continue
            seen.add(cid)
            total += 1
            image = class_image(members, character, degree)
            rep = format_word(members[0])
            if not is_symmetric(image):
                non_symmetric.append(rep)
                continue
            if basis == "s":
                cert = schur_positive(image)
            elif basis == "Q":
                try:
                    cert = schur_q_positive(image)
                except ValueError:
                    non_positive.append(rep)
                    continue
            else:
                continue
            if not cert.nonnegative:
                non_positive.append(rep)
    return {
        "relation": inst.presentation.name,
        "character": character if isinstance(character, str) else "-".join(character),
        "basis": basis,
        "bounds": {
            "alphabet": inst.alphabet,
            "max_len": inst.max_len,
            "degree": degree,
        },
        "total_classes": total,
        "non_symmetric": sorted(non_symmetric),
        "non_positive": sorted(non_positive),
    }


def symmetry_scan(inst, character, degree: int) -> dict:
    return instance_scan(inst, character, degree, basis=None)


def positivity_scan(inst, character, degree: int, basis: str) -> dict:
    return instance_scan(inst, character, degree, basis=basis)


# --- bounded conjecture searches ---------------------------------------------


def doubling_check(
    base_name: str, alphabet: int, max_len: int, headroom: int = 2
) -> dict:
    """Compare the weak variant of a relation with equivalence of reversed
    doublings: ``v ~weak w`` against ``v^r v ~ w^r w``.

    Returns the list of disagreeing pairs (empty means the bounded search
    found no counterexample)."""
    base = builtin_relation(base_name)
    weak_inst = close(weak_variant(base), alphabet, max_len, headroom)
    doubled_inst = close(base, alphabet, 2 * max_len, headroom)
    words = [w for w in all_words(alphabet, max_len)]
    mismatches = []
    checked = 0
    for i, v in enumerate(words):
        for w in words[i + 1 :]:
            if set(v) != set(w):
                continue
            checked += 1
            lhs = weak_inst.related(v, w)
            rhs = doubled_inst.related(v[::-1] + v, w[::-1] + w)
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
