"""Class enumeration scans and bounded conjecture searches.

Homogeneous, content-preserving relations (Knuth, exotic Knuth,
commutation) never mix letter multisets, so their packed classes split by
content.  The parent and ``jobs - 1`` forked children each run every
``jobs``-th content; the reports sort the rows, the same for any ``jobs``.
A content's result is one row, the unit a resumable run caches and resumes.
A content's classes come from the classes one length down
(:class:`LevelFill`), and a class comes as its histogram of a character's
statistic, lane-packed in one int, which the characters kernel expands by
cut mask (:func:`characters.image_of_histogram`).  Symmetry is constancy
on sorting fibers; Schur and Schur-Q positivity come from the exact
triangular solve in :mod:`qsym`.  Classes share few histograms (152 among
the 6,465 exotic classes of length 8), so the verdict is memoised on them,
and a content's row asks for it once per histogram of the content: the row
counts the content's classes, symmetric ones and positive ones, and lists
the representatives of the failures.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import marshal
import os
import queue
import threading
from array import array
from math import comb, factorial
from typing import Iterator, NamedTuple

from .characters import _statistic, format_character, image_of_histogram
from .qsym import _compositions_of, _in_m, _triangular_solve
from .relations import (
    DEFAULT_CAP,
    RelationPresentation,
    _check_cap,
    builtin_relation,
    class_roots,
    default_headroom,
    universe_size,
    weak_variant,
)
from .rewrite import _parts, _rewrite_tables
from .words import (
    Composition,
    Partition,
    Word,
    all_words,
    comp_sort,
    compositions,
    format_word,
    is_packed,
    is_strict_partition,
    multiset_permutations,
    partitions,
)

MAX_LENGTH = 15  # longer packed words number over 10^13: refused outright


def packed_contents(length: int) -> list[Composition]:
    """Letter multisets of packed words of a length, largest classes first."""
    return sorted(compositions(length), key=lambda c: (-_multinomial(c), c))


def fill_weight(length: int, done) -> int:
    """The ranks the level fill holds to run the length's packed contents not
    in ``done``: one per packed word one length down (0 if none is left)."""
    if length == 0 or all(c in done for c in compositions(length)):
        return 0
    return sum(map(_multinomial, compositions(length - 1)))


def _multinomial(content: Composition) -> int:
    num = factorial(sum(content))
    for c in content:
        num //= factorial(c)
    return num


def check_level_fill(pres: RelationPresentation, length: int) -> None:
    """Raise ``ValueError`` unless the level fill finds the presentation's
    packed classes at the length: generators uniform on packed words that
    rewrite in any context, and a length at most ``MAX_LENGTH``."""
    if not (pres.homogeneous and pres.content_preserving):
        raise ValueError(f"{pres.name} does not split by content")
    if any(
        part.initial_swap
        or part.generators and not (part.context_rewrites and part.uniform)
        or not all(is_packed(v) for v, _ in part.generators)
        for part in _parts(pres)
    ):
        raise ValueError(f"{pres.name} has rules other than uniform ones on packed words")
    if length > MAX_LENGTH:
        raise ValueError(f"the level fill runs lengths up to {MAX_LENGTH}, not {length}")


# --- the level fill ----------------------------------------------------------


def _comparison_code(w: Word) -> int:
    """One base-3 digit per adjacent pair of letters, the first pair most
    significant: 0 for a rise, 1 for equal letters, 2 for a descent."""
    code = 0
    for x, y in zip(w, w[1:]):
        code = 3 * code + (x >= y) + (x > y)
    return code


def _lane_width(length: int) -> int:
    """The bits of one lane of a histogram of words of ``length`` letters:
    a packed content has at most ``length!`` words, so no lane carries."""
    return factorial(length).bit_length()


def _code_word(code: int, length: int) -> Word:
    """A word of integers whose comparison code is ``code``."""
    w = [0] * length
    for i in range(length - 1, 0, -1):
        code, digit = divmod(code, 3)
        w[i - 1] = w[i] - 1 + digit
    return tuple(w)


class ContentClass(NamedTuple):
    """A class: its least word, its size (also its ``len``) and, from a
    keyed fill, its words with ``key[code] = i`` counted in lane ``i``."""

    least: Word
    size: int
    hist: int | None = None

    def __len__(self) -> int:
        return self.size


class _Level(NamedTuple):  # the classes of a packed content, by word rank
    labels: array  # the class of each word; classes in order of least word
    codes: array | None  # the comparison code of each word
    least: list[Word]  # the least word of each class
    sizes: list[int]  # the words of each class


class LevelFill:
    """The packed classes of a presentation that :func:`check_level_fill`
    admits, length by length, with no word listed.

    ``levels`` holds, per packed content of the lengths below ``length``
    (:meth:`grow`), the class label and the comparison code (one base-3
    digit per adjacent pair of letters) of each word at its lexicographic
    rank.  A word of content ``c`` is a first letter ``a`` and a tail of
    content ``c - a``.  The windows after ``a`` rewrite the tail alone, so
    the words ``a t`` with ``t`` in one class of tails form a block, and
    with uniform rewrites that class is the packed tail's one length down.
    A start window ``u -> v`` maps the words beginning with ``u``, in order,
    onto those beginning with ``v``: the two ranges of tail labels, zipped,
    give the blocks it joins.  Their offsets are running sums of
    multinomials on a walk of the trie of windows.  Below the narrowest
    window every word is a class, and those levels are listed.  The code
    of ``a t`` is the digit of ``a`` against the first letter ``b`` of ``t``
    and the code of ``t``, so a keyed view (:meth:`keyed`) reads a block's
    histogram off prefix sums over ``b`` of its tails', visiting no word of
    its own."""

    def __init__(self, pres: RelationPresentation, codes: bool):
        check_level_fill(pres, 0)
        self.pres = pres
        self.codes = codes
        self.key = None  # the histogram lane of each code (None: no histograms)
        self.length = 0
        self.levels: dict[Composition, _Level] = {}
        self._trie: dict = {}  # letter -> [subtrie, moves of the window]
        self._narrowest = 2

    def grow(self, length: int) -> None:
        """Build every level below ``length``, with the windows of words of
        ``length`` letters."""
        check_level_fill(self.pres, length)
        if length <= self.length:
            return
        self._trie = {}
        widths = set()
        for table in _rewrite_tables(self.pres, range(1, length + 1), length).values():
            for u, vs in table.items():
                node = self._trie
                for x in u[:-1]:
                    node = node.setdefault(x, [{}, None])[0]
                # each move once, from its lesser window
                node.setdefault(u[-1], [{}, None])[1] = sorted(v for v in vs if v > u)
                widths.add(len(u))
        self._narrowest = max(2, min(widths, default=length + 1))  # 1 letter: no move
        for m in range(self.length, length):
            for content in compositions(m):
                self.levels[content] = self._level(content)
        self.length = length

    def keyed(self, key, length: int) -> LevelFill:
        """This fill, levels shared, giving each class of ``length`` letters
        its histogram keyed by ``key[code]``, from the tails' histograms built
        here for every content one length down (:meth:`_hists_of_tails`)."""
        view = copy.copy(self)
        view.key, view.key_length, view.width = key, length, _lane_width(length)
        view.span = view.width * (max(key) + 1)  # the bits of one histogram
        lead = 3 ** (length - 2) if length > 1 else 0
        view._digits = [  # per code of a tail, its word's histogram per digit
            sum(1 << d * view.span + view.width * key[d * lead + code] for d in range(3))
            for code in range(lead)
        ]
        view._tail_hists = {
            c: view._hists_of_tails(c) for c in self.levels if sum(c) == length - 1
        }
        return view

    def classes(self, content: Composition) -> Iterator[ContentClass]:
        """The classes of one packed content of at most ``length`` letters
        (of the keyed length when keyed), in the order of their least words."""
        n = sum(content)
        if n > self.length or self.key is not None and n != self.key_length:
            raise ValueError(f"the fill does not serve content {content}")
        if n < 2:  # one word, with code 0
            hist = None if self.key is None else 1 << self.width * self.key[0]
            return iter([ContentClass((1,) * n, 1, hist)])
        tails, label, least, sizes = self._join(content)
        if self.key is None:
            return map(ContentClass, least, sizes)
        hists, span, mask = [0] * len(least), self.span, (1 << self.span) - 1
        for a, tail, level, letters, base in tails:
            # digit 2 for the tails' letters below a, 1 for a repeated a, else 0
            k, rises, sums = len(tail) + 1, a - (letters is not None), self._tail_hists[tail]
            blocks = label[base : base + len(level.least)]
            for c, lo, mid, hi in zip(blocks, sums[a - 1 :: k], sums[rises::k], sums[k - 1 :: k]):
                hists[c] += (lo >> 2 * span) + (mid - lo >> span & mask) + (hi - mid & mask)
        return map(ContentClass, least, sizes, hists)

    def _hists_of_tails(self, content: Composition) -> list[int]:
        """At ``(k + 1) class + j`` for a content of ``k`` letters, the words
        ``a t`` for ``t`` in the class beginning with a letter ``b <= j``:
        their histogram per digit of ``a`` against ``b``, digit ``d`` from
        bit ``d span`` (a prefix sum over ``b``, so a range of ``b`` costs a
        difference)."""
        level, k, m = self.levels[content], len(content) + 1, sum(content)
        hists, start, total = [0] * (k * len(level.least)), 0, _multinomial(content)
        for b, r in enumerate(content, 1):  # the tails beginning with b
            end = start + total * r // m
            for t, code in zip(level.labels[start:end], level.codes[start:end]):
                hists[k * t + b] += self._digits[code]
            start = end
        for i in range(0, len(hists), k):  # a repeated sum shares the last one's int
            for j in range(i + 1, i + k):
                hists[j] = hists[j] + hists[j - 1] if hists[j] else hists[j - 1]
        return hists

    def _level(self, content: Composition) -> _Level:
        """The level of one packed content."""
        if sum(content) < self._narrowest:  # no window fits: a class per word
            letters = [a for a, c in enumerate(content, 1) for _ in range(c)]
            words = list(multiset_permutations(letters))
            codes = array("i", map(_comparison_code, words)) if self.codes else None
            return _Level(array("i", range(len(words))), codes, words, [1] * len(words))
        tails, label, least, sizes = self._join(content)
        labels = array("i")
        codes = array("i") if self.codes else None
        for word_labels, word_codes in self._ranges(content, tails, label):
            labels.extend(word_labels)
            if codes is not None:
                codes.extend(word_codes)
        return _Level(labels, codes, least, sizes)

    def _join(self, content: Composition) -> tuple[list, list, list, list]:
        """``(tails, class of each block, least word and size of each
        class)``; ``tails`` holds per first letter its tails' content, level,
        letters as the content's (None: the same) and first block."""
        tails, blocks = [], 0
        for a, count in enumerate(content, 1):
            tail = content[: a - 1] + (count - 1,) * (count > 1) + content[a:]
            letters = None if count > 1 else (0, *range(1, a), *range(a + 1, len(content) + 1))
            tails.append((a, tail, self.levels[tail], letters, blocks))
            blocks += len(tails[-1][2].least)
        parent = list(range(blocks))
        for a, i, b, j, size in self._start_moves(content):
            _, _, left, _, base_a = tails[a - 1]
            _, _, right, _, base_b = tails[b - 1]
            for x, y in set(zip(left.labels[i : i + size], right.labels[j : j + size])):
                x += base_a
                y += base_b
                while parent[x] != x:  # _find, inlined in the hot loop
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:  # a class's root is its least block
                    parent[y] = x
                elif y < x:
                    parent[x] = y
        # classes numbered in block order, the order of their least words;
        # a block's parent is a lesser block of its class, labelled already
        label: list[int] = []
        least: list[Word] = []
        sizes: list[int] = []
        for a, _, level, letters, base in tails:
            for t, (w, size) in enumerate(zip(level.least, level.sizes), base):
                if parent[t] == t:
                    label.append(len(least))
                    least.append((a, *(w if letters is None else map(letters.__getitem__, w))))
                    sizes.append(size)
                else:
                    label.append(label[parent[t]])
                    sizes[label[t]] += size
        return tails, label, least, sizes

    def _ranges(self, content: Composition, tails: list, label: list) -> Iterator:
        """``(labels, codes)`` of the content's words, a range of ranks at a
        time: per first letter ``a`` and, with codes, per next letter ``b``,
        whose comparison digit with ``a`` leads the tails' codes."""
        n = sum(content)
        total = _multinomial(content)
        for a, _, level, _, base in tails:
            own = label[base : base + len(level.least)].__getitem__
            if not self.codes:
                yield map(own, level.labels), None
                continue
            start, tails_of_a = 0, total * content[a - 1] // n
            for b, r in enumerate(content, 1):
                r -= b == a
                if r:
                    end = start + tails_of_a * r // (n - 1)
                    codes = level.codes[start:end]
                    if a >= b:
                        codes = map((((a > b) + 1) * 3 ** (n - 2)).__add__, codes)
                    yield map(own, level.labels[start:end]), codes
                    start = end

    def _start_moves(self, content: Composition) -> list[tuple[int, int, int, int, int]]:
        """``(a, i, b, j, size)`` for each start rewrite ``u -> v`` of the
        content's words: the ``size`` words beginning with ``u`` are the
        tails of first letter ``a`` from rank ``i`` on, and they map in
        order onto the tails of first letter ``b`` from rank ``j`` on."""
        found: dict[Word, tuple] = {}  # window -> (tail rank, words, moves)
        rem = list(content)

        def walk(node: dict, prefix: Word, offset: int, size: int, m: int, first: int):
            for b, r in enumerate(rem, 1):
                if r:
                    sub = size * r // m
                    if b in node:  # the words from offset on begin with prefix b
                        child, vs = node[b]
                        key, first = prefix + (b,), first if prefix else offset
                        if vs is not None:
                            found[key] = (offset - first, sub, vs)
                        if child:
                            rem[b - 1] = r - 1
                            walk(child, key, offset, sub, m - 1, first)
                            rem[b - 1] = r
                    offset += sub

        walk(self._trie, (), 0, _multinomial(content), sum(content), 0)
        moves = ((u, v, i, size) for u, (i, size, vs) in found.items() for v in vs)
        return [(u[0], i, v[0], found[v][0], size) for u, v, i, size in moves]


def content_components(content: Composition, fill: LevelFill) -> Iterator[ContentClass]:
    """The classes of one packed content, in the order of their least words
    (a generator: the fill runs when the first class is asked for)."""
    yield from fill.classes(content)


# --- class verdicts ---------------------------------------------------------


class ScanTables:
    """The sorting fibers of one length, for deciding symmetry and
    positivity of class images in one basis or several.

    A class comes as its words per statistic of the character (from a fill
    keyed by ``lanes``, the lane of each comparison code's statistic).  The
    verdict depends only on that histogram, so it is memoised on its int:
    the decode, the expansion and the solve run once per histogram."""

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
        codes = range(3 ** max(length - 1, 0))
        statistics = [_statistic(_code_word(c, length), character) for c in codes]
        self._values = list(dict.fromkeys(statistics))  # the statistic of each lane
        self.lanes = list(map({v: i for i, v in enumerate(self._values)}.get, statistics))
        self._memo: dict[int, tuple[bool, dict]] = {}  # histogram -> verdict
        for lam in partitions(length):  # the solve's tables, warm before a fork
            for b in (b for b in self.bases if b == "s" or is_strict_partition(lam)):
                _in_m(lam, b)

    def class_verdict(self, members: ContentClass) -> dict:
        """Decide symmetry plus positivity in each basis of one class's
        image; an image outside a basis span is not positive there.
        ``positive`` maps each basis to its verdict."""
        decided = self._memo.get(members.hist)
        if decided is None:
            width, lanes = _lane_width(self.length), enumerate(self._values)
            counts = [(v, members.hist >> width * i & (1 << width) - 1) for i, v in lanes]
            if sum(c for _, c in counts) != members.size:  # a lane carried
                raise ValueError(f"a class of {members.size} words overflows its histogram")
            coeffs = image_of_histogram([vc for vc in counts if vc[1]], self.character, self.length)
            decided = self._memo[members.hist] = self._decide(coeffs)
        symmetric, positive = decided
        return dict(size=members.size, symmetric=symmetric, positive=dict(positive))

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


# --- the scan's processes ---------------------------------------------------

_WORKER: dict = {}


@functools.lru_cache(maxsize=1)
def _level_fill(builtin_name: str, codes: bool) -> LevelFill:
    """One level fill kept at a time: a later length grows it, and children
    forked after it grew share it."""
    return LevelFill(builtin_relation(builtin_name), codes)


def _init_worker(builtin_name: str, length: int, scan_args) -> None:
    """Set ``_WORKER`` up for the tasks of one length, in this process:
    children forked afterwards inherit it."""
    fill = _level_fill(builtin_name, scan_args is not None)
    fill.grow(length)
    if scan_args:
        character, bases, detail = scan_args
        tables = ScanTables(length, character, bases)
        fill = fill.keyed(tables.lanes, length)
    else:
        tables, detail = None, False
    _WORKER.update(fill=fill, tables=tables, detail=detail)


def _count_content(content: Composition) -> tuple[Composition, dict]:
    sizes = list(map(len, content_components(content, _WORKER["fill"])))
    return content, {"classes": len(sizes), "words": sum(sizes)}


def _scan_content(content: Composition) -> tuple[Composition, dict]:
    """One content's row: its counts of classes, of symmetric ones and of
    positive ones, the representatives of the failing ones, and, with
    ``detail``, every class's verdict.  A verdict depends on the histogram
    alone, so it is asked for once per histogram, of its first class."""
    tables: ScanTables = _WORKER["tables"]
    classes = list(content_components(content, _WORKER["fill"]))
    first = {members.hist: members for members in reversed(classes)}
    row = {"classes": len(classes), "symmetric": 0, "positive": 0,
           "non_symmetric": [], "non_positive": []}
    failed = {}  # histogram -> the list its classes' representatives go to
    for hist, count in collections.Counter(members.hist for members in classes).items():
        verdict = tables.class_verdict(first[hist])
        row["symmetric"] += count * verdict["symmetric"]
        if verdict["symmetric"] and all(verdict["positive"].values()):
            row["positive"] += count
        else:
            failed[hist] = row["non_positive" if verdict["symmetric"] else "non_symmetric"]
    for members in classes:
        if members.hist in failed:
            failed[members.hist].append(format_word(members.least))
    if _WORKER["detail"]:  # the memo answers: no more verdicts are solved
        row["verdicts"] = [
            dict(tables.class_verdict(members), representative=format_word(members.least))
            for members in classes
        ]
    return content, row


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_count(jobs: int, tasks: int) -> int:
    """Processes for ``tasks`` contents, the parent included: never more
    than requested, than usable CPUs, or than contents, and at least one."""
    return max(1, min(jobs, _usable_cpus(), tasks))


def _fork(task, contents: list[Composition]) -> tuple[int, int]:
    """``(pid, read end)`` of a forked child that marshals ``task(content)``
    down a pipe per content as it is made, or else its exception, pickled."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:  # the child never returns into the parent's frames
        with open(write, "wb") as pipe:
            try:
                for content in contents:
                    marshal.dump(task(content), pipe)
                    pipe.flush()
            except BaseException as err:  # the parent raises it again
                import pickle  # only a failing scan pays for importing it
                marshal.dump(pickle.dumps(err), pipe)
        os._exit(0)
    finally:  # reached only if the exception could not be sent
        os._exit(1)


def _relay(pid: int, read: int, inbox: queue.SimpleQueue) -> None:
    """Put ``(pid, message)`` on ``inbox`` per message of the pipe, then ``(pid, None)``."""
    with open(read, "rb") as pipe, contextlib.suppress(EOFError, ValueError):
        while True:  # to the end, or to a message cut off by a kill
            inbox.put((pid, marshal.load(pipe)))
    inbox.put((pid, None))


class ScanWorkerError(RuntimeError):
    """A forked scan child died, or exited non-zero, before sending all its rows."""


def _rows(
    builtin_name: str, length: int, scan_args, task, jobs: int, cache
) -> Iterator[dict]:
    """The row of every packed content of the length: first the rows that
    ``cache.done`` holds, then ``task(content)``'s for the others, each
    recorded with ``cache.record`` as it comes (:func:`check_level_fill`
    first).  The parent runs every ``jobs``-th content and ``jobs - 1``
    forked children the rest; a child's exception is raised here, its death
    as :class:`ScanWorkerError`, and every child is reaped however the
    caller stops."""
    check_level_fill(builtin_relation(builtin_name), length)
    done = {} if cache is None else cache.done
    yield from done.values()
    contents = [c for c in packed_contents(length) if c not in done]
    if not contents:
        return
    jobs = _worker_count(jobs, len(contents))
    # the levels and tables grow here, once, and forked children share them
    _init_worker(builtin_name, length, scan_args)
    own, inbox = contents[::jobs], queue.SimpleQueue()
    children: dict[int, threading.Thread] = {}  # pid -> its relay, until reaped
    try:
        for k in range(1, jobs):
            pid, read = _fork(task, contents[k::jobs])
            children[pid] = threading.Thread(target=_relay, args=(pid, read, inbox), daemon=True)
        for relay in children.values():  # after the forks: a fork copies no thread
            relay.start()
        while own or children:
            if own and inbox.empty():
                content, row = task(own.pop(0))
            else:
                pid, message = inbox.get()
                if isinstance(message, bytes):
                    import pickle
                    raise pickle.loads(message)
                if message is None:  # the pipe closed: the child has ended
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    children.pop(pid).join()
                    if code:
                        how = f"killed by signal {-code}" if code < 0 else f"exited with {code}"
                        raise ScanWorkerError(
                            f"scan worker {pid} {how} before sending all its rows"
                        )
                    continue
                content, row = message
            if cache is not None:
                cache.record(content, row)
            yield row
    finally:
        if children:
            import signal  # only a scan stopped early pays for importing it
        for pid, relay in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if relay.is_alive():
                relay.join()


def packed_class_count(
    builtin_name: str, length: int, jobs: int = 1, cache=None
) -> tuple[int, int]:
    """(number of packed classes, number of packed words) at one length,
    for the built-ins :func:`check_level_fill` admits.  ``cache`` resumes a
    run: any object with ``done``, the rows of the contents already counted
    by content, and ``record(content, row)``, which is handed each fresh
    row ``{"classes", "words"}`` (``cli.ContentCache`` is one)."""
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
    one content's ``{"classes", "symmetric", "positive", "non_symmetric",
    "non_positive"}``, with ``detail`` also its classes' ``"verdicts"``."""
    bases = (basis,) if isinstance(basis, str) else tuple(basis)
    report = {"relation": builtin_name, "character": format_character(character),
              "basis": "+".join(bases), "length": length, "total_classes": 0,
              "symmetric": 0, "positive": 0, "non_symmetric": [], "non_positive": []}
    details: list[dict] = []
    scan_args = (character, bases, detail)
    for row in _rows(builtin_name, length, scan_args, _scan_content, jobs, cache):
        report["total_classes"] += row["classes"]
        for key in ("symmetric", "positive", "non_symmetric", "non_positive"):
            report[key] += row[key]
        if detail:
            details.extend(row["verdicts"])
    report["non_symmetric"].sort()
    report["non_positive"].sort()
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
    run-reduced words for relations with ``a ~ aa``; the pairs are those of
    one letter set.  Raises ``ResourceCapError`` when the words of length at
    most ``max_len``, their pairs or a union-find would pass ``cap``."""
    base = builtin_relation(base_name)
    headroom = default_headroom(base)
    # the pairs' words, the pairs of each letter set, then the larger
    # union-find, so an oversized request fails before the search
    _check_cap("universe", universe_size(alphabet, max_len, cap), cap)
    words = list(all_words(alphabet, max_len))
    groups: dict[frozenset, list[int]] = {}
    for i, w in enumerate(words):
        groups.setdefault(frozenset(w), []).append(i)
    checked = sum(comb(len(group), 2) for group in groups.values())
    _check_cap("pairing", checked, cap, "word pairs")
    doubled = class_roots(base, alphabet, 2 * max_len + headroom, cap)
    weak = class_roots(weak_variant(base), alphabet, max_len + headroom, cap)
    # each word's class on either side
    keys = [(weak(w), doubled(w[::-1] + w)) for w in words]
    found = []  # (i, j, weak, doubled) for the pairs that disagree
    for group in groups.values():
        for p, i in enumerate(group):
            for j in group[p + 1 :]:
                lhs, rhs = (keys[i][0] == keys[j][0]), (keys[i][1] == keys[j][1])
                if lhs != rhs:
                    found.append((i, j, lhs, rhs))
    mismatches = [
        {"pair": (format_word(words[i]), format_word(words[j])), "weak": lhs, "doubled": rhs}
        for i, j, lhs, rhs in sorted(found)
    ]
    return {
        "relation": base_name,
        "bounds": {"alphabet": alphabet, "max_len": max_len, "headroom": headroom},
        "checked_pairs": checked,
        "mismatches": mismatches,
    }
