"""Word relations: presentations, bounded closures, and classifiers.

A relation presentation names an equivalence on words, given by one of
three kinds of generating data:

- a symmetric letter-pair order function (``coxeter``), which generates
  ``a ~ aa`` together with the alternating pair of each finite order,
- an explicit list of generator pairs with equal letter sets, applied as
  substring rewrites in every context and closed under down-shifts (and,
  for uniform presentations, under order-preserving letter injections),
- a union of presentations.

A presentation may also swap the first two letters of a word
(``initial_swap``, the weak variants).  The built-in relations
(``commutation``, ``k-equivalence``, ``k-commutation``, ``knuth``,
``k-knuth``, ``hecke``, ``exotic-knuth``) are named presentations of these
kinds, kept in one table; there is no separate rewrite family for them.
The rewrite engine (:mod:`rewrite`) turns every generating pair into a
window rewrite and compiles them into one step, on words or on the
``a ~ aa`` quotient below, with one table lookup per window.

``close`` materializes the equivalence classes on the universe of words
with letters in ``[alphabet]`` and length at most ``max_len + headroom``;
the headroom zone exists because inhomogeneous rewrites may route two
short words through longer ones; it generates each rewrite edge once, from
its longer or larger end.  ``headroom_stability`` and
``is_finite_type_bounded`` run the same union-find one length wider and
compare class counts.  All classifier verdicts are relative to the stated
bounds.  Within them they are exact: each closure condition is checked on
maps that generate its family (one-letter contexts for concatenation,
three interval steps for restriction, the gap maps for order-preserving
injections; see ``_closed_under``).

Every presentation with a Coxeter part contains ``a ~ aa``, and there the
search runs on the quotient by it: a word is related to its run reduction
(each run of equal letters collapsed to one letter), so a class is a
union of run fibers (the words of the bound that reduce to one word; see
:mod:`rewrite`).  ``bfs_class`` searches reduced words, weighs the class
by its fiber sizes against its cap and only then lists the fibers;
``close`` runs its union-find over the reduced words, each universe word
taking its reduction's class; and the certificates count components of
the reduced words one length wider.  All of them take their steps from
``compile_neighbors``, as they do without ``a ~ aa``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .rewrite import (
    _fibers,
    _has_runs,
    _join,
    _parts,
    _reduce,
    _reduced_words,
    compile_neighbors,
)
from .words import (
    Word,
    all_words,
    check_word,
    flatten,
    is_packed,
    parse_word,
    word_max,
)


class ResourceCapError(RuntimeError):
    """Raised when a requested closure exceeds the configured universe cap."""


DEFAULT_CAP = 2_000_000  # universe words a closure may hold unless told otherwise


@dataclass(frozen=True)
class CoxeterM:
    """Symmetric pair-order function m(i, j) with m(i, i) = 1.

    ``default`` applies to all pairs i != j without an override; the value
    ``None`` (or the string "inf" in JSON) means infinite order.  With a
    ``gap``, every pair at |i - j| = gap braids (order 3) and every other
    pair commutes.
    """

    default: int | None = 2
    overrides: tuple[tuple[int, int, int | None], ...] = ()
    gap: int | None = None

    def __post_init__(self):
        if self.gap is not None:
            # value() then reads only the gap, so the other fields must
            # keep their defaults
            if (self.default, self.overrides) != (2, ()):
                raise ValueError("a gap pair order takes only gap")
            if self.gap < 1:
                raise ValueError("gap must be positive")
        for i, j, m in self.overrides:
            if i == j:
                raise ValueError("pair orders are only overridable for i != j")
            if m is not None and m < 2:
                raise ValueError(f"pair order m({i},{j}) = {m} must be >= 2")
        if self.default is not None and self.default < 2:
            raise ValueError("default pair order must be >= 2 or None")

    def value(self, i: int, j: int) -> int | None:
        if i == j:
            return 1
        if self.gap is not None:
            return 3 if abs(i - j) == self.gap else 2
        key = (min(i, j), max(i, j))
        for a, b, m in self.overrides:
            if (min(a, b), max(a, b)) == key:
                return m
        return self.default


def gap_braid_m(gap: int) -> CoxeterM:
    """m(i, i + gap) = 3 with all other pair orders 2, for every i."""
    return CoxeterM(gap=gap)


def universal_coxeter_m() -> CoxeterM:
    return CoxeterM(default=None)


@dataclass(frozen=True)
class RelationPresentation:
    name: str
    generators: tuple[tuple[Word, Word], ...] = ()
    coxeter: CoxeterM | None = None
    union_of: tuple["RelationPresentation", ...] = ()
    uniform: bool = False
    # When False, explicit generators rewrite only entire words (no
    # surrounding context); used to construct non-congruence test relations.
    context_rewrites: bool = True
    # Also swap the first two letters of a word (the weak variants).
    initial_swap: bool = False

    def __post_init__(self):
        for v, w in self.generators:
            if set(v) != set(w):
                raise ValueError(
                    f"generator pair {v} ~ {w} does not have equal letter sets"
                )

    @property
    def homogeneous(self) -> bool:
        """Structurally length-preserving (sufficient, not bounded-observed)."""
        return (
            self.coxeter is None
            and all(len(v) == len(w) for v, w in self.generators)
            and all(p.homogeneous for p in self.union_of)
        )

    @property
    def content_preserving(self) -> bool:
        """Every rewrite preserves the letter multiset."""
        return (
            self.coxeter is None
            and all(sorted(v) == sorted(w) for v, w in self.generators)
            and all(p.content_preserving for p in self.union_of)
        )


def coxeter_relation(m: CoxeterM, name: str = "coxeter") -> RelationPresentation:
    """The congruence generated by ``a ~ aa`` and, for each pair of letters
    with finite order, the equality of the two alternating words of that
    length."""
    return RelationPresentation(name=name, coxeter=m)


def explicit_relation(
    name: str,
    pairs: Iterable[tuple[Iterable[int], Iterable[int]]],
    uniform: bool = False,
    context_rewrites: bool = True,
) -> RelationPresentation:
    gens = tuple((check_word(v), check_word(w)) for v, w in pairs)
    return RelationPresentation(
        name=name, generators=gens, uniform=uniform, context_rewrites=context_rewrites
    )


def weak_variant(base: RelationPresentation) -> RelationPresentation:
    """The relation generated by ``base`` plus swapping the first two letters."""
    return RelationPresentation(
        f"weak-{base.name}", union_of=(base,), initial_swap=True
    )


def _uniform(name: str, pairs: str) -> RelationPresentation:
    """The uniform presentation of the pairs written ``"213~231 ..."``."""
    return explicit_relation(
        name, [map(parse_word, p.split("~")) for p in pairs.split()], uniform=True
    )


_K_EQUIVALENCE = coxeter_relation(universal_coxeter_m(), "k-equivalence")

_BUILTINS = {
    p.name: p
    for p in (
        _uniform("commutation", "12~21"),
        _K_EQUIVALENCE,
        coxeter_relation(CoxeterM(default=2), "k-commutation"),
        _uniform("knuth", "213~231 212~221 132~312 121~211"),
        RelationPresentation(
            "k-knuth",
            union_of=(
                _K_EQUIVALENCE,
                _uniform("k-knuth-pairs", "213~231 132~312 121~212"),
            ),
        ),
        coxeter_relation(gap_braid_m(1), "hecke"),  # the 0-Hecke monoid
        _uniform(
            "exotic-knuth",
            "213~231 132~312 221~212 221~122 212~122 1232~2321 1121~1211",
        ),
    )
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_relation(name: str) -> RelationPresentation:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}")
    return _BUILTINS[name]


# --- bounded closure -------------------------------------------------------


def universe_size(alphabet: int, limit: int, cap: int = DEFAULT_CAP) -> int | None:
    """The number of words of length at most ``limit`` over ``[alphabet]``,
    or ``None`` when the bit lengths already show that ``alphabet ** limit``
    is past ``cap``, so a huge bound computes no huge integer."""
    if alphabet == 0:
        return 1
    if alphabet == 1:
        return limit + 1
    if limit * (alphabet.bit_length() - 1) > cap.bit_length():
        return None
    return (alphabet ** (limit + 1) - 1) // (alphabet - 1)


def default_headroom(pres: RelationPresentation) -> int:
    """The headroom a closure takes unless told otherwise: none for a
    homogeneous presentation, 2 for one whose rewrites change lengths."""
    return 0 if pres.homogeneous else 2


@dataclass
class RelationInstance:
    """A frozen bounded closure: universe, class ids, and class members."""

    presentation: RelationPresentation
    alphabet: int
    max_len: int
    headroom: int
    words: tuple[Word, ...] = field(repr=False)
    class_ids: tuple[int, ...] = field(repr=False)
    index: dict = field(repr=False)

    def __post_init__(self):
        # ``words`` is in shortlex order (``close`` lists it so), so each
        # class's members come out sorted and the classes come out in
        # representative order
        members: dict[int, list[Word]] = {}
        for w, cid in zip(self.words, self.class_ids):
            members.setdefault(cid, []).append(w)
        self._members = {cid: tuple(ws) for cid, ws in members.items()}
        # conditions (a) and (b) of the algebraic check: the uniform and
        # P-algebraic checks repeat them
        self._congruence: dict | None = None
        self._interval: dict | None = None
        # the certificates' class counts one length wider (_wider_facts)
        self._wider: tuple[int, int] | None = None

    @property
    def limit(self) -> int:
        return self.max_len + self.headroom

    def class_id(self, w: Word) -> int:
        w = tuple(w)
        i = self.index.get(w)
        if i is None:
            raise KeyError(f"word {w} outside the closed universe")
        return self.class_ids[i]

    def related(self, v: Word, w: Word) -> bool:
        return self.class_id(v) == self.class_id(w)

    def class_of(self, w: Word, full: bool = False) -> tuple[Word, ...]:
        """Members of the class of ``w``, restricted to length <= max_len
        unless ``full`` (which exposes the headroom zone too)."""
        members = self._members[self.class_id(w)]
        if full:
            return members
        return tuple(x for x in members if len(x) <= self.max_len)

    def iter_classes(self, full: bool = False) -> Iterator[tuple[Word, ...]]:
        """All classes meeting the reported slice, in representative order."""
        for members in self._members.values():
            sliced = members if full else tuple(
                x for x in members if len(x) <= self.max_len
            )
            if sliced:
                yield sliced

    def packed_classes(self, length: int) -> list[tuple[Word, ...]]:
        """Classes containing a packed word of the given length."""
        seen: set[int] = set()
        out = []
        for w in self.words:
            if len(w) == length and is_packed(w):
                cid = self.class_ids[self.index[w]]
                if cid not in seen:
                    seen.add(cid)
                    out.append(self.class_of(w))
        out.sort(key=lambda ms: (len(ms[0]), ms[0]))
        return out

    def class_count(self) -> int:
        """Number of classes meeting the length <= max_len slice."""
        return sum(1 for _ in self.iter_classes())


def close(
    pres: RelationPresentation,
    alphabet: int,
    max_len: int,
    headroom: int | None = None,
    cap: int = DEFAULT_CAP,
) -> RelationInstance:
    """Union-find closure of the presentation on a bounded universe; with
    ``a ~ aa``, over the run-reduced words, each word taking the class of
    its run reduction."""
    if headroom is None:
        headroom = default_headroom(pres)
    limit = max_len + headroom
    _check_cap("universe", universe_size(alphabet, limit, cap), cap)
    # the rewrite tables list every pair of letters
    _check_cap("alphabet", alphabet * alphabet, cap, "letter pairs")
    universe = tuple(all_words(alphabet, limit))
    words, index, roots = _components(pres, alphabet, limit, universe)
    if words is universe:  # no ``a ~ aa``: the union-find ran on the universe
        class_ids = tuple(roots)
    else:
        # the universe is length-major and lexicographic: each length lists
        # the words one shorter, each followed by every letter in turn, and
        # a word reduces to its prefix's reduction joined with its last
        # letter; the reduced words shorter than ``limit`` are a prefix of
        # ``words``, which is length-major too
        letters = [(a,) for a in range(1, alphabet + 1)]
        then = [[index[_join(r, a)] for a in letters] for r in words if len(r) < limit]
        level, reductions = [0], [0]
        for _ in range(limit):
            level = [k for p in level for k in then[p]]
            reductions += level
        class_ids = tuple(map(roots.__getitem__, reductions))
        index = dict(zip(universe, itertools.count()))
    return RelationInstance(
        presentation=pres,
        alphabet=alphabet,
        max_len=max_len,
        headroom=headroom,
        words=universe,
        class_ids=class_ids,
        index=index,
    )


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(
    pres: RelationPresentation,
    alphabet: int,
    limit: int,
    universe: Sequence[Word] | None = None,
) -> tuple[Sequence[Word], dict[Word, int], list[int]]:
    """The union-find of the closure at bound ``limit``: its words, their
    positions, and the position of each word's component root.

    With ``a ~ aa`` the words are the run-reduced words, united by the
    quotient's steps; otherwise they are the universe (``universe``, when
    the caller has listed it), united with their one-way neighbours.  Either
    way the words are length-major, and each step goes to a word among them."""
    if _has_runs(pres):
        words = _reduced_words(alphabet, limit)
    else:
        words = tuple(all_words(alphabet, limit)) if universe is None else universe
    steps = compile_neighbors(pres, range(1, alphabet + 1), limit, True)
    index = dict(zip(words, itertools.count()))
    parent = list(range(len(words)))
    for i, w in enumerate(words):
        ri = _find(parent, i)
        for nb in steps(w):
            rj = index[nb]
            while parent[rj] != rj:  # _find, inlined in the hot loop
                parent[rj] = parent[parent[rj]]
                rj = parent[rj]
            if ri != rj:
                parent[rj] = ri
    return words, index, [_find(parent, i) for i in range(len(words))]


def class_roots(
    pres: RelationPresentation, alphabet: int, limit: int, cap: int = DEFAULT_CAP
) -> Callable[[Word], int]:
    """The class of each word of length at most ``limit`` over
    ``[alphabet]`` as its component root in the union-find of ``close``,
    without listing the universe: with ``a ~ aa`` a word answers through its
    run reduction.  Raises ``ResourceCapError`` before listing any word when
    the union-find would list more than ``cap`` words."""
    runs = _has_runs(pres)
    # 1 empty word, then alphabet * (alphabet - 1)^(m - 1) reduced words of length m
    if runs and limit:
        rest = universe_size(alphabet - 1, limit - 1, cap)
        size = None if rest is None else 1 + alphabet * rest
    else:
        size = universe_size(alphabet, limit, cap)
    _check_cap("union-find", size, cap)
    _, index, roots = _components(pres, alphabet, limit)
    key = _reduce if runs else tuple
    return lambda w: roots[index[key(w)]]


def _check_cap(what: str, size: int | None, cap: int, unit: str = "words") -> None:
    """Raise ``ResourceCapError`` for a size past ``cap`` (``None``: known
    to be past it, uncounted)."""
    if size is None or size > cap:
        count = f"more than {cap}" if size is None else size
        raise ResourceCapError(
            f"{what} of {count} {unit} exceeds cap {cap}; raise --cap or shrink bounds"
        )


def bfs_class(
    pres: RelationPresentation,
    seed: Word,
    max_len: int,
    cap: int = DEFAULT_CAP,
) -> tuple[Word, ...]:
    """The connected component of ``seed`` among words of length <= max_len,
    in shortlex order.

    Letters never leave the seed's letter set (word relations preserve
    letter sets), so the rewrites are compiled over the seed's letters.
    With ``a ~ aa`` the search runs over run-reduced words from the seed's
    reduction and the class is the union of their run fibers.  Raises
    ``ValueError`` for a seed longer than ``max_len``, and
    ``ResourceCapError`` as soon as the class is known to hold more than
    ``cap`` words, before any fiber is listed."""
    seed = tuple(seed)
    if len(seed) > max_len:
        raise ValueError(f"seed of length {len(seed)} exceeds max_len {max_len}")
    runs = _has_runs(pres)
    start = _reduce(seed) if runs else seed
    neighbors = compile_neighbors(pres, sorted(set(seed)), max_len)

    def size(w: Word) -> int:  # the words ``w`` stands for
        return math.comb(max_len, len(w)) if runs else 1

    seen = {start}
    total = size(start)
    stack = [start]
    while stack and total <= cap:
        for nb in neighbors(stack.pop()):
            if nb not in seen:
                seen.add(nb)
                total += size(nb)
                stack.append(nb)
    if total > cap:
        raise ResourceCapError(
            f"class exceeds cap {cap} words within length {max_len}; "
            "raise --cap or shrink bounds"
        )
    if runs:
        return tuple(_fibers(seen, max_len))
    return tuple(sorted(seen, key=lambda t: (len(t), t)))


def _wider_facts(inst: RelationInstance, cap: int) -> tuple[int, int]:
    """The class counts of the closure one length past the instance's, on
    the reported slice and at ``max_len + 1``, which the headroom and
    finite-type certificates share: the distinct component roots
    (:func:`_components` at ``limit + 1``) among the words of each length
    bound.  A component meets a bound when one of its words does, the run
    reduction included.  Computed once per instance, with the cap checked
    on every call."""
    _check_cap("universe", universe_size(inst.alphabet, inst.limit + 1, cap), cap)
    if inst._wider is None:
        words, _, roots = _components(
            inst.presentation, inst.alphabet, inst.limit + 1
        )
        inst._wider = tuple(
            len({c for w, c in zip(words, roots) if len(w) <= n})
            for n in (inst.max_len, inst.max_len + 1)
        )
    return inst._wider


def headroom_stability(inst: RelationInstance, cap: int = DEFAULT_CAP) -> dict:
    """Certify that one more unit of headroom leaves the reported slice's
    partition unchanged: the wider closure can only merge the instance's
    classes, so the partitions agree when the class counts on the slice do.

    Also flags explicit generator pairs that straddle the universe boundary,
    since such pairs can never fire inside the closed universe.  Raises
    ``ResourceCapError`` when the wider universe exceeds ``cap``."""
    stable = inst.class_count() == _wider_facts(inst, cap)[0]
    straddling = [
        (v, w)
        for part in _parts(inst.presentation)
        for v, w in part.generators
        if min(len(v), len(w)) <= inst.limit < max(len(v), len(w))
    ]
    return {
        "stable": stable and not straddling,
        "partition_stable": stable,
        "straddling_generators": straddling,
        "bounds": {
            "alphabet": inst.alphabet,
            "max_len": inst.max_len,
            "headroom": inst.headroom,
        },
    }


# --- classifiers -----------------------------------------------------------


def _observed_pairs(inst: RelationInstance) -> Iterator[tuple[Word, Word]]:
    """Each reported-slice member paired with its class representative."""
    for members in inst.iter_classes():
        rep = members[0]
        for w in members[1:]:
            yield rep, w


def _closed_under(
    inst: RelationInstance, steps: Callable[[Word, Word], Iterable[tuple]]
) -> tuple[int, tuple | None]:
    """Whether the reported slice's partition is closed under the maps that
    ``steps(rep, w)`` names, as ``(label, map)``, for each class
    representative ``rep`` and other member ``w``: the checks made, and the
    first failure ``((rep, w), label, (map(rep), map(w)))`` or ``None``.

    A partition is closed under a monoid of maps when it is closed under its
    generators, so each condition names generating steps.  A step depends
    on the class only through what its members share: their letter set
    (word relations preserve letter sets), or the representative being the
    shortest member."""
    checked = 0
    for rep, w in _observed_pairs(inst):
        for label, f in steps(rep, w):
            images = f(rep), f(w)
            checked += 1
            if not inst.related(*images):
                return checked, ((rep, w), label, images)
    return checked, None


def check_algebraic(inst: RelationInstance) -> dict:
    """Bounded check of the two closure conditions of an algebraic relation:
    (a) concatenation congruence, via one-sided contexts against class
    representatives; (b) interval restriction with down-shift.
    """
    condition_a = _concatenation_congruence(inst)
    condition_b = _interval_restriction(inst)
    return {
        "property": "algebraic",
        "status": _status(condition_a, condition_b),
        "conditions": [condition_a, condition_b],
        "bounds": {"alphabet": inst.alphabet, "max_len": inst.max_len},
    }


def _condition(name: str, checked: int, witness: dict | None) -> dict:
    """One condition's report: it fails when it has a witness."""
    return {
        "condition": name,
        "status": "fail" if witness else "pass",
        "checked": checked,
        **({"witness": witness} if witness else {}),
    }


def _status(*reports: dict) -> str:
    """``fail`` when any report fails, else ``pass``."""
    return "fail" if any(r["status"] == "fail" for r in reports) else "pass"


def _concatenation_congruence(inst: RelationInstance) -> dict:
    """Condition (a), computed once per instance: related pairs stay
    related under one-sided concatenation within the slice.

    The steps append or prepend one letter to a pair with room for it.  A
    longer context follows one letter at a time: each intermediate pair
    lies in one class, whose representative is its shortest member, so the
    representative's extension fits when both words' extensions do."""
    if inst._congruence is None:
        maps = [
            (u, f)
            for u in ((a,) for a in range(1, inst.alphabet + 1))
            for f in (lambda x, u=u: x + u, lambda x, u=u: u + x)
        ]
        checked, failure = _closed_under(
            inst, lambda rep, w: maps if len(w) < inst.max_len else ()
        )
        witness = failure and dict(zip(("pair", "context"), failure))
        inst._congruence = _condition("concatenation-congruence", checked, witness)
    return inst._congruence


def _restriction(m: int, n: int) -> tuple:
    """The restriction to the letter interval {m+1, ..., n} shifted down by
    ``m``, as a labelled step of :func:`_closed_under`."""
    return (m + 1, n), lambda x: tuple(a - m for a in x if m < a <= n)


def _interval_restriction(inst: RelationInstance) -> dict:
    """Condition (b) of an algebraic relation, computed once per instance:
    restricting both words of a related pair to a letter interval and
    shifting down keeps them related.

    For a class with least letter ``s`` and largest ``t`` the steps drop
    ``t``; drop ``s`` and shift down by ``s``; and, when ``s >= 2``, shift
    down by 1.  Every interval restriction is a sequence of these, each
    chosen by the letter set of the class it reaches."""
    if inst._interval is None:

        def steps(rep: Word, w: Word) -> list:  # rep != w: rep has letters
            s, t = min(rep), max(rep)
            cuts = [(0, t - 1), (s, inst.alphabet)]
            if s >= 2:
                cuts.append((1, inst.alphabet))
            return [_restriction(m, n) for m, n in cuts]

        checked, failure = _closed_under(inst, steps)
        witness = failure and dict(zip(("pair", "interval", "restrictions"), failure))
        inst._interval = _condition("interval-restriction", checked, witness)
    return inst._interval


def check_uniformly_algebraic(inst: RelationInstance) -> dict:
    """Algebraic plus invariance under order-preserving letter injections.

    For a class with largest letter ``t`` below the alphabet's, the steps
    are the gap maps a -> a + [a >= k] of [t], for k = t, ..., 1: every
    order-preserving injection is a sequence of them."""
    base = check_algebraic(inst)

    @functools.cache
    def gaps(top: int) -> list:  # none when no letter is free above ``top``
        ks = range(top, 0, -1) if top < inst.alphabet else ()
        phis = ({a: a + (a >= k) for a in range(1, top + 1)} for k in ks)
        return [(phi, lambda x, phi=phi: tuple(map(phi.get, x))) for phi in phis]

    pairs = _observed_pairs(inst)
    mismatch = next(((v, w) for v, w in pairs if word_max(v) != word_max(w)), None)
    if mismatch:
        checked, witness = 0, {"pair": mismatch, "reason": "letter sets differ"}
    else:
        checked, failure = _closed_under(inst, lambda rep, w: gaps(word_max(rep)))
        witness = failure and dict(zip(("pair", "injection", "images"), failure))
    injection_cond = _condition("order-preserving-injections", checked, witness)
    return {
        "property": "uniformly-algebraic",
        "status": _status(base, injection_cond),
        "conditions": base["conditions"] + [injection_cond],
        "bounds": base["bounds"],
    }


def check_p_algebraic(inst: RelationInstance, prime: int | None = None) -> dict:
    """Bounded check of the packed-word coalgebra condition: within every
    class, cut counts by flattened block pair must be constant when the
    blocks are replaced by equivalent packed words (equal in characteristic
    zero, congruent mod ``prime`` otherwise), plus interval restriction."""
    packed_class_of: dict[Word, int] = {}
    # class id -> length -> packed slice members, in member order
    packed_by_len: dict[int, dict[int, list[Word]]] = {}
    for members in inst.iter_classes():
        cid = inst.class_id(members[0])
        for w in members:
            if is_packed(w):
                packed_class_of[w] = cid
                packed_by_len.setdefault(cid, {}).setdefault(len(w), []).append(w)

    witness = None
    checked = 0
    flat = functools.cache(flatten)  # each distinct block flattened once
    for members in inst.iter_classes():
        # the class's cuts counted by flattened block pair
        counts = Counter(
            (flat(w[:i]), flat(w[i:])) for w in members for i in range(len(w) + 1)
        )
        blocks: dict[tuple[int, int, int], dict[tuple[Word, Word], int]] = {}
        for (u, v), c in counts.items():
            cu = packed_class_of.get(u)
            cv = packed_class_of.get(v)
            if cu is None or cv is None:
                continue
            blocks.setdefault((cu, cv, len(u) + len(v)), {})[(u, v)] = c
        for (cu, cv, total_len), seen in blocks.items():
            vs_by_len = packed_by_len[cv]
            # seen's pairs are among the walk's; if it holds them all, with
            # one count, the walk passes them all in any characteristic
            pairs = sum(
                len(us) * len(vs_by_len.get(total_len - n, ()))
                for n, us in packed_by_len[cu].items()
            )
            if len(seen) == pairs and len(set(seen.values())) == 1:
                checked += pairs
                continue
            walk = (
                (u, v)
                for u in itertools.chain.from_iterable(packed_by_len[cu].values())
                for v in vs_by_len.get(total_len - len(u), ())
            )
            first = next(walk)  # seen is not empty, so neither is the walk
            expected = seen.get(first, 0)
            checked += 1
            for u, v in walk:
                c = seen.get((u, v), 0)
                checked += 1
                if not _congruent(c, expected, prime):
                    witness = {
                        "class": members[0],
                        "pair": first,
                        "other_pair": (u, v),
                        "counts": (expected, c),
                    }
                    break
            if witness:
                break
        if witness:
            break

    condition_a = _condition("destandardization-counts", checked, witness)
    condition_b = _interval_restriction(inst)
    return {
        "property": "p-algebraic",
        "status": _status(condition_a, condition_b),
        "prime": prime,
        "conditions": [condition_a, condition_b],
        "bounds": {"alphabet": inst.alphabet, "max_len": inst.max_len},
    }


def _congruent(a: int, b: int, prime: int | None) -> bool:
    return a == b if prime is None else (a - b) % prime == 0


def is_homogeneous_observed(inst: RelationInstance) -> bool:
    return all(
        len({len(w) for w in members}) == 1 for members in inst.iter_classes(full=True)
    )


def is_finite_type_bounded(inst: RelationInstance, cap: int = DEFAULT_CAP) -> dict:
    """Certificate that the class count over the alphabet has stabilized:
    the count at max_len equals the count at max_len + 1.  Raises
    ``ResourceCapError`` when the wider universe exceeds ``cap``."""
    n0, n1 = inst.class_count(), _wider_facts(inst, cap)[1]
    return {
        "stable": n0 == n1,
        "count": n0,
        "count_next": n1,
        "bounds": {"alphabet": inst.alphabet, "max_len": inst.max_len},
    }
