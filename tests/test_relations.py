import itertools
import math
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flood_oracle import compile_coded_rewrites, decode_word, flood_components
from wordbialg import relations
from wordbialg.relations import (
    BUILTIN_NAMES,
    CoxeterM,
    ResourceCapError,
    bfs_class,
    builtin_relation,
    check_algebraic,
    check_p_algebraic,
    check_uniformly_algebraic,
    close,
    coxeter_relation,
    explicit_relation,
    gap_braid_m,
    headroom_stability,
    is_finite_type_bounded,
    is_homogeneous_observed,
    universal_coxeter_m,
    universe_size,
    weak_variant,
)
from wordbialg.rewrite import (
    _ANYWHERE,
    _WHOLE,
    _fibers,
    _has_runs,
    _reduce,
    _rewrite_tables,
    compile_neighbors,
)
from wordbialg.words import (
    Word,
    all_words,
    compositions,
    eval_hecke_word,
    flatten,
    rsk_insert,
)


def _cut(classes, bound):
    """The classes cut down to length <= ``bound``, empty cuts left out."""
    cuts = (frozenset(x for x in members if len(x) <= bound) for members in classes)
    return frozenset(cut for cut in cuts if cut)


def slice_partition(inst, bound=None):
    """The classes of ``inst`` cut down to length <= ``bound`` (default: the
    reported slice), empty cuts left out."""
    return _cut(inst.iter_classes(full=True), inst.max_len if bound is None else bound)


def test_universe_cap():
    assert universe_size(3, 2) == 13
    with pytest.raises(ResourceCapError):
        close(builtin_relation("knuth"), 4, 10, headroom=0, cap=1000)
    # a BFS class counts the words it visits against its cap
    pres = builtin_relation("k-knuth")
    members = bfs_class(pres, (1, 2, 1), 7)
    assert bfs_class(pres, (1, 2, 1), 7, cap=len(members)) == members
    with pytest.raises(ResourceCapError):
        bfs_class(pres, (1, 2, 1), 7, cap=len(members) - 1)


@pytest.mark.parametrize(
    "name, alphabet, limit, size",
    [
        ("hecke", 3, 4, 46),  # () and 3 * 2^(m-1) run-reduced words of each m
        ("hecke", 1, 3, 2),
        ("hecke", 2, 0, 1),
        ("hecke", 1, 0, 1),
        ("knuth", 3, 4, 121),  # no a ~ aa: the whole universe
    ],
)
def test_class_roots_weigh_the_union_find_and_match_close(name, alphabet, limit, size):
    pres = builtin_relation(name)
    with pytest.raises(ResourceCapError):
        relations.class_roots(pres, alphabet, limit, cap=size - 1)
    root = relations.class_roots(pres, alphabet, limit, cap=size)
    inst = close(pres, alphabet, limit, headroom=0)
    for v, w in itertools.combinations(inst.words, 2):
        assert (root(v) == root(w)) == inst.related(v, w), (v, w)


def test_certificates_obey_the_cap_on_the_wider_universe():
    # the instance's universe (1,093 words) fits; the certificates' one
    # length wider (3,280 words) does not
    inst = close(builtin_relation("knuth"), 3, 6, cap=2000)
    with pytest.raises(ResourceCapError):
        headroom_stability(inst, cap=2000)
    with pytest.raises(ResourceCapError):
        is_finite_type_bounded(inst, cap=2000)
    assert headroom_stability(inst, cap=3280)["stable"]
    assert is_finite_type_bounded(inst, cap=3280)["count"] == 259
    # the shared wider closure is kept as facts, but the cap still holds
    with pytest.raises(ResourceCapError):
        is_finite_type_bounded(inst, cap=3279)


# the criterion-9 table: the built-ins and the gap-2 pair-order relation
_TABLE = [builtin_relation(name) for name in BUILTIN_NAMES] + [
    coxeter_relation(gap_braid_m(2), "coxeter-gap2")
]


def test_certificates_share_one_wider_closure():
    # one more unit of headroom and one more unit of max_len close the
    # same universe; the certificates agree with both separate closures
    for pres in _TABLE:
        inst = close(pres, 3, 4)
        more_headroom = close(pres, 3, 4, inst.headroom + 1)
        longer = close(pres, 3, 5, inst.headroom)
        assert more_headroom.words == longer.words
        assert more_headroom.class_ids == longer.class_ids
        stable = slice_partition(inst) == slice_partition(more_headroom)
        assert headroom_stability(inst)["partition_stable"] == stable
        assert is_finite_type_bounded(inst)["count_next"] == longer.class_count()


def _repeat_neighbors(w: Word, limit: int) -> list[Word]:
    """``a ~ aa`` in one step: per run of equal letters, the word with the
    run one letter shorter (if it has two letters or more) and one longer
    (if that stays within ``limit``).  Any position of a run gives the same
    word, so each run is rewritten once."""
    out = []
    n = len(w)
    grow = n < limit
    for i in range(n):
        if i and w[i - 1] == w[i]:
            continue  # not the first letter of its run
        if i + 1 < n and w[i + 1] == w[i]:
            out.append(w[:i] + w[i + 1 :])
        if grow:
            out.append(w[: i + 1] + w[i:])
    return out


def _reference_neighbors(pres, alphabet, limit):
    """Every one-step rewrite of a word within ``limit``, by brute force:
    each window rewrite ``a -> b`` of the presentation's tables at every
    occurrence of ``a`` its anchor allows, plus, with a Coxeter part,
    ``a ~ aa``.  The tables hold every generator, however long."""
    tables = _rewrite_tables(pres, range(1, alphabet + 1), math.inf)
    runs = _has_runs(pres)

    def neighbors(w):
        out = _repeat_neighbors(w, limit) if runs else []
        for (where, piece, _), table in tables.items():
            for i in range(len(w) - piece + 1):
                if where != _ANYWHERE and (i or where == _WHOLE and len(w) > piece):
                    continue
                for b in table.get(w[i : i + piece], ()):
                    if len(w) - piece + len(b) <= limit:
                        out.append(w[:i] + b + w[i + piece :])
        return out

    return neighbors


def _two_way_partition(pres, alphabet, limit, bound, neighbors=None):
    """Reference closure: a plain union-find over every word of length at
    most ``limit``, uniting each with all of its two-way neighbours (by
    default the reference rewrites); the classes are returned cut down to
    length ``bound``."""
    words = list(all_words(alphabet, limit))
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    if neighbors is None:
        neighbors = _reference_neighbors(pres, alphabet, limit)
    for i, w in enumerate(words):
        for nb in neighbors(w):
            parent[find(index[nb])] = find(i)
    classes = defaultdict(set)
    for i, w in enumerate(words):
        if len(w) <= bound:
            classes[find(i)].add(w)
    return frozenset(frozenset(c) for c in classes.values())


def _letter_set_pairs(max_letter: int):
    """A generator pair: two words of one to three letters on one letter set,
    of equal or unequal lengths."""
    word = st.lists(st.integers(1, max_letter), min_size=1, max_size=3)

    def partner(v):
        letters = sorted(set(v))
        extra = st.lists(st.sampled_from(letters), max_size=3 - len(letters))
        return extra.flatmap(lambda e: st.permutations(letters + e)).map(
            lambda w: (v, w)
        )

    return word.flatmap(partner)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_letter_set_pairs(3), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 4),
)
def test_compiled_neighbors_match_brute_force_windows(
    pairs, uniform, in_context, weak, alphabet, limit
):
    # without a Coxeter part the compiled step is the plain window rewrite;
    # one-way keeps exactly the neighbours shortlex-smaller than the word
    pres = explicit_relation("random", pairs, uniform, in_context)
    if weak:
        pres = weak_variant(pres)
    reference = _reference_neighbors(pres, alphabet, limit)
    two_way = compile_neighbors(pres, range(1, alphabet + 1), limit)
    one_way = compile_neighbors(pres, range(1, alphabet + 1), limit, True)
    for w in all_words(alphabet, limit):
        expected = set(reference(w))
        assert set(two_way(w)) == expected
        key = (len(w), w)
        assert set(one_way(w)) == {v for v in expected if (len(v), v) < key}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_letter_set_pairs(3), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(2, 3),
    st.integers(1, 3),
)
def test_one_way_closure_and_certificates_match_two_way_reference(
    pairs, uniform, in_context, weak, alphabet, max_len
):
    pres = explicit_relation("random", pairs, uniform, in_context)
    if weak:
        pres = weak_variant(pres)
    inst = close(pres, alphabet, max_len)
    wider = close(pres, alphabet, max_len + 1, inst.headroom)
    assert slice_partition(inst, inst.limit) == _two_way_partition(
        pres, alphabet, inst.limit, inst.limit
    )
    reference = _two_way_partition(pres, alphabet, inst.limit + 1, max_len)
    assert slice_partition(wider, max_len) == reference
    stability = headroom_stability(inst)
    assert stability["partition_stable"] == (slice_partition(inst) == reference)
    finite = is_finite_type_bounded(inst)
    assert finite["count"] == len(slice_partition(inst))
    assert finite["count_next"] == wider.class_count() == len(
        _two_way_partition(pres, alphabet, inst.limit + 1, max_len + 1)
    )


def _coxeter_m(max_letter: int):
    """A pair-order function: default infinite, 2 or 3, with overrides."""
    pairs = list(itertools.combinations(range(1, max_letter + 1), 2))
    override = st.tuples(st.sampled_from(pairs), st.sampled_from([None, 2, 3, 4]))
    overrides = st.lists(override, max_size=2, unique_by=lambda o: o[0])
    return st.builds(
        CoxeterM,
        st.sampled_from([None, 2, 3]),
        overrides.map(lambda os: tuple((*pair, m) for pair, m in os)),
    )


def _shortlex(words):
    return tuple(sorted(words, key=lambda t: (len(t), t)))


@settings(max_examples=60, deadline=None)
@example(CoxeterM(None), [((1, 2), (2, 1, 2))], False, True, False, 2, 3)
@example(CoxeterM(None), [((1, 2), (2, 1))], False, False, False, 2, 2)
@example(CoxeterM(None), [], False, True, True, 2, 2)
@example(CoxeterM(2), [((), ()), ((1, 2), (2, 1, 1))], False, True, False, 2, 2)
# a BFS from 13 compiles over the letters 1 and 3 alone, which still hold
# the uniform pair 13 ~ 31 itself, though no injection of [3] fits in them
@example(CoxeterM(None), [((1, 3), (3, 1))], True, False, False, 3, 0)
@given(
    _coxeter_m(3),
    st.lists(st.one_of(_letter_set_pairs(3), st.just(((), ()))), max_size=2),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(2, 3),
    st.integers(0, 3),
)
def test_run_quotient_matches_two_way_reference(
    m, pairs, uniform, in_context, weak, alphabet, max_len
):
    # unions of a Coxeter part with explicit pairs (unequal lengths,
    # whole-word, uniform) and weak variants: the quotient's close, BFS and
    # certificates against plain searches over every word with a ~ aa; the
    # examples need a step whose window's first run extends past it, a
    # whole-word pair inside a longer word, a swap whose last run does, and
    # the one pair with an empty side, () ~ ()
    pres = relations.RelationPresentation(
        "random",
        union_of=(
            coxeter_relation(m),
            explicit_relation("pairs", pairs, uniform, in_context),
        ),
    )
    if weak:
        pres = weak_variant(pres)
    inst = close(pres, alphabet, max_len)
    reference = _two_way_partition(pres, alphabet, inst.limit, inst.limit)
    assert slice_partition(inst, inst.limit) == reference
    for cls in reference:
        for seed in {min(cls), max(cls)}:
            assert bfs_class(pres, seed, inst.limit) == _shortlex(cls)
    largest = max(reference, key=len)
    with pytest.raises(ResourceCapError):
        bfs_class(pres, min(largest), inst.limit, cap=len(largest) - 1)
    wider = _two_way_partition(pres, alphabet, inst.limit + 1, inst.limit + 1)
    stability = headroom_stability(inst)
    assert stability["partition_stable"] == (
        slice_partition(inst) == _cut(wider, max_len)
    )
    finite = is_finite_type_bounded(inst)
    assert finite["count"] == len(slice_partition(inst))
    assert finite["count_next"] == len(_cut(wider, max_len + 1))


def test_run_fibers():
    # a run fiber holds C(bound, len(r)) distinct words, all reducing to r;
    # a union of fibers comes in shortlex order
    reduced = [(), (1,), (2, 1), (1, 2, 1), (3, 1, 2, 1)]
    for bound in range(7):
        for r in reduced:
            fiber = _fibers([r], bound)
            assert len(set(fiber)) == len(fiber) == math.comb(bound, len(r))
            assert all(_reduce(w) == r and len(w) <= bound for w in fiber)
        union = _fibers(reduced, bound)
        assert union == list(_shortlex(union))
        assert len(union) == sum(math.comb(bound, len(r)) for r in reduced)


def _per_run_fibers(reduced, bound):
    """The run fibers built one run at a time: each word of the fiber of
    ``r`` grows by every length of its next run that leaves one letter for
    each later run; the union is sorted shortlex."""
    out = []
    for r in reduced:
        words = [()]
        for i, a in enumerate(r):
            room = bound - len(r) + i + 1
            longer = []
            for w in words:
                w += (a,)
                while len(w) <= room:
                    longer.append(w)
                    w += (a,)
            words = longer
        out += words
    return sorted(out, key=lambda w: (len(w), w))


reduced_sets_st = st.sets(
    st.lists(st.integers(1, 4), max_size=10).map(lambda w: _reduce(tuple(w))),
    max_size=12,
)


@given(reduced_sets_st, st.integers(0, 10))
@example(set(), 0)
@example({()}, 0)
@example({(), (1,), (3,)}, 4)
@example({(1, 2, 1, 3)}, 3)  # longer than the bound: no words
@example({(2,), (1, 2), (2, 1, 2)}, 0)
@settings(max_examples=150, deadline=None)
def test_fibers_match_per_run_builder(reduced, bound):
    assert _fibers(reduced, bound) == _per_run_fibers(reduced, bound)


def test_knuth_generator_instance():
    inst = close(builtin_relation("knuth"), 3, 3)
    assert inst.related((1, 3, 2), (3, 1, 2))
    assert not inst.related((1, 2, 3), (3, 2, 1))


def test_commutation_class():
    inst = close(builtin_relation("commutation"), 2, 2)
    assert set(inst.class_of((1, 2))) == {(1, 2), (2, 1)}


def test_repeat_collapse_class():
    inst = close(builtin_relation("k-equivalence"), 1, 4)
    assert set(inst.class_of((1,))) == {(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)}


def test_kknuth_class_of_12_two_routes():
    # builtin neighbor family against an explicit generator presentation
    builtin = close(builtin_relation("k-knuth"), 2, 4)
    pairs = [
        ((2, 1, 3), (2, 3, 1)),
        ((1, 3, 2), (3, 1, 2)),
        ((1, 2, 1), (2, 1, 2)),
        ((1,), (1, 1)),
    ]
    explicit = close(
        explicit_relation("k-knuth-pairs", pairs, uniform=True), 2, 4
    )
    assert slice_partition(builtin) == slice_partition(explicit)
    members = set(builtin.class_of((1, 2)))
    for w in [(1, 2), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2), (1, 1, 1, 2)]:
        assert w in members
    assert (2, 1) not in members and (1, 2, 1) not in members


def test_exotic_class_counts_small():
    inst = close(builtin_relation("exotic-knuth"), 5, 5, headroom=0)
    counts = [len(inst.packed_classes(n)) for n in range(6)]
    assert counts == [1, 1, 3, 9, 31, 110]


def test_class_queries():
    inst = close(builtin_relation("knuth"), 3, 4)
    with pytest.raises(KeyError):
        inst.class_of((4,))
    members = inst.class_of((3, 1, 2))
    assert members == tuple(sorted(members, key=lambda t: (len(t), t)))


def test_letter_set_homogeneous_classes():
    for name in BUILTIN_NAMES:
        inst = close(builtin_relation(name), 3, 7)
        for members in inst.iter_classes(full=True):
            letter_sets = {frozenset(w) for w in members}
            assert len(letter_sets) == 1, (name, members[:4])


def test_headroom_stability():
    inst = close(builtin_relation("k-equivalence"), 2, 4, headroom=0)
    report = headroom_stability(inst)
    assert report["stable"]
    # a generator pair straddling the universe boundary is flagged
    synthetic = explicit_relation(
        "straddle", [((1, 2), (1, 1, 1, 2, 2))], uniform=False
    )
    inst = close(synthetic, 2, 3, headroom=0)
    report = headroom_stability(inst)
    assert not report["stable"]
    assert report["straddling_generators"]


def test_homogeneity_observed():
    assert is_homogeneous_observed(close(builtin_relation("knuth"), 3, 5))
    assert not is_homogeneous_observed(close(builtin_relation("k-knuth"), 3, 5))


def reduced_members(members):
    """Members of minimal length."""
    if not members:
        return ()
    shortest = min(len(w) for w in members)
    return tuple(w for w in members if len(w) == shortest)


def test_reduced_members():
    inst = close(builtin_relation("k-equivalence"), 2, 5)
    members = inst.class_of((1, 2, 2, 1))
    assert reduced_members(members) == ((1, 2, 1),)
    # every class has a unique squarefree reduced word
    for members in inst.iter_classes():
        reds = reduced_members(members)
        assert len(reds) == 1
        w = reds[0]
        assert all(w[i] != w[i + 1] for i in range(len(w) - 1))


# --- classifiers -------------------------------------------------------------


EXPECTED_VERDICTS = {
    # (homogeneous, algebraic, uniformly algebraic, p-algebraic, finite type)
    "commutation": (True, True, True, True, False),
    "k-equivalence": (False, True, True, True, False),
    "k-commutation": (False, True, True, True, True),
    "knuth": (True, True, True, True, False),
    "k-knuth": (False, True, True, True, True),
    "hecke": (False, True, True, True, True),
    "exotic-knuth": (True, True, True, True, False),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_builtin_classifier_verdicts(name):
    inst = close(builtin_relation(name), 3, 6)
    homog, alg, uni, palg, ftype = EXPECTED_VERDICTS[name]
    assert is_homogeneous_observed(inst) == homog
    assert check_algebraic(inst)["status"] == "pass"
    assert check_uniformly_algebraic(inst)["status"] == ("pass" if uni else "fail")
    assert check_p_algebraic(inst)["status"] == ("pass" if palg else "fail")
    assert is_finite_type_bounded(inst)["stable"] == ftype


def test_gap_braid_relation_classification():
    inst = close(coxeter_relation(gap_braid_m(2)), 3, 6)
    assert check_algebraic(inst)["status"] == "pass"
    uni = check_uniformly_algebraic(inst)
    assert uni["status"] == "fail"
    palg = check_p_algebraic(inst)
    assert palg["status"] == "fail"
    witness = palg["conditions"][0]["witness"]
    # the two-letter class with a gap supports the count discrepancy
    assert set(witness["class"]) == {1, 3}
    assert witness["counts"] in ((1, 0), (0, 1))
    assert is_finite_type_bounded(inst)["stable"]


def _reference_p_algebraic(inst, prime=None):
    """``check_p_algebraic`` with every group of cut counts walked pair by
    pair: each packed ``u`` of one class against each packed ``v`` of the
    other with the right total length, stopping at the first count that
    differs from the group's first."""
    packed_class_of = {}
    packed_by_len = defaultdict(lambda: defaultdict(list))
    for members in inst.iter_classes():
        for w in members:
            if set(w) == set(range(1, len(set(w)) + 1)):
                packed_class_of[w] = inst.class_id(members[0])
                packed_by_len[packed_class_of[w]][len(w)].append(w)
    witness, checked = None, 0
    for members in inst.iter_classes():
        counts = defaultdict(int)
        for w in members:
            for i in range(len(w) + 1):
                counts[flatten(w[:i]), flatten(w[i:])] += 1
        blocks = defaultdict(dict)
        for (u, v), c in counts.items():
            if u in packed_class_of and v in packed_class_of:
                key = (packed_class_of[u], packed_class_of[v], len(u) + len(v))
                blocks[key][u, v] = c
        for (cu, cv, total_len), seen in blocks.items():
            pairs = [
                (u, v)
                for us in packed_by_len[cu].values()
                for u in us
                for v in packed_by_len[cv].get(total_len - len(u), ())
            ]
            expected = seen.get(pairs[0], 0)
            for u, v in pairs:
                checked += 1
                c = seen.get((u, v), 0)
                if c != expected if prime is None else (c - expected) % prime:
                    witness = {
                        "class": members[0],
                        "pair": pairs[0],
                        "other_pair": (u, v),
                        "counts": (expected, c),
                    }
                    break
            if witness:
                break
        if witness:
            break
    interval = relations._interval_restriction(inst)
    return {
        "property": "p-algebraic",
        "status": "fail" if witness or interval["status"] == "fail" else "pass",
        "prime": prime,
        "conditions": [
            relations._condition("destandardization-counts", checked, witness),
            interval,
        ],
        "bounds": {"alphabet": inst.alphabet, "max_len": inst.max_len},
    }


@pytest.mark.parametrize("name", [*EXPECTED_VERDICTS, "coxeter-gap2"])
def test_p_algebraic_matches_pair_by_pair_walk(name):
    if name == "coxeter-gap2":
        inst = close(coxeter_relation(gap_braid_m(2)), 3, 5)
    else:
        inst = close(builtin_relation(name), 3, 5)
    for prime in (None, 2):
        assert check_p_algebraic(inst, prime) == _reference_p_algebraic(inst, prime)


@settings(max_examples=60, deadline=None)
@example([((1, 2), (2, 1))], False, True, False, 3, 4)
# fails on a group holding every pair of the walk, with unequal counts
@example([((2, 2, 3), (3, 2, 3)), ((2, 3, 3), (3, 2, 2))], False, True, True, 2, 3)
@given(
    st.lists(
        _letter_set_pairs(3).filter(lambda p: len(p[0]) == len(p[1])),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(2, 3),
    st.integers(1, 4),
)
def test_p_algebraic_matches_pair_by_pair_walk_on_random_presentations(
    pairs, uniform, in_context, weak, alphabet, max_len
):
    pres = explicit_relation("random", pairs, uniform, in_context)
    if weak:
        pres = weak_variant(pres)
    inst = close(pres, alphabet, max_len)
    for prime in (None, 2):
        assert check_p_algebraic(inst, prime) == _reference_p_algebraic(inst, prime)


def test_concatenation_congruence_runs_once_per_instance():
    # every check calls ``related`` once per counted case, so the calls add
    # up to conditions (a) and (b) once each and the injections once
    inst = close(builtin_relation("knuth"), 3, 5)
    calls = 0
    related = inst.related

    def counting(v, w):
        nonlocal calls
        calls += 1
        return related(v, w)

    inst.related = counting
    alg = check_algebraic(inst)
    uni = check_uniformly_algebraic(inst)
    congruence, interval = alg["conditions"]
    assert uni["conditions"][:2] == alg["conditions"]
    assert congruence["checked"] > 0 and uni["status"] == alg["status"] == "pass"
    injections = uni["conditions"][2]
    assert calls == (
        congruence["checked"] + interval["checked"] + injections["checked"]
    )
    # the P-algebraic check reuses condition (b) as well
    palg = check_p_algebraic(inst)
    assert palg["conditions"][1] == interval
    assert calls == (
        congruence["checked"] + interval["checked"] + injections["checked"]
    )


def test_whole_word_relation_fails_algebraic():
    pres = explicit_relation(
        "whole-word", [((1, 2, 3), (3, 2, 1))], context_rewrites=False
    )
    inst = close(pres, 3, 4, headroom=0)
    assert inst.related((1, 2, 3), (3, 2, 1))
    report = check_algebraic(inst)
    assert report["status"] == "fail"
    interval_cond = report["conditions"][1]
    assert interval_cond["status"] == "fail"


def _observed_pairs(inst):
    """Each reported-slice member paired with its class's first member."""
    for members in inst.iter_classes():
        for w in members[1:]:
            yield members[0], w


def _congruence_over_all_contexts(inst):
    """Condition (a) by the plain double loop over every pair and context."""
    contexts = [u for u in inst.words if len(u) <= inst.max_len]
    checked = 0
    for rep, w in _observed_pairs(inst):
        for u in contexts:
            for left, right in ((rep + u, w + u), (u + rep, u + w)):
                if max(len(left), len(right)) > inst.max_len:
                    continue
                checked += 1
                if not inst.related(left, right):
                    return checked, {"pair": (rep, w), "context": u}
    return checked, None


def _restriction_over_every_interval(inst):
    """Condition (b) by the plain loop over every pair and letter interval:
    the first failing pair and interval {m+1, ..., n}, or None."""
    for rep, w in _observed_pairs(inst):
        for m in range(inst.alphabet + 1):
            for n in range(m, inst.alphabet + 1):
                rv, wv = (tuple(a - m for a in x if m < a <= n) for x in (rep, w))
                if not inst.related(rv, wv):
                    return (rep, w), (m + 1, n)
    return None


def _invariance_over_all_injections(inst):
    """The uniform condition by the plain loop over every pair and every
    order-preserving injection of [max(rep)] into the alphabet: the first
    failing pair and injection's images, or None."""
    for rep, w in _observed_pairs(inst):
        top = max(rep, default=0)
        if max(w, default=0) != top:
            return (rep, w), None
        for image in itertools.combinations(range(1, inst.alphabet + 1), top):
            rv, wv = (tuple(image[a - 1] for a in x) for x in (rep, w))
            if not inst.related(rv, wv):
                return (rep, w), (rv, wv)
    return None


def test_congruence_skips_only_contexts_that_cannot_fit():
    # one-letter contexts decide condition (a) as every context that fits does
    whole_word = explicit_relation(
        "whole-word", [((1, 2, 3), (3, 2, 1))], context_rewrites=False
    )
    cases = [
        close(builtin_relation("hecke"), 3, 5),
        close(builtin_relation("k-knuth"), 2, 5),
        close(whole_word, 3, 4, headroom=0),
    ]
    statuses = []
    for inst in cases:
        cond = check_algebraic(inst)["conditions"][0]
        _, witness = _congruence_over_all_contexts(inst)
        assert cond["status"] == ("fail" if witness else "pass")
        statuses.append(cond["status"])
        if witness:
            u = cond["witness"]["context"]
            assert len(u) == 1 and cond["witness"]["pair"] in _observed_pairs(inst)
    assert statuses == ["pass", "pass", "fail"]


@settings(max_examples=150, deadline=None)
# fails (a) and (b): a whole-word pair
@example(None, [((1, 2, 3), (3, 2, 1))], False, False, False, 3, 4)
# passes both, fails the injections: 12 ~ 21 alone
@example(None, [((1, 2), (2, 1))], False, True, False, 3, 3)
# a pair that is not packed: 13 ~ 31 and its images under injections of [3]
@example(None, [((1, 3), (3, 1))], True, True, False, 4, 3)
@example(CoxeterM(3), [((1, 2), (2, 1, 2))], False, True, True, 4, 3)
# each fails the whole family through one kind of step only: shifting 23 ~ 32
# down by 1; an injection through a gap below the largest letter; dropping
# the largest letter of a whole-word pair
@example(None, [((1, 1), (1, 1, 1)), ((2, 3), (3, 2))], True, True, False, 4, 2)
@example(CoxeterM(3), [((1, 2), (2, 1))], False, True, True, 4, 4)
@example(None, [((1, 1, 2), (1, 2))], True, False, False, 2, 3)
@given(
    st.none() | _coxeter_m(3),
    st.lists(_letter_set_pairs(3), max_size=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(2, 4),
    st.integers(1, 4),
)
def test_closure_conditions_match_their_whole_families(
    m, pairs, uniform, in_context, weak, alphabet, max_len
):
    # each condition checked on its generating steps reads as it does on
    # every context, every letter interval and every injection
    pres = explicit_relation("random", pairs, uniform, in_context)
    if m is not None:
        pres = relations.RelationPresentation(
            "random", union_of=(coxeter_relation(m), pres)
        )
    if weak:
        pres = weak_variant(pres)
    inst = close(pres, alphabet, max_len)
    report = check_uniformly_algebraic(inst)
    congruence, interval, injections = (c["status"] for c in report["conditions"])
    assert congruence == ("fail" if _congruence_over_all_contexts(inst)[1] else "pass")
    assert interval == ("fail" if _restriction_over_every_interval(inst) else "pass")
    assert injections == ("fail" if _invariance_over_all_injections(inst) else "pass")
    assert report["status"] == ("pass" if {congruence, interval, injections} == {"pass"} else "fail")


def test_trivial_relation_passes():
    pres = explicit_relation("equality", [])
    inst = close(pres, 2, 3, headroom=0)
    assert check_algebraic(inst)["status"] == "pass"
    assert check_p_algebraic(inst)["status"] == "pass"


def test_single_swap_pair_is_algebraic_but_not_uniform():
    # the closure of 12 ~ 21 alone satisfies both closure conditions, but
    # fails invariance under order-preserving injections (13 vs 31)
    pres = explicit_relation("swap12", [((1, 2), (2, 1))])
    inst = close(pres, 3, 4, headroom=0)
    assert check_algebraic(inst)["status"] == "pass"
    report = check_uniformly_algebraic(inst)
    assert report["status"] == "fail"
    witness = report["conditions"][-1]["witness"]
    assert set(witness["images"]) == {(1, 3), (3, 1)}


def test_uniform_closure_of_swap_pair_is_commutation():
    uniform = close(explicit_relation("swap", [((1, 2), (2, 1))], uniform=True), 3, 4)
    commutation = close(builtin_relation("commutation"), 3, 4)
    assert slice_partition(uniform) == slice_partition(commutation)


def test_interval_restriction_consequence_for_uniform_builtins():
    # v ~ w forces v and w to restrict compatibly to every prefix alphabet
    for name in ("knuth", "k-knuth", "hecke"):
        inst = close(builtin_relation(name), 3, 5)
        for members in inst.iter_classes():
            rep = members[0]
            for w in members[1:3]:
                for k in range(4):
                    low_rep = tuple(a for a in rep if a <= k)
                    low_w = tuple(a for a in w if a <= k)
                    assert inst.related(low_rep, low_w)


# --- destandardizations -------------------------------------------------------


def count_destandardizations(members, u, v):
    """Members expressible as a concatenation with flattened blocks (u, v).

    The cut position is forced by the block lengths, so counting words is
    the same as counting cuts, i.e. the coefficient of the pair in the cut
    coproduct of the class sum."""
    cut = len(u)
    return sum(
        1
        for w in members
        if len(w) == cut + len(v)
        and flatten(w[:cut]) == tuple(u)
        and flatten(w[cut:]) == tuple(v)
    )


def test_count_destandardizations():
    members = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)]
    for w in members:
        assert count_destandardizations([w], (1, 2), (1, 2)) == 1
    assert count_destandardizations([()], (), ()) == 1
    # the cut position is forced, so 111 is not a ((1),(1))-destandardization
    assert count_destandardizations([(1, 1, 1)], (1,), (1,)) == 0
    assert count_destandardizations([(1, 1)], (1,), (1,)) == 1
    assert count_destandardizations([(1, 3)], (1, 2), ()) == 1
    assert count_destandardizations([(1, 3)], (2, 1), ()) == 0


def test_gap_braid_two_letter_class_counts():
    inst = close(coxeter_relation(gap_braid_m(2)), 3, 5)
    members = inst.class_of((1, 3))
    assert all(set(w) == {1, 3} for w in members)
    assert count_destandardizations(members, (1, 2), ()) == 1
    assert count_destandardizations(members, (2, 1), ()) == 0


# --- braid lemma ----------------------------------------------------------------


def braid_lemma_check(a, b, length, m):
    """Whether the two alternating words of the given length are equivalent,
    decided inside a bounded closure of the pair-order relation."""
    v = tuple((a, b)[i % 2] for i in range(length))
    w = tuple((b, a)[i % 2] for i in range(length))
    inst = close(coxeter_relation(m), max(a, b), length, headroom=2)
    return inst.related(v, w)


def test_braid_lemma():
    m3 = CoxeterM(default=2, overrides=((1, 2, 3),))
    assert braid_lemma_check(1, 2, 3, m3)
    assert not braid_lemma_check(1, 2, 2, m3)
    assert braid_lemma_check(1, 2, 4, m3)
    assert braid_lemma_check(1, 2, 2, CoxeterM(default=2))
    assert not braid_lemma_check(1, 2, 5, universal_coxeter_m())


def test_coxeter_gap_one_is_hecke():
    a = close(builtin_relation("hecke"), 3, 5)
    b = close(coxeter_relation(gap_braid_m(1)), 3, 5)
    assert slice_partition(a) == slice_partition(b)


def test_gap_below_one_is_refused():
    for gap in (0, -3):
        with pytest.raises(ValueError, match="gap must be positive"):
            gap_braid_m(gap)


@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9))
def test_gap_pair_order_braids_at_the_gap_and_commutes_elsewhere(gap, i, j):
    expected = 1 if i == j else 3 if abs(i - j) == gap else 2
    assert gap_braid_m(gap).value(i, j) == expected


@pytest.mark.parametrize(
    "fields", [{"default": 5}, {"default": None}, {"overrides": ((1, 2, 7),)}]
)
def test_gap_pair_order_refuses_inherited_fields(fields):
    # with a gap, value() reads neither default nor overrides: they would
    # be silently ignored
    with pytest.raises(ValueError, match="only gap"):
        CoxeterM(gap=1, **fields)


def test_universal_coxeter_is_repeat_collapse():
    a = close(builtin_relation("k-equivalence"), 3, 4)
    b = close(coxeter_relation(universal_coxeter_m()), 3, 4)
    assert slice_partition(a) == slice_partition(b)


# --- oracle fibers ----------------------------------------------------------------


def test_knuth_classes_are_insertion_fibers():
    inst = close(builtin_relation("knuth"), 3, 6)
    fibers = defaultdict(set)
    for w in all_words(3, 6):
        fibers[rsk_insert(w)].add(w)
    assert {frozenset(c) for c in inst.iter_classes()} == {
        frozenset(v) for v in fibers.values()
    }


def test_hecke_classes_are_evaluation_fibers():
    inst = close(builtin_relation("hecke"), 3, 6)
    fibers = defaultdict(set)
    for w in all_words(3, 6):
        fibers[eval_hecke_word(w, 3)].add(w)
    assert {frozenset(c) for c in inst.iter_classes()} == {
        frozenset(v) for v in fibers.values()
    }
    assert inst.class_count() == 24  # size of the rank-3 symmetric group monoid image


def test_hecke_finite_type_count():
    inst = close(builtin_relation("hecke"), 2, 5)
    cert = is_finite_type_bounded(inst)
    assert cert["stable"] and cert["count"] == 6


def test_bfs_class_matches_closure():
    inst = close(builtin_relation("k-knuth"), 2, 5)
    for seed in [(1, 2), (2, 1), (1, 2, 1)]:
        assert bfs_class(builtin_relation("k-knuth"), seed, inst.limit) == inst.class_of(
            seed, full=True
        )


@pytest.mark.parametrize("name", ["knuth", "hecke"])
def test_bfs_class_rejects_a_seed_longer_than_its_bound(name):
    # one contract with and without a Coxeter part: a seed of length
    # max_len is in its class, a longer one raises
    pres = builtin_relation(name)
    assert (1, 2, 1) in bfs_class(pres, (1, 2, 1), 3)
    with pytest.raises(ValueError):
        bfs_class(pres, (1, 2, 1, 2), 3)


@pytest.mark.parametrize("name", ["knuth", "hecke", "k-knuth"])
def test_empty_word_is_its_own_class_at_any_bound(name):
    # the fiber of () is () alone, so a huge bound lists nothing more
    assert bfs_class(builtin_relation(name), (), 10**9) == ((),)


def test_weak_variant():
    weak = weak_variant(builtin_relation("hecke"))
    inst = close(weak, 2, 3)
    assert inst.related((1, 2), (2, 1))
    assert weak.content_preserving is False


# --- the window tables against the handwritten rewrite rules ---------------------
#
# The built-ins were once generated by one handwritten function each; those
# rules are kept here verbatim as the reference for the presentation table.


def _commutation_neighbors(w: Word, limit: int) -> list[Word]:
    out = []
    for i in range(len(w) - 1):
        if w[i] != w[i + 1]:
            out.append(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
    return out


def _knuth_neighbors(w: Word, limit: int) -> list[Word]:
    out = []
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if (b < a <= c) or (c < a <= b):
            out.append(w[:i] + (a, c, b) + w[i + 3 :])
        if (a <= c < b) or (b <= c < a):
            out.append(w[:i] + (b, a, c) + w[i + 3 :])
    return out


def _kknuth_neighbors(w: Word, limit: int) -> list[Word]:
    out = _repeat_neighbors(w, limit)
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if b != c and min(b, c) < a < max(b, c):
            out.append(w[:i] + (a, c, b) + w[i + 3 :])
        if a != b and min(a, b) < c < max(a, b):
            out.append(w[:i] + (b, a, c) + w[i + 3 :])
        if a == c and a != b:
            out.append(w[:i] + (b, a, b) + w[i + 3 :])
    return out


def _hecke_neighbors(w: Word, limit: int) -> list[Word]:
    out = _repeat_neighbors(w, limit)
    for i in range(len(w) - 1):
        if abs(w[i] - w[i + 1]) >= 2:
            out.append(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
    for i in range(len(w) - 2):
        if w[i] == w[i + 2] != w[i + 1]:
            out.append(w[:i] + (w[i + 1], w[i], w[i + 1]) + w[i + 3 :])
    return out


def _exotic_neighbors(w: Word, limit: int) -> list[Word]:
    out = []
    n = len(w)
    for i in range(n - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if b != c and min(b, c) < a < max(b, c):
            out.append(w[:i] + (a, c, b) + w[i + 3 :])
        if a != b and min(a, b) < c < max(a, b):
            out.append(w[:i] + (b, a, c) + w[i + 3 :])
        # triples {x, y, y} with doubled larger letter: all arrangements agree
        if a == b > c:
            out.append(w[:i] + (a, c, a) + w[i + 3 :])
            out.append(w[:i] + (c, a, a) + w[i + 3 :])
        elif a == c > b:
            out.append(w[:i] + (a, a, b) + w[i + 3 :])
            out.append(w[:i] + (b, a, a) + w[i + 3 :])
        elif b == c > a:
            out.append(w[:i] + (b, b, a) + w[i + 3 :])
            out.append(w[:i] + (b, a, b) + w[i + 3 :])
    for i in range(n - 3):
        a, b, c, d = w[i : i + 4]
        if b == d and a <= b < c:
            out.append(w[:i] + (b, c, b, a) + w[i + 4 :])
        if a == c and a < b and d <= a:
            out.append(w[:i] + (d, a, b, a) + w[i + 4 :])
    return out


def _kcommutation_neighbors(w: Word, limit: int) -> list[Word]:
    return _commutation_neighbors(w, limit) + _repeat_neighbors(w, limit)


# the built-ins whose one-step neighbour sets the table reproduces exactly
_EXACT_RULES = {
    "commutation": _commutation_neighbors,
    "k-equivalence": _repeat_neighbors,
    "k-commutation": _kcommutation_neighbors,
    "knuth": _knuth_neighbors,
    "k-knuth": _kknuth_neighbors,
    "exotic-knuth": _exotic_neighbors,
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(_EXACT_RULES)),
    st.integers(1, 5).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(st.integers(1, a), max_size=7))
    ),
    st.integers(0, 2),
)
def test_table_neighbors_match_handwritten_rules(name, data, room):
    alphabet, w = data
    w = tuple(w)
    limit = len(w) + room
    neighbors = _reference_neighbors(builtin_relation(name), alphabet, limit)
    assert set(neighbors(w)) == set(_EXACT_RULES[name](w, limit))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4))
def test_hecke_table_closes_like_handwritten_rule(alphabet, max_len):
    # the 0-Hecke presentation rewrites aba -> bab only for adjacent letters;
    # the handwritten rule did so for every pair, which ab ~ ba derives;
    # close runs on the a ~ aa quotient, the oracle is a plain union-find
    # over every word with the two-way handwritten rule
    pres = builtin_relation("hecke")
    table = close(pres, alphabet, max_len)
    visited = []

    def handwritten(w):
        visited.append(w)
        return _hecke_neighbors(w, table.limit)

    oracle = _two_way_partition(pres, alphabet, table.limit, table.limit, handwritten)
    assert visited == list(table.words)  # the oracle asked about every word
    assert slice_partition(table) == _cut(oracle, max_len)
    assert slice_partition(table, table.limit) == oracle


def test_builtins_are_presentation_data():
    knuth = builtin_relation("knuth")
    assert knuth.uniform and knuth.coxeter is None and len(knuth.generators) == 4
    assert builtin_relation("hecke") == coxeter_relation(gap_braid_m(1), "hecke")
    assert builtin_relation("k-knuth").union_of[0] == builtin_relation("k-equivalence")
    assert [builtin_relation(n).homogeneous for n in BUILTIN_NAMES] == [
        n in ("commutation", "knuth", "exotic-knuth") for n in BUILTIN_NAMES
    ]
    with pytest.raises(ValueError):
        builtin_relation("plactic")


def test_weak_variant_is_an_initial_swap():
    base = builtin_relation("knuth")
    weak = weak_variant(base)
    assert weak.union_of == (base,) and weak.initial_swap
    assert weak.homogeneous and weak.content_preserving
    neighbors = compile_neighbors(weak, range(1, 4), 4)
    base_neighbors = compile_neighbors(base, range(1, 4), 4)
    for w in all_words(3, 4):
        swap = {(w[1], w[0]) + w[2:]} if len(w) >= 2 and w[0] != w[1] else set()
        assert set(neighbors(w)) == set(base_neighbors(w)) | swap


def test_window_anchors_and_length_limit():
    # a whole-word rewrite fires on the whole word only, an initial swap at
    # the start only, and no rewrite makes a word longer than the limit
    whole = explicit_relation("whole", [((1, 2, 3), (3, 2, 1))], context_rewrites=False)
    neighbors = compile_neighbors(whole, range(1, 4), 4)
    assert neighbors((1, 2, 3)) == [(3, 2, 1)]
    assert neighbors((1, 2, 3, 1)) == neighbors((2, 1, 2, 3)) == []
    swap = compile_neighbors(
        weak_variant(explicit_relation("equality", [])), range(1, 4), 4
    )
    assert swap((2, 1, 3)) == [(1, 2, 3)] and swap((1, 1, 3, 2)) == []
    inflate = explicit_relation("inflate", [((1,), (1, 1))])
    assert compile_neighbors(inflate, range(1, 2), 2)((1, 1)) == [(1,)]
    assert bfs_class(inflate, (1,), 3) == ((1,), (1, 1), (1, 1, 1))


def _homogeneous_pairs(max_letter: int):
    """A generator pair: a short word and a rearrangement of it."""
    word = st.lists(st.integers(1, max_letter), min_size=2, max_size=3)
    return word.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_homogeneous_pairs(3), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_bfs_close_and_content_components_agree(pairs, uniform, in_context, weak):
    # the three class finders share the rewrite tables but not the search;
    # whole-word rewrites and the initial swap exercise the anchored windows
    pres = explicit_relation("random", pairs, uniform, in_context)
    if weak:
        pres = weak_variant(pres)
    assert pres.homogeneous and pres.content_preserving
    max_len = 5
    inst = close(pres, max_len, max_len)
    assert inst.headroom == 0
    for n in range(max_len + 1):
        rewrites = compile_coded_rewrites(pres, n)
        components = [
            tuple(sorted(decode_word(x, n) for x in component))
            for content in compositions(n)
            for component in flood_components(content, rewrites)
        ]
        assert sorted(components) == sorted(inst.packed_classes(n))
        for component in components:
            assert bfs_class(pres, component[0], n) == component
