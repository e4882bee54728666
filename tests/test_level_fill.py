"""The level fill against the per-word flood fill of ``flood_oracle``."""

from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from character_oracle import ALL_CHARACTERS
from flood_oracle import (
    compile_coded_rewrites,
    decode_word,
    flood_classes,
    flood_components,
    word_class,
)
from wordbialg import scans
from wordbialg.relations import (
    BUILTIN_NAMES,
    builtin_relation,
    explicit_relation,
    weak_variant,
)
from wordbialg.rewrite import _rewrite_tables, compile_neighbors
from wordbialg.scans import (
    LevelFill,
    ScanTables,
    _comparison_code,
    _lane_width,
    _multinomial,
    check_level_fill,
    packed_contents,
    positivity_scan_homogeneous,
)
from wordbialg.words import compositions

SPLITTING = ("commutation", "knuth", "exotic-knuth")
PEAK = ("gt", "le")


def _admitted(name):
    try:
        check_level_fill(builtin_relation(name), 0)
    except ValueError:
        return False
    return True


ADMITTED = tuple(filter(_admitted, BUILTIN_NAMES))


def _lane_counts(hist, width):
    """The count in each lane of a histogram, lane 0 first."""
    counts = []
    while hist:
        hist, count = divmod(hist, 1 << width)
        counts.append(count)
    return counts


def _identity(n):
    """The key that gives each comparison code of length ``n`` its own lane."""
    return range(3 ** max(n - 1, 0))


def _oracle_classes(pres, content, key=None):
    n = sum(content)
    rewrites = compile_coded_rewrites(pres, n)
    return [
        word_class((decode_word(x, n) for x in component), key)
        for component in flood_components(content, rewrites)
    ]


def _check_lengths(fill, oracle, label):
    """Each length's classes from a view keyed by the identity, and from
    the fill itself without histograms."""
    for n, contents in oracle.items():
        fill.grow(max(n, fill.length))
        view = fill.keyed(_identity(n), n)
        for content, classes in contents.items():
            assert list(view.classes(content)) == classes, (label, content)
            unkeyed = [(c.least, c.size, None) for c in classes]
            assert list(fill.classes(content)) == unkeyed, (label, content)


@pytest.mark.parametrize("relation", SPLITTING)
def test_level_fill_matches_the_flood_fill_through_length_7(relation):
    # class order, sizes, least words and words per comparison code
    pres = builtin_relation(relation)
    oracle = {
        n: {c: _oracle_classes(pres, c, _identity(n)) for c in packed_contents(n)}
        for n in range(8)
    }
    fill = LevelFill(pres, codes=True)
    _check_lengths(fill, oracle, relation)  # each length one above the levels
    fill.grow(8)
    _check_lengths(fill, oracle, relation)  # each length below a grown fill
    # the arrays below length 8, as the length-8 scan holds them
    assert sum(len(level.labels) for level in fill.levels.values()) == 52_610


@pytest.mark.parametrize("length", range(7))
def test_scan_reports_match_the_flood_fill(length, monkeypatch):
    # every character in both bases, each class's verdict and representative
    reports = {}
    for char in ALL_CHARACTERS:
        reports[char] = positivity_scan_homogeneous(
            "exotic-knuth", length, char, ("s", "Q"), detail=True
        )
    monkeypatch.setattr(scans, "content_components", flood_classes)
    for char in ALL_CHARACTERS:
        oracle = positivity_scan_homogeneous(
            "exotic-knuth", length, char, ("s", "Q"), detail=True
        )
        assert reports[char] == oracle, char


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ADMITTED),
    st.integers(0, 6).flatmap(lambda n: st.sampled_from(list(compositions(n)))),
    st.booleans(),
    st.integers(0, 1),
)
def test_block_histograms_decode_to_the_per_word_histograms(relation, content, peak, extra):
    # a keyed view sums its blocks' histograms; decoded, each class's must
    # be the oracle's count of its words per key, for the peak statistic's
    # lanes and for one lane per code, on a fill grown to the length or past
    n = sum(content)
    pres = builtin_relation(relation)
    key = ScanTables(n, PEAK, ("Q",)).lanes if peak else _identity(n)
    fill = LevelFill(pres, codes=True)
    fill.grow(n + extra)
    width = _lane_width(n)
    got = [
        (c.least, c.size, {lane: x for lane, x in enumerate(_lane_counts(c.hist, width)) if x})
        for c in fill.keyed(key, n).classes(content)
    ]
    expected = []
    for component in flood_components(content, compile_coded_rewrites(pres, n)):
        words = [decode_word(x, n) for x in component]
        per_key = Counter(key[_comparison_code(w)] for w in words)
        expected.append((min(words), len(words), dict(per_key)))
    assert got == expected


@pytest.mark.parametrize("relation", ADMITTED)
def test_keyed_fill_at_lengths_0_and_1_and_below_every_window(relation):
    pres = builtin_relation(relation)
    fill = LevelFill(pres, codes=True)
    # one word each, code 0, in the lane its key gives
    assert list(fill.keyed([5], 0).classes(())) == [((), 1, 1 << 5 * _lane_width(0))]
    fill.grow(1)
    assert list(fill.keyed([3], 1).classes((1,))) == [((1,), 1, 1 << 3 * _lane_width(1))]
    # contents shorter than the narrowest window: a class per word
    tables = _rewrite_tables(pres, range(1, 5), 4).values()
    narrowest = min(len(u) for table in tables for u in table)
    for n in range(narrowest + 1):
        fill.grow(n)
        view = fill.keyed(_identity(n), n)
        for content in packed_contents(n):
            classes = list(view.classes(content))
            assert classes == _oracle_classes(pres, content, _identity(n))
            assert len(classes) == _multinomial(content) or n == narrowest
    # a view serves its own length only
    with pytest.raises(ValueError):
        list(view.classes((1,) * (narrowest - 1)))


def test_scan_below_a_grown_fill_matches_a_fresh_fill():
    # the shared fill grown to 7, then a scan at 6 reads levels that exist
    scans._level_fill.cache_clear()
    positivity_scan_homogeneous("exotic-knuth", 7, PEAK, ("s", "Q"), detail=True)
    assert scans._level_fill("exotic-knuth", True).length == 7
    report = positivity_scan_homogeneous("exotic-knuth", 6, PEAK, ("s", "Q"), detail=True)
    scans._level_fill.cache_clear()
    fresh = positivity_scan_homogeneous("exotic-knuth", 6, PEAK, ("s", "Q"), detail=True)
    assert scans._level_fill("exotic-knuth", True).length == 6
    assert report == fresh


@pytest.mark.parametrize("n", range(8))
def test_lanes_are_wide_enough_for_the_largest_content(n):
    # the widest class of length n: commutation joins all n! words of n
    # distinct letters; keyed into one lane, the count fills it but no more
    width = _lane_width(n)
    assert width == max(map(_multinomial, compositions(n))).bit_length()
    assert factorial(n) < 1 << width <= 2 * factorial(n)
    fill = LevelFill(builtin_relation("commutation"), codes=True)
    fill.grow(n)
    for lane in (0, 1):
        [members] = fill.keyed([lane] * 3 ** max(n - 1, 0), n).classes((1,) * n)
        assert members.hist == factorial(n) << width * lane
        assert list(_lane_counts(members.hist, width)) == [0] * lane + [factorial(n)]


def _uniform_pairs():
    """A packed word of two or three letters and a rearrangement of it."""
    packed = st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(
        lambda w: set(w) == set(range(1, max(w) + 1))
    )
    return packed.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_uniform_pairs(), min_size=1, max_size=3))
def test_level_fill_matches_the_flood_fill_on_uniform_presentations(pairs):
    pres = explicit_relation("random", pairs, uniform=True)
    oracle = {
        n: {c: _oracle_classes(pres, c, _identity(n)) for c in compositions(n)}
        for n in range(6)
    }
    fill = LevelFill(pres, codes=True)
    _check_lengths(fill, oracle, pairs)  # each length one above the levels
    fill.grow(6)
    _check_lengths(fill, oracle, pairs)  # each length below a grown fill


@pytest.mark.parametrize(
    "pres",
    [
        weak_variant(builtin_relation("knuth")),  # a prefix rule
        explicit_relation("whole", [((1, 2), (2, 1))], context_rewrites=False),
        explicit_relation("fixed", [((1, 2, 1), (2, 1, 1))]),  # not uniform
        explicit_relation("gapped", [((1, 3), (3, 1))], uniform=True),  # not packed
        builtin_relation("k-knuth"),  # not split by content
    ],
    ids=lambda p: p.name,
)
def test_level_fill_refuses_what_it_cannot_fill(pres):
    with pytest.raises(ValueError):
        LevelFill(pres, codes=False)


def test_level_fill_refuses_lengths_past_its_bound():
    fill = LevelFill(builtin_relation("exotic-knuth"), codes=False)
    with pytest.raises(ValueError, match="not 16"):
        fill.grow(16)
    fill.grow(3)
    with pytest.raises(ValueError):
        list(fill.classes((1, 1, 1, 1)))


def test_windows_longer_than_the_bound_are_not_listed():
    knuth = builtin_relation("knuth")
    assert _rewrite_tables(knuth, range(1, 101), 2) == {}
    assert compile_neighbors(knuth, range(1, 101), 2)((2, 1)) == []
    tables = _rewrite_tables(builtin_relation("exotic-knuth"), range(1, 6), 3)
    assert {piece for _, piece, _ in tables} == {3}
