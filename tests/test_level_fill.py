"""The level fill against the per-word flood fill of ``flood_oracle``."""

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
from wordbialg.relations import builtin_relation, explicit_relation, weak_variant
from wordbialg.rewrite import _rewrite_tables, compile_neighbors
from wordbialg.scans import LevelFill, packed_contents, positivity_scan_homogeneous
from wordbialg.words import compositions

SPLITTING = ("commutation", "knuth", "exotic-knuth")


def _oracle_classes(pres, content):
    n = sum(content)
    rewrites = compile_coded_rewrites(pres, n)
    return [
        word_class(decode_word(x, n) for x in component)
        for component in flood_components(content, rewrites)
    ]


@pytest.mark.parametrize("relation", SPLITTING)
def test_level_fill_matches_the_flood_fill_through_length_7(relation):
    # class order, sizes, least words and words per comparison code
    pres = builtin_relation(relation)
    oracle = {
        content: _oracle_classes(pres, content)
        for n in range(8)
        for content in packed_contents(n)
    }
    fill = LevelFill(pres, codes=True)
    for content, classes in oracle.items():  # each content one length up
        fill.grow(sum(content))
        assert list(fill.classes(content)) == classes, (relation, content)
    fill.grow(8)
    for content, classes in oracle.items():  # each content from its level
        assert list(fill.classes(content)) == classes, (relation, content)
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
    fill = LevelFill(pres, codes=True)
    fill.grow(5)
    for n in range(6):
        for content in compositions(n):
            assert list(fill.classes(content)) == _oracle_classes(pres, content)


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
