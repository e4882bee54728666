import pytest

from wordbialg import scans
from wordbialg.relations import builtin_relation, close
from wordbialg.scans import (
    content_components,
    doubling_check,
    instance_scan,
    packed_class_count,
    packed_contents,
    positivity_scan_homogeneous,
    symmetry_scan,
)
from wordbialg.relations import compile_neighbors
from wordbialg.words import multiset_permutations


def test_packed_contents_cover_ordered_bell():
    from math import comb

    bell = [1]
    for n in range(1, 8):
        bell.append(sum(comb(n, k) * bell[n - k] for k in range(1, n + 1)))
    for n in range(8):
        total = sum(
            sum(1 for _ in multiset_permutations(sum(([a] * c for a, c in enumerate(content, 1)), [])))
            for content in packed_contents(n)
        )
        assert total == bell[n]


def test_content_components_match_closure():
    neighbors = compile_neighbors(builtin_relation("knuth"), 4, 4)
    components = list(content_components((1, 1, 1, 1), neighbors))
    inst = close(builtin_relation("knuth"), 4, 4, headroom=0)
    import itertools

    expected = {
        frozenset(inst.class_of(p))
        for p in itertools.permutations((1, 2, 3, 4))
    }
    assert {frozenset(c) for c in components} == expected


def test_known_class_counts():
    reference = [1, 1, 3, 9, 31, 110, 412]
    for n, want in enumerate(reference):
        classes, words = packed_class_count("exotic-knuth", n)
        assert classes == want
    classes, _ = packed_class_count("knuth", 4)
    inst = close(builtin_relation("knuth"), 4, 4, headroom=0)
    assert classes == len(inst.packed_classes(4))
    with pytest.raises(ValueError):
        packed_class_count("k-knuth", 3)


def test_parallel_matches_serial():
    a = packed_class_count("exotic-knuth", 6, jobs=1)
    b = packed_class_count("exotic-knuth", 6, jobs=2)
    assert a == b


def test_fast_scan_matches_generic_scan():
    fast = positivity_scan_homogeneous("exotic-knuth", 4, ("gt", "le"), "Q")
    inst = close(builtin_relation("exotic-knuth"), 4, 4, headroom=0)
    generic = instance_scan(inst, ("gt", "le"), 4, basis="Q", lengths=[4])
    assert fast["total_classes"] == generic["total_classes"] == 31
    assert fast["non_positive"] == generic["non_positive"]
    assert fast["non_symmetric"] == generic["non_symmetric"] == []


def test_fast_scan_matches_generic_scan_basic_character():
    fast = positivity_scan_homogeneous("knuth", 4, "le", "s")
    inst = close(builtin_relation("knuth"), 4, 4, headroom=0)
    generic = instance_scan(inst, "le", 4, basis="s", lengths=[4])
    assert fast["total_classes"] == generic["total_classes"]
    assert fast["non_positive"] == generic["non_positive"] == []


def test_exotic_q_positivity_exception_at_six():
    # two independent pipelines agree on the single failing class
    rep = positivity_scan_homogeneous("exotic-knuth", 6, ("gt", "le"), "Q")
    assert rep["total_classes"] == rep["symmetric"] == 412
    assert rep["non_positive"] == ["121343"]
    rep_s = positivity_scan_homogeneous("exotic-knuth", 6, ("gt", "le"), "s")
    assert rep_s["positive"] == 412


def test_collapse_relation_has_non_symmetric_images():
    inst = close(builtin_relation("k-equivalence"), 3, 4)
    rep = symmetry_scan(inst, "le", 4)
    assert "121" in rep["non_symmetric"]


def test_knuth_symmetry_scan_generic():
    inst = close(builtin_relation("knuth"), 3, 5)
    rep = instance_scan(inst, "le", 5, basis="s")
    assert rep["non_symmetric"] == [] and rep["non_positive"] == []


def test_scan_progress_and_resume():
    seen = []
    positivity_scan_homogeneous(
        "exotic-knuth", 4, ("gt", "le"), "Q",
        progress=lambda content, verdicts: seen.append((content, len(verdicts))),
    )
    assert sum(k for _, k in seen) == 31
    partial = positivity_scan_homogeneous(
        "exotic-knuth", 4, ("gt", "le"), "Q",
        skip_contents=[c for c, _ in seen[:2]],
    )
    assert partial["total_classes"] == 31 - seen[0][1] - seen[1][1]


def test_weak_hecke_doubling_theorem():
    report = doubling_check("hecke", 3, 3)
    assert report["mismatches"] == []
    assert report["checked_pairs"] > 0


def test_reversed_doubling_search_is_clean_small():
    report = doubling_check("k-knuth", 2, 3)
    assert report["mismatches"] == []


def test_worker_count_clamps(monkeypatch):
    monkeypatch.setattr(scans, "_usable_cpus", lambda: 2)
    assert scans._worker_count(10_000, 50) == 2
    assert scans._worker_count(2, 50) == 2
    assert scans._worker_count(8, 1) == 1
    assert scans._worker_count(4, 0) == 1
    assert scans._worker_count(0, 50) == 1
    assert scans._worker_count(-3, 50) == 1


def test_scans_fork_the_clamped_pool(monkeypatch):
    # the stand-in pool records its size and maps in this process, so no
    # worker process is ever started
    sizes = []

    class InlinePool:
        def __init__(self, builtin_name, length, scan_args, jobs):
            sizes.append(jobs)
            scans._init_worker(builtin_name, length, scan_args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scans, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scans, "_pool", InlinePool)
    peak = ("gt", "le")
    report = positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q", jobs=10_000)
    assert sizes == [2]
    assert report == positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q")
    assert packed_class_count("exotic-knuth", 4, jobs=10_000) == (31, 75)
    assert sizes == [2, 2]
    # a single content needs no pool at all
    assert packed_class_count("exotic-knuth", 1, jobs=10_000) == (1, 1)
    assert sizes == [2, 2]
