import contextlib
import functools
import os
import signal
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from character_oracle import ALL_CHARACTERS, oracle_sum
from wordbialg import scans
from wordbialg.characters import (
    _statistic,
    class_image,
    format_character,
)
from flood_oracle import (
    compile_coded_rewrites,
    decode_word,
    encode_word,
    flood_components,
    word_class,
)
from wordbialg.qsym import is_symmetric, schur_positive, schur_q_positive
from wordbialg.relations import bfs_class, builtin_relation, close
from wordbialg.scans import (
    ContentClass,
    LevelFill,
    _code_word,
    _comparison_code,
    _lane_width,
    content_components,
    doubling_check,
    packed_class_count,
    packed_contents,
    positivity_scan_homogeneous,
)
from wordbialg.words import all_words, format_word, multiset_permutations


def instance_scan(inst, character, degree, basis=None, lengths=None):
    """Symmetry (and optional positivity) scan over the packed classes of a
    closed relation instance, summing member images up to ``degree``: the
    generic oracle of the content-sliced scan."""
    if degree > inst.max_len:
        raise ValueError("degree bound exceeds the instance's certified slice")
    if lengths is None:
        lengths = range(inst.max_len + 1)
    seen = set()
    total = 0
    non_symmetric = []
    non_positive = []
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
        "character": format_character(character),
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


def _fill(relation, length, codes=True):
    fill = LevelFill(builtin_relation(relation), codes)
    fill.grow(length)
    return fill


def test_content_components_match_closure():
    classes = list(content_components((1, 1, 1, 1), _fill("knuth", 4)))
    inst = close(builtin_relation("knuth"), 4, 4, headroom=0)
    import itertools

    expected = sorted(
        {inst.class_of(p) for p in itertools.permutations((1, 2, 3, 4))}
    )
    assert [(c.least, c.size) for c in classes] == [(c[0], len(c)) for c in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), max_size=8),
    st.sampled_from(["exotic-knuth", "knuth", "commutation"]),
)
def test_content_components_match_per_word_fill(parts, relation):
    # contents up to length 8: the leading parts that fit
    content = []
    for c in parts:
        if sum(content) + c > 8:
            break
        content.append(c)
    n = sum(content)
    key = range(3 ** max(n - 1, 0))  # each comparison code in its own lane
    view = _fill(relation, n).keyed(key, n)
    got = list(content_components(tuple(content), view))
    rewrites = compile_coded_rewrites(builtin_relation(relation), n)
    expected = [
        word_class((decode_word(x, n) for x in component), key)
        for component in flood_components(tuple(content), rewrites)
    ]
    assert got == expected


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
    peak = ("gt", "le")
    serial = positivity_scan_homogeneous("exotic-knuth", 6, peak, "Q", jobs=1, detail=True)
    parallel = positivity_scan_homogeneous("exotic-knuth", 6, peak, "Q", jobs=2, detail=True)
    assert parallel == serial and len(serial["classes"]) == 412


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
    rep = instance_scan(inst, "le", 4)
    assert "121" in rep["non_symmetric"]


def test_knuth_symmetry_scan_generic():
    inst = close(builtin_relation("knuth"), 3, 5)
    rep = instance_scan(inst, "le", 5, basis="s")
    assert rep["non_symmetric"] == [] and rep["non_positive"] == []


class _MemoryCache:
    """The resume interface of ``cli.ContentCache`` in memory: ``done``
    holds the rows already computed, ``recorded`` the rows handed over."""

    def __init__(self, done=()):
        self.done = dict(done)
        self.recorded = {}
        self.order = []  # the contents recorded, in turn

    def record(self, content, row):
        self.recorded[content] = row
        self.order.append(content)


def test_scan_progress_and_resume():
    peak = ("gt", "le")
    contents = set(packed_contents(4))
    full = _MemoryCache()
    report = positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q", cache=full)
    assert set(full.recorded) == contents
    assert sum(row["classes"] for row in full.recorded.values()) == 31
    assert report == positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q")
    # a resumed run folds the cached rows in and records only the rest
    resumed = _MemoryCache(list(full.recorded.items())[:2])
    assert positivity_scan_homogeneous(
        "exotic-knuth", 4, peak, "Q", cache=resumed
    ) == report
    assert set(resumed.recorded) == contents - set(resumed.done)
    counts = _MemoryCache()
    total = packed_class_count("exotic-knuth", 4, cache=counts)
    assert total == (31, 75)
    assert set(counts.recorded) == contents
    partial = _MemoryCache(list(counts.recorded.items())[:3])
    assert packed_class_count("exotic-knuth", 4, cache=partial) == total
    assert set(partial.recorded) == contents - set(partial.done)
    complete = _MemoryCache(counts.recorded)
    assert packed_class_count("exotic-knuth", 4, cache=complete) == total
    assert complete.recorded == {}


@pytest.mark.parametrize("bases", [("s",), ("Q",), ("s", "Q")], ids="+".join)
def test_content_rows_match_class_verdicts(monkeypatch, bases):
    # a row per content counts what the per-class verdicts of detail count;
    # the three scans of a length share their tables, so a histogram's
    # verdict is solved once and the rows differ only in how they add up
    monkeypatch.setattr(scans, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scans, "ScanTables", functools.lru_cache(maxsize=1)(scans.ScanTables))
    for char in ALL_CHARACTERS:
        for n in range(8):
            detailed = positivity_scan_homogeneous("exotic-knuth", n, char, bases, detail=True)
            verdicts = detailed.pop("classes")
            assert len(verdicts) == detailed["total_classes"]
            for jobs in (1, 2):
                report = positivity_scan_homogeneous("exotic-knuth", n, char, bases, jobs=jobs)
                assert report == detailed, (char, n, jobs)
    assert _no_child_left()


def test_content_rows_check_each_histogram_for_a_carry(monkeypatch):
    # four words of length 2 in lane 0 of 2 bits carry into lane 1
    tables = scans.ScanTables(2, "le", ("Q",))
    forged = [ContentClass((1, 2), 1, 1), ContentClass((2, 1), 4, 4 << 2 * tables.lanes[0])]
    monkeypatch.setattr(scans, "content_components", lambda content, fill: iter(forged))
    monkeypatch.setattr(scans, "_WORKER", {"fill": None, "tables": tables, "detail": False})
    with pytest.raises(ValueError, match="overflows its histogram"):
        scans._scan_content((1, 1))


def _generic_verdict(members, char, basis, n):
    image = oracle_sum([(w, 1) for w in members], char, n)
    if not is_symmetric(image):
        return {"size": len(members), "symmetric": False, "positive": None}
    try:
        cert = (schur_positive if basis == "s" else schur_q_positive)(image)
        positive = cert.nonnegative
    except ValueError:  # outside the Schur-Q span
        positive = False
    return {"size": len(members), "symmetric": True, "positive": positive}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(1, 4), min_size=n, max_size=n), max_size=3),
        )
    ),
    st.sampled_from(["knuth", "exotic-knuth"]),
)
# four words of length 2 in one lane of 2 bits: the count would carry
@example(data=(2, [3, 1], [[1, 1], [2, 1], [2, 2]]), relation="knuth")
def test_class_verdict_matches_generic_path(data, relation):
    # a class is often symmetric, so both the symmetry test and the solve
    # are reached; extra words usually break the symmetry, and words of
    # several contents may hold more words in a lane than it can count
    n, seed, extra = data
    members = bfs_class(builtin_relation(relation), tuple(seed), n)
    members = sorted(set(members) | {tuple(w) for w in extra})
    width = _lane_width(n)
    for char in ALL_CHARACTERS:
        for basis in ("s", "Q"):
            tables = scans.ScanTables(n, char, (basis,))
            lanes = [tables.lanes[_comparison_code(w)] for w in members]
            if max(Counter(lanes).values()) >> width:
                with pytest.raises(ValueError):
                    word_class(members, tables.lanes)
                carried = sum(1 << width * lane for lane in lanes)
                with pytest.raises(ValueError):
                    tables.class_verdict(ContentClass(members[0], len(members), carried))
                continue
            verdict = tables.class_verdict(word_class(members, tables.lanes))
            verdict["positive"] = verdict["positive"][basis]
            assert verdict == _generic_verdict(members, char, basis, n), (char, basis)


def test_reversed_peak_scan_matches_generic_scan():
    for char in [("ge", "lt"), ("le", "gt")]:
        fast = positivity_scan_homogeneous("exotic-knuth", 5, char, "Q")
        inst = close(builtin_relation("exotic-knuth"), 5, 5, headroom=0)
        generic = instance_scan(inst, char, 5, basis="Q", lengths=[5])
        assert fast["total_classes"] == generic["total_classes"] == 110
        assert fast["non_symmetric"] == generic["non_symmetric"]
        assert fast["non_positive"] == generic["non_positive"]
        assert fast["character"] == generic["character"]


def test_weak_hecke_doubling_theorem():
    report = doubling_check("hecke", 3, 3)
    assert report["mismatches"] == []
    assert report["bounds"] == {"alphabet": 3, "max_len": 3, "headroom": 2}
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


def _counting_forks(monkeypatch, cpus: int = 2) -> list:
    """Count the children the scans fork, on a host of ``cpus`` usable CPUs."""
    forked = []
    fork = os.fork

    def counting():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(scans, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting)
    return forked


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def _within(seconds: int):
    """Fail, instead of hanging, if the block takes ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_scans_fork_the_clamped_pool(monkeypatch):
    # the parent is one of the clamped workers, so 2 CPUs fork 1 child
    forked = _counting_forks(monkeypatch)
    peak = ("gt", "le")
    report = positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q", jobs=10_000)
    assert len(forked) == 1
    assert packed_class_count("exotic-knuth", 4, jobs=10_000) == (31, 75)
    assert len(forked) == 2
    # one worker, or a single content, needs no child at all
    assert report == positivity_scan_homogeneous("exotic-knuth", 4, peak, "Q", jobs=1)
    assert packed_class_count("exotic-knuth", 4, jobs=1) == (31, 75)
    assert packed_class_count("exotic-knuth", 1, jobs=10_000) == (1, 1)
    assert len(forked) == 2
    assert _no_child_left()


def test_parallel_scan_with_cache_matches_serial(monkeypatch):
    peak = ("gt", "le")
    serial = positivity_scan_homogeneous("exotic-knuth", 6, peak, "Q", detail=True)
    for cpus in (2, 4):  # 4: more processes than this host may have cores
        forked = _counting_forks(monkeypatch, cpus)
        full = _MemoryCache()
        with _within(60):
            report = positivity_scan_homogeneous(
                "exotic-knuth", 6, peak, "Q", jobs=cpus, cache=full, detail=True
            )
        assert report == serial and len(forked) == cpus - 1
        # the children's rows are recorded too, each once, as they arrive
        assert sorted(full.order) == sorted(packed_contents(6))
        resumed = _MemoryCache(list(full.recorded.items())[1::2])
        with _within(60):
            assert positivity_scan_homogeneous(
                "exotic-knuth", 6, peak, "Q", jobs=cpus, cache=resumed, detail=True
            ) == serial
        assert sorted(resumed.order) == sorted(set(packed_contents(6)) - set(resumed.done))
        assert _no_child_left()


def test_a_child_exception_is_raised_in_the_parent(monkeypatch):
    _counting_forks(monkeypatch)
    count = scans._count_content
    contents = packed_contents(6)
    parent = os.getpid()

    def failing(content):
        if content == contents[1]:  # the child's first content
            assert os.getpid() != parent
            raise MemoryError("no room for this content")
        return count(content)

    monkeypatch.setattr(scans, "_count_content", failing)
    with _within(30), pytest.raises(MemoryError, match="no room for this content"):
        packed_class_count("exotic-knuth", 6, jobs=2)
    assert _no_child_left()


def test_a_killed_child_ends_the_scan_with_an_error(monkeypatch):
    _counting_forks(monkeypatch)
    count = scans._count_content
    contents = packed_contents(7)

    def killed(content):
        if content == contents[3]:  # the child's second content
            os.kill(os.getpid(), signal.SIGKILL)
        return count(content)

    monkeypatch.setattr(scans, "_count_content", killed)
    killed = f"signal {int(signal.SIGKILL)}"
    with _within(10), pytest.raises(scans.ScanWorkerError, match=killed):
        packed_class_count("exotic-knuth", 7, jobs=2)
    assert _no_child_left()


def test_closing_a_scan_early_reaps_its_child(monkeypatch):
    forked = _counting_forks(monkeypatch)
    count = scans._count_content
    parent = os.getpid()

    def slow_child(content):
        if os.getpid() != parent:
            time.sleep(60)
        return count(content)

    monkeypatch.setattr(scans, "_count_content", slow_child)
    rows = scans._rows("exotic-knuth", 7, None, scans._count_content, 2, None)
    assert next(rows)["classes"] > 0
    assert len(forked) == 1
    with _within(10):  # the child is stopped, not waited for
        rows.close()
    assert _no_child_left()


def test_scan_over_two_bases_bins_each_class_once(monkeypatch):
    expanded = 0
    image_of_histogram = scans.image_of_histogram

    def counting(*args):
        nonlocal expanded
        expanded += 1
        return image_of_histogram(*args)

    monkeypatch.setattr(scans, "image_of_histogram", counting)
    peak = ("gt", "le")
    report = positivity_scan_homogeneous(
        "exotic-knuth", 5, peak, ("s", "Q"), detail=True
    )
    scan_expansions = expanded
    assert report["total_classes"] == 110
    # one tables object for both bases gives each single-basis verdict
    histograms = set()
    for row in report["classes"]:
        members = bfs_class(
            builtin_relation("exotic-knuth"),
            tuple(int(a) for a in row["representative"]),
            5,
        )
        histograms.add(
            tuple(sorted(Counter(_statistic(w, peak) for w in members).items()))
        )
        for basis in ("s", "Q"):
            tables = scans.ScanTables(5, peak, (basis,))
            single = tables.class_verdict(word_class(members, tables.lanes))
            assert single["positive"] == {basis: row["positive"][basis]}
            assert single["symmetric"] == row["symmetric"]
    # one expansion per distinct peak-mask histogram, for both bases at once
    assert scan_expansions == len(histograms) < report["total_classes"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(1, 4), min_size=n, max_size=n),
                min_size=1, max_size=5,
            ),
        )
    ),
    st.sampled_from(["knuth", "exotic-knuth", "commutation"]),
    st.randoms(use_true_random=False),
)
def test_shared_tables_memo_matches_generic_path(data, relation, rng):
    # one tables object sees every class twice, in random order, so the
    # histogram memo is hit; each verdict must still be the generic one
    n, seeds = data
    pres = builtin_relation(relation)
    classes = list({bfs_class(pres, tuple(seed), n) for seed in seeds})
    feed = classes * 2
    rng.shuffle(feed)
    for char in ALL_CHARACTERS:
        generic = {
            (members, b): _generic_verdict(members, char, b, n)
            for members in classes
            for b in ("s", "Q")
        }
        for bases in (("s",), ("Q",), ("s", "Q")):
            tables = scans.ScanTables(n, char, bases)
            for members in feed:
                verdict = tables.class_verdict(
                    word_class(members, tables.lanes)
                )
                assert verdict == {
                    **generic[members, "s"],
                    "positive": {b: generic[members, b]["positive"] for b in bases},
                }, (char, bases, members)
            assert len(tables._memo) <= len(classes)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((1, 2, 3, 15)), min_size=n, max_size=n),
            min_size=1,
            max_size=40,
        )
    )
)
def test_a_comparison_code_fixes_the_statistic(words):
    # the scans read the statistic off one word per comparison code
    n = len(words[0])
    for char in ALL_CHARACTERS:
        for w in map(tuple, words):
            code = _comparison_code(w)
            assert _statistic(_code_word(code, n), char) == _statistic(w, char), (char, w)


@given(st.lists(st.integers(0, 15), max_size=9))
def test_word_codes_round_trip(w):
    assert decode_word(encode_word(w), len(w)) == tuple(w)
    code = _comparison_code(w)
    assert _comparison_code(_code_word(code, len(w))) == code


def test_codes_order_words_and_head_their_components():
    # the oracle's integer codes order words; the level fill yields each
    # content's classes in the order of their least words
    words = [w for w in all_words(3, 4) if len(w) == 4]
    assert sorted(words, key=encode_word) == sorted(words)
    pres = builtin_relation("exotic-knuth")
    fill = _fill("exotic-knuth", 5)
    for content in packed_contents(5):
        classes = list(content_components(content, fill))
        assert [c.least for c in classes] == sorted(c.least for c in classes)
        for c in classes:
            members = bfs_class(pres, c.least, 5)
            assert c.least == min(members) and c.size == len(members)


def test_coded_lengths_past_the_lanes_are_refused():
    exotic = builtin_relation("exotic-knuth")
    assert compile_coded_rewrites(builtin_relation("knuth"), 15).length == 15
    with pytest.raises(ValueError):
        compile_coded_rewrites(exotic, 16)
    with pytest.raises(ValueError):
        packed_class_count("exotic-knuth", 16)
    with pytest.raises(ValueError):
        compile_coded_rewrites(builtin_relation("hecke"), 4)
    with pytest.raises(ValueError):
        list(content_components((1, 2, 1, 1, 1), _fill("exotic-knuth", 4)))
