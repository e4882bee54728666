from collections import defaultdict

import pytest

from wordbialg.relations import (
    BUILTIN_NAMES,
    CoxeterM,
    ResourceCapError,
    bfs_class,
    braid_lemma_check,
    builtin_relation,
    check_algebraic,
    check_p_algebraic,
    check_uniformly_algebraic,
    close,
    count_destandardizations,
    coxeter_relation,
    destandardization_counts,
    explicit_relation,
    gap_braid_m,
    headroom_stability,
    is_finite_type_bounded,
    is_homogeneous_observed,
    reduced_members,
    universal_coxeter_m,
    universe_size,
    weak_variant,
)
from wordbialg.words import all_words, eval_hecke_word, rsk_insert


def test_universe_cap():
    assert universe_size(3, 2) == 13
    with pytest.raises(ResourceCapError):
        close(builtin_relation("knuth"), 4, 10, headroom=0, cap=1000)


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


def test_certificates_share_one_wider_closure():
    # one more unit of headroom and one more unit of max_len close the
    # same universe; the certificates agree with both separate closures
    for name in ("hecke", "knuth", "k-knuth"):
        pres = builtin_relation(name)
        inst = close(pres, 3, 4)
        more_headroom = close(pres, 3, 4, inst.headroom + 1)
        longer = close(pres, 3, 5, inst.headroom)
        assert more_headroom.words == longer.words
        assert more_headroom.class_ids == longer.class_ids
        stable = inst.slice_partition() == more_headroom.slice_partition()
        assert headroom_stability(inst)["partition_stable"] == stable
        assert is_finite_type_bounded(inst)["count_next"] == longer.class_count()


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
    assert builtin.slice_partition() == explicit.slice_partition()
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
    rep = inst.representative((3, 1, 2))
    assert rep == min(inst.class_of((3, 1, 2)), key=lambda t: (len(t), t))


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
    # another sampling bound or seed is a different check
    assert check_algebraic(inst, sample_cap=10, seed=1)["status"] == "bounded-evidence"


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


def _congruence_over_all_contexts(inst):
    """Condition (a) by the plain double loop over every pair and context."""
    contexts = [u for u in inst.words if len(u) <= inst.max_len]
    checked = 0
    for members in inst.iter_classes():
        rep = members[0]
        for w in members[1:]:
            for u in contexts:
                for left, right in ((rep + u, w + u), (u + rep, u + w)):
                    if max(len(left), len(right)) > inst.max_len:
                        continue
                    checked += 1
                    if not inst.related(left, right):
                        return checked, {"pair": (rep, w), "context": u}
    return checked, None


def test_congruence_skips_only_contexts_that_cannot_fit():
    whole_word = explicit_relation(
        "whole-word", [((1, 2, 3), (3, 2, 1))], context_rewrites=False
    )
    cases = [
        close(builtin_relation("hecke"), 3, 5),
        close(builtin_relation("k-knuth"), 2, 5),
        close(whole_word, 3, 4, headroom=0),
    ]
    for inst in cases:
        cond = check_algebraic(inst)["conditions"][0]
        checked, witness = _congruence_over_all_contexts(inst)
        assert cond["checked"] == checked
        assert cond.get("witness") == witness


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
    assert uniform.slice_partition() == commutation.slice_partition()


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


def test_count_destandardizations():
    members = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)]
    for w in members:
        assert count_destandardizations([w], (1, 2), (1, 2)) == 1
    assert count_destandardizations([()], (), ()) == 1
    # the cut position is forced, so 111 is not a ((1),(1))-destandardization
    assert count_destandardizations([(1, 1, 1)], (1,), (1,)) == 0
    assert count_destandardizations([(1, 1)], (1,), (1,)) == 1
    counts = destandardization_counts([(1, 3)])
    assert counts[((1, 2), ())] == 1 and ((2, 1), ()) not in counts


def test_gap_braid_two_letter_class_counts():
    inst = close(coxeter_relation(gap_braid_m(2)), 3, 5)
    members = inst.class_of((1, 3))
    assert all(set(w) == {1, 3} for w in members)
    assert count_destandardizations(members, (1, 2), ()) == 1
    assert count_destandardizations(members, (2, 1), ()) == 0


# --- braid lemma ----------------------------------------------------------------


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
    assert a.slice_partition() == b.slice_partition()


def test_universal_coxeter_is_repeat_collapse():
    a = close(builtin_relation("k-equivalence"), 3, 4)
    b = close(coxeter_relation(universal_coxeter_m()), 3, 4)
    assert a.slice_partition() == b.slice_partition()


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


def test_weak_variant():
    weak = weak_variant(builtin_relation("hecke"))
    inst = close(weak, 2, 3)
    assert inst.related((1, 2), (2, 1))
    assert weak.content_preserving is False
