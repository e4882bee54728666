"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``-v -s`` to watch them stream).

Criteria 1b, 2 and 2b are minutes-scale reproduction runs and carry the
``extended`` marker, deselected by default; run them with
``pytest -m extended tests/test_acceptance.py``.
"""

import hashlib
import itertools
import multiprocessing
import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from character_oracle import comp_flat, descent_composition, peaks, valleys
from wordbialg.bialgebra import (
    duality_pairing_check,
    shuffle,
    verify_bialgebra_axioms,
)
from wordbialg.characters import (
    class_image,
    grassmannian_stable_family,
    multi_fundamental,
    nsym_generator_image,
    word_image,
)
from wordbialg.lincomb import LinComb
from wordbialg.qsym import (
    fundamental_L,
    is_symmetric,
    peak_K,
    qs_zero,
    schur,
    schur_positive,
    schur_q_positive,
    to_monomial_sym,
)
from wordbialg.relations import (
    bfs_class,
    builtin_relation,
    check_algebraic,
    check_p_algebraic,
    check_uniformly_algebraic,
    close,
    coxeter_relation,
    gap_braid_m,
    headroom_stability,
    is_finite_type_bounded,
    is_homogeneous_observed,
)
from flood_oracle import compile_coded_rewrites, decode_word, flood_components
from wordbialg.scans import (
    doubling_check,
    packed_class_count,
    packed_contents,
    positivity_scan_homogeneous,
)
from wordbialg.words import (
    all_words,
    comp_from_set,
    comp_reverse,
    comp_transpose,
    eval_hecke_word,
    is_increasing_tableau,
    packed_words,
    partitions,
    rsk_insert,
    tableau_shape,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# criterion 1a: class counts of the exotic relation through length 7, CI budget


def test_criterion_1_exotic_class_counts_ci():
    t0 = time.monotonic()
    counts = [packed_class_count("exotic-knuth", n)[0] for n in range(8)]
    elapsed = time.monotonic() - t0
    expected = [1, 1, 3, 9, 31, 110, 412, 1597]
    report(
        "1 (class counts, lengths <= 7)",
        counts == expected and elapsed < 60,
        f"{counts} in {elapsed:.1f}s",
    )


@pytest.mark.extended
def test_criterion_1_exotic_class_counts_extended():
    t0 = time.monotonic()
    jobs = min(8, multiprocessing.cpu_count())
    d8, w8 = packed_class_count("exotic-knuth", 8, jobs=jobs)
    d9, w9 = packed_class_count("exotic-knuth", 9, jobs=jobs)
    elapsed = time.monotonic() - t0
    report(
        "1 (extended, lengths 8 and 9)",
        d8 == 6465 and d9 == 27021 and w8 == 545835 and w9 == 7087261
        and elapsed < 1800,
        f"d8={d8}, d9={d9} in {elapsed:.0f}s",
    )


# criterion 2: the 35 exceptional length-9 classes of the extended scan

EXCEPTIONS_9 = [
    "112343565", "113214546", "113214654", "121314546", "121314654",
    "121321454", "121324654", "121431565", "121432565", "121435765",
    "121543676", "122432565", "123242565", "123243565", "123254676",
    "123435676", "123454676", "124253676", "131421565", "131425765",
    "131542676", "132432565", "132542676", "141532676", "142532676",
    "211343565", "213214546", "213214565", "213541676", "213543676",
    "214315657", "214315676", "314215657", "314215676", "321454676",
]


def _generic_q_positive(rep: str) -> bool:
    """Schur-Q positivity of a class image by the generic path: BFS class,
    summed image, triangular solve."""
    members = bfs_class(builtin_relation("exotic-knuth"), tuple(map(int, rep)), 9)
    image = class_image(members, ("gt", "le"), 9)
    try:
        return schur_q_positive(image).nonnegative
    except ValueError:  # outside the Schur-Q span
        return False


@pytest.mark.extended
def test_criterion_2_exceptional_scan():
    t0 = time.monotonic()
    jobs = min(8, multiprocessing.cpu_count())
    rep = positivity_scan_homogeneous(
        "exotic-knuth", 9, ("gt", "le"), "Q", jobs=jobs
    )
    elapsed = time.monotonic() - t0
    ok = (
        rep["total_classes"] == 27021
        and rep["symmetric"] == 27021
        and rep["non_positive"] == EXCEPTIONS_9
        and not any(map(_generic_q_positive, EXCEPTIONS_9))
        and elapsed < 1800
    )
    report(
        "2 (35 exceptions at length 9)",
        ok,
        f"{len(rep['non_positive'])} of {rep['total_classes']} in {elapsed:.0f}s",
    )


# criterion 2b: d_10 and the 204 exceptional length-10 classes

# sha256 of the 204 representatives, sorted and joined by spaces
EXCEPTIONS_10_SHA256 = "0e9684beef586d8931b6c0e0dcdf5dfd2e45291f0874252f7eca250c95e6806a"


@pytest.mark.extended
def test_criterion_2b_length_10():
    t0 = time.monotonic()
    jobs = min(8, multiprocessing.cpu_count())
    d10, w10 = packed_class_count("exotic-knuth", 10, jobs=jobs)
    rep = positivity_scan_homogeneous(
        "exotic-knuth", 10, ("gt", "le"), "Q", jobs=jobs
    )
    elapsed = time.monotonic() - t0
    exceptions = rep["non_positive"]
    digest = hashlib.sha256(" ".join(exceptions).encode()).hexdigest()
    ok = (
        (d10, w10) == (117000, 102247563)
        and rep["total_classes"] == rep["symmetric"] == 117000
        and len(exceptions) == 204
        and digest == EXCEPTIONS_10_SHA256
        # theta(s_lambda) is Schur-Q-positive, so no class of a permutation
        and all(len(set(w)) < len(w) for w in exceptions)
        and elapsed < 1800
    )
    report(
        "2b (d10 = 117000, 204 exceptions at length 10)",
        ok,
        f"d10={d10}, {len(exceptions)} of {rep['total_classes']} in {elapsed:.0f}s",
    )


# criterion 3: the shuffle identity, coefficient-exact


def test_criterion_3_shuffle_identity():
    got = shuffle((1, 2), (2, 1))
    want = LinComb(
        {(1, 2, 2, 1): 2, (1, 2, 1, 2): 1, (2, 1, 2, 1): 1, (2, 1, 1, 2): 2}
    )
    report("3 (shuffle identity)", got == want)


# criterion 4: bialgebra axioms and the duality pairing at stated bounds


def test_criterion_4_axioms_and_duality():
    t0 = time.monotonic()
    reports = verify_bialgebra_axioms("anchored", 5, 3)
    axioms_ok = all(r["status"] == "pass" for r in reports)
    duality = duality_pairing_check(5, 3)
    elapsed = time.monotonic() - t0
    report(
        "4 (axioms + duality, degree <= 5, anchors <= 3)",
        axioms_ok and duality["status"] == "pass" and elapsed < 120,
        f"{len(reports)} axiom reports in {elapsed:.1f}s",
    )


# criterion 5: oracle equivalences


def test_criterion_5_oracle_equivalences():
    # insertion fibers on every symmetric group through S_6
    knuth = builtin_relation("knuth")
    for n in range(1, 7):
        rewrites = compile_coded_rewrites(knuth, n)
        components = {
            frozenset(decode_word(x, n) for x in c)
            for c in flood_components((1,) * n, rewrites)
        }
        fibers = defaultdict(set)
        for p in itertools.permutations(range(1, n + 1)):
            fibers[rsk_insert(p)].add(p)
        assert components == {frozenset(v) for v in fibers.values()}, n
    # insertion fibers on all words with letters <= 3 and length <= 7
    inst = close(knuth, 3, 7)
    fibers = defaultdict(set)
    for w in all_words(3, 7):
        fibers[rsk_insert(w)].add(w)
    knuth_ok = {frozenset(c) for c in inst.iter_classes()} == {
        frozenset(v) for v in fibers.values()
    }
    # evaluation fibers for the bounded-transposition product, length <= 8
    inst = close(builtin_relation("hecke"), 3, 8)
    fibers = defaultdict(set)
    for w in all_words(3, 8):
        fibers[eval_hecke_word(w, 3)].add(w)
    hecke_ok = {frozenset(c) for c in inst.iter_classes()} == {
        frozenset(v) for v in fibers.values()
    }
    report("5 (insertion and evaluation fibers)", knuth_ok and hecke_ok)


# criterion 6: generator images in the monomial-symmetric basis


def test_criterion_6_generator_images():
    ok = True
    for n in range(1, 9):
        h_image = to_monomial_sym(nsym_generator_image(n, "le"))
        ok &= dict(h_image.terms) == {lam: Fraction(1) for lam in partitions(n)}
        q_image = to_monomial_sym(nsym_generator_image(n, ("gt", "le")))
        ok &= dict(q_image.terms) == {
            lam: Fraction(2 ** len(lam)) for lam in partitions(n)
        }
    report("6 (h and q images, n <= 8)", ok)


# criterion 7: closed-form image tables on 500 seeded words


def test_criterion_7_image_tables():
    rng = random.Random(20250811)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        w = tuple(rng.randint(1, 6) for _ in range(n))
        alpha = descent_composition(w)
        assert word_image(w, "le") == fundamental_L(alpha)
        assert word_image(w, "gt") == fundamental_L(comp_transpose(comp_reverse(alpha)))
        rev = w[::-1]
        assert word_image(rev, "ge") == fundamental_L(comp_reverse(alpha))
        assert word_image(rev, "lt") == fundamental_L(comp_transpose(alpha))
        peak_alpha = comp_from_set(n, peaks(w))
        valley_alpha = comp_from_set(n, valleys(w))
        assert word_image(w, ("gt", "le")) == peak_K(peak_alpha)
        assert word_image(w, ("lt", "ge")) == peak_K(valley_alpha)
        assert word_image(rev, ("ge", "lt")) == peak_K(comp_flat(peak_alpha))
        assert word_image(rev, ("le", "gt")) == peak_K(comp_flat(valley_alpha))
        checked += 1
    report("7 (image tables, 500 seeded words)", checked == 500)


# criterion 8: positivity of insertion-class images


def test_criterion_8_knuth_classes():
    ok = True
    for n in range(7):
        for content in packed_contents(n):
            rewrites = compile_coded_rewrites(builtin_relation("knuth"), n)
            for component in flood_components(content, rewrites):
                members = [decode_word(x, n) for x in component]
                image = class_image(members, "le", n)
                ok &= is_symmetric(image)
                tableaux = [w for w in members if tableau_shape(w) is not None]
                ok &= len(tableaux) == 1
                ok &= image == schur(tableau_shape(tableaux[0]), n)
                ok &= schur_positive(image).nonnegative
                assert ok, members[0]
    report("8a (insertion classes, lengths <= 6)", ok)


DEGREE_8B = 7
HEADROOM_8B = 2


def _kknuth_class_check(seed):
    pres = builtin_relation("k-knuth")
    members = bfs_class(pres, seed, DEGREE_8B + HEADROOM_8B)
    bigger = bfs_class(pres, seed, DEGREE_8B + HEADROOM_8B + 1)
    stable = [w for w in members if len(w) <= DEGREE_8B] == [
        w for w in bigger if len(w) <= DEGREE_8B
    ]
    image = class_image(members, "le", DEGREE_8B)
    expected = qs_zero(DEGREE_8B)
    shapes = [
        tableau_shape(w)
        for w in members
        if len(w) <= DEGREE_8B and is_increasing_tableau(w)
    ]
    for lam in shapes:
        expected = expected + grassmannian_stable_family(lam, DEGREE_8B)["J"]
    ok = (
        stable
        and image == expected
        and is_symmetric(image)
        and schur_positive(image).nonnegative
    )
    return seed, ok, frozenset(m for m in members if len(m) <= 6)


def test_criterion_8_kknuth_classes():
    seen = set()
    seeds = []
    for n in range(7):
        for w in packed_words(n):
            seeds.append(w)
    checked = 0
    ok = True
    for seed in seeds:
        if seed in seen:
            continue
        seed_, class_ok, slice_members = _kknuth_class_check(seed)
        seen.update(slice_members)
        checked += 1
        ok &= class_ok
        assert class_ok, seed
    report(
        "8b (collapse-insertion classes, lengths <= 6)",
        ok,
        f"{checked} classes at degree {DEGREE_8B}",
    )


# criterion 9: classifier verdicts for the built-in relations


VERDICT_TABLE = {
    # homogeneous, uniformly algebraic, p-algebraic, finite type
    "commutation": (True, True, True, False),
    "k-equivalence": (False, True, True, False),
    "k-commutation": (False, True, True, True),
    "knuth": (True, True, True, False),
    "k-knuth": (False, True, True, True),
    "hecke": (False, True, True, True),
    "exotic-knuth": (True, True, True, False),
}


def test_criterion_9_classifier_verdicts():
    ok = True
    for name, (homog, uni, palg, ftype) in sorted(VERDICT_TABLE.items()):
        inst = close(builtin_relation(name), 3, 6)
        assert headroom_stability(inst)["stable"], name
        ok &= is_homogeneous_observed(inst) == homog
        ok &= check_algebraic(inst)["status"] == "pass"
        ok &= check_uniformly_algebraic(inst)["status"] == (
            "pass" if uni else "fail"
        )
        ok &= check_p_algebraic(inst)["status"] == ("pass" if palg else "fail")
        ok &= is_finite_type_bounded(inst)["stable"] == ftype
        assert ok, name
    # the gap-2 pair-order relation: algebraic but not uniformly, and the
    # two-letter class with a letter gap witnesses the count discrepancy
    inst = close(coxeter_relation(gap_braid_m(2)), 3, 6)
    ok &= check_algebraic(inst)["status"] == "pass"
    ok &= check_uniformly_algebraic(inst)["status"] == "fail"
    palg = check_p_algebraic(inst)
    ok &= palg["status"] == "fail"
    witness = palg["conditions"][0]["witness"]
    ok &= set(witness["class"]) == {1, 3}
    pairs = {witness["pair"], witness["other_pair"]}
    ok &= ((1, 2), ()) in pairs or ((), (1, 2)) in pairs
    ok &= sorted(witness["counts"]) == [0, 1]
    ok &= is_finite_type_bounded(inst)["stable"]
    report("9 (classifier verdict table)", ok)


# criterion 10: collapse classes of multi-permutations


def _multi_permutations(max_len):
    for n in range(max_len + 1):
        for w in packed_words(n):
            if all(w[i] != w[i + 1] for i in range(len(w) - 1)):
                yield w


def _inflations(w, max_total):
    if not w:
        yield ()
        return
    n = len(w)

    def rec(i, acc, used):
        if i == n:
            yield tuple(acc)
            return
        for reps in range(1, max_total - used - (n - i - 1) + 1):
            yield from rec(i + 1, acc + [w[i]] * reps, used + reps)

    yield from rec(0, [], 0)


def test_criterion_10_multi_fundamental():
    degree = 8
    checked = 0
    for w in _multi_permutations(5):
        members = list(_inflations(w, degree))
        alpha = descent_composition(w)
        lt_image = class_image(members, "lt", degree)
        assert lt_image == multi_fundamental(alpha, degree), w
        le_image = class_image(members, "le", degree)
        from wordbialg.qsym import substitute_geometric

        assert le_image == substitute_geometric(multi_fundamental(alpha, degree)), w
        checked += 1
    # inflation enumeration agrees with the closure engine on a sample
    pres = builtin_relation("k-equivalence")
    for w in [(2, 1), (1, 2, 1), (2, 1, 3, 2)]:
        assert set(_inflations(w, 7)) == set(bfs_class(pres, w, 7))
    report("10 (multi-fundamental images)", True, f"{checked} multi-permutations")


# criterion 11: doubling searches


def test_criterion_11_doubling_searches():
    hecke = doubling_check("hecke", 3, 4)
    ok_hecke = hecke["mismatches"] == [] and hecke["checked_pairs"] > 0
    kknuth = doubling_check("k-knuth", 3, 4)
    ok_kknuth = kknuth["mismatches"] == [] and kknuth["checked_pairs"] > 0
    report(
        "11 (doubling searches, lengths <= 4)",
        ok_hecke and ok_kknuth,
        f"{hecke['checked_pairs']} + {kknuth['checked_pairs']} pairs",
    )
