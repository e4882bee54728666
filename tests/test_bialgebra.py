import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordbialg import bialgebra
from wordbialg.bialgebra import (
    alphabet_coproduct,
    alphabet_counit,
    anchored_basis,
    concat_product,
    concat_unit_truncated,
    deconcat_coproduct,
    deconcat_counit,
    duality_pairing_check,
    packed_basis,
    packed_coproduct,
    packed_counit,
    packed_product,
    shifted_shuffle,
    shuffle,
    verify_bialgebra_axioms,
)
from wordbialg.lincomb import LinComb
from wordbialg.words import Anchored, anchored, flatten, shift


def _brute_shuffle(u, v) -> dict:
    """The shuffle product by choosing, one interleaving at a time, the
    positions that take ``u``'s letters."""
    m, n = len(u), len(v)
    out: dict = {}
    for positions in itertools.combinations(range(m + n), m):
        word = [0] * (m + n)
        taken = set(positions)
        it_u = iter(u)
        it_v = iter(v)
        for i in range(m + n):
            word[i] = next(it_u) if i in taken else next(it_v)
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


_short_words = st.lists(st.integers(1, 3), max_size=5).map(tuple)


@settings(max_examples=200, deadline=None)
@example((), (), 0, 0)
@example((1, 1, 2), (), 1, 0)
@example((1, 2, 1), (1, 1), 1, 2)
@given(_short_words, _short_words, st.integers(0, 4), st.integers(0, 4))
def test_shuffles_match_brute_force(u, v, m, n):
    # few letters, so repeated letters and multiplicities are common; the
    # anchors are not validated, so shifted letters may collide as well
    assert dict(shuffle(u, v).items()) == _brute_shuffle(u, v)
    a, b = Anchored(u, m), Anchored(v, n)
    assert dict(shifted_shuffle(a, b).items()) == {
        Anchored(w, m + n): c for w, c in _brute_shuffle(u, shift(v, m)).items()
    }


def test_shuffle_identity():
    s = shuffle((1, 2), (2, 1))
    assert s == LinComb(
        {
            (1, 2, 2, 1): 2,
            (1, 2, 1, 2): 1,
            (2, 1, 2, 1): 1,
            (2, 1, 1, 2): 2,
        }
    )


def test_shuffle_unit_and_mass():
    u = (1, 3, 2)
    assert shuffle(u, ()) == LinComb.basis(u)
    assert shuffle((), u) == LinComb.basis(u)
    for m, n in [(2, 2), (3, 2), (1, 4)]:
        a = tuple([1] * m)
        b = tuple([2] * n)
        total = sum(c for _, c in shuffle(a, b).items())
        assert total == comb(m + n, m)


def test_shifted_shuffle_example():
    out = shifted_shuffle(anchored((1, 2), 3), anchored((2,), 2))
    assert out == LinComb(
        {
            Anchored((1, 2, 5), 5): 1,
            Anchored((1, 5, 2), 5): 1,
            Anchored((5, 1, 2), 5): 1,
        }
    )


def test_shifted_shuffle_multiplicity_free():
    for a in anchored_basis(3, 2):
        for b in anchored_basis(3, 2):
            assert all(c == 1 for _, c in shifted_shuffle(a, b).items())


def test_shifted_shuffle_unit_and_grading():
    w = anchored((2, 1), 3)
    assert shifted_shuffle(Anchored((), 0), w) == LinComb.basis(w)
    for a in anchored_basis(3, 2):
        for b in anchored_basis(3, 2):
            for key, _ in shifted_shuffle(a, b).items():
                assert len(key.word) == len(a.word) + len(b.word)
                assert key.anchor == a.anchor + b.anchor


def test_deconcat_coproduct():
    a = anchored((1, 2), 2)
    assert deconcat_coproduct(a) == LinComb(
        {
            (Anchored((), 2), Anchored((1, 2), 2)): 1,
            (Anchored((1,), 2), Anchored((2,), 2)): 1,
            (Anchored((1, 2), 2), Anchored((), 2)): 1,
        }
    )
    e = anchored((), 3)
    assert deconcat_coproduct(e) == LinComb.basis((e, e))
    assert deconcat_counit(e) == 1
    assert deconcat_counit(a) == 0


def test_deconcat_grading():
    for a in anchored_basis(6, 3):
        for (left, right), _ in deconcat_coproduct(a).items():
            assert len(left.word) + len(right.word) == len(a.word)
            assert left.anchor == right.anchor == a.anchor


def test_packed_maps():
    out = packed_coproduct((1, 2, 1))
    assert out == LinComb(
        {
            ((), (1, 2, 1)): 1,
            ((1,), (2, 1)): 1,
            ((1, 2), (1,)): 1,
            ((1, 2, 1), ()): 1,
        }
    )
    assert packed_product((1,), (1,)) == LinComb({(1, 2): 1, (2, 1): 1})
    assert packed_product((), (1, 2)) == LinComb.basis((1, 2))
    assert packed_counit(()) == 1 and packed_counit((1,)) == 0
    with pytest.raises(ValueError):
        packed_product((2,), (1,))


def test_packed_maps_factor_through_flattening():
    # anchored structure maps agree with packed ones after flattening,
    # exhaustively at combined degree <= 5 with anchors <= 3
    basis = anchored_basis(5, 3)
    for a in basis:
        for b in basis:
            if len(a.word) + len(b.word) > 5:
                continue
            lifted = shifted_shuffle(a, b).apply(
                lambda key: LinComb.basis(flatten(key.word))
            )
            direct = packed_product(flatten(a.word), flatten(b.word))
            assert lifted == direct, (a, b)
    for a in basis:
        lifted = deconcat_coproduct(a).apply(
            lambda key: LinComb.basis((flatten(key[0].word), flatten(key[1].word)))
        )
        assert lifted == packed_coproduct(flatten(a.word))


def test_alphabet_coproduct_example():
    out = alphabet_coproduct(anchored((2, 1), 2))
    assert out == LinComb(
        {
            (Anchored((), 0), Anchored((2, 1), 2)): 1,
            (Anchored((1,), 1), Anchored((1,), 1)): 1,
            (Anchored((2, 1), 2), Anchored((), 0)): 1,
        }
    )
    assert alphabet_counit(anchored((), 0)) == 1
    assert alphabet_counit(anchored((1,), 2)) == 0


def test_concat_product_and_truncated_unit():
    assert concat_product(anchored((1, 2), 2), anchored((2, 1), 2)) == LinComb.basis(
        Anchored((1, 2, 2, 1), 2)
    )
    assert concat_product(anchored((1,), 1), anchored((1,), 2)) == LinComb.zero()
    unit = concat_unit_truncated(3)
    assert unit == LinComb({Anchored((), n): 1 for n in range(4)})


def test_axioms_small_bounds():
    for report in verify_bialgebra_axioms("anchored", 4, 2):
        assert report["status"] == "pass", report
    for report in verify_bialgebra_axioms("packed", 4):
        assert report["status"] == "pass", report


def test_corrupted_coproduct_fails_with_witness():
    broken = _without_unit_left_cuts(deconcat_coproduct, lambda a: len(a.word))
    reports = verify_bialgebra_axioms("anchored", 3, 2, coproduct=broken)
    failed = [r for r in reports if r["status"] == "fail"]
    assert failed and all("witness" in r for r in failed)
    assert any(r["axiom"] == "counit-law" for r in failed)


def test_duality_pairing():
    report = duality_pairing_check(4, 3)
    assert report["status"] == "pass"
    # single spot check of the adjunction
    a, b = anchored((1, 2), 2), anchored((2, 1), 2)
    c = anchored((1, 2, 2, 1), 2)
    lhs = concat_product(a, b).coeff(c)
    rhs = deconcat_coproduct(c).coeff((a, b))
    assert lhs == rhs == 1
    # and on the empty-word side
    e = anchored((), 1)
    assert alphabet_coproduct(e).coeff((Anchored((), 0), Anchored((), 1))) == 1


@pytest.mark.parametrize(
    "name, checked, pair",
    [
        ("shifted_shuffle", 5, (Anchored((), 0), Anchored((1, 1, 1), 1))),
        ("alphabet_coproduct", 5, (Anchored((), 0), Anchored((1, 1, 1), 1))),
        ("concat_product", 607, (Anchored((), 1), Anchored((1, 1, 1), 1))),
        ("deconcat_coproduct", 607, (Anchored((), 1), Anchored((1, 1, 1), 1))),
    ],
)
def test_duality_pairing_names_the_first_failing_pair(monkeypatch, name, checked, pair):
    # doubling one map on words of total length 3 or more breaks its adjunction
    # first at the pair above; the shuffle half runs before the concatenation half
    right = getattr(bialgebra, name)

    def broken(*args):
        out = right(*args)
        if sum(len(x.word) for x in args) < 3:
            return out
        return LinComb({k: 2 * c for k, c in out.items()})

    monkeypatch.setattr(bialgebra, name, broken)
    report = duality_pairing_check(4, 3)
    assert (report["status"], report["checked"]) == ("fail", checked)
    assert report["witness"] == repr(pair)


def test_basis_sizes():
    assert len(packed_basis(3)) == 1 + 1 + 3 + 13
    words = anchored_basis(2, 2)
    assert Anchored((), 0) in words and Anchored((2, 1), 2) in words


def test_axiom_checked_counts_at_benchmark_bounds():
    anchored_counts = [
        (r["axiom"], r["status"], r["checked"])
        for r in verify_bialgebra_axioms("anchored", 4, 3)
    ]
    assert anchored_counts == [
        ("unit-law", "pass", 158),
        ("associativity", "pass", 19168),
        ("counit-law", "pass", 158),
        ("coassociativity", "pass", 158),
        ("product-coproduct-compatibility", "pass", 2080),
        ("counit-multiplicativity", "pass", 2080),
        ("unit-comultiplicativity", "pass", 1),
    ]
    packed_counts = [
        (r["axiom"], r["status"], r["checked"])
        for r in verify_bialgebra_axioms("packed", 5)
    ]
    assert packed_counts == [
        ("unit-law", "pass", 634),
        ("associativity", "pass", 2786),
        ("counit-law", "pass", 634),
        ("coassociativity", "pass", 634),
        ("product-coproduct-compatibility", "pass", 1537),
        ("counit-multiplicativity", "pass", 1537),
        ("unit-comultiplicativity", "pass", 1),
    ]


# --- an un-memoised, all-Fraction reference for the axiom check ------------


def _fr(x: LinComb) -> dict:
    return {k: Fraction(c) for k, c in x.items()}


def _acc(out: dict, key, c) -> None:
    total = out.get(key, Fraction(0)) + c
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _lin(terms) -> dict:
    out: dict = {}
    for key, c in terms:
        _acc(out, key, Fraction(c))
    return out


def _ext(x: dict, f) -> dict:
    """Linear extension of ``f: key -> dict`` to ``x``."""
    return _lin((k2, c * c2) for k, c in x.items() for k2, c2 in f(k).items())


def _reference_axioms(basis, degree, max_degree, product, coproduct, counit, unit):
    """The axiom check with every structure map recomputed each time it is
    needed and every coefficient a Fraction; returns (axiom, status,
    checked, witness) per axiom."""
    prod = lambda a, b: _fr(product(a, b))
    coprod = lambda a: _fr(coproduct(a))
    cu = lambda a: Fraction(counit(a))
    one = _fr(unit)
    out = []

    def run(axiom, cases, check):
        checked, witness = 0, None
        for case in cases:
            checked += 1
            if not check(case):
                witness = repr(case)
                break
        out.append((axiom, "pass" if witness is None else "fail", checked, witness))

    def cases(k):
        return [
            case
            for case in itertools.product(basis, repeat=k)
            if sum(map(degree, case)) <= max_degree
        ]

    pairs, triples = cases(2), cases(3)
    run(
        "unit-law",
        basis,
        lambda a: _ext(one, lambda u: prod(u, a)) == {a: 1}
        and _ext(one, lambda u: prod(a, u)) == {a: 1},
    )
    run(
        "associativity",
        triples,
        lambda t: _ext(prod(t[0], t[1]), lambda x: prod(x, t[2]))
        == _ext(prod(t[1], t[2]), lambda x: prod(t[0], x)),
    )
    run(
        "counit-law",
        basis,
        lambda a: _lin((k2, c * cu(k1)) for (k1, k2), c in coprod(a).items()) == {a: 1}
        and _lin((k1, c * cu(k2)) for (k1, k2), c in coprod(a).items()) == {a: 1},
    )
    run(
        "coassociativity",
        basis,
        lambda a: _lin(
            ((j1, j2, k2), c * d)
            for (k1, k2), c in coprod(a).items()
            for (j1, j2), d in coprod(k1).items()
        )
        == _lin(
            ((k1, j1, j2), c * d)
            for (k1, k2), c in coprod(a).items()
            for (j1, j2), d in coprod(k2).items()
        ),
    )

    def compat(ab):
        a, b = ab
        left = _ext(prod(a, b), coprod)
        right: dict = {}
        for (a1, a2), c1 in coprod(a).items():
            for (b1, b2), c2 in coprod(b).items():
                for k1, x1 in prod(a1, b1).items():
                    for k2, x2 in prod(a2, b2).items():
                        _acc(right, (k1, k2), c1 * c2 * x1 * x2)
        return left == right

    run("product-coproduct-compatibility", pairs, compat)
    run(
        "counit-multiplicativity",
        pairs,
        lambda ab: sum((c * cu(k) for k, c in prod(*ab).items()), Fraction(0))
        == cu(ab[0]) * cu(ab[1]),
    )
    run(
        "unit-comultiplicativity",
        [unit],
        lambda u: _ext(_fr(u), coprod)
        == _lin(((k1, k2), c1 * c2) for k1, c1 in one.items() for k2, c2 in one.items())
        and sum((c * cu(k) for k, c in one.items()), Fraction(0)) == 1,
    )
    return out


def _lopsided(product, degree):
    """``product`` with the degree-(1, 2) products halved: not associative,
    since ``x(yz)`` is halved and ``(xy)z`` is not."""

    def skewed(a, b):
        out = product(a, b)
        return out.scale(Fraction(1, 2)) if (degree(a), degree(b)) == (1, 2) else out

    return skewed


_STRUCTURES = [
    (
        "anchored", (3, 2), anchored_basis(3, 2), lambda a: len(a.word),
        LinComb.basis(Anchored((), 0)),
        (shifted_shuffle, deconcat_coproduct, deconcat_counit),
    ),
    (
        "packed", (4,), packed_basis(4), len, LinComb.basis(()),
        (packed_product, packed_coproduct, packed_counit),
    ),
]


@pytest.mark.parametrize("structure, bounds, basis, degree, unit, maps", _STRUCTURES)
def test_memoised_check_matches_fraction_reference(
    structure, bounds, basis, degree, unit, maps
):
    product, coproduct, counit = maps
    skewed = _lopsided(product, degree)
    reports = verify_bialgebra_axioms(structure, *bounds, product=skewed)
    got = [(r["axiom"], r["status"], r["checked"], r.get("witness")) for r in reports]
    want = _reference_axioms(
        basis, degree, bounds[0], skewed, coproduct, counit, unit
    )
    assert got == want
    failed = {axiom for axiom, status, _, _ in got if status == "fail"}
    assert {"associativity", "product-coproduct-compatibility"} <= failed
    # the unaltered maps pass the reference too
    assert all(
        status == "pass"
        for _, status, _, _ in _reference_axioms(
            basis, degree, bounds[0], product, coproduct, counit, unit
        )
    )


def _drop_one_term(product, x, y):
    """``product`` with one term of ``x * y`` (the least by ``repr``) left out."""

    def dropped(a, b):
        out = product(a, b)
        if (a, b) != (x, y):
            return out
        first = min(out.support(), key=repr)
        return LinComb([(k, c) for k, c in out.items() if k != first])

    return dropped


def _without_unit_left_cuts(coproduct, degree):
    """``coproduct`` without its degree-0 (x) ``a`` cuts of ``a`` of positive
    degree."""

    def broken(a):
        return LinComb(
            [(k, c) for k, c in coproduct(a).items() if degree(k[0]) or not degree(a)]
        )

    return broken


@pytest.mark.parametrize(
    "structure, bounds, basis, degree, unit, maps, pair",
    [
        (*_STRUCTURES[0], (anchored((1,), 1), anchored((2, 1), 2))),
        (*_STRUCTURES[1], ((1,), (1, 2))),
    ],
)
def test_axiom_cases_come_in_filtered_product_order(
    structure, bounds, basis, degree, unit, maps, pair
):
    # a fault met partway through an axiom's cases fixes both the count of
    # cases checked and the witness, so a reordering of the cases shows
    product, coproduct, counit = maps
    faults = [
        {"product": _drop_one_term(product, *pair)},
        {"coproduct": _without_unit_left_cuts(coproduct, degree)},
    ]
    for fault in faults:
        reports = verify_bialgebra_axioms(structure, *bounds, **fault)
        got = [(r["axiom"], r["status"], r["checked"], r.get("witness")) for r in reports]
        want = _reference_axioms(
            basis, degree, bounds[0], fault.get("product", product),
            fault.get("coproduct", coproduct), counit, unit,
        )
        assert got == want
        assert any(status == "fail" and checked > 1 for _, status, checked, _ in got)
