import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordbialg.bialgebra import (
    anchored_basis,
    deconcat_coproduct,
    packed_basis,
    packed_product,
    shifted_shuffle,
)
from character_oracle import (
    ALL_CHARACTERS,
    all_reduced_words,
    ascents,
    character_coefficient,
    character_on_lincomb,
    character_poly,
    descent_composition,
    descents,
    oracle_image,
    oracle_sum,
    weak_ascents,
    weak_descents,
)
from wordbialg.characters import (
    BASIC_KINDS,
    _violation_mask,
    class_image,
    format_character,
    grassmannian_stable_family,
    grothendieck_family,
    hecke_words,
    lincomb_image,
    multi_fundamental,
    nsym_generator_image,
    parse_character,
    word_image,
)
from wordbialg.lincomb import LinComb
from wordbialg.qsym import (
    QSym,
    canonical_character,
    coproduct_terms,
    fundamental_L,
    homogeneous_h,
    is_symmetric,
    omega_L,
    peak_K,
    q_function,
    schur,
    substitute_geometric,
)
from wordbialg.relations import bfs_class, builtin_relation
from wordbialg.words import (
    anchored,
    comp_from_set,
    eval_hecke_word,
    permutation_length,
)

# The peak or valley set indexing each peak convolution's image: the
# positions i whose letters w_{i-1}, w_i, w_{i+1} compare this way.
PEAK_INDEX = {
    ("gt", "le"): lambda a, b, c: a <= b > c,
    ("lt", "ge"): lambda a, b, c: a >= b < c,
    ("ge", "lt"): lambda a, b, c: a < b >= c,
    ("le", "gt"): lambda a, b, c: a > b <= c,
}


def peak_index(w, char):
    test = PEAK_INDEX[char]
    n = len(w)
    return comp_from_set(n, {i for i in range(2, n) if test(*w[i - 2 : i + 1])})


def test_character_values():
    assert character_poly("le", (1, 2, 3)) == {3: Fraction(1)}
    assert character_poly("le", (1, 3, 2)) == {}
    assert character_poly("le", ()) == {0: Fraction(1)}
    assert character_poly("gt", (3, 1)) == {2: Fraction(1)}
    assert character_poly(("gt", "le"), (3, 1, 2)) == {3: Fraction(2)}
    assert character_poly(("gt", "le"), ()) == {0: Fraction(1)}
    assert character_poly(("gt", "le"), (1, 3, 2)) == {}


def test_convolution_closed_form_exhaustive():
    # 0, 1, or exactly 2 valid cuts: the doubled-monomial case analysis,
    # checked on every word with letters <= 4 and length <= 7
    for n in range(8):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            value = character_poly(("gt", "le"), w)
            if not n:
                assert value == {0: Fraction(1)}
                continue
            fits = any(
                all(w[k] > w[k + 1] for k in range(i - 1))
                and all(w[k] <= w[k + 1] for k in range(i, n - 1))
                for i in range(1, n + 1)
            )
            assert value == ({n: Fraction(2)} if fits else {})


def test_character_multiplicative_on_shifted_shuffle():
    basis = anchored_basis(3, 3)
    for kind in BASIC_KINDS:
        for a in basis:
            for b in basis:
                if len(a.word) + len(b.word) > 5:
                    continue
                lhs = character_on_lincomb(kind, shifted_shuffle(a, b))
                va = character_poly(kind, a)
                vb = character_poly(kind, b)
                rhs = {
                    da + db: ca * cb
                    for da, ca in va.items()
                    for db, cb in vb.items()
                }
                assert lhs == {d: c for d, c in rhs.items() if c}, (kind, a, b)


def test_character_coefficient_examples():
    assert character_coefficient("le", (), ()) == 1
    assert character_coefficient("le", (1, 3, 2), (2, 1)) == 1
    assert character_coefficient("le", (1, 3, 2), (1, 2)) == 0
    perm = (2, 4, 1, 3)
    assert character_coefficient("le", perm, (1, 1, 1, 1)) == 1
    x = LinComb({anchored((1, 2), 2): 2})
    assert character_coefficient("le", x, (2,)) == 2


def test_word_image_closed_forms():
    assert word_image((3, 1, 2), "le") == fundamental_L((1, 2))
    for n in range(7):
        for w in itertools.product((1, 2, 3), repeat=n):
            alpha = descent_composition(w)
            assert word_image(w, "le") == fundamental_L(alpha)
            assert word_image(w, "gt") == fundamental_L(
                comp_from_set(n, set(range(1, n)) - descents(w))
            )


@pytest.mark.parametrize("char", ALL_CHARACTERS, ids=format_character)
def test_kernel_images_match_the_oracle(char):
    # every word over 3 letters up to length 6, alone, as whole lengths, as
    # random classes and in random integer combinations
    rng = random.Random(format_character(char))
    words = [w for n in range(7) for w in itertools.product((1, 2, 3), repeat=n)]
    for w in words:
        image = oracle_image(w, char)
        assert word_image(w, char) == image, w
        if char in PEAK_INDEX:
            assert image == peak_K(peak_index(w, char), len(w)), w
    for n in range(7):
        length_n = [w for w in words if len(w) == n]
        assert class_image(length_n, char, n) == oracle_sum(
            [(w, 1) for w in length_n], char, n
        )
    for _ in range(20):
        members = rng.sample(words, rng.randint(0, 40))
        degree = rng.randint(0, 6)
        assert class_image(members, char, degree) == oracle_sum(
            [(w, 1) for w in members], char, degree
        )
        x = LinComb({w: rng.randint(-3, 3) for w in rng.sample(words, 40)})
        assert lincomb_image(x, char, degree) == oracle_sum(x.items(), char, degree)


def test_image_is_coalgebra_morphism():
    # coproduct of the image equals the image of the cut coproduct
    for a in anchored_basis(5, 2):
        image = word_image(a, "le")
        lhs = coproduct_terms(image)
        rhs: dict = {}
        for (left, right), c in deconcat_coproduct(a).items():
            for beta, cb in word_image(left, "le").terms.items():
                for gamma, cg in word_image(right, "le").terms.items():
                    key = (beta, gamma)
                    rhs[key] = rhs.get(key, Fraction(0)) + c * cb * cg
        assert lhs == {k: v for k, v in rhs.items() if v}


def test_image_is_algebra_morphism_on_packed():
    words = packed_basis(4)
    for u in words:
        for v in words:
            if len(u) + len(v) > 6:
                continue
            lhs = lincomb_image(packed_product(u, v), "le", 6)
            rhs = word_image(u, "le", 6) * word_image(v, "le", 6)
            assert lhs == rhs, (u, v)


def test_canonical_character_factors_through_image():
    for a in anchored_basis(5, 3):
        for kind in BASIC_KINDS:
            assert canonical_character(word_image(a, kind)) == character_poly(
                kind, a
            )


def test_flattened_and_anchored_images_agree():
    for a in anchored_basis(5, 3):
        from wordbialg.words import flatten

        for kind in ["le", "gt", ("gt", "le")]:
            assert word_image(a, kind) == word_image(flatten(a.word), kind)


def test_nsym_generator_images():
    for n in range(1, 9):
        assert nsym_generator_image(n, "le") == homogeneous_h(n)
        assert nsym_generator_image(n, ("gt", "le")) == q_function(n)


# --- the mask kernel against the oracle on random words -------------------------

short_words = st.lists(st.integers(1, 4), max_size=7).map(tuple)


@settings(max_examples=150, deadline=None)
@given(
    members=st.lists(short_words, max_size=12),
    char=st.sampled_from(ALL_CHARACTERS),
    degree=st.integers(0, 7),
)
@example(members=[(), (2, 1, 1), (1, 3, 2, 4, 1, 2, 3)], char=("le", "gt"), degree=3)
@example(members=[(), (), (3, 1, 2)], char="ge", degree=0)
@example(members=[(4, 1, 1, 3, 2, 2, 4)], char=("lt", "le"), degree=7)
def test_class_image_is_member_sum(members, char, degree):
    image = class_image(members, char, degree)
    assert image.degree == degree
    assert image == oracle_sum([(w, 1) for w in members], char, degree)
    for w in members:
        assert word_image(w, char) == oracle_image(w, char)
        if char in PEAK_INDEX:
            assert word_image(w, char) == peak_K(peak_index(w, char), len(w))


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(
        st.tuples(short_words, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        max_size=10,
    ),
    char=st.sampled_from(ALL_CHARACTERS),
    degree=st.integers(0, 7),
)
def test_lincomb_image_is_member_sum(terms, char, degree):
    x = LinComb(terms)
    assert lincomb_image(x, char, degree) == oracle_sum(x.items(), char, degree)


def test_character_parsing():
    assert parse_character("le") == "le"
    assert parse_character("gt-le") == ("gt", "le")
    assert format_character(("gt", "le")) == "gt-le"
    with pytest.raises(ValueError):
        parse_character("weird")


# --- multi-fundamental ---------------------------------------------------------


def test_multi_fundamental_bottom_is_fundamental():
    for alpha in [(1,), (2,), (1, 1), (2, 1), (1, 2), (3,), (1, 1, 1), (2, 2)]:
        assert multi_fundamental(alpha, sum(alpha)) == fundamental_L(alpha)


def multi_fundamental_brute(alpha, degree: int, nvars: int) -> QSym:
    """Reference enumeration over explicit subset chains of ``[nvars]``."""
    alpha = tuple(alpha)
    n = sum(alpha)  # number of chain slots
    cuts = set(itertools.accumulate(alpha[:-1]))
    subsets = [
        frozenset(s)
        for k in range(1, nvars + 1)
        for s in itertools.combinations(range(1, nvars + 1), k)
    ]
    terms: dict = {}
    if n == 0:
        return QSym(degree, {(): 1})

    def rec(slot: int, prev, usage: dict) -> None:
        if slot == n:
            top = max(usage)
            if sorted(usage) != list(range(1, top + 1)):
                return
            beta = tuple(usage[i] for i in range(1, top + 1))
            if sum(beta) <= degree:
                terms[beta] = terms.get(beta, 0) + 1
            return
        for s in subsets:
            if prev is not None:
                if slot in cuts:
                    if not max(prev) < min(s):
                        continue
                elif not max(prev) <= min(s):
                    continue
            new_usage = dict(usage)
            for i in s:
                new_usage[i] = new_usage.get(i, 0) + 1
            if sum(new_usage.values()) <= degree:
                rec(slot + 1, s, new_usage)

    rec(0, None, {})
    return QSym(degree, terms)


@pytest.mark.parametrize("alpha", [(1,), (2,), (1, 1), (2, 1), (3,)])
def test_multi_fundamental_against_chain_enumeration(alpha):
    degree = 5
    assert multi_fundamental(alpha, degree) == multi_fundamental_brute(
        alpha, degree, degree
    )


def test_multi_fundamental_matches_collapse_classes():
    pres = builtin_relation("k-equivalence")
    degree = 6
    for w in [(1,), (2, 1), (1, 2), (1, 2, 1), (2, 1, 2), (1, 2, 3)]:
        members = bfs_class(pres, w, degree)
        alpha = descent_composition(w)
        assert class_image(members, "lt", degree) == multi_fundamental(alpha, degree)
        assert class_image(members, "le", degree) == substitute_geometric(
            multi_fundamental(alpha, degree)
        )


# --- stable Grothendieck families -------------------------------------------------


def test_hecke_word_enumeration():
    s1 = eval_hecke_word((1,), 1)
    assert hecke_words(s1, 0) == ()
    for d in range(1, 6):
        assert hecke_words(s1, d) == ((1,) * d,)
    # cross-check against the closure-based class of the one-letter word
    members = bfs_class(builtin_relation("hecke"), (1,), 5)
    assert set(members) == {(1,) * d for d in range(1, 6)}


def test_grothendieck_family_s3():
    for pi in itertools.permutations((1, 2, 3)):
        fam = grothendieck_family(pi, 6)
        assert fam["J"] == omega_L(fam["K"])
        ell = permutation_length(pi)
        for alpha, c in fam["G"].terms.items():
            assert c == fam["K"].coeff(alpha) * (-1) ** (ell + sum(alpha))


def stanley_symmetric_bottom(pi):
    """Degree-``length`` part of the stable family from reduced words only."""
    ell = permutation_length(pi)
    return class_image(all_reduced_words(pi), "gt", ell)


def test_grothendieck_bottom_vs_reduced_words():
    for pi in itertools.permutations((1, 2, 3, 4)):
        fam = grothendieck_family(pi, permutation_length(pi))
        assert fam["G"].homogeneous(permutation_length(pi)) == stanley_symmetric_bottom(pi)


def test_grassmannian_bottoms_are_schur():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        fam = grassmannian_stable_family(lam, sum(lam) + 2)
        assert fam["J"].homogeneous(sum(lam)) == schur(lam, sum(lam))
        assert is_symmetric(fam["J"]) and is_symmetric(fam["K"])


def test_grothendieck_degreewise_vs_closure():
    # the dynamic enumeration agrees with a generic closure class, degree-wise
    pres = builtin_relation("hecke")
    pi = eval_hecke_word((1, 2), 2)
    members = bfs_class(pres, (1, 2), 5)
    closure_image = class_image(members, "gt", 5)
    fam = grothendieck_family(pi, 5)
    assert fam["K"] == closure_image


_VIOLATION_SETS = {
    "le": descents,
    "ge": ascents,
    "lt": weak_descents,
    "gt": weak_ascents,
}


@given(
    st.one_of(
        st.lists(st.integers(1, 5), max_size=12),
        st.lists(st.integers(1, 5), min_size=65, max_size=80),
    )
)
@example([])
@example([3])
@example([2] * 70)
@settings(max_examples=120, deadline=None)
def test_violation_mask_matches_the_violation_sets(w):
    w = tuple(w)
    for kind, violations in _VIOLATION_SETS.items():
        assert _violation_mask(w, kind) == sum(1 << (i - 1) for i in violations(w))
