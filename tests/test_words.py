import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from character_oracle import (
    all_reduced_words,
    comp_flat,
    descent_composition,
    descents,
    peaks,
    strict_partitions,
    valleys,
)
from wordbialg.words import (
    Anchored,
    anchored,
    bounded_multiply,
    comp_complement,
    comp_from_set,
    comp_reverse,
    comp_sort,
    comp_to_set,
    comp_transpose,
    compositions,
    descent_letters,
    eval_hecke_word,
    flatten,
    format_word,
    grassmannian_permutation,
    identity_permutation,
    is_increasing_tableau,
    is_packed,
    is_peak_composition,
    multiset_permutations,
    packed_words,
    parse_word,
    partitions,
    permutation_length,
    restrict,
    rsk_insert,
    shift,
    swap_values,
    tableau_shape,
)


def format_anchored(a):
    return f"[{format_word(a.word)}|{a.anchor}]"


def parse_anchored(s):
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]") and "|" in s):
        raise ValueError(f"not an anchored word: {s!r}")
    body, _, anchor = s[1:-1].rpartition("|")
    return anchored(parse_word(body), int(anchor))


words_st = st.lists(st.integers(1, 4), max_size=8).map(tuple)


def test_flatten_examples():
    assert flatten((2, 5, 5, 2)) == (1, 2, 2, 1)
    assert flatten(()) == ()
    assert flatten((3, 1, 3)) == (2, 1, 2)


def test_flatten_idempotent_exhaustive():
    # alphabet <= 4, length <= 8 per module invariant
    for n in range(9):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            f = flatten(w)
            assert flatten(f) == f
            assert (f == w) == is_packed(w)


def test_restrict():
    assert restrict((1, 4, 2, 3), {2, 3, 4}) == (4, 2, 3)
    assert restrict((3, 4, 2, 1), {2, 3, 4}) == (3, 4, 2)
    assert restrict((1, 2, 3), set()) == ()


@given(words_st)
def test_restrict_split_lengths(w):
    for n in range(5):
        low = restrict(w, range(1, n + 1))
        high = restrict(w, range(n + 1, 10))
        assert len(low) + len(high) == len(w)


def test_shift():
    assert shift((1, 2), 3) == (4, 5)
    assert shift((4, 5), -3) == (1, 2)
    assert shift((), 7) == ()
    with pytest.raises(ValueError):
        shift((1, 2), -1)


@given(words_st, st.integers(0, 5))
def test_shift_round_trip(w, m):
    assert shift(shift(w, m), -m) == w


def test_index_sets():
    assert descents((3, 1, 2)) == {1}
    assert peaks((1, 4, 2, 3)) == {2}
    assert peaks((1, 2)) == set()
    assert peaks((5,)) == set()
    assert valleys((2, 1, 3)) == {2}


def comp_peak_envelope(alpha):
    """The peak composition with cut set ``{i >= 2 : i in I, i-1 not in I}``."""
    n = sum(alpha)
    cuts = comp_to_set(alpha)
    return comp_from_set(n, {i for i in cuts if i >= 2 and i - 1 not in cuts})


def test_descents_determine_peaks_exhaustive():
    # Des(w) = I(alpha) forces Peak(w) = I(peak envelope of alpha)
    for n in range(8):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            alpha = descent_composition(w)
            assert comp_to_set(comp_peak_envelope(alpha)) == frozenset(peaks(w))


def test_serialization_round_trips():
    assert format_word((3, 4, 2, 1)) == "3421"
    assert format_word((10, 2, 3)) == "10,2,3"
    assert parse_word("3421") == (3, 4, 2, 1)
    assert parse_word("10,2,3") == (10, 2, 3)
    assert parse_word("") == ()
    a = anchored((3, 4, 2, 1), 4)
    assert format_anchored(a) == "[3421|4]"
    assert parse_anchored("[3421|4]") == a
    assert parse_anchored("[|3]") == Anchored((), 3)
    with pytest.raises(ValueError):
        anchored((5,), 4)


# --- compositions ---------------------------------------------------------


def test_composition_subset_bijection():
    for alpha in compositions(6):
        assert comp_from_set(6, comp_to_set(alpha)) == alpha
    assert comp_to_set((2, 1)) == {2}
    assert comp_from_set(0, ()) == ()


@pytest.mark.parametrize("n", range(7))
def test_composition_map_identities(n):
    for alpha in compositions(n):
        assert comp_transpose(alpha) == comp_complement(comp_reverse(alpha))
        assert comp_transpose(alpha) == comp_reverse(comp_complement(alpha))
        assert comp_complement(comp_complement(alpha)) == alpha
        assert comp_reverse(comp_reverse(alpha)) == alpha
        assert comp_transpose(comp_transpose(alpha)) == alpha
        assert comp_to_set(comp_complement(alpha)) == frozenset(
            range(1, n)
        ) - comp_to_set(alpha)


def test_peak_envelope():
    alpha = comp_from_set(5, {1, 3})
    assert comp_to_set(comp_peak_envelope(alpha)) == {3}


def composition_maps(alpha):
    """All standard composition companions in one lookup."""
    out = {
        "reverse": comp_reverse(alpha),
        "complement": comp_complement(alpha),
        "transpose": comp_transpose(alpha),
        "peak_envelope": comp_peak_envelope(alpha),
        "cut_set": comp_to_set(alpha),
    }
    if is_peak_composition(alpha):
        out["flat"] = comp_flat(alpha)
    return out


def test_composition_maps_lookup():
    maps = composition_maps((2, 1))
    assert maps["reverse"] == (1, 2)
    assert maps["complement"] == comp_complement((2, 1))
    assert maps["transpose"] == comp_transpose((2, 1))
    assert maps["cut_set"] == {2}
    assert maps["flat"] == (2, 1)
    assert "flat" not in composition_maps((1, 2))


def test_comp_flat():
    assert comp_flat((3, 2, 4)) == (5, 2, 2)
    assert comp_flat((4,)) == (4,)
    assert comp_flat(()) == ()
    with pytest.raises(ValueError):
        comp_flat((1, 2))


def test_partitions():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert strict_partitions(5) == ((5,), (4, 1), (3, 2))
    assert comp_sort((1, 3, 2)) == (3, 2, 1)


@given(st.lists(st.integers(1, 4), max_size=7))
def test_multiset_permutations(items):
    assert list(multiset_permutations(items)) == sorted(
        set(itertools.permutations(items))
    )
    assert list(multiset_permutations(())) == [()]


def test_packed_word_counts_are_ordered_bell():
    # independent recurrence: a(n) = sum C(n,k) a(n-k)
    from math import comb

    bell = [1]
    for n in range(1, 9):
        bell.append(sum(comb(n, k) * bell[n - k] for k in range(1, n + 1)))
    counts = [sum(1 for _ in packed_words(n)) for n in range(9)]
    assert counts == bell
    assert all(is_packed(w) for n in range(6) for w in packed_words(n))


# --- tableau words --------------------------------------------------------


def test_tableau_shapes():
    assert tableau_shape(()) == ()
    assert tableau_shape((6, 4, 5, 1, 2, 3)) == (3, 2, 1)
    assert tableau_shape((2, 2, 1, 1)) == (2, 2)
    assert tableau_shape((6, 5, 5, 1, 3, 3)) == (3, 2, 1)
    assert tableau_shape((1, 3, 2)) is None
    assert is_increasing_tableau((5, 6, 1, 2))
    assert is_increasing_tableau((5, 4, 5, 2, 3, 4))
    assert not is_increasing_tableau((6, 5, 5, 1, 3, 3))
    assert not is_increasing_tableau((2, 2, 1, 1))


def rsk_tableau_word(w):
    """Reading word (rows bottom-to-top) of the insertion tableau of ``w``."""
    return tuple(a for row in reversed(rsk_insert(w)) for a in row)


def test_rsk():
    assert rsk_tableau_word((1, 3, 2)) == rsk_tableau_word((3, 1, 2))
    assert rsk_tableau_word((1, 2, 3, 4)) == (1, 2, 3, 4)
    # exactly 4 insertion tableaux across the 6 permutations of 123
    tableaux = {rsk_insert(p) for p in itertools.permutations((1, 2, 3))}
    assert len(tableaux) == 4


def test_rsk_output_is_tableau_word():
    for w in itertools.product((1, 2, 3), repeat=5):
        word = rsk_tableau_word(w)
        assert tableau_shape(word) is not None


# --- permutations ---------------------------------------------------------


def reduced_word(pi):
    """One reduced word for ``pi``; its letters act first-to-last."""
    word = []
    while descent_letters(pi):
        a = descent_letters(pi)[0]
        word.append(a)
        pi = swap_values(pi, a)
    return tuple(reversed(word))


def demazure_product(u, v):
    """The associative product with ``s o s = s``, on equal ambient sizes."""
    if len(u) != len(v):
        raise ValueError("demazure_product requires equal ambient sizes")
    for a in reduced_word(v):
        u = bounded_multiply(u, a)
    return u


def test_hecke_evaluation():
    assert eval_hecke_word((1, 1), 1) == eval_hecke_word((1,), 1)
    assert eval_hecke_word((1, 2, 1), 2) == eval_hecke_word((2, 1, 2), 2)
    s1 = eval_hecke_word((1,), 2)
    s2 = eval_hecke_word((2,), 2)
    assert eval_hecke_word((1, 2), 2) == demazure_product(s1, s2)
    assert permutation_length(demazure_product(s1, s2)) == 2
    with pytest.raises(ValueError):
        eval_hecke_word((3,), 2)


def test_demazure_associative_s4_exhaustive():
    perms = [p for p in itertools.permutations((1, 2, 3, 4))]
    products = {(u, v): demazure_product(u, v) for u in perms for v in perms}
    for u in perms:
        for v in perms:
            uv = products[(u, v)]
            for w in perms:
                assert products[(uv, w)] == products[(u, products[(v, w)])]
    with pytest.raises(ValueError):
        demazure_product((1, 2), (1, 2, 3))


@given(
    st.lists(st.integers(1, 3), max_size=5).map(tuple),
    st.lists(st.integers(1, 3), max_size=5).map(tuple),
)
def test_hecke_word_concatenation(u, v):
    assert eval_hecke_word(u + v, 3) == demazure_product(
        eval_hecke_word(u, 3), eval_hecke_word(v, 3)
    )


def grassmannian_shape(pi):
    """Partition of a one-descent permutation, None when there are >= 2 descents."""
    ds = [i for i in range(1, len(pi)) if pi[i - 1] > pi[i]]
    if len(ds) > 1:
        return None
    if not ds:
        return ()
    return comp_sort(tuple(pi[i] - (i + 1) for i in range(ds[0])))


def test_grassmannian():
    assert grassmannian_shape(identity_permutation(4)) == ()
    assert grassmannian_shape((1, 4, 3, 2)) is None
    assert grassmannian_shape((2, 4, 1, 3)) == (2, 1)
    assert grassmannian_permutation((2, 1)) == (2, 4, 1, 3)
    # cross-check against a direct single-descent test over S_4
    for pi in itertools.permutations((1, 2, 3, 4)):
        single = sum(1 for i in range(3) if pi[i] > pi[i + 1]) <= 1
        assert (grassmannian_shape(pi) is not None) == single


def test_reduced_words():
    assert all_reduced_words((1, 2, 3)) == [()]
    words = all_reduced_words((3, 2, 1))
    assert len(words) == 2  # the two reduced words of the longest element of S_3
    assert all(eval_hecke_word(w, 2) == (3, 2, 1) for w in words)
