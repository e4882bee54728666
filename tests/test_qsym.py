import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from character_oracle import peak_terms, strict_partitions
from wordbialg.lincomb import parse_scalar
from wordbialg.qsym import (
    QSym,
    _map_fundamental,
    canonical_character,
    coproduct_terms,
    fundamental_L,
    from_fundamental,
    homogeneous_h,
    is_symmetric,
    kostka,
    marked_shifted_count,
    monomial,
    monomial_sym,
    omega_L,
    peak_K,
    q_function,
    qs_one,
    qsym_to_json,
    quasi_shuffle,
    schur,
    schur_expand,
    schur_positive,
    schur_q,
    schur_q_expand,
    schur_q_positive,
    substitute_geometric,
    to_fundamental,
    to_monomial_sym,
)
from wordbialg.words import (
    comp_complement,
    comp_from_set,
    comp_reverse,
    comp_sort,
    comp_to_set,
    comp_transpose,
    compositions,
    is_peak_composition,
    partitions,
)


def reverse_L(f):
    return _map_fundamental(f, comp_reverse)


def complement_L(f):
    return _map_fundamental(f, comp_complement)


def qsym_from_json(data):
    """The inverse of ``qsym_to_json``."""
    return QSym(
        data["degree"],
        {tuple(t["comp"]): parse_scalar(t["coeff"]) for t in data["terms"]},
    )


compositions_st = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple)
qsym_st = st.dictionaries(compositions_st, st.integers(-4, 4), max_size=4).map(
    lambda d: QSym(8, d)
)


# --- polynomial oracle -----------------------------------------------------


def expand_polynomial(f: QSym, nvars: int) -> dict:
    """Exact expansion into monomial exponent vectors over x_1..x_nvars."""
    out: dict[tuple, Fraction] = {}
    for alpha, c in f.terms.items():
        if len(alpha) > nvars:
            continue
        for support in itertools.combinations(range(nvars), len(alpha)):
            expo = [0] * nvars
            for pos, part in zip(support, alpha):
                expo[pos] = part
            key = tuple(expo)
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def multiply_polynomials(p: dict, q: dict, degree: int) -> dict:
    out: dict[tuple, Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > degree:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


# --- bases ------------------------------------------------------------------


def test_fundamental_examples():
    n = 4
    assert fundamental_L((n,)) == QSym(n, {a: 1 for a in compositions(n)})
    assert fundamental_L((1, 1)) == monomial((1, 1))
    assert peak_K((4,)) == QSym(4, {a: 2 ** len(a) for a in compositions(4)})
    with pytest.raises(ValueError):
        peak_K((1, 2))


@given(
    st.integers(0, 10).flatmap(
        lambda n: st.sampled_from(
            [a for a in compositions(n) if is_peak_composition(a)]
        )
    ),
    st.integers(0, 2),
)
def test_peak_K_matches_the_composition_enumeration(alpha, headroom):
    n = sum(alpha)
    f = peak_K(alpha, n + headroom)
    assert f.degree == n + headroom
    assert list(f.terms.items()) == list(peak_terms(alpha))
    assert _stored_exactly(f.terms.values())


@given(qsym_st)
@settings(max_examples=40)
def test_fundamental_round_trip(f):
    assert from_fundamental(to_fundamental(f), f.degree) == f


def test_monomial_in_fundamentals_alternating():
    coeffs = to_fundamental(monomial((3,)))
    # expanding back must recover the monomial (inclusion-exclusion check)
    assert from_fundamental(coeffs, 3) == monomial((3,))
    assert to_fundamental(QSym(5, {})) == {}
    assert to_fundamental(fundamental_L((2, 1))) == {(2, 1): Fraction(1)}


def test_is_symmetric():
    assert is_symmetric(monomial_sym((2, 1)))
    assert not is_symmetric(monomial((1, 2)))
    assert to_monomial_sym(monomial_sym((2, 1))).terms == {(2, 1): Fraction(1)}
    with pytest.raises(ValueError):
        to_monomial_sym(monomial((1, 2)))


def test_h_is_sum_of_monomial_syms():
    n = 5
    h = homogeneous_h(n)
    assert to_monomial_sym(h).terms == {lam: Fraction(1) for lam in partitions(n)}


# --- Schur ------------------------------------------------------------------


def brute_force_ssyt_count(lam, content):
    """Direct filling enumeration, independent of the strip recursion."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    letters = []
    for value, mult in enumerate(content, start=1):
        letters.extend([value] * mult)
    count = 0
    filling = {}

    def rec(k):
        nonlocal count
        if k == len(cells):
            count += 1
            return
        i, j = cells[k]
        for v in sorted(set(letters)):
            if letters.count(v) - sum(1 for x in filling.values() if x == v) <= 0:
                continue
            if j and filling[(i, j - 1)] > v:
                continue
            if i and filling[(i - 1, j)] >= v:
                continue
            filling[(i, j)] = v
            rec(k + 1)
            del filling[(i, j)]

    rec(0)
    return count


@pytest.mark.parametrize(
    "lam,content,expected",
    [((2, 1), (1, 1, 1), 2), ((2, 1), (2, 1), 1), ((2, 2), (2, 1, 1), 1)],
)
def test_kostka_frozen(lam, content, expected):
    assert kostka(lam, content) == expected
    assert brute_force_ssyt_count(lam, content) == expected


def test_kostka_vs_brute_force():
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                assert kostka(lam, mu) == brute_force_ssyt_count(lam, mu)


def test_schur_examples():
    n = 4
    assert schur((1,) * n) == monomial_sym((1,) * n)
    assert schur((n,)) == homogeneous_h(n)
    assert schur((2, 1)) == monomial_sym((2, 1)) + monomial_sym((1, 1, 1)).scale(2)


def test_schur_symmetric_and_expansion_round_trip():
    for n in range(1, 9):
        for lam in partitions(n):
            s = schur(lam)
            assert is_symmetric(s)
            assert dict(schur_expand(s).terms) == {lam: Fraction(1)}
            cert = schur_positive(s)
            assert cert.nonnegative and not cert.negative_terms


def test_schur_expand_rebuild_identity():
    import random

    rng = random.Random(3)
    for _ in range(10):
        degree = 8
        f = QSym(degree, {})
        for _ in range(4):
            n = rng.randint(0, 6)
            lam = rng.choice(partitions(n))
            f = f + schur(lam, degree).scale(rng.randint(-3, 3))
        expansion = schur_expand(f)
        rebuilt = QSym(degree, {})
        for lam, c in expansion.terms.items():
            rebuilt = rebuilt + schur(lam, degree).scale(c)
        assert rebuilt == f


def _schur_by_compositions(lam, count):
    """The basis element of ``lam`` with the tableau count ``count`` read
    at every composition of its size: the reference for the shared builder,
    which reads each partition once and spreads it over rearrangements."""
    terms = {}
    for alpha in compositions(sum(lam)):
        c = count(lam, comp_sort(alpha))
        if c:
            terms[alpha] = Fraction(c)
    return QSym(sum(lam), terms)


def test_schur_bases_match_per_composition_reference():
    for n in range(8):
        for lam in partitions(n):
            assert schur(lam).terms == _schur_by_compositions(lam, kostka).terms
        for lam in strict_partitions(n):
            assert schur_q(lam).terms == _schur_by_compositions(
                lam, marked_shifted_count
            ).terms
    assert schur((2, 1), 2) == QSym(2, {})


def test_schur_expand_rejects_non_span():
    # a non-symmetric element cannot be expanded
    with pytest.raises(ValueError):
        schur_expand(monomial((1, 2)))


# --- Schur Q ------------------------------------------------------------------


def test_marked_shifted_frozen_values():
    # shape (2,1): 4 tableaux of content (2,1), 8 of content (1,1,1),
    # enumerated by hand and frozen
    assert marked_shifted_count((2, 1), (2, 1)) == 4
    assert marked_shifted_count((2, 1), (1, 1, 1)) == 8
    assert schur_q((2, 1)) == monomial_sym((2, 1)).scale(4) + monomial_sym(
        (1, 1, 1)
    ).scale(8)
    with pytest.raises(ValueError):
        schur_q((2, 2))


def _brute_marked_shifted_count(lam, content):
    """Marked shifted tableaux of shape ``lam`` and the given content, by
    filling the shifted diagram cell by cell (the test oracle)."""
    if sum(content) != sum(lam):
        return 0
    cells = [(i, i + j) for i, part in enumerate(lam) for j in range(part)]
    remaining = list(content)
    filling = {}
    count = 0

    def key(value):
        return 2 * value[0] - value[1]

    def rec(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        left = filling.get((r, c - 1))
        up = filling.get((r - 1, c))
        for k in range(1, len(remaining) + 1):
            if not remaining[k - 1]:
                continue
            for primed in (1, 0):
                value = (k, primed)
                if left is not None:
                    if key(value) < key(left) or (primed and left == value):
                        continue
                if up is not None:
                    if key(value) < key(up) or (not primed and up == value):
                        continue
                remaining[k - 1] -= 1
                filling[(r, c)] = value
                rec(idx + 1)
                del filling[(r, c)]
                remaining[k - 1] += 1

    rec(0)
    return count


def test_marked_shifted_strip_recursion_matches_enumeration():
    for n in range(9):
        for lam in strict_partitions(n):
            for mu in partitions(n):
                for content in (mu, mu[::-1]):
                    assert marked_shifted_count(lam, content) == (
                        _brute_marked_shifted_count(lam, content)
                    ), (lam, content)


def test_q_functions():
    for n in range(1, 7):
        qn = q_function(n)
        assert qn == QSym(n, {a: 2 ** len(a) for a in compositions(n)})
        assert to_monomial_sym(qn).terms == {
            lam: Fraction(2 ** len(lam)) for lam in partitions(n)
        }
        assert schur_q((n,)) == qn


def test_schur_q_product_identity():
    # Q_(2,1) = q_2 q_1 - 2 q_3, an independent algebraic cross-check
    lhs = schur_q((2, 1), 3)
    rhs = q_function(2, 3) * q_function(1, 3) - q_function(3, 3).scale(2)
    assert lhs == rhs


def test_schur_q_expansion():
    for n in range(1, 8):
        for lam in strict_partitions(n):
            qq = schur_q(lam)
            assert is_symmetric(qq)
            assert dict(schur_q_expand(qq).terms) == {lam: Fraction(1)}
            assert schur_q_positive(qq).nonnegative
    # h_2 is symmetric but not in the Q-span
    with pytest.raises(ValueError):
        schur_q_expand(homogeneous_h(2))


# --- involutions ---------------------------------------------------------------


def test_omega():
    n = 5
    assert omega_L(homogeneous_h(n)) == fundamental_L((1,) * n)
    # elementary symmetric function: transpose of the one-row Schur function
    assert omega_L(schur((3, 1))) == schur((2, 1, 1))


@given(qsym_st)
@settings(max_examples=25)
def test_involutions_square_to_identity(f):
    assert omega_L(omega_L(f)) == f
    assert reverse_L(reverse_L(f)) == f
    assert complement_L(complement_L(f)) == f


def test_reverse_fixes_symmetric():
    for n in range(1, 7):
        for lam in partitions(n):
            m = monomial_sym(lam)
            assert reverse_L(m) == m


# --- product -------------------------------------------------------------------


def test_quasi_shuffle_table():
    assert quasi_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}


@given(compositions_st, compositions_st)
@settings(max_examples=30)
def test_product_matches_polynomial_multiplication(alpha, beta):
    degree = 12
    f, g = monomial(alpha, degree), monomial(beta, degree)
    product = f * g
    nvars = 6
    expected = multiply_polynomials(
        expand_polynomial(f, nvars), expand_polynomial(g, nvars), degree
    )
    assert expand_polynomial(product, nvars) == expected


def test_h_product_monomial_positive():
    for a in range(1, 5):
        for b in range(1, 9 - a):
            product = homogeneous_h(a, a + b) * homogeneous_h(b, a + b)
            assert is_symmetric(product)
            assert all(c > 0 for c in to_monomial_sym(product).terms.values())


# --- geometric substitution -----------------------------------------------------


def test_substitute_geometric_examples():
    D = 5
    assert substitute_geometric(monomial((1,), D)) == QSym(
        D, {(k,): 1 for k in range(1, D + 1)}
    )
    assert substitute_geometric(monomial((1, 1), D)) == QSym(
        D, {(a, b): 1 for a in range(1, D) for b in range(1, D) if a + b <= D}
    )


def test_substitute_geometric_against_series_oracle():
    # substitute x -> x + x^2 + ... directly in a truncated polynomial ring
    degree, nvars = 6, 6
    geom = {}
    for i in range(nvars):
        for k in range(1, degree + 1):
            e = [0] * nvars
            e[i] = k
            geom.setdefault(i, {})[tuple(e)] = Fraction(1)

    def substitute(poly):
        out = {}
        for expo, coeff in poly.items():
            acc = {tuple([0] * nvars): coeff}
            for i, power in enumerate(expo):
                for _ in range(power):
                    acc = multiply_polynomials(acc, geom[i], degree)
            for k, v in acc.items():
                out[k] = out.get(k, Fraction(0)) + v
        return {k: v for k, v in out.items() if v}

    for alpha in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2)]:
        f = monomial(alpha, degree)
        got = expand_polynomial(substitute_geometric(f), nvars)
        want = substitute(expand_polynomial(f, nvars))
        assert got == want, alpha


@given(qsym_st)
@settings(max_examples=20)
def test_substitute_geometric_additive(f):
    g = fundamental_L((2,), 8)
    assert substitute_geometric(f + g) == substitute_geometric(
        f
    ) + substitute_geometric(g)


def test_substitute_geometric_truncates():
    f = monomial((1,), 3)
    assert max(sum(a) for a in substitute_geometric(f).terms) == 3


# --- coproduct ------------------------------------------------------------------


def test_coproduct_terms():
    out = coproduct_terms(monomial((2, 1)))
    assert out == {
        ((), (2, 1)): Fraction(1),
        ((2,), (1,)): Fraction(1),
        ((2, 1), ()): Fraction(1),
    }


def test_canonical_character():
    assert canonical_character(qs_one(3)) == {0: Fraction(1)}
    assert canonical_character(monomial((3,))) == {3: Fraction(1)}
    assert canonical_character(monomial((1, 2))) == {}


def test_json_round_trip():
    f = schur((2, 1), 5)
    assert qsym_from_json(qsym_to_json(f)) == f


# --- coefficient convention: ints against an all-Fraction oracle -------------

int_terms_st = st.dictionaries(compositions_st, st.integers(-4, 4), max_size=4)
scalars_st = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)


def _oracle(pairs, degree) -> dict:
    out = {}
    for alpha, c in pairs:
        if sum(alpha) <= degree:
            out[alpha] = out.get(alpha, Fraction(0)) + Fraction(c)
    return {a: c for a, c in out.items() if c}


def _oracle_to_fundamental(terms) -> dict:
    """Inclusion-exclusion over the cut sets containing each ``alpha``'s."""
    out = {}
    for alpha, c in terms.items():
        n = sum(alpha)
        base = comp_to_set(alpha)
        free = sorted(set(range(1, n)) - base)
        for k in range(len(free) + 1):
            for extra in itertools.combinations(free, k):
                beta = comp_from_set(n, base | set(extra))
                out[beta] = out.get(beta, Fraction(0)) + c * (-1) ** k
    return {b: c for b, c in out.items() if c}


def _oracle_from_fundamental(coeffs, degree) -> dict:
    """``L_alpha`` is the sum of ``M_beta`` over cut sets containing
    ``alpha``'s, read off every composition of the size."""
    pairs = [
        (beta, c)
        for alpha, c in coeffs.items()
        for beta in compositions(sum(alpha))
        if comp_to_set(alpha) <= comp_to_set(beta)
    ]
    return _oracle(pairs, degree)


def _stored_exactly(values) -> bool:
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in values
    )


def _agrees(f: QSym, oracle: dict) -> bool:
    return f.terms == oracle and _stored_exactly(f.terms.values())


@given(int_terms_st, int_terms_st, scalars_st)
@settings(max_examples=60)
def test_int_coefficients_match_fraction_oracle(xs, ys, c):
    degree = 8
    f, g = QSym(degree, xs), QSym(degree, ys)
    of, og = _oracle(xs.items(), degree), _oracle(ys.items(), degree)
    assert _agrees(f, of) and _agrees(g, og)
    assert _agrees(f + g, _oracle(list(of.items()) + list(og.items()), degree))
    assert _agrees(f - g, _oracle(list(of.items()) + [(a, -v) for a, v in og.items()], degree))
    assert _agrees(f.scale(c), _oracle([(a, v * c) for a, v in of.items()], degree))
    assert _agrees(f.scale(c).scale(6), _oracle([(a, v * c * 6) for a, v in of.items()], degree))
    assert _agrees(
        f * g,
        _oracle(
            [
                (gamma, va * vb * mult)
                for a, va in of.items()
                for b, vb in og.items()
                for gamma, mult in quasi_shuffle(a, b).items()
            ],
            degree,
        ),
    )
    fundamental = to_fundamental(f.scale(c))
    want = _oracle_to_fundamental(_oracle([(a, v * c) for a, v in of.items()], degree))
    assert fundamental == want and _stored_exactly(fundamental.values())
    assert _agrees(from_fundamental(fundamental, degree), _oracle_from_fundamental(want, degree))
    transposed = {comp_transpose(a): v for a, v in _oracle_to_fundamental(of).items()}
    assert _agrees(omega_L(f), _oracle_from_fundamental(transposed, degree))


def test_whole_coefficients_come_back_as_int():
    half = monomial((2, 1), 5).scale(Fraction(1, 2))
    assert type(half.coeff((2, 1))) is Fraction
    assert type((half + half).coeff((2, 1))) is int
    assert type(half.scale(4).coeff((2, 1))) is int
    assert type((half * half.scale(2)).coeff((2, 1, 2, 1))) is int
    assert type(QSym(3, {(1, 2): Fraction(6, 3)}).coeff((1, 2))) is int
    assert qs_one(0).coeff(()) == 1 and qs_one(0).coeff((1,)) == 0
    for f in (schur((3, 1)), schur_q((3, 1)), peak_K((2, 2)), fundamental_L((1, 2))):
        assert _stored_exactly(f.terms.values())
    assert _stored_exactly(canonical_character(half.scale(2)).values())
    assert _stored_exactly(coproduct_terms(half.scale(2)).values())
    # the Schur-Q pivot 2^l(lam) leaves a Fraction only where it does not divide
    expansion = schur_q_expand(q_function(2).scale(3) * q_function(1).scale(5))
    assert _stored_exactly(expansion.terms.values())
    halves = schur_q_expand(schur_q((2, 1)).scale(Fraction(1, 2)))
    assert halves.terms == {(2, 1): Fraction(1, 2)}


def _refinements(alpha):
    """Every refinement of ``alpha``: the cut sets containing its own."""
    n = sum(alpha)
    base = comp_to_set(alpha)
    free = sorted(set(range(1, n)) - base)
    return [
        comp_from_set(n, base | set(extra))
        for k in range(len(free) + 1)
        for extra in itertools.combinations(free, k)
    ]


def _refinement_sum(coeffs, signed):
    """``sum c * (+-1)^(l(beta) - l(alpha)) * X_beta`` over the refinements
    ``beta`` of each ``alpha``, as an all-Fraction dict without zeros."""
    out = {}
    for alpha, c in coeffs.items():
        for beta in _refinements(alpha):
            sign = -1 if signed and (len(beta) - len(alpha)) & 1 else 1
            out[beta] = out.get(beta, Fraction(0)) + sign * c
    return {b: c for b, c in out.items() if c}


dense_terms_st = st.integers(0, 8).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, d).flatmap(lambda n: st.sampled_from(list(compositions(n)))),
        scalars_st,
        max_size=3 << d,
    ).map(lambda terms: (d, terms))
)


@given(dense_terms_st)
@settings(max_examples=80, deadline=None)
def test_fundamental_changes_match_the_refinement_sum(case):
    degree, terms = case
    f = QSym(degree, terms)
    fundamental = to_fundamental(f)
    want = _refinement_sum(f.terms, signed=True)
    assert fundamental == want and _stored_exactly(fundamental.values())
    assert _agrees(from_fundamental(terms, degree), _refinement_sum(terms, signed=False))
    assert _agrees(from_fundamental(fundamental, degree), _oracle(f.terms.items(), degree))
    transposed = {comp_transpose(a): c for a, c in want.items()}
    assert _agrees(omega_L(f), _refinement_sum(transposed, signed=False))
    for alpha in list(terms)[:3]:
        assert _agrees(fundamental_L(alpha, degree), _refinement_sum({alpha: 1}, False))
    assert _agrees(homogeneous_h(degree), _refinement_sum({(degree,) if degree else (): 1}, False))
