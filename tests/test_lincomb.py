from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from wordbialg.lincomb import LinComb, format_scalar, parse_scalar

rationals = st.fractions(
    min_value=-(2**64), max_value=2**64, max_denominator=2**64
)
keys = st.tuples(st.integers(1, 5), st.integers(1, 5))
combos = st.dictionaries(keys, rationals, max_size=5).map(LinComb)


@given(rationals, rationals, rationals)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_scalar_serialization():
    assert format_scalar(Fraction(3, 1)) == "3"
    assert format_scalar(Fraction(-2, 4)) == "-1/2"
    assert parse_scalar("7/3") == Fraction(7, 3)


def test_zero_handling():
    x = LinComb.basis("w")
    assert x + (-x) == LinComb.zero()
    assert not (x - x)
    assert x.scale(0) == LinComb.zero()
    assert LinComb([("a", 1), ("a", -1)]) == LinComb.zero()


@given(combos, combos, rationals)
def test_module_axioms(x, y, c):
    assert x + y == y + x
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x - y == x + y.scale(-1)


@given(combos, combos, combos)
def test_tensor_bilinear(x, y, z):
    assert x.tensor(y + z) == x.tensor(y) + x.tensor(z)
    assert (x + y).tensor(z) == x.tensor(z) + y.tensor(z)


def test_apply_linear():
    x = LinComb([("a", 2), ("b", 3)])
    assert x.apply(LinComb.basis) == x
    assert LinComb.zero().apply(LinComb.basis) == LinComb.zero()
    # collapsing two keys sums coefficients
    collapse = lambda key: LinComb.basis("c")
    assert x.apply(collapse) == LinComb.basis("c", 5)


def test_coeff_and_support():
    x = LinComb([("a", Fraction(1, 2))])
    assert x.coeff("a") == Fraction(1, 2)
    assert x.coeff("missing") == 0
    assert x.support() == {"a"}


# --- int coefficients against an all-Fraction oracle ------------------------

small = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
small_keys = st.integers(1, 4)
term_lists = st.lists(st.tuples(small_keys, small), max_size=6)


def _oracle(terms) -> dict:
    out: dict = {}
    for key, c in terms:
        total = out.get(key, Fraction(0)) + Fraction(c)
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _agrees(x: LinComb, oracle: dict) -> bool:
    """Same support and values, whole values held as ``int``, and the
    same hash as the Fraction-valued map."""
    terms = dict(x.items())
    exact_types = all(
        type(c) is (int if c.denominator == 1 else Fraction) for c in terms.values()
    )
    return (
        terms == oracle
        and exact_types
        and hash(x) == hash(frozenset(oracle.items()))
    )


@given(term_lists, term_lists, small, st.dictionaries(small_keys, term_lists))
def test_int_coefficients_match_fraction_oracle(xs, ys, c, table):
    x, y = LinComb(xs), LinComb(ys)
    ox, oy = _oracle(xs), _oracle(ys)
    assert _agrees(x, ox) and _agrees(y, oy)
    assert _agrees(x + y, _oracle(list(ox.items()) + list(oy.items())))
    assert _agrees(x - y, _oracle(list(ox.items()) + [(k, -v) for k, v in oy.items()]))
    assert _agrees(x.scale(c), _oracle((k, v * c) for k, v in ox.items()))
    assert _agrees(
        x.tensor(y),
        _oracle(((k1, k2), v1 * v2) for k1, v1 in ox.items() for k2, v2 in oy.items()),
    )
    image = lambda key: LinComb(table.get(key, ()))
    assert _agrees(
        x.apply(image),
        _oracle(
            (k2, v * v2)
            for k, v in ox.items()
            for k2, v2 in _oracle(table.get(k, ())).items()
        ),
    )
    assert (x == y) == (ox == oy)
    assert _agrees(LinComb.basis(1, c), _oracle([(1, c)]))


def test_whole_results_come_back_as_int():
    half = LinComb.basis("a", Fraction(1, 2))
    assert type((half + half).coeff("a")) is int
    assert type(half.scale(2).coeff("a")) is int
    assert type(half.tensor(half.scale(4)).coeff(("a", "a"))) is int
    assert type(LinComb([("a", Fraction(6, 3))]).coeff("a")) is int
    assert type(half.coeff("a")) is Fraction
