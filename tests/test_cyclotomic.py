import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from graph_iwasawa import INFINITY, cyc_from_poly, epsilon, ord_L, ord_int
from graph_iwasawa import cyclotomic, polys
from graph_iwasawa.cyclotomic import euler_phi_prime_power
from oracles import (cyc_add, cyc_mul, cyc_pow, cyclotomic_by_division,
                     poly_divmod, poly_eval, resultant_with_phi,
                     sylvester_resultant)


@pytest.mark.parametrize("ell,i", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1)])
def test_phi_poly_properties(ell, i):
    p = polys.cyclotomic_polynomial(ell ** i)
    assert p[-1] == 1
    assert len(p) - 1 == euler_phi_prime_power(ell, i)
    assert poly_eval(p, 1) == ell


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_cyc_from_poly_is_the_remainder_by_phi(ell, i, data):
    # up to three periods of l^i coefficients, negative ones and trailing
    # zeros among them, so the fold adds periods and its trim is padded
    m = ell ** i
    size = data.draw(st.integers(0, 3 * m))
    zeros = data.draw(st.integers(0, size))
    p = data.draw(st.lists(st.integers(-50, 50), min_size=size - zeros,
                           max_size=size - zeros)) + [0] * zeros
    _, rem = poly_divmod(p, list(cyclotomic_by_division(m)))
    phi = euler_phi_prime_power(ell, i)
    assert list(cyc_from_poly(ell, i, p).coeffs) \
        == rem + [0] * (phi - len(rem))


def test_epsilon_examples():
    assert list(epsilon(3, 1, 1).coeffs) == [3, 0]
    assert list(epsilon(2, 2, 2).coeffs) == [4, 0]
    assert epsilon(5, 2, 0).is_zero()
    assert epsilon(2, 3, 8).is_zero()


def test_cyc_elem_repr_and_hash():
    x = cyc_from_poly(3, 2, [2, -1, 1, 0, 0, 1])
    assert repr(x) == "CycElem(l=3, i=2, 2 - z + z^2 + z^5)"
    assert x == epsilon(3, 2, 1) and hash(x) == hash(epsilon(3, 2, 1))
    assert x != cyc_from_poly(3, 2, [2])
    with pytest.raises(AttributeError):
        x.level = 1


def test_epsilon_symmetry():
    for ell, i in ((2, 3), (3, 2), (5, 1)):
        m = ell ** i
        for a in range(-2 * m, 2 * m + 1):
            assert epsilon(ell, i, a) == epsilon(ell, i, -a)
            assert epsilon(ell, i, a) == epsilon(ell, i, a + m)


def _one_minus_zeta(ell, i):
    return cyc_from_poly(ell, i, [1, -1])


def test_resultant_with_phi_against_sylvester():
    rng = random.Random(4)
    for ell, i in ((2, 2), (3, 1), (3, 2), (5, 1)):
        phi = polys.cyclotomic_polynomial(ell ** i)
        for _ in range(8):
            f = polys.trim([rng.randint(-6, 6)
                            for _ in range(rng.randint(1, 7))])
            if not f:
                continue
            assert resultant_with_phi(ell, i, f) == sylvester_resultant(phi, f)


def test_ord_int():
    assert ord_int(0, 3) == INFINITY
    assert ord_int(48, 2) == 4
    assert ord_int(-45, 3) == 2
    assert ord_int(7, 5) == 0


@pytest.mark.parametrize("ell", [3, 5])
def test_ord_int_large_valuations(ell):
    # every valuation up to 2^7 + 1, across the powers of two it is read from
    for k in range(130):
        for u in (1, -2, ell + 1, 2 ** 61 - 1):
            assert ord_int(ell ** k * u, ell) == k
    # one division per unit of valuation would take seconds here
    for k in (99_999, 100_000, 2 ** 17):
        for u in (1, -7):
            assert ord_int(ell ** k * u, ell) == k


def test_ord_L_examples():
    for ell in (2, 3, 5):
        for i in range(1, 5):
            assert ord_L(epsilon(ell, i, 1)) == 2
    assert ord_L(epsilon(2, 2, 2)) == 4
    for ell, i in ((2, 2), (3, 1), (5, 1)):
        assert ord_L(epsilon(ell, i, ell ** i)) == INFINITY
    assert ord_L(cyc_from_poly(3, 2, [])) == INFINITY


def test_ord_L_additive():
    rng = random.Random(31)
    for _ in range(15):
        x = cyc_from_poly(3, 2, [rng.randint(-4, 4) for _ in range(6)])
        y = cyc_from_poly(3, 2, [rng.randint(-4, 4) for _ in range(6)])
        if x.is_zero() or y.is_zero():
            continue
        assert ord_L(cyc_mul(x, y)) == ord_L(x) + ord_L(y)


def test_ord_L_ultrametric():
    rng = random.Random(13)
    for _ in range(25):
        x = cyc_from_poly(2, 3, [rng.randint(-4, 4) for _ in range(4)])
        y = cyc_from_poly(2, 3, [rng.randint(-4, 4) for _ in range(4)])
        vx, vy = ord_L(x), ord_L(y)
        vs = ord_L(cyc_add(x, y))
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)



def _criterion_6_elements():
    # the distinct eps(a) of acceptance criterion 6: l in {2, 3, 5}, i <= 4
    for ell in (2, 3, 5):
        for i in range(1, 5):
            for r in range(1, ell ** i // 2 + 1):
                yield epsilon(ell, i, r)


def test_ord_L_matches_the_norm_oracle_on_criterion_6():
    for x in _criterion_6_elements():
        if x.is_zero():
            assert ord_L(x) == INFINITY
            continue
        expected = ord_int(resultant_with_phi(
            x.ell, x.level, polys.trim(list(x.coeffs))), x.ell)
        assert ord_L(x) == expected, x


@given(st.sampled_from([(2, 4), (3, 2), (3, 3), (5, 2), (7, 1), (13, 1)]),
       st.lists(st.integers(-30, 30), min_size=1, max_size=12),
       st.integers(0, 6))
@settings(max_examples=80)
def test_ord_L_matches_the_norm_oracle(level, coeffs, k):
    ell, i = level
    # times (1 - zeta)^k, so valuations past 0 are common
    x = cyc_mul(cyc_from_poly(ell, i, coeffs),
                cyc_pow(_one_minus_zeta(ell, i), k))
    if x.is_zero():
        assert ord_L(x) == INFINITY
        return
    n = resultant_with_phi(ell, i, polys.trim(list(x.coeffs)))
    assert ord_L(x) == ord_int(n, ell)


def test_ord_L_of_a_high_power_of_l():
    # phi = 54 at (3, 4): 40 divisions by l, then two by 1 - zeta
    x = cyc_mul(cyc_from_poly(3, 4, [3 ** 40]), epsilon(3, 4, 1))
    assert ord_L(x) == 40 * 54 + 2
    assert ord_L(cyc_from_poly(3, 4, [-(3 ** 40), 3 ** 40])) == 40 * 54 + 1


def test_ord_L_takes_no_norm(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ord_L took a norm")

    for name in ("graeffe", "graeffe_norm"):
        monkeypatch.setattr(polys, name, forbidden)
    assert ord_L(epsilon(3, 3, 9)) == 18
    assert ord_L(cyc_from_poly(5, 2, [7, 1, 0, 3])) == 0
    assert ord_L(cyc_pow(_one_minus_zeta(5, 2), 7)) == 7


def test_ord_L_raises_when_an_l_free_element_is_divisible_by_l(monkeypatch):
    # (1 - zeta)^phi is l times a unit; a wrong content must not go unseen
    monkeypatch.setattr(cyclotomic, "ord_int", lambda n, ell: 0)
    x = cyc_from_poly(3, 2, [3])
    with pytest.raises(ArithmeticError, match="divisible by l"):
        ord_L(x)


def _valua_expected(ell, i, a):
    m = ell ** i
    if a % m == 0:
        return INFINITY
    s = ord_int(a, ell)
    return 2 * ell ** s


@pytest.mark.parametrize("ell,imax", [(2, 3), (3, 2)])
def test_valuation_lemma_small(ell, imax):
    # the full exhaustive sweep lives in the acceptance suite
    for i in range(1, imax + 1):
        for a in range(0, 2 * ell ** i + 1):
            v = ord_L(epsilon(ell, i, a))
            assert v == _valua_expected(ell, i, a), (ell, i, a)
            if a >= 1:
                assert v >= 2
            if a >= 1 and math.gcd(a, ell) == 1:
                assert v == 2


def test_useful_form_identity():
    # eps(a) = eps(1) * (a^2 - sum_{k<a} (a-k) eps(k)), checked in-ring
    for ell, i in ((2, 2), (3, 1), (3, 2), (5, 1)):
        eps1 = epsilon(ell, i, 1)
        for a in range(1, 13):
            acc = cyc_from_poly(ell, i, [a * a])
            for k in range(1, a):
                acc = cyc_add(acc, epsilon(ell, i, k), k - a)
            assert cyc_mul(eps1, acc) == epsilon(ell, i, a), (ell, i, a)
