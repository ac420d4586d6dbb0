import random

import pytest
from hypothesis import example, given, settings, strategies as st

from graph_iwasawa import polys
from oracles import (cyclotomic_by_division, interpolate, poly_eval, prem,
                     primes_below, resultant, resultant_with_phi,
                     sylvester_resultant)

small_polys = st.lists(st.integers(-50, 50), max_size=8).map(polys.trim)


def test_trim():
    assert polys.trim([1, 2, 0, 0]) == [1, 2]
    assert polys.trim([0, 0]) == []


def test_add_sub_scale():
    assert polys.add([1, 2], [3, -2]) == [4]
    assert polys.sub([1, 2], [1, 2]) == []


@given(small_polys, small_polys)
def test_mul_matches_schoolbook(p, q):
    assert polys.mul(p, q) == polys._mul_school(p, q) if p and q \
        else polys.mul(p, q) == []


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=40, max_size=80),
       st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=40, max_size=80))
@settings(max_examples=20)
def test_kronecker_matches_schoolbook(p, q):
    p, q = polys.trim(p), polys.trim(q)
    if len(p) < 40 or len(q) < 40:
        return
    assert polys._mul_kronecker(p, q) == polys._mul_school(p, q)


def test_kronecker_matches_schoolbook_on_wide_coefficients():
    # one draw of 10^4 to 12 000-bit digits, with the extremes of each sign
    rng = random.Random(10 ** 4)
    p, q = ([rng.getrandbits(rng.randrange(10 ** 4, 12000))
             * rng.choice((1, -1)) for _ in range(rng.randrange(32, 40))]
            for _ in range(2))
    p[0], q[-1] = -(1 << 12000) + 1, (1 << 12000) - 1
    assert polys._mul_kronecker(p, q) == polys._mul_school(p, q)


@st.composite
def _square_inputs(draw):
    # lengths 0 to 40, across the Kronecker cutoff, with runs of zeros and
    # coefficients of either sign up to 10^4 bits
    n = draw(st.integers(0, 40))
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-2 ** 64, 2 ** 64),
                            st.integers(-2 ** 10 ** 4, 2 ** 10 ** 4))
    p = []
    while len(p) < n:
        if draw(st.booleans()):
            p += [0] * draw(st.integers(1, 12))
        else:
            p.append(draw(coefficient))
    return p[:n]


_WIDE = 2 ** 10 ** 4 - 1


@given(_square_inputs())
@example([_WIDE, -_WIDE, 0, 0, 0] * 6 + [1])  # 31, the last schoolbook
@example([-_WIDE, 0, 0, _WIDE] * 8)  # 32, the first packed
@settings(max_examples=60, deadline=None)
def test_square_matches_mul(p):
    # list(p) is not p, so mul packs both operands as for any product
    assert polys.square(p) == polys.mul(p, p) == polys.mul(p, list(p))


def _check_step(p, ell):
    # G(z0) = Res_x(x^l - z0, p) and the norm of p(zeta_l) = Res(Phi_l, p),
    # both by oracles that share no code with the kernel
    g = polys.graeffe(p, ell)
    assert len(g) == len(p)
    for z0 in (-3, -1, 1, 2, 5):
        x = [-z0] + [0] * (ell - 1) + [1]
        assert poly_eval(g, z0) == sylvester_resultant(x, p), z0
    assert polys.graeffe_norm(p, ell) == resultant_with_phi(ell, 1, p)


KERNEL_PRIMES = (2, 3, 5, 7, 11, 13)


@given(st.sampled_from(KERNEL_PRIMES),
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=40)
       .map(polys.trim).filter(bool))
@settings(max_examples=40, deadline=None)
def test_graeffe_kernel_matches_the_resultants(ell, p):
    _check_step(p, ell)


@pytest.mark.parametrize("ell", [17, 19, 23, 31, 37])
def test_real_subfield_norm_matches_the_cyclotomic_resultants(ell):
    # h = 8 a power of two, h = 9 and 11 odd, and 31 and 37 on either side
    # of the Kronecker cutoff, which the norm's products do not follow
    rng = random.Random(ell)
    for bits in (8, 100):
        a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(ell)]
        k = rng.randrange(4)  # zero coordinates at the top
        a[ell - k:] = [0] * k
        assert polys.norm(a, ell) == resultant_with_phi(ell, 1, polys.trim(a))
        p = polys.trim([rng.randint(-2 ** bits, 2 ** bits)
                        for _ in range(rng.randrange(2, 2 * ell + 3))])
        assert polys.graeffe_norm(p, ell) == resultant_with_phi(ell, 1, p)
    _check_step(polys.trim([rng.randint(-2 ** 16, 2 ** 16)
                            for _ in range(rng.randrange(2, 12))]), ell)


def _one_signed(total, n):
    # n positive coefficients summing to total, the largest first
    return [total - (n - 1)] + [1] * (n - 1)


@pytest.mark.parametrize("ell", KERNEL_PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("edge", [-1, 0])
def test_graeffe_kernel_at_the_edge_of_its_digit_width(ell, k, edge):
    # ||p||_1 = 2^(8k) - 1 and 2^(8k): X = 2^(8k + 8) for both, and a byte
    # less would not hold G = c^l of a single coefficient c, which is the
    # bound ||G||_inf <= ||p||_1^l itself
    total = (1 << (8 * k)) + edge
    for sign in (1, -1):
        for n in (1, 2, 5):
            p = [sign * c for c in _one_signed(total, n)]
            _check_step(p, ell)
        assert polys.graeffe([sign * total], ell) == [(sign * total) ** ell]
        assert polys.graeffe([0, sign * total], ell) == [
            0, (-1) ** (ell - 1) * (sign * total) ** ell]


@pytest.mark.parametrize("ell", KERNEL_PRIMES)
def test_graeffe_kernel_where_p_of_1_vanishes(ell):
    # G(1) = p(1) r with p(1) = 0: r comes from no quotient
    rng = random.Random(ell)
    for _ in range(3):
        q = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(rng.randrange(1, 12))]
        p = polys.mul([-1, 1], q)
        assert sum(polys.graeffe(p, ell)) == 0
        _check_step(p, ell)


def test_generator_has_full_order_below_1000():
    for ell in primes_below(1000):
        g = polys._generator(ell)
        assert len({pow(g, i, ell) for i in range(ell - 1)}) == ell - 1, ell
    for ell in primes_below(300):  # and the walk it drives: N(1 - zeta)
        assert polys.norm([1, -1] + [0] * (ell - 2), ell) == ell


def test_prem_basic():
    # prem(y^2, y - 3) = 9 after scaling by lc=1
    assert prem([0, 0, 1], [-3, 1]) == [9]


@given(small_polys, small_polys)
@settings(max_examples=150)
def test_resultant_matches_sylvester(p, q):
    if not p or not q:
        assert resultant(p, q) == 0
        return
    assert resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_edge_cases():
    assert resultant([], [1, 2]) == 0
    assert resultant([3], [5]) == 1
    assert resultant([5], [0, 0, 1]) == 25  # Res(const, y^2)
    # common factor (y - 1)
    f = polys.mul([-1, 1], [2, 1])
    g = polys.mul([-1, 1], [3, 0, 1])
    assert resultant(f, g) == 0
    # swap antisymmetry on odd degrees
    f, g = [1, 2, 0, 1], [4, 1]
    assert resultant(f, g) == -resultant(g, f)


# oracles.interpolate: the exact reference that zeta.pencil_det's modular
# interpolation is checked against
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9))
def test_interpolate_roundtrip(coeffs):
    p = polys.trim(coeffs)
    pts = [(x, poly_eval(p, x)) for x in range(-4, 5)]
    assert interpolate(pts) == p


def test_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


@pytest.mark.parametrize("xs", [[0, 1, -1, 2, -2], [-3, 5, 0], [2, 1, 0]])
def test_interpolate_rejects_non_integer_interpolant(xs):
    # y(y - 1)/2 takes integer values at integers but is not in Z[y]
    with pytest.raises(ArithmeticError, match="non-integer"):
        interpolate([(x, x * (x - 1) // 2) for x in xs])


@pytest.mark.parametrize("n,expected", [
    (1, [-1, 1]),
    (2, [1, 1]),
    (3, [1, 1, 1]),
    (4, [1, 0, 1]),
    (6, [1, -1, 1]),
    (8, [1, 0, 0, 0, 1]),
    (9, [1, 0, 0, 1, 0, 0, 1]),
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_polynomial(n, expected):
    assert polys.cyclotomic_polynomial(n) == expected


@pytest.mark.parametrize("ns", [range(1, 401), (720, 2310, 4096, 5040)],
                         ids=["n<=400", "large"])
def test_cyclotomic_polynomial_matches_the_definition(ns):
    for n in ns:
        assert polys.cyclotomic_polynomial(n) == list(
            cyclotomic_by_division(n)), n


def test_cyclotomic_polynomial_takes_one_pass_per_divisor(monkeypatch):
    # 5040 = 2^4 3^2 5 7: Phi_210(y^24), one pass by 1 - y^d for each of
    # the 2^4 divisors d of 210, each pass one range of coefficients
    passes = []

    def spy(*bounds):
        passes.append(bounds)
        return range(*bounds)
    monkeypatch.setattr(polys, "range", spy, raising=False)
    assert polys.cyclotomic_polynomial(5040) == list(
        cyclotomic_by_division(5040))
    assert len(passes) == 16


def test_format_poly():
    assert polys.format_poly([1, -4, 3]) == "1 - 4*u + 3*u^2"
    assert polys.format_poly([0, 2], "T") == "2*T"
    assert polys.format_poly([0, 0, -1]) == "-u^2"
    assert polys.format_poly([]) == "0"
