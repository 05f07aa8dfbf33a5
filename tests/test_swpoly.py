import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swigert import swpoly
from swigert.asymptotics import CaseParams, verify
from swigert.errors import (
    BadTau,
    DomainTooLarge,
    OutOfRange,
    PeakOverflow,
    SwigertError,
    ZeroArgument,
)
from swigert.qcore import qpoch_infinite, qpoch_q_n, qq_infinity
from swigert.scaling import RealParam, Scaling
from swigert.swpoly import (
    _mul,
    _reversed_sums,
    _split_sums,
    log_normalizer,
    log_theta_normalizer,
    scaled_argument,
    sw_direct,
    sw_normalized,
    sw_theta_normalized,
)

from _oracles import normalized_reference, qpoch_product, reversed_sum, split_sum, sw_sum

GRID_Q = (0.3, 0.5, 0.8)
GRID_Z = (1.0 + 0j, 2.0 + 0j, 0.5 + 1.0j, cmath.exp(1j * math.pi / 3.0))
GRID_TAU = ("-3/2", "-1/2", "0", "1/2")
GRID_THETA = ("0", "1/4", "sqrt2-1")


def make_scaling(tau: str, theta: str) -> Scaling:
    return Scaling.make(tau, theta)


def ratio_weight(j: int, n: int, q) -> float:
    """(q;q)_inf^2 / ((q;q)_j (q;q)_{n-j}), the split sum's weight at j = m//2 -+ k."""
    return qq_infinity(q) ** 2 / (qpoch_q_n(q, j) * qpoch_q_n(q, n - j))


class TestSwDirect:
    def test_degree_zero(self):
        assert sw_direct(0, 123.0 + 4j, 0.5) == 1.0

    def test_degree_one_root(self):
        assert sw_direct(1, 2.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_at_origin(self):
        assert sw_direct(3, 0.0, 0.5).real == pytest.approx(3.0476190476190474, rel=1e-14)

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(0, 16))
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            q = rng.choice(GRID_Q)
            assert sw_direct(n, x, q) == pytest.approx(sw_sum(n, x, q), rel=1e-11, abs=1e-13)

    def test_degree_cap(self):
        with pytest.raises(DomainTooLarge):
            sw_direct(31, 1.0, 0.5)

    def test_polynomial_degree_via_finite_differences(self):
        # the (n+1)-th forward difference of a degree-n polynomial vanishes
        n, h, q = 5, 0.25, 0.5
        vals = [sw_direct(n, 1.0 + j * h, q) for j in range(n + 2)]
        diff = sum((-1) ** j * math.comb(n + 1, j) * vals[n + 1 - j] for j in range(n + 2))
        scale = max(abs(v) for v in vals)
        assert abs(diff) <= 1e-9 * scale


class TestSwNormalized:
    def test_hand_expansion_degree_one(self):
        sc = make_scaling("1", "0")
        assert sw_normalized(1, 1.0, sc, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_decaying_regime_limit(self):
        sc = make_scaling("1", "3/10")
        val = sw_normalized(50, 1.0, sc, 0.5) * qq_infinity(0.5)
        assert abs(val - 1.0) < 1e-14

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            sw_normalized(3, 0.0, make_scaling("1", "0"), 0.5)

    def test_peak_overflow_guard(self):
        sc = make_scaling("-3/2", "0")
        with pytest.raises(PeakOverflow):
            sw_normalized(2000, 1.0, sc, 0.3)

    def test_matches_small_degree_reference(self):
        for q in GRID_Q:
            for z in GRID_Z:
                for tau in GRID_TAU:
                    sc = make_scaling(tau, "1/4")
                    for n in (1, 5, 12):
                        ref = normalized_reference(n, z, sc.tau.value, 0.25, q)
                        val = sw_normalized(n, z, sc, q)
                        assert val == pytest.approx(ref, rel=1e-9)

    def test_library_normalizer_matches_direct_route(self):
        sc = make_scaling("-1/2", "sqrt2-1")
        q = 0.5
        for n in (2, 7, 11):
            x = scaled_argument(1.0 + 0.5j, n, sc, q)
            ref = sw_direct(n, x, q) * cmath.exp(-log_normalizer(n, 1.0 + 0.5j, sc, q))
            assert sw_normalized(n, 1.0 + 0.5j, sc, q) == pytest.approx(ref, rel=1e-9)


class TestSplitSum:
    def test_requires_strip_tau(self):
        with pytest.raises(BadTau):
            sw_theta_normalized(5, 1.0, make_scaling("1/2", "0"), 0.5)
        with pytest.raises(BadTau):
            sw_theta_normalized(5, 1.0, make_scaling("-2", "0"), 0.5)

    def test_bookkeeping(self):
        sc = make_scaling("-1/2", "1/4")
        for n in (1, 2, 3, 10, 11, 101):
            res = sw_theta_normalized(n, 1.0 + 0.5j, sc, 0.5)
            assert res.m == math.floor(0.5 * n)
            assert res.m + res.c_n == pytest.approx(0.5 * n, abs=1e-12)
            assert res.d_n == (Fraction(1, 4) * n) % 1
            assert res.chi_m == res.m % 2
            assert res.value == res.s1 + res.s2
            assert 0.0 <= res.c_n < 1.0

    def test_degenerate_small_m(self):
        # for n = 1, m = 0: the ascending half is the single k = 0 term
        sc = make_scaling("-1/2", "1/4")
        res = sw_theta_normalized(1, 2.0, sc, 0.5)
        assert res.m == 0
        assert res.s1 == pytest.approx(complex(qq_infinity(0.5) ** 2 / (1 - 0.5)), rel=1e-13)

    def test_matches_reversed_sum_after_renormalization(self):
        for q in GRID_Q:
            for z in GRID_Z:
                for tau in ("-3/2", "-1/2"):
                    for theta in GRID_THETA:
                        sc = make_scaling(tau, theta)
                        for n in (1, 4, 9, 12):
                            base = sw_normalized(n, z, sc, q)
                            lifted = base * cmath.exp(log_theta_normalizer(n, z, sc, q))
                            split = sw_theta_normalized(n, z, sc, q)
                            assert split.value == pytest.approx(lifted, rel=1e-8)

    def test_explicit_m_decomposition(self):
        # a witness decomposition with its own m shifts the bookkeeping but
        # still reproduces the same underlying polynomial value
        sc = Scaling.make(RealParam.irrational(-(math.sqrt(2.0) - 1.0)), "1/4")
        q, z, n = 0.5, 1.0 + 0.5j, 12
        m_floor, _ = sc.minus_tau_split(n)
        for m in (m_floor, m_floor + 1):
            split = sw_theta_normalized(n, z, sc, q, m=m)
            lifted = sw_normalized(n, z, sc, q) * cmath.exp(log_theta_normalizer(n, z, sc, q, m=m))
            assert split.value == pytest.approx(lifted, rel=1e-8)
            assert split.m == m

    def test_converges_to_theta_wing_sum(self):
        # along n = 0 (mod 4) the split evaluation settles on the bilateral
        # series at -z (both fractional targets vanish and m stays even)
        from swigert.qspecial import theta_series

        sc = make_scaling("-1/2", "1/4")
        z, q = 1.0 + 0.5j, 0.5
        limit = theta_series(-z, q, 1e-13).value
        gaps = []
        for n in (40, 80, 160):
            res = sw_theta_normalized(n, z, sc, q)
            assert res.chi_m == 0 and res.c_n == 0.0 and res.d_n == 0.0
            gaps.append(abs(res.value - limit))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-10

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            sw_theta_normalized(3, 0.0, make_scaling("-1/2", "0"), 0.5)


# Types and messages the scalar evaluators raised, recorded from them: the
# one-row kernel calls behind the public names must raise the same.
PUBLIC_ERRORS = [
    pytest.param(lambda: sw_normalized(0, 1.0, make_scaling("1/2", "0"), 0.5),
                 DomainTooLarge, "n must be >= 1, got 0", id="reversed-n0"),
    pytest.param(lambda: sw_theta_normalized(0, 1.0, make_scaling("-1/2", "0"), 0.5),
                 DomainTooLarge, "n must be >= 1, got 0", id="split-n0"),
    pytest.param(lambda: sw_normalized(3, 0.0, make_scaling("1/2", "0"), 0.5),
                 ZeroArgument, "normalized evaluation requires z != 0", id="reversed-z0"),
    pytest.param(lambda: sw_theta_normalized(3, 0.0, make_scaling("-1/2", "0"), 0.5),
                 ZeroArgument, "split evaluation requires z != 0", id="split-z0"),
    pytest.param(lambda: sw_theta_normalized(5, 1.0, make_scaling("1/2", "0"), 0.5),
                 BadTau, "split evaluation requires -2 < tau < 0, got 0.5", id="split-tau-above"),
    pytest.param(lambda: sw_theta_normalized(5, 1.0, make_scaling("-2", "0"), 0.5),
                 BadTau, "split evaluation requires -2 < tau < 0, got -2.0", id="split-tau-below"),
    pytest.param(lambda: sw_theta_normalized(30, 1.0 + 0.5j, make_scaling("-1/2", "1/4"), 0.5, m=12),
                 BadTau, "offset c = 3.0 too far from [0, 1); wrong m for this n?", id="split-m-low"),
    pytest.param(lambda: sw_theta_normalized(30, 1.0 + 0.5j, make_scaling("-1/2", "1/4"), 0.5, m=17),
                 BadTau, "offset c = -2.0 too far from [0, 1); wrong m for this n?", id="split-m-high"),
]


@pytest.mark.parametrize("call, error, message", PUBLIC_ERRORS)
def test_public_evaluator_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestPochTailRatios:
    """The split sum's ratio weights e(k) = ratio_weight(m//2 - k, n) and
    f(k) = ratio_weight(m//2 + k, n)."""

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            q = rng.choice(GRID_Q)
            n = int(rng.integers(1, 200))
            m = int(rng.integers(0, n))
            half = m // 2
            k_e = int(rng.integers(0, half + 1))
            assert 0.0 < ratio_weight(half - k_e, n, q) <= 1.0
            if n - half >= 1:
                k_f = int(rng.integers(1, n - half + 1))
                assert 0.0 < ratio_weight(half + k_f, n, q) <= 1.0

    def test_e_limit_at_full_offset(self):
        # e at k = m//2 (j = 0) collapses the first factor; the ratio tends to (q;q)_inf
        q = 0.5
        for n in (50, 200, 800):
            val = ratio_weight(0, n, q)
            assert val == pytest.approx(qq_infinity(q), rel=1e-10)

    def test_f_boundary_value(self):
        # f at k = n - m//2 (j = n)
        q, n = 0.5, 40
        val = ratio_weight(n, n, q)
        expected = qq_infinity(q) ** 2 / qpoch_product(q, q, n)
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", GRID_Q)
    def test_near_one_window(self, q):
        # both ratios stay within the certified distance of 1 while the
        # index is at least nu away from either edge of its window
        growth = qpoch_infinite(-(q**3), q, 1e-13).real
        for tau in (-0.5, -1.0):
            for n in (40, 120, 400):
                m = math.floor(-tau * n)
                nu = min(math.floor((2.0 + tau) * n / 8.0), math.floor(-tau * n / 8.0))
                if nu < 1:
                    continue
                cap = 3.0 * growth**2 * q ** (nu + 2) / (1.0 - q) ** 2
                for k in range(0, nu):
                    assert abs(ratio_weight(m // 2 - k, n, q) - 1.0) <= cap
                for k in range(1, nu):
                    assert abs(ratio_weight(m // 2 + k, n, q) - 1.0) <= cap


IRRATIONAL_TAU = Scaling.make(RealParam.irrational(-(math.sqrt(2.0) - 1.0)), "1/4")

# repr of value, s1, s2 recorded before the split sum's two wing loops became
# one; any reordering of the floating-point operations shows here.  The two
# theta = sqrt2-1 entries were re-recorded when {n theta} of an irrational
# theta became exact (test_scaling checks that split independently).
SPLIT_GOLDEN = [
    (1, 2.0, ("-1/2", "1/4"), 0.5, None,
     "(0.16679712772749702-0.058971690049275924j)", "(0.16679712772749702+0j)",
     "(-3.610974572957779e-18-0.058971690049275924j)"),
    (12, 1.0 + 0.5j, IRRATIONAL_TAU, 0.5, 1,
     "(0.04293069020058893+0.141489999292982j)", "(0.6255754860332847-0.06895019844872755j)",
     "(-0.5826447958326958+0.21044019774170955j)"),
    (20_001, 1.0 + 0.5j, ("-1/2", "1/4"), 0.5, None,
     "(0.4617689798277715-0.16287927965610433j)", "(0.800733613229807+0.3221364728902486j)",
     "(-0.3389646334020355-0.48501575254635293j)"),
    (40, 0.5 + 1.0j, ("-3/2", "sqrt2-1"), 0.3, None,
     "(1.474348078421055+0.04556937142495224j)", "(1.2637190488436654+0.2198954122760686j)",
     "(0.21062902957738955-0.17432604085111636j)"),
    (40, 0.5 + 1.0j, ("-3/2", "sqrt2-1"), 0.7, None,
     "(2.0201103661368025+0.2608612314478995j)", "(1.5519252021611973+0.8029369601771843j)",
     "(0.4681851639756053-0.5420757287292848j)"),
]

NORMALIZED_GOLDEN = [
    (1, 1.0 + 0.5j, ("-1/2", "1/4"), 0.5, "(1.4343145750507618-1.131370849898476j)"),
    (12, 1.0 + 0.5j, IRRATIONAL_TAU, 0.5, "(81.89327534462973+29.792353328050435j)"),
    (20_001, 1.0 + 0.5j, ("1/2", "sqrt2-1"), 0.5, "(3.462746619455064+0j)"),
    (40, 0.5 + 1.0j, ("1/3", "1/4"), 0.3, "(1.63225821350548+5.9729030769416e-08j)"),
    (40, 0.5 + 1.0j, ("1/3", "1/4"), 0.7, "(23.440686185378656+0.3777348730210284j)"),
]


def golden_scaling(spec) -> Scaling:
    return spec if isinstance(spec, Scaling) else make_scaling(*spec)


class TestGoldenBits:
    @pytest.mark.parametrize("n, z, spec, q, m_shift, value, s1, s2", SPLIT_GOLDEN)
    def test_split_sum_bits(self, n, z, spec, q, m_shift, value, s1, s2):
        sc = golden_scaling(spec)
        m = None if m_shift is None else sc.minus_tau_split(n)[0] + m_shift
        res = split_sum(n, z, sc, q, m=m)
        assert (repr(res.value), repr(res.s1), repr(res.s2)) == (value, s1, s2)

    @pytest.mark.parametrize("n, z, spec, q, value", NORMALIZED_GOLDEN)
    def test_reversed_sum_bits(self, n, z, spec, q, value):
        assert repr(reversed_sum(n, z, golden_scaling(spec), q)) == value

    @pytest.mark.parametrize("n, z, spec, q, m_shift, value, s1, s2", SPLIT_GOLDEN)
    def test_split_kernel_bits(self, n, z, spec, q, m_shift, value, s1, s2):
        sc = golden_scaling(spec)
        ms = None if m_shift is None else [sc.minus_tau_split(n)[0] + m_shift]
        (res,) = _split_sums([n], ms, z, sc, q)
        assert (repr(res.value), repr(res.s1), repr(res.s2)) == (value, s1, s2)

    @pytest.mark.parametrize("n, z, spec, q, value", NORMALIZED_GOLDEN)
    def test_reversed_kernel_bits(self, n, z, spec, q, value):
        assert [repr(v) for v in _reversed_sums([n], z, golden_scaling(spec), q)] == [value]


# The batch kernels must reproduce the scalar oracle loops bit for bit, and raise
# what the scalar rows raise: the first setup error (BadTau, PeakOverflow) in
# row order, else the error of the summation loop.
SPLIT_TAUS = ("-1/2", "-1/3", "-2/3", "-3/2", "-5/4", "-1/7", "-sqrt2+1", "-phi+1", "-e+2", "-sqrt2", "-sqrt3")
REVERSED_TAUS = ("0", "1/3", "1/2", "1", "3/2", "sqrt2-1", "pi-3", "-1/2", "-sqrt2+1")
KERNEL_THETAS = ("0", "1/4", "2/7", "3/10", "sqrt2-1", "sqrt3-1", "pi-3")
# Small n ends a row by its range, large n by underflow: one batch mixes both.
KERNEL_NS = st.lists(st.one_of(st.integers(1, 12), st.integers(13, 10**5)), min_size=1, max_size=10)


def bits(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


def kernel_z(r: float, phase: float) -> complex:
    return cmath.rect(r, phase)


def scalar_rows(evaluate, count):
    """Per-row results of the scalar oracle, and the error a batch of them must raise (or None)."""
    results, errors = [], []
    for i in range(count):
        try:
            results.append(evaluate(i))
        except (AssertionError, SwigertError, ZeroDivisionError) as exc:
            errors.append(exc)
    setup = [e for e in errors if isinstance(e, (BadTau, PeakOverflow))]
    return results, (setup or errors or [None])[0]


def assert_raises_like(kernel, expected) -> None:
    with pytest.raises(type(expected)) as info:
        kernel()
    assert type(info.value) is type(expected) and str(info.value) == str(expected)


class TestBatchKernels:
    @settings(max_examples=120, deadline=None)
    @given(q=st.floats(0.05, 0.95), r=st.floats(0.2, 5.0), phase=st.floats(0.0, 2 * math.pi),
           tau=st.sampled_from(SPLIT_TAUS), theta=st.sampled_from(KERNEL_THETAS), ns=KERNEL_NS,
           shifts=st.none() | st.lists(st.sampled_from((-1, 0, 1)), min_size=10, max_size=10))
    @example(q=0.5, r=1.0, phase=0.4, tau="-1/2", theta="1/4", ns=[20_001], shifts=None)
    def test_split_kernel_equals_scalar(self, q, r, phase, tau, theta, ns, shifts):
        sc, z = make_scaling(tau, theta), kernel_z(r, phase)
        ms = None if shifts is None else [sc.minus_tau_split(n)[0] + s for n, s in zip(ns, shifts)]
        refs, error = scalar_rows(lambda i: split_sum(ns[i], z, sc, q, m=None if ms is None else ms[i]), len(ns))
        if error is not None:
            assert_raises_like(lambda: _split_sums(ns, ms, z, sc, q), error)
            return
        for got, ref in zip(_split_sums(ns, ms, z, sc, q), refs):
            assert (bits(got.value), bits(got.s1), bits(got.s2)) == (bits(ref.value), bits(ref.s1), bits(ref.s2))
            assert (got.m, got.c_n, got.d_n, got.chi_m) == (ref.m, ref.c_n, ref.d_n, ref.chi_m)
            assert got == ref

    @settings(max_examples=120, deadline=None)
    @given(q=st.floats(0.05, 0.95), r=st.floats(0.2, 5.0), phase=st.floats(0.0, 2 * math.pi),
           tau=st.sampled_from(REVERSED_TAUS), theta=st.sampled_from(KERNEL_THETAS), ns=KERNEL_NS)
    @example(q=0.5, r=1.0, phase=0.4, tau="1/2", theta="sqrt2-1", ns=[20_001])
    def test_reversed_kernel_equals_scalar(self, q, r, phase, tau, theta, ns):
        sc, z = make_scaling(tau, theta), kernel_z(r, phase)
        refs, error = scalar_rows(lambda i: reversed_sum(ns[i], z, sc, q), len(ns))
        if error is not None:
            assert_raises_like(lambda: _reversed_sums(ns, z, sc, q), error)
            return
        got = _reversed_sums(ns, z, sc, q)
        assert [bits(v) for v in got] == [bits(v) for v in refs]

    def test_reversed_kernel_under_errstate_equals_scalar(self):
        # at q = 0.998 (q;q)_inf^2 underflows to 0, so the pass runs under np.errstate
        sc, q, ns = make_scaling("1/2", "0"), 0.998, range(1, 41)
        assert qq_infinity(q) ** 2 == 0.0
        got = _reversed_sums(ns, 1.0, sc, q)
        assert [bits(v) for v in got] == [bits(reversed_sum(n, 1.0, sc, q)) for n in ns]

    def test_rows_stop_at_different_k(self):
        # n = 1..3 end by their range, n = 40 and 4 001 by underflow; an explicit m
        # past the floor gives the first row an empty s1 range
        sc, z, q = make_scaling("-1/3", "2/7"), 1.3 - 0.4j, 0.6
        ns = [1, 2, 3, 40, 4_001]
        ms = [-1, 0, 1, 13, 1_333]
        for got, n, m in zip(_split_sums(ns, ms, z, sc, q), ns, ms):
            assert got == split_sum(n, z, sc, q, m=m)
        assert _split_sums(ns, ms, z, sc, q)[0].s1 == 0
        # with every s1 range empty, the k = 0 step runs on no rows
        for got, n in zip(_split_sums(ns[:2], [-1, -1], z, sc, q), ns):
            assert got == split_sum(n, z, sc, q, m=-1) and got.s1 == 0

    def test_first_failing_row_sets_the_error(self):
        sc, z, q = make_scaling("-1/2", "1/4"), 1.0 + 0.5j, 0.5
        ns, ms = [10, 20, 30], [5, 10, 12]      # c = 3 at n = 30
        with pytest.raises(BadTau, match="c = 3.0"):
            _split_sums(ns, ms, z, sc, q)
        with pytest.raises(PeakOverflow, match="n=2000"):
            _reversed_sums([5, 2000, 3000], 1.0, make_scaling("-3/2", "0"), 0.3)

    def test_divided_term_beyond_double_range_names_its_row(self):
        # (q;q)_inf^2 > 0, so no errstate pass, yet dividing a term by (q;q)_k (q;q)_(n-k)
        # overflows from n = 199 on: the first such row in row order is named, with no numpy warning
        sc, z, q = make_scaling("0", "0"), -0.0027290689279736787, 0.9856922131617617
        assert qq_infinity(q) ** 2 > 0.0
        with pytest.raises(OutOfRange, match="reversed sum leaves double range at n=200"):
            sw_normalized(200, z, sc, q)
        with pytest.raises(OutOfRange, match="at n=250 "):
            _reversed_sums([150, 250, 199], z, sc, q)

    @pytest.mark.parametrize("z,last_finite", [(1e-30, 14), (1e300, 7), (1e300j, 7)])
    def test_split_term_beyond_double_range_names_its_row(self, z, last_finite):
        # max(|z|, 1/|z|)^k overflows a wing's terms to inf and then nan: the first lost row in row order
        # is named, with no numpy warning, and the rows that stay finite keep the scalar loop's bits
        sc, q = make_scaling("-1/2", "1/4"), 0.5
        with pytest.raises(OutOfRange) as exc:
            sw_theta_normalized(17, z, sc, q)
        assert str(exc.value) == f"split sum leaves double range at n=17 (|z| = {abs(z)!r}, q = 0.5)"
        with pytest.raises(OutOfRange, match="at n=40 "):
            _split_sums([3, 40, 17], None, z, sc, q)
        ns = range(1, last_finite + 1)
        assert _split_sums(ns, None, z, sc, q) == [split_sum(n, z, sc, q) for n in ns]

    def test_split_ratio_stays_in_unit_interval(self):
        # both wing indices of the row reach the saturated prefix tail, where p**2 rounds one ulp
        # above p*p: with qq2 formed as p*p the ratio asserts hold
        sc, q = make_scaling("-19/10", "0"), 0.48318829109042716
        p = qq_infinity(q)
        assert p**2 > p * p
        got = _split_sums([1000], None, 1.0, sc, q)[0]
        assert got == split_sum(1000, 1.0, sc, q)


def assert_kernel_equals_scalar(kernel, evaluate, count) -> None:
    """The batch kernel gives the scalar loop's bits on every row, or the error the scalar rows give.

    Where a weight product underflows to 0 the scalar loop divides by zero, and where a sum leaves
    double range it returns it; the kernel raises OutOfRange for both.
    """
    refs, error = scalar_rows(evaluate, count)
    parts = (lambda v: [v]) if refs and isinstance(refs[0], complex) else (lambda v: [v.s1, v.s2])
    if error is not None and not isinstance(error, ZeroDivisionError):
        assert_raises_like(kernel, error)
    elif error is not None or not all(cmath.isfinite(p) for v in refs for p in parts(v)):
        with pytest.raises(OutOfRange):
            kernel()
    else:
        assert [list(map(bits, parts(v))) for v in kernel()] == [list(map(bits, parts(v))) for v in refs]


class TestRetirement:
    """A row leaves the pass once no later term can change its sum, and its bits stay those of a loop
    that sums until the term underflows (the scalar oracles)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_kernels_equal_scalar_loops(self, seed):
        # real rows (z real, theta 0), q >= 0.9957 where (q;q)_inf^2 underflows, |z| at 1e-3 and 1e3
        rng = random.Random(seed)
        for _ in range(30):
            q = rng.choice((rng.uniform(0.05, 0.95), rng.uniform(0.9957, 0.999)))
            r = rng.choice((1e-3, 1e3, math.exp(rng.uniform(-3.0, 3.0))))
            real = rng.random() < 0.5
            z = rng.choice((r, -r)) if real else cmath.rect(r, rng.uniform(0.0, 2 * math.pi))
            theta = "0" if real else rng.choice(KERNEL_THETAS)
            ns = [rng.randint(1, 3000) for _ in range(rng.randint(1, 6))]
            sc = make_scaling(rng.choice(REVERSED_TAUS), theta)
            assert_kernel_equals_scalar(lambda: _reversed_sums(ns, z, sc, q),
                                        lambda i: reversed_sum(ns[i], z, sc, q), len(ns))
            sc = make_scaling(rng.choice(SPLIT_TAUS), theta)
            q = q if q < 0.99 else rng.uniform(0.05, 0.95)   # (q;q)_inf^2 underflows at the larger q
            assert_kernel_equals_scalar(lambda: _split_sums(ns, None, z, sc, q),
                                        lambda i: split_sum(ns[i], z, sc, q), len(ns))

    # Rows one of whose sum components sits exactly on a power of two, the smaller one in magnitude,
    # when a later term that pulls it toward 0 by between a quarter and a half of an ulp is still to
    # come: the gap below a power of two is half an ulp, so that term moves the sum, and a half-ulp
    # retirement rule would lose it.
    def test_reversed_sum_on_a_power_of_two(self):
        sc, q, z = make_scaling("0", "0"), 0.4, -0.24582968164871483 + 0.23272483995449633j
        (got,) = _reversed_sums([2000], z, sc, q)
        ref = reversed_sum(2000, z, sc, q)
        assert bits(got) == bits(ref) and ref.imag == math.nextafter(4.0, 0.0)

    def test_split_sum_on_a_power_of_two(self):
        sc, q, z = make_scaling("-1/2", "1/4"), 0.2, 2.7574589401736813 - 1.9067359335553253j
        (got,) = _split_sums([101], None, z, sc, q)
        ref = split_sum(101, z, sc, q)
        assert (bits(got.s1), bits(got.s2)) == (bits(ref.s1), bits(ref.s2))
        assert ref.s1.imag == math.nextafter(0.25, 0.0)

    def test_case4_sweep_work(self, monkeypatch):
        # 200 rows at q = 0.5: a pass that sums every row to underflow takes 32 steps and 11 939 row-steps
        live = []

        def counting_step(rows, k, *args, **kwargs):
            live.append(rows.pos.size)
            return step(rows, k, *args, **kwargs)

        step = swpoly._step
        monkeypatch.setattr(swpoly, "_step", counting_step)
        params = CaseParams(4, make_scaling("-1/2", "1/4"), lambda_=Fraction(1, 2), lambda1=Fraction(1, 4))
        assert len(verify(params, 1.0 + 0.5j, 0.5, range(1, 801))) == 200
        assert len(live) <= 32 // 2 and sum(live) <= 11_939 // 2


# A pair whose complex128 product from numpy differs from CPython's in the last
# bit of the imaginary part on AVX-512 hosts with FMA, where numpy fuses the
# multiply-add.  The kernels keep real and imaginary parts as separate float64
# arrays for this reason.
FUSED_PAIR = (complex(-1.4625430235503951, 1.3897349477489307), complex(-0.39706033476494484, -0.3991938099382324))


def _has_avx512_fma() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        return False
    return bool(features.get("AVX512F") and features.get("FMA3"))


class TestComplexProductOrder:
    def test_split_product_matches_cpython(self):
        a, b = FUSED_PAIR
        re, im = _mul(np.array([a.real] * 8), np.array([a.imag] * 8), np.array([b.real] * 8), np.array([b.imag] * 8))
        assert all(bits(complex(x, y)) == bits(a * b) for x, y in zip(re.tolist(), im.tolist()))

    @pytest.mark.skipif(not _has_avx512_fma(), reason="numpy fuses complex products only on AVX-512 hosts with FMA")
    def test_complex128_product_differs_from_cpython(self):
        a, b = FUSED_PAIR
        assert bits(complex((np.array([a] * 8) * np.array([b] * 8))[0])) != bits(a * b)


class TestScaledArgument:
    def test_small_degree_value(self):
        sc = make_scaling("1", "0")
        x = scaled_argument(1.0, 3, sc, 0.5)
        assert x == pytest.approx(0.5 ** (-9), rel=1e-13)

    def test_overflow_guard(self):
        sc = make_scaling("1", "0")
        with pytest.raises(PeakOverflow):
            scaled_argument(1.0, 10**4, sc, 0.5)
