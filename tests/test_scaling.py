import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swigert.errors import OutOfRange
from swigert.scaling import RealParam, Scaling


class TestRealParamParse:
    def test_fraction_text(self):
        p = RealParam.parse("-1/2")
        assert p.is_rational and p.fraction == Fraction(-1, 2) and p.value == -0.5

    def test_decimal_text_is_rational(self):
        p = RealParam.parse("0.3")
        assert p.fraction == Fraction(3, 10)

    def test_bare_float_reads_shortest_decimal(self):
        p = RealParam.parse(0.3)
        assert p.fraction == Fraction(3, 10)

    def test_tokens(self):
        assert RealParam.parse("sqrt2").value == math.sqrt(2.0)
        assert RealParam.parse("sqrt2-1").value == math.sqrt(2.0) - 1.0
        assert RealParam.parse("-sqrt3").value == -math.sqrt(3.0)
        assert RealParam.parse("-sqrt2+1").value == 1.0 - math.sqrt(2.0)
        assert RealParam.parse("phi").value == (1.0 + math.sqrt(5.0)) / 2.0
        assert not RealParam.parse("pi").is_rational

    def test_describe(self):
        assert RealParam.parse("2/4").describe() == "1/2"
        assert RealParam.parse("sqrt2-1").describe() == "sqrt2-1"

    def test_garbage_rejected(self):
        with pytest.raises(OutOfRange):
            RealParam.parse("sqrt7")

    @pytest.mark.parametrize("text", ["1e400", "-1e400", 10**400], ids=["1e400", "-1e400", "int 10**400"])
    def test_beyond_double_range_rejected(self, text):
        with pytest.raises(OutOfRange, match="leaves double range"):
            RealParam.parse(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(OutOfRange, match="cannot parse scaling value"):
            RealParam.parse(value)


class TestScalingSplits:
    def test_rational_split_is_exact(self):
        sc = Scaling.make("-1/3", "1/4")
        m, c = sc.minus_tau_split(7)   # 7/3 = 2 + 1/3
        assert (m, c) == (2, pytest.approx(1.0 / 3.0, abs=0))
        assert sc.theta_frac(7) == 0.75

    def test_integer_hits_have_zero_fraction(self):
        sc = Scaling.make("-1/2", "1/4")
        m, c = sc.minus_tau_split(8)
        assert (m, c) == (4, 0.0)

    def test_irrational_split_snaps(self):
        sc = Scaling.make(RealParam.irrational(-1.5), "0")
        m, c = sc.minus_tau_split(10)   # 15.000000... in floats
        assert (m, c) == (15, 0.0)

    def test_theta_shift_by_one_is_noop_for_rationals(self):
        a = Scaling.make("-1/2", "1/4")
        b = Scaling.make("-1/2", "5/4")
        for n in range(1, 30):
            assert a.theta_frac(n) == b.theta_frac(n)

    def test_theta_shift_by_one_near_noop_for_irrationals(self):
        th = math.sqrt(2.0) - 1.0
        a = Scaling.make("-1/2", RealParam.irrational(th))
        b = Scaling.make("-1/2", RealParam.irrational(th + 1.0))
        for n in range(1, 60):
            assert a.theta_frac(n) == pytest.approx(b.theta_frac(n), abs=1e-12)


def _exact_split(step: Fraction, n: int) -> tuple[int, float]:
    """(floor(step * n), float({step * n})) taken in Fractions: the oracle of the orbit splits."""
    x = step * n
    return math.floor(x), float(x - math.floor(x))


# Tagged values on both paths: rationals, irrational tokens and arbitrary doubles.
_TAGGED = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6).map(RealParam.rational),
    st.sampled_from(["sqrt2-1", "sqrt3-1", "phi-1", "e-2", "pi-3", "-sqrt2+1", "-sqrt3", "pi"])
    .map(RealParam.parse),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(RealParam.irrational),
)


class TestExactSplitProperty:
    @settings(max_examples=400, deadline=None)
    @given(tau=_TAGGED, theta=_TAGGED, n=st.integers(min_value=1, max_value=10**9))
    # A float product n * sqrt2 is off here by 28 % of {n sqrt2}.
    @example(tau=RealParam.rational(-1, 2), theta=RealParam.parse("sqrt2"), n=225_058_681)
    def test_splits_equal_the_fraction_formula(self, tau, theta, n):
        sc = Scaling(tau, theta)
        tau_exact = tau.fraction if tau.is_rational else Fraction(tau.value)
        theta_exact = theta.fraction if theta.is_rational else Fraction(theta.value)
        assert sc.minus_tau_split(n) == _exact_split(-tau_exact, n)
        assert sc.theta_frac(n) == _exact_split(theta_exact, n)[1]
