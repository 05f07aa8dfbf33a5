import cmath
import importlib
import math
import pkgutil

import numpy as np
import pytest

import swigert
from swigert.errors import HypothesisViolated, OutOfRange
from swigert.qcore import (
    CertifiedValue,
    poch_tail_remainders,
    qpoch_finite,
    qpoch_infinite,
    qq_infinity,
)

from _oracles import qpoch_inf_mp, qpoch_inf_product


class TestQParam:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(OutOfRange, match=rf"q must lie strictly inside \(0, 1\), got {bad!r}"):
            qq_infinity(bad)


class TestCertifiedValue:
    def test_rejects_negative_tail(self):
        with pytest.raises(OutOfRange):
            CertifiedValue(1.0, -1e-3)

    def test_real_accessor(self):
        assert CertifiedValue(complex(2.0, 0.0), 0.0).real == 2.0


class TestQpochFinite:
    def test_empty_product_is_one(self):
        assert qpoch_finite(0.7, 0.5, 0) == 1

    def test_single_factor(self):
        assert qpoch_finite(0.5, 0.5, 1) == 0.5

    def test_vanishing_first_factor(self):
        assert qpoch_finite(1.0, 0.5, 3) == 0.0

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = rng.choice([0.2, 0.5, 0.8])
            n = int(rng.integers(0, 25))
            left = qpoch_finite(a, q, n + 1)
            right = qpoch_finite(a, q, n) * (1 - a * q**n)
            assert left == pytest.approx(right, rel=1e-13, abs=1e-300)

    def test_unit_interval_bounds(self):
        # 0 < (a;q)_n <= 1 for 0 <= a < 1, and (-b;q)_n >= 1 for b >= 0
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rng.uniform(0.0, 0.999)
            b = rng.uniform(0.0, 3.0)
            q = rng.choice([0.2, 0.5, 0.8])
            n = int(rng.integers(0, 40))
            v = qpoch_finite(a, q, n)
            assert 0.0 < v <= 1.0
            assert qpoch_finite(-b, q, n) >= 1.0

    def test_negative_n_rejected(self):
        with pytest.raises(OutOfRange):
            qpoch_finite(0.5, 0.5, -1)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.0)])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(OutOfRange, match="a must be finite"):
            qpoch_finite(a, 0.5, 3)

    @pytest.mark.parametrize("a", [1e200, -1e200, complex(1e120, 1e120)])
    def test_product_beyond_double_range_rejected(self, a):
        with pytest.raises(OutOfRange, match=r"\(a; q\)_3 leaves double range"):
            qpoch_finite(a, 0.5, 3)


class TestQpochInfinite:
    def test_zero_argument(self):
        cv = qpoch_infinite(0.0, 0.5, 1e-12)
        assert cv.value == 1.0
        assert cv.tail_bound == 0.0

    def test_against_long_product(self):
        cv = qpoch_infinite(0.5, 0.5, 1e-12)
        assert cv.tail_bound <= 1e-12
        assert cv.value == pytest.approx(0.2887880950866024, abs=2e-12)
        assert cv.value == pytest.approx(qpoch_inf_product(0.5, 0.5, 200), abs=2e-12)

    def test_vanishing_factor_gives_exact_zero(self):
        cv = qpoch_infinite(1.0, 0.5, 1e-12)
        assert cv.value == 0.0
        assert cv.tail_bound == 0.0

    def test_certificate_covers_truth(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            q = rng.choice([0.2, 0.5, 0.8])
            tol = 10.0 ** rng.uniform(-13, -4)
            cv = qpoch_infinite(a, q, tol)
            truth = qpoch_inf_product(a, q, 600)
            assert abs(cv.value - truth) <= cv.tail_bound + 1e-13 * (1 + abs(truth))
            assert cv.tail_bound <= tol

    def test_relative_accuracy_against_mpmath(self):
        # away from zeros of the factors, the value keeps ~1e-12 relative accuracy up to q = 0.999,
        # where it is as small as 1e-250 and an absolute tail says nothing about it
        rng = np.random.default_rng(22)
        checked = 0
        for q, draws in ((0.05, 6), (0.3, 6), (0.6, 6), (0.9, 6), (0.97, 6), (0.99, 6), (0.995, 3), (0.999, 3)):
            for i in range(draws):
                r = rng.uniform(0.05, 2.0 if q < 0.995 else 0.7)
                a = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                a = a if i % 2 else a.real
                ref, near = qpoch_inf_mp(a, q)
                if near < 1e-2 or not 1e-300 < abs(ref) < 1e300:
                    continue
                cv = qpoch_infinite(a, q, 1e-13)
                assert isinstance(cv.value, complex) == isinstance(a, complex)
                assert cv.tail_bound <= 1e-13 * min(1.0, abs(cv.value))
                assert abs(cv.value - complex(ref)) <= 1e-12 * abs(complex(ref)), (a, q)
                checked += 1
        assert checked >= 35

    @pytest.mark.parametrize("a,q", [(0.999, 0.999), (0.5, 0.9999), (-1.9, 0.9995), (complex(-1.5, 0.5), 0.999)])
    def test_head_beyond_double_range_rejected(self, a, q):
        # the head product underflows (first two) or overflows: no 0 or inf is certified
        with pytest.raises(OutOfRange, match=r"\(a; q\)_inf leaves double range"):
            qpoch_infinite(a, q, 1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(OutOfRange):
            qpoch_infinite(0.5, 0.5, 0.0)
        # a NaN tol is refused at entry, not after the factor cap
        with pytest.raises(OutOfRange, match="tol must be > 0, got nan"):
            qpoch_infinite(0.5, 0.5, math.nan)
        # and before any factor runs, so a bad argument does not mask it
        with pytest.raises(OutOfRange, match="tol must be > 0, got 0.0"):
            qpoch_infinite(math.inf, 0.5, 0.0)
        with pytest.raises(OutOfRange, match="tol must be > 0, got -1.0"):
            qpoch_infinite(0.999, 0.999, -1.0)


class TestPochTailRemainders:
    def test_base_point(self):
        rec = poch_tail_remainders(0.5, 0.5, 0)
        assert rec.R1 == pytest.approx(-0.7112119049133976, abs=1e-12)
        assert abs(rec.R1) <= rec.R1_bound
        assert abs(rec.R2) <= rec.R2_bound

    def test_zero_argument_limit(self):
        rec = poch_tail_remainders(0.0, 0.5, 3)
        assert rec.R1 == 0.0 and rec.R2 == 0.0
        assert rec.R1_bound == 0.0 and rec.R2_bound == 0.0

    def test_bound_formula_matches_independent_product(self):
        rec = poch_tail_remainders(0.9, 0.5, 10)
        expected = qpoch_inf_product(-0.9 * 0.25, 0.5, 200) * 0.9 * 0.5**10 / 0.5
        assert rec.R1_bound == pytest.approx(expected, rel=1e-10)
        truth = qpoch_inf_product(0.9 * 0.5**10, 0.5, 200) - 1.0
        assert rec.R1 == pytest.approx(truth, rel=1e-8)
        assert abs(rec.R1) <= rec.R1_bound

    def test_soundness_on_random_grid(self):
        rng = np.random.default_rng(10)
        violations = 0
        for _ in range(1000):
            a = rng.uniform(1e-6, 0.999999)
            q = rng.choice([0.2, 0.5, 0.8])
            n = int(rng.integers(0, 41))
            rec = poch_tail_remainders(a, q, n)
            if abs(rec.R1) > rec.R1_bound or abs(rec.R2) > rec.R2_bound:
                violations += 1
        assert violations == 0

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            poch_tail_remainders(1.3, 0.8, 5)
        with pytest.raises(HypothesisViolated):
            poch_tail_remainders(1.0, 0.5, 0)


def test_qq_infinity_matches_product():
    for q in (0.2, 0.5, 0.8):
        assert qq_infinity(q) == pytest.approx(qpoch_inf_product(q, q, 600), rel=1e-14)


def test_every_lru_cache_is_bounded():
    # per-q caches keyed on a fresh q per call must not grow for the life
    # of the process
    caches = {}
    for info in pkgutil.iter_modules(swigert.__path__):
        module = importlib.import_module(f"swigert.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_parameters"):
                caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert caches
    assert {name: size for name, size in caches.items() if size is None} == {}
