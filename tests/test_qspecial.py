import cmath
import math

import numpy as np
import pytest

from swigert.errors import OutOfRange, ZeroArgument
from swigert.qspecial import (
    Aq_derivative,
    Bq,
    ramanujan_Aq,
    theta_product,
    theta_series,
)

from _oracles import aq_derivative_series, aq_series, theta_symmetric


def random_annulus(rng, lo=0.25, hi=4.0):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


class TestRamanujanAq:
    def test_at_zero(self):
        cv = ramanujan_Aq(0.0, 0.5)
        assert cv.value == 1.0
        assert cv.tail_bound <= 1e-12

    def test_against_series_oracle(self):
        cv = ramanujan_Aq(1.0, 0.5, 1e-13)
        assert cv.value == pytest.approx(0.1607637889320887, abs=1e-13)
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = random_annulus(rng, 0.1, 3.0)
            q = rng.choice([0.3, 0.5, 0.8])
            cv = ramanujan_Aq(z, q, 1e-12)
            assert cv.value == pytest.approx(aq_series(z, q), rel=1e-10, abs=1e-12)

    def test_majorized_by_Bq(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            z = random_annulus(rng, 0.0 + 1e-6, 3.0)
            q = rng.choice([0.3, 0.5, 0.8])
            a = abs(ramanujan_Aq(z, q, 1e-13).value)
            b = Bq(abs(z), q, 1e-13).real
            assert a <= b * (1.0 + 1e-12) + 2e-13

    def test_successive_truncations_within_tail(self):
        for tol in (1e-6, 1e-9):
            loose = ramanujan_Aq(2.0 + 1.0j, 0.5, tol)
            tight = ramanujan_Aq(2.0 + 1.0j, 0.5, tol * 1e-4)
            assert abs(loose.value - tight.value) <= loose.tail_bound


class TestBq:
    def test_at_zero(self):
        assert Bq(0.0, 0.5).value == 1.0

    def test_positive_and_at_least_one(self):
        cv = Bq(1.0, 0.5, 1e-13)
        assert cv.real >= 1.0
        assert cv.real == pytest.approx(2.172668750849664, abs=1e-12)

    def test_monotone(self):
        assert Bq(1.0, 0.5).real <= Bq(2.0, 0.5).real

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            Bq(-0.5, 0.5)


class TestAqDerivative:
    def test_at_zero(self):
        cv = Aq_derivative(0.0, 0.5)
        assert cv.value == pytest.approx(-1.0, abs=1e-12)

    def test_ratio_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            z = random_annulus(rng, 1e-6, 2.0)
            q = rng.choice([0.3, 0.5])
            d = abs(Aq_derivative(z, q, 1e-13).value)
            cap = q / (1.0 - q) * Bq(abs(z), q, 1e-13).real
            assert d <= cap * (1.0 + 1e-12) + 2e-13

    def test_against_series_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            z = random_annulus(rng, 0.1, 2.0)
            q = rng.choice([0.3, 0.5])
            assert Aq_derivative(z, q, 1e-13).value == pytest.approx(
                aq_derivative_series(z, q), rel=1e-10, abs=1e-12
            )

    def test_central_difference(self):
        h = 1e-5
        for z in (0.7, 0.7 + 0.2j):
            fd = (ramanujan_Aq(z + h, 0.5, 1e-15).value - ramanujan_Aq(z - h, 0.5, 1e-15).value) / (2 * h)
            assert Aq_derivative(z, 0.5, 1e-13).value == pytest.approx(fd, abs=1e-6)


class TestThetaSeries:
    def test_base_value(self):
        cv = theta_series(1.0, 0.5, 1e-13)
        assert cv.value == pytest.approx(2.128936827211877, abs=1e-12)
        assert cv.tail_bound <= 1e-13

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            theta_series(0.0, 0.5)

    def test_inversion_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            z = random_annulus(rng)
            q = rng.choice([0.2, 0.5, 0.8])
            a = theta_series(z, q, 1e-14).value
            b = theta_series(1.0 / z, q, 1e-14).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(26)
        q = 0.5
        for _ in range(50):
            z = random_annulus(rng)
            lhs = theta_series(q * q * z, q, 1e-14).value
            rhs = theta_series(z, q, 1e-14).value / (q * z)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            z = random_annulus(rng)
            q = rng.choice([0.2, 0.5, 0.8])
            assert theta_series(z, q, 1e-13).value == pytest.approx(
                theta_symmetric(z, q), rel=1e-11, abs=1e-13
            )


class TestThetaProduct:
    def test_matches_series_on_annulus(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            z = random_annulus(rng)
            for q in (0.2, 0.5, 0.8):
                s = theta_series(z, q, 1e-12)
                p = theta_product(z, q, 1e-12)
                allowance = s.tail_bound + p.tail_bound + 1e-10 * (1.0 + abs(s.value))
                assert abs(s.value - p.value) <= allowance

    def test_exact_zero(self):
        cv = theta_product(-1.0 / 0.5, 0.5, 1e-12)
        assert cv.value == 0.0

    def test_base_value(self):
        assert theta_product(1.0, 0.5, 1e-13).value == pytest.approx(2.128936827211877, abs=1e-11)

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            theta_product(0.0, 0.5)

