import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigert.diophantine import (
    DiophantineWitness,
    _confirm,
    _partial_quotients,
    _scan_prefilter,
    chi,
    exact_residual,
    lattice_progression,
    witness_search,
    witness_search_pair,
)
from swigert.errors import NotRational, OutOfRange
from swigert.scaling import RealParam

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def convergents(x, count):
    """First ``count`` convergents (p, q) of x (all when None), from its partial quotients."""
    out = []
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in islice(_partial_quotients(x), count):
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        out.append((p, q))
    return out


def reference_scan(theta, beta, rho, n_max):
    """Indices of the exhaustive scan that pass the exact recheck."""
    return [int(n) for n in _scan_prefilter(theta, beta, rho, n_max) if _confirm(int(n), theta, beta, rho)]


def exact_catalog(theta, rho, n_max):
    """All n <= n_max with dist(n*theta, Z) < float(n)**(-rho), decided in integers."""
    num, den = theta.as_integer_ratio()
    out = []
    for n in range(1, n_max + 1):
        r = n * num % den
        if Fraction(min(r, den - r), den) < Fraction(float(n) ** (-rho)):
            out.append(n)
    return out


class TestChi:
    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 0), (-1, 1), (-2, 0), (0, 0), (7, 1)])
    def test_parity(self, n, expected):
        assert chi(n) == expected


class TestLattice:
    def test_third(self):
        attained = {Fraction(j, 3) for j in range(3) if lattice_progression([(Fraction(1, 3), Fraction(j, 3))])}
        assert attained == {Fraction(0), Fraction(1, 3), Fraction(2, 3)}
        assert lattice_progression([(Fraction(1, 3), Fraction(1, 3))]) == (3, 1)

    def test_half(self):
        assert lattice_progression([(Fraction(1, 2), Fraction(0))]) == (2, 0)
        assert lattice_progression([(Fraction(1, 2), Fraction(1, 2))]) == (2, 1)
        assert lattice_progression([(Fraction(1, 2), Fraction(1, 4))]) is None

    def test_two_fifths(self):
        orbit = [Fraction(2, 5), Fraction(4, 5), Fraction(1, 5), Fraction(3, 5), Fraction(0)]
        for n, value in enumerate(orbit, start=1):
            assert lattice_progression([(Fraction(2, 5), value)]) == (5, n % 5)

    def test_size_and_prediction(self):
        for frac in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(5, 8)):
            d = frac.denominator
            residues = set()
            for j in range(d):
                mod, residue = lattice_progression([(frac, Fraction(j, d))])
                assert mod == d
                residues.add(residue)
                for n in range(residue or d, 3 * d + 1, d):
                    assert (frac * n) % 1 == Fraction(j, d)
            assert len(residues) == d

    def test_rejects_irrational(self):
        with pytest.raises(NotRational):
            lattice_progression([(RealParam.irrational(SQRT2), Fraction(0))])


class TestConvergents:
    def test_sqrt2(self):
        assert list(islice(_partial_quotients(SQRT2), 20)) == [1] + [2] * 19
        assert convergents(SQRT2, 5) == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]

    def test_rational_terminates(self):
        assert list(_partial_quotients(0.5)) == [0, 2]
        assert convergents(0.5, 10) == [(0, 1), (1, 2)]

    def test_golden_ratio_gives_fibonacci(self):
        assert list(islice(_partial_quotients(PHI), 30)) == [1] * 30
        qs = [q for _, q in convergents(PHI, 10)]
        fib = [1, 1]
        while len(fib) < 12:
            fib.append(fib[-1] + fib[-2])
        assert qs == fib[:10]

    def test_approximation_quality(self):
        for p, q in convergents(SQRT3, 12):
            assert abs(q * SQRT3 - p) < 1.0 / q

    def test_expansion_is_exact(self):
        # the double is used up exactly: the last convergent is the double itself
        for x in (SQRT2, -math.pi, 355 / 113, 1e-7):
            p, q = convergents(x, None)[-1]
            assert Fraction(p, q) == Fraction(x)


class TestWitnessSearch:
    def test_rational_progression_with_zero_residuals(self):
        wits = witness_search(1.0 / 3.0, 1.0 / 3.0, 2.0, 10)
        assert [w.n for w in wits] == [1, 4, 7, 10]
        assert all(abs(w.residual) < 1e-12 for w in wits)

    def test_sqrt2_includes_convergent_denominators(self):
        wits = witness_search(SQRT2, 0.0, 1.0, 100)
        ns = {w.n for w in wits}
        assert {2, 5, 12, 29, 70} <= ns

    def test_every_witness_reconfirms_exactly(self):
        for theta, beta in ((SQRT2, 0.0), (SQRT3 - 1.0, 0.5), (PHI, 0.25)):
            for w in witness_search(theta, beta, 0.9, 5000):
                resid = exact_residual(w.n, theta, beta, w.m)
                assert abs(resid) < float(w.n) ** (-w.rho)
                assert resid == pytest.approx(w.residual, abs=1e-15)

    def test_inhomogeneous_scan_nonempty(self):
        wits = witness_search(SQRT2 - 1.0, 0.5, 0.9, 10**4)
        assert wits
        assert all(w.n <= 10**4 for w in wits)

    def test_cf_path_agrees_with_scan(self):
        for theta in (SQRT2, PHI, SQRT3, math.pi, math.e - 2.0):
            scan = reference_scan(theta, 0.0, 1.0, 10**4)
            fast = [w.n for w in witness_search(theta, 0.0, 1.0, 10**4)]
            assert scan == fast

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(min_value=-3.0, max_value=3.0, exclude_min=True, exclude_max=True),
        rho=st.floats(min_value=1.0, max_value=3.0),
        n_max=st.integers(min_value=1, max_value=2 * 10**4),
    )
    def test_ladder_equals_reference_scan(self, theta, rho, n_max):
        assert [w.n for w in witness_search(theta, 0.0, rho, n_max)] == reference_scan(theta, 0.0, rho, n_max)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10**6),
        k=st.integers(min_value=-4 * 10**6, max_value=4 * 10**6),
        beta=st.floats(min_value=-1.0, max_value=1.0),
        rho=st.floats(min_value=0.1, max_value=3.0),
        t=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_confirm_equals_fraction_reference(self, n, k, beta, rho, t):
        # theta lands within a few windows of a hit, so both outcomes occur
        theta = (k + beta + t * float(n) ** (-rho)) / n
        exact = Fraction(theta) * n - Fraction(beta)
        m = math.floor(exact + Fraction(1, 2))
        hit = abs(exact - m) < Fraction(float(n) ** (-rho))
        assert _confirm(n, theta, beta, rho) == ((m, float(exact - m)) if hit else None)

    def test_no_witness_dropped_near_a_rational(self):
        # n*theta rounds by more than a 1e-12 padding here: without its rounding
        # slack the scan misses the multiples of 113 from n = 132 323 on
        theta = 355 / 113
        catalog = exact_catalog(theta, 2.0, 2 * 10**5)
        assert len(catalog) == 1467
        assert [w.n for w in witness_search(theta, 0.0, 2.0, 2 * 10**5)] == catalog
        pairs = witness_search_pair(theta, theta, 0.0, 0.0, 2.0, 2 * 10**5)
        assert [w.n for w in pairs] == catalog

    def test_bad_arguments(self):
        with pytest.raises(OutOfRange):
            witness_search(SQRT2, 0.0, 1.0, 0)
        with pytest.raises(OutOfRange):
            witness_search(SQRT2, 0.0, -1.0, 10)

    def test_chebyshev_quality_counts(self):
        # For every offset target, the orbit of sqrt(2) delivers witnesses of
        # quality 3/n in abundance at desk scale.
        n = np.arange(1, 10**4 + 1, dtype=np.float64)
        for b10 in range(10):
            beta = b10 / 10.0
            resid = np.abs(np.mod(n * SQRT2 - beta + 0.5, 1.0) - 0.5)
            assert int(np.count_nonzero(resid <= 3.0 / n)) >= 10


class TestWitnessSearchPair:
    def test_degenerate_pair_matches_single(self):
        single = witness_search(SQRT2 - 1.0, 0.0, 0.8, 2000)
        pairs = witness_search_pair(SQRT2 - 1.0, SQRT2 - 1.0, 0.0, 0.0, 0.8, 2000)
        assert [w.n for w in single] == [w.n for w in pairs]
        for s, p in zip(single, pairs):
            assert s.m == p.m == p.m1
            assert s.residual == pytest.approx(p.a_n, abs=0) == pytest.approx(p.b_n, abs=0)

    def test_rational_component_forces_parity(self):
        pairs = witness_search_pair(0.5, SQRT3 - 1.0, 0.0, 0.0, 0.45, 5000)
        assert pairs
        # odd n sit at distance 1/2 from the lattice, so they survive only
        # while the window n^(-rho) still exceeds 1/2
        cutoff = 2.0 ** (1.0 / 0.45)
        assert all(p.n % 2 == 0 for p in pairs if p.n > cutoff)
        assert sum(1 for p in pairs if p.n % 2 == 0) >= 10

    def test_canonical_irrational_pair_nonempty(self):
        pairs = witness_search_pair(SQRT2 - 1.0, SQRT3 - 1.0, 0.0, 0.0, 0.4, 10**5)
        assert pairs


class TestJointProgression:
    @staticmethod
    def joint(tau, theta, lam, lam1):
        """Progression of n with {-tau n} = lam and {n theta} = lam1."""
        return lattice_progression([(-tau, lam), (theta, lam1)])

    def test_quarter_lattice(self):
        assert self.joint(Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)) == (4, 1)

    def test_incompatible(self):
        assert self.joint(Fraction(-1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2)) is None

    def test_shared_condition(self):
        assert self.joint(Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)) == (3, 1)

    def test_unattainable_target(self):
        assert self.joint(Fraction(-1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)) is None

    def test_requires_rational(self):
        with pytest.raises(NotRational):
            lattice_progression([(RealParam.irrational(0.4), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4))])


class TestWitnessType:
    def test_rejects_bad_index(self):
        with pytest.raises(OutOfRange):
            DiophantineWitness(n=0, m=0, residual=0.0, beta=0.0, rho=1.0)
