import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigert.asymptotics import (
    CaseParams,
    admissible_candidates,
    candidates_for_case,
    classify_case,
    error_bound,
    main_term,
    nu_n,
    summarize_rows,
    verify,
)
from swigert.errors import EmptyCandidates, MissingParam, OutOfRange, UnsupportedScaling
from swigert.qcore import qq_infinity
from swigert.qspecial import Bq, ramanujan_Aq, theta_series
from swigert.scaling import RealParam, Scaling
from swigert.swpoly import log_theta_normalizer

from _oracles import normalized_reference

SQRT2M1 = "sqrt2-1"
SQRT3M1 = "sqrt3-1"


def params_case1(tau="1", theta="3/10"):
    return CaseParams(1, Scaling.make(tau, theta))


def params_case4():
    return CaseParams(
        4, Scaling.make("-1/2", "1/4"), lambda_=Fraction(1, 2), lambda1=Fraction(1, 4)
    )


class TestClassify:
    @pytest.mark.parametrize(
        "tau,theta,expected",
        [
            ("1/2", "0", 1),
            ("1/2", SQRT2M1, 1),
            ("0", "1/3", 2),
            ("0", SQRT2M1, 3),
            ("-1/2", "1/4", 4),
            ("-1/2", SQRT2M1, 5),
            ("-" + "sqrt2+1", "1/4", 6),
            ("-sqrt2+1", SQRT3M1, 7),
        ],
    )
    def test_matrix(self, tau, theta, expected):
        assert classify_case(Scaling.make(tau, theta)) == expected

    def test_irrational_positive(self):
        assert classify_case(Scaling.make("sqrt2", "0")) == 1

    def test_rejects_deep_strip(self):
        with pytest.raises(UnsupportedScaling):
            classify_case(Scaling.make("-5/2", "0"))
        with pytest.raises(UnsupportedScaling):
            classify_case(Scaling.make("-2", "0"))

    def test_rejects_ambiguous_zero(self):
        with pytest.raises(UnsupportedScaling):
            classify_case(Scaling(RealParam.irrational(0.0), RealParam.rational(0)))


class TestCaseParams:
    def test_missing_params_rejected(self):
        with pytest.raises(MissingParam):
            CaseParams(2, Scaling.make("0", "1/3"))
        with pytest.raises(MissingParam):
            CaseParams(3, Scaling.make("0", SQRT2M1), beta=0.0)
        with pytest.raises(MissingParam):
            CaseParams(7, Scaling.make("-sqrt2+1", SQRT3M1), beta1=0.0, beta2=0.0)

    def test_case_scaling_mismatch_rejected(self):
        with pytest.raises(MissingParam):
            CaseParams(2, Scaling.make("1/2", "1/3"), lambda_=Fraction(1, 3))

    def test_each_required_param_enforced(self):
        # The parameters each regime requires, written out independently of the code.
        required = {
            1: (),
            2: ("lambda_",),
            3: ("beta", "rho"),
            4: ("lambda_", "lambda1"),
            5: ("lambda_", "beta", "rho"),
            6: ("lambda_", "beta", "rho"),
            7: ("beta1", "beta2", "rho"),
        }
        scalings = {
            1: ("1/2", "3/10"), 2: ("0", "1/3"), 3: ("0", SQRT2M1), 4: ("-1/2", "1/4"),
            5: ("-1/2", SQRT3M1), 6: ("-sqrt2+1", "1/4"), 7: ("-sqrt2+1", SQRT3M1),
        }
        values = dict(lambda_=Fraction(1, 2), lambda1=Fraction(1, 4), beta=0.0, beta1=0.0, beta2=0.0, rho=0.9)
        for case, names in required.items():
            sc = Scaling.make(*scalings[case])
            full = {name: values[name] for name in names}
            assert CaseParams(case, sc, **full).case_id == case
            for name in names:
                partial = {k: v for k, v in full.items() if k != name}
                with pytest.raises(MissingParam, match=f"requires parameter {name.rstrip('_')}$"):
                    CaseParams(case, sc, **partial)

    def test_targets_must_be_fractional(self):
        with pytest.raises(MissingParam):
            CaseParams(3, Scaling.make("0", SQRT2M1), beta=1.5, rho=0.9)

    def test_pin_targets_are_exact_rationals(self):
        for value in (0.3, "0.3", "3/10", Fraction(3, 10), RealParam.parse("0.3")):
            assert CaseParams(2, Scaling.make("0", "1/10"), lambda_=value).lambda_ == Fraction(3, 10)
        with pytest.raises(MissingParam, match="lambda1 must be rational"):
            CaseParams(4, Scaling.make("-1/2", "1/4"), lambda_=Fraction(1, 2), lambda1=SQRT2M1)


class TestNuN:
    def test_strip_rational_depth(self):
        assert nu_n(4, Scaling.make("-1/2", "1/4"), 80, 0.5) == 5

    def test_strip_rational_depth_matches_fraction_formula(self):
        for tau in ("-1/2", "-1/3", "-2/3", "-1/4", "-3/4", "-3/2", "-4/3", "-5/4", "-5/3"):
            sc, t = Scaling.make(tau, "1/4"), Fraction(tau)
            for n in range(1, 2 * 10**4 + 1):
                assert nu_n(4, sc, n, 0.5) == min(math.floor((2 + t) * n / 8), math.floor(-t * n / 8))

    def test_log_depth(self):
        sc = Scaling.make("-1/2", SQRT2M1)
        assert nu_n(5, sc, 100, 0.5) == 0
        assert nu_n(5, sc, 10**5, 0.5) == 4

    def test_log_depth_at_one(self):
        for case in (3, 5, 6, 7):
            assert nu_n(case, Scaling.make("-1/2", SQRT2M1), 1, 0.5) == 0

    def test_unused_cases(self):
        assert nu_n(1, Scaling.make("1", "0"), 50, 0.5) == 0
        assert nu_n(2, Scaling.make("0", "1/3"), 50, 0.5) == 0


class TestMainTerm:
    def test_case1_is_one(self):
        assert main_term(1, params_case1(), 2.0 + 1.0j, 0.5) == 1.0

    def test_case2_unit_phase(self):
        p = CaseParams(2, Scaling.make("0", "1/1"), lambda_=Fraction(0))
        got = main_term(2, p, 1.0, 0.5)
        assert got == pytest.approx(ramanujan_Aq(1.0, 0.5, 1e-13).value, rel=1e-12)

    def test_case4_theta_argument(self):
        got = main_term(4, params_case4(), 1.0, 0.5, m=1)
        expected = theta_series(1j * 0.5**1.5, 0.5, 1e-13).value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_strip_cases_need_m(self):
        with pytest.raises(MissingParam):
            main_term(4, params_case4(), 1.0, 0.5)


class TestErrorBound:
    def test_case1_closed_form(self):
        p = params_case1()
        # k >= 1 majorant B_q(1/4) 0.5^n plus k = 0 deficit 0.5^(n+1) / 0.5
        b_const = Bq(0.25, 0.5, 1e-13).real
        for n in (5, 12, 40):
            assert error_bound(1, p, n, 1.0, 0.5) == pytest.approx((b_const + 1.0) * 0.5**n, rel=1e-10)

    def test_case1_monotone(self):
        p = params_case1()
        bounds = [error_bound(1, p, n, 1.0, 0.5) for n in range(5, 41)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_case1_decaying_budget_below_flat_budget(self):
        # the per-index budget never exceeds its index-free simplification
        p = params_case1()
        flat = 0.5 * Bq(0.25, 0.5, 1e-13).real / (1.0 - 0.5)
        assert all(error_bound(1, p, n, 1.0, 0.5) <= flat for n in range(1, 41))

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.8))
    def test_case1_budget_holds_on_grid(self, q):
        # The budget bounds the exact |lhs - 1|; lhs is a double near 1, so the
        # measured error also carries a few ulps of roundoff the budget does not
        # include yet.  Where the deficit term dominates, the budget is tight to
        # far less than an ulp, hence the allowance; the floor keeps out rows
        # whose budget is itself at roundoff scale.
        roundoff = 4 * sys.float_info.epsilon
        over = []
        for tau in ("1/2", "1", "2"):
            for theta in ("0", "3/10", SQRT2M1):
                p = params_case1(tau, theta)
                for z in (1.0, -1.0, 0.5 + 0.5j, 2j, -3.0 + 1.0j):
                    for r in verify(1, p, z, q, range(1, 61)):
                        if r.bound >= 1e-10 and r.abs_err > r.bound + roundoff:
                            over.append((tau, theta, z, r.n, r.abs_err / r.bound))
        assert not over

    def test_case2_closed_form(self):
        from swigert.qcore import qpoch_infinite

        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        n, q, z = 20, 0.5, 1.0
        coeff = 2.0 * qpoch_infinite(-q**3, q, 1e-13).real * Bq(1.0, q, 1e-13).real / qq_infinity(q)
        expected = coeff * (q**10 + q**100)
        assert error_bound(2, p, n, z, q) == pytest.approx(expected, rel=1e-9)

    def test_strip_bound_underflow_behavior(self):
        # beyond double range the linear-depth budget collapses to exactly 0;
        # at sweep scale it stays comfortably positive
        p = params_case4()
        assert error_bound(4, p, 201, 1.0 + 0.5j, 0.5) > 1e-3
        assert error_bound(4, p, 10**5, 1.0 + 0.5j, 0.5) == 0.0


class TestVerifyMechanics:
    def test_rows_sorted_and_consistent(self):
        p = params_case1()
        rows = verify(1, p, 1.0, 0.5, [7, 5, 6])
        assert [r.n for r in rows] == [5, 6, 7]
        for r in rows:
            assert r.abs_err == abs(r.lhs - r.main)
            assert r.within == (r.abs_err <= r.bound)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            verify(1, params_case1(), 1.0, 0.5, [])

    def test_case_id_mismatch(self):
        with pytest.raises(MissingParam):
            verify(2, params_case1(), 1.0, 0.5, [5])

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_z_rejected(self, part, value):
        z = complex(value, 0.5) if part == "real" else complex(1.0, value)
        for case, p in ((1, params_case1()), (4, params_case4())):
            with pytest.raises(OutOfRange, match="z must be finite"):
                verify(case, p, z, 0.5, range(1, 11))

    def test_admissible_filter_case2(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        assert admissible_candidates(2, p, range(1, 13)) == [1, 4, 7, 10]

    def test_admissible_filter_case4(self):
        p = params_case4()
        assert admissible_candidates(4, p, range(1, 22)) == [1, 5, 9, 13, 17, 21]

    def test_case3_rows_carry_witnesses(self):
        sc = Scaling.make("0", SQRT2M1)
        p = CaseParams(3, sc, beta=0.0, rho=0.9)
        ns = candidates_for_case(3, p, 1, 200)
        rows = verify(3, p, 2.0, 0.5, ns)
        for r in rows:
            assert r.witness is not None
            assert abs(r.witness.residual) < float(r.n) ** (-0.9)
            assert r.witness.m + r.witness.residual == pytest.approx(
                r.n * (math.sqrt(2.0) - 1.0), abs=1e-9
            )

    def test_phase_consistency_under_theta_shift(self):
        # shifting theta by a whole unit leaves every row value unchanged
        for tau, theta, case in (("1", "3/10", 1), ("-1/2", "1/4", 4)):
            sc0 = Scaling.make(tau, theta)
            sc1 = Scaling.make(tau, str(Fraction(theta) + 1))
            if case == 1:
                p0, p1 = CaseParams(1, sc0), CaseParams(1, sc1)
                ns = [3, 8, 21]
            else:
                kw = dict(lambda_=Fraction(1, 2), lambda1=Fraction(1, 4))
                p0, p1 = CaseParams(4, sc0, **kw), CaseParams(4, sc1, **kw)
                ns = [5, 9, 21]
            for a, b in zip(verify(case, p0, 1.0 + 0.5j, 0.5, ns), verify(case, p1, 1.0 + 0.5j, 0.5, ns)):
                assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
                assert a.main == pytest.approx(b.main, rel=1e-12)

    def test_strip_rows_match_small_degree_reference(self):
        # split-sum lhs values agree with the raw-sum route at small degree
        p = params_case4()
        rows = verify(4, p, 1.0 + 0.5j, 0.5, [1, 5, 9])
        for r in rows:
            base = normalized_reference(r.n, 1.0 + 0.5j, -0.5, 0.25, 0.5)
            lifted = base * cmath.exp(log_theta_normalizer(r.n, 1.0 + 0.5j, p.scaling, 0.5))
            assert r.lhs == pytest.approx(lifted, rel=1e-8)

    def test_parallel_equals_serial(self):
        p = params_case4()
        ns = list(range(1, 62))
        serial = verify(4, p, 1.0 + 0.5j, 0.5, ns, jobs=1)
        parallel = verify(4, p, 1.0 + 0.5j, 0.5, ns, jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.n, a.lhs, a.main, a.abs_err, a.bound, a.within, a.nu_n) == (
                b.n, b.lhs, b.main, b.abs_err, b.bound, b.within, b.nu_n,
            )


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


class TestCandidates:
    @settings(max_examples=200, deadline=None)
    @given(tau=SMALL_FRACTIONS.filter(lambda f: -2 < f < 0), theta=SMALL_FRACTIONS,
           lam=SMALL_FRACTIONS.map(lambda f: f % 1), lam1=SMALL_FRACTIONS.map(lambda f: f % 1))
    def test_pin_filter_equals_fraction_definition(self, tau, theta, lam, lam1):
        ns = range(1, 300)
        p2 = CaseParams(2, Scaling.make("0", str(theta)), lambda_=lam)
        assert admissible_candidates(2, p2, ns) == [n for n in ns if (theta * n) % 1 == lam]
        p4 = CaseParams(4, Scaling.make(str(tau), str(theta)), lambda_=lam, lambda1=lam1)
        assert admissible_candidates(4, p4, ns) == [
            n for n in ns if (-tau * n) % 1 == lam and (theta * n) % 1 == lam1
        ]

    def test_case1_plain_range(self):
        assert candidates_for_case(1, params_case1(), 5, 9) == [5, 6, 7, 8, 9]

    def test_case2_lattice(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        assert candidates_for_case(2, p, 1, 13) == [1, 4, 7, 10, 13]

    def test_case2_unattainable_lambda(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 4))
        with pytest.raises(EmptyCandidates):
            candidates_for_case(2, p, 1, 13)

    def test_case4_progression(self):
        assert candidates_for_case(4, params_case4(), 1, 21) == [1, 5, 9, 13, 17, 21]

    def test_case5_witnesses_respect_lambda(self):
        p = CaseParams(5, Scaling.make("-1/2", SQRT3M1), lambda_=Fraction(1, 2), beta=0.0, rho=0.9)
        ns = candidates_for_case(5, p, 1, 5000)
        filtered = admissible_candidates(5, p, ns)
        assert filtered
        assert all(n % 2 == 1 for n in filtered)

    def test_float_lambda_paths_agree(self):
        p = CaseParams(2, Scaling.make("0", "1/10"), lambda_=0.3)
        ns = candidates_for_case(2, p, 1, 60)
        assert ns == [3, 13, 23, 33, 43, 53]
        assert verify(2, p, 1.0 + 0.5j, 0.5, range(1, 61)) == verify(2, p, 1.0 + 0.5j, 0.5, ns)

    def test_n_step_below_one_rejected(self):
        for n_step in (0, -3):
            with pytest.raises(OutOfRange, match="n_step"):
                candidates_for_case(1, params_case1(), 1, 10, n_step)

    def test_case7_paired(self):
        p = CaseParams(7, Scaling.make("-sqrt2+1", SQRT3M1), beta1=0.0, beta2=0.0, rho=0.3)
        ns = candidates_for_case(7, p, 1, 2000)
        assert ns


class TestSummarize:
    def test_threshold_detection(self):
        p = params_case1()
        rows = verify(1, p, 2.0, 0.5, range(1, 30))
        s = summarize_rows(rows)
        assert s.n_first == 1 and s.n_last == 29
        assert s.err_last == rows[-1].abs_err
        if s.all_within_after_n_min:
            assert all(r.within for r in rows if r.n >= s.n_min_within)

    def test_refuted_tail(self):
        from swigert.asymptotics import CaseVerificationRow

        rows = [
            CaseVerificationRow(n, 1.0, 1.0, 0.0, 1.0, within, 0)
            for n, within in ((1, True), (2, False))
        ]
        s = summarize_rows(rows)
        assert s.n_min_within is None
        assert not s.all_within_after_n_min
