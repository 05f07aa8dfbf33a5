import cmath
import inspect
import math
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigert import asymptotics
from swigert.asymptotics import (
    _REGIMES,
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
from swigert.errors import EmptyCandidates, MissingParam, OutOfRange, UnsupportedScaling, ZeroArgument
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


# One (tau, theta, regime parameters) per regime.
REGIME_PARAMS = {
    1: ("1", "3/10", {}),
    2: ("0", "1/3", dict(lambda_=Fraction(1, 3))),
    3: ("0", SQRT2M1, dict(beta=0.0, rho=0.9)),
    4: ("-1/100", "1/4", dict(lambda_=Fraction(1, 2), lambda1=Fraction(1, 4))),
    5: ("-1/2", SQRT3M1, dict(lambda_=Fraction(1, 2), beta=0.0, rho=0.9)),
    6: ("-sqrt2+1", "1/4", dict(lambda_=Fraction(1, 4), beta=0.0, rho=0.9)),
    7: ("-sqrt2+1", SQRT3M1, dict(beta1=0.0, beta2=0.0, rho=0.3)),
}


def regime_params(case):
    tau, theta, kw = REGIME_PARAMS[case]
    return CaseParams(case, Scaling.make(tau, theta), **kw)


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
        with pytest.raises(UnsupportedScaling, match=r"^tau = -pi <= -2 is outside the supported regimes$"):
            classify_case(Scaling.make("-pi", "1/4"))

    def test_rejects_ambiguous_zero(self):
        with pytest.raises(UnsupportedScaling):
            classify_case(Scaling(RealParam.irrational(0.0), RealParam.rational(0)))

    # Scaling values by axis and tag: pinned axes take rationals, witness axes irrationals.
    TAGGED = {
        "-tau": {True: ("-1/2", "-3/2", "-0.25"), False: ("-sqrt2+1", "-phi", "-e+1")},
        "theta": {True: ("0", "1/4", "2/3"), False: ("sqrt3-1", "pi", "-sqrt2")},
    }

    @pytest.mark.parametrize("case_id", sorted(_REGIMES))
    def test_axis_tags_classify_to_their_regime(self, case_id):
        axes = _REGIMES[case_id].axes
        if not axes:   # the decaying regime: any tau > 0, either tag, and any theta
            taus, thetas = ("1/2", "3", "sqrt2", "pi-3"), sum(self.TAGGED["theta"].values(), ())
        else:
            taus = self.TAGGED["-tau"][axes["-tau"]] if "-tau" in axes else ("0",)
            thetas = self.TAGGED["theta"][axes["theta"]]
        for tau, theta in product(taus, thetas):
            assert classify_case(Scaling.make(tau, theta)) == case_id


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
        assert nu_n(params_case4(), 80, 0.5) == 5

    def test_strip_rational_depth_matches_fraction_formula(self):
        for tau in ("-1/2", "-1/3", "-2/3", "-1/4", "-3/4", "-3/2", "-4/3", "-5/4", "-5/3"):
            p = CaseParams(4, Scaling.make(tau, "1/4"), lambda_=Fraction(0), lambda1=Fraction(0))
            t = Fraction(tau)
            for n in range(1, 2 * 10**4 + 1):
                assert nu_n(p, n, 0.5) == min(math.floor((2 + t) * n / 8), math.floor(-t * n / 8))

    def test_log_depth(self):
        p = CaseParams(5, Scaling.make("-1/2", SQRT2M1), lambda_=Fraction(1, 2), beta=0.0, rho=0.9)
        assert nu_n(p, 100, 0.5) == 0
        assert nu_n(p, 10**5, 0.5) == 4

    def test_log_depth_at_one(self):
        for case in (3, 5, 6, 7):
            assert nu_n(regime_params(case), 1, 0.5) == 0

    def test_unused_cases(self):
        assert nu_n(params_case1("1", "0"), 50, 0.5) == 0
        assert nu_n(regime_params(2), 50, 0.5) == 0


class TestMainTerm:
    def test_case1_is_one(self):
        assert main_term(params_case1(), 2.0 + 1.0j, 0.5) == 1.0

    def test_case2_unit_phase(self):
        p = CaseParams(2, Scaling.make("0", "1/1"), lambda_=Fraction(0))
        got = main_term(p, 1.0, 0.5)
        assert got == pytest.approx(ramanujan_Aq(1.0, 0.5, 1e-13).value, rel=1e-12)

    def test_case4_theta_argument(self):
        got = main_term(params_case4(), 1.0, 0.5, m=1)
        expected = theta_series(1j * 0.5**1.5, 0.5, 1e-13).value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_strip_cases_need_m(self):
        with pytest.raises(MissingParam):
            main_term(params_case4(), 1.0, 0.5)


# repr(error_bound) at deep rows (n up to 10^5) for the REGIME_PARAMS,
# recorded from the per-row budget formulas.
BUDGET_BITS = {
    (1, 0.5, (1+0.5j), 300): 1.0318621811887853e-90,
    (1, 0.9, (1+0.5j), 300): 1.7804470678712657e-11,
    (1, 0.9, (1+0.5j), 5000): 1.549970496803913e-226,
    (2, 0.5, (1+0.5j), 400): 1.1136105891444177e-59,
    (2, 0.9, (1+0.5j), 400): 149.74064439107872,
    (2, 0.9, (1+0.5j), 4000): 6.48420428001682e-81,
    (3, 0.5, (1+0.5j), 10000): 4.875888340532418,
    (3, 0.5, (1+0.5j), 100000): 0.9021853748637932,
    (3, 0.9, (1+0.5j), 10000): 54271323904.66933,
    (3, 0.9, (1+0.5j), 100000): 10675554499.265694,
    (4, 0.5, (1+0.5j), 10000): 0.028782093631631454,
    (4, 0.5, (1+0.5j), 10800): 0.014391046815815727,
    (4, 0.5, (1+0.5j), 11600): 0.007195523407907863,
    (4, 0.5, (1+0.5j), 14800): 0.00044972021299424146,
    (4, 0.5, (1+0.5j), 40000): 1.0470864665560458e-13,
    (4, 0.5, (2+1j), 10000): 0.04550848585209138,
    (4, 0.5, (2+1j), 10800): 0.02275424292604569,
    (4, 0.5, (2+1j), 11600): 0.011377121463022844,
    (4, 0.5, (2+1j), 14800): 0.0007110700914389278,
    (4, 0.5, (2+1j), 40000): 1.6555890707274149e-13,
    (4, 0.9, (1+0.5j), 10000): 357261949.46536577,
    (4, 0.9, (1+0.5j), 10800): 321423653.5668453,
    (4, 0.9, (1+0.5j), 11600): 289253617.98017365,
    (4, 0.9, (1+0.5j), 14800): 189773596.3161686,
    (4, 0.9, (1+0.5j), 40000): 6516225.046612603,
    (4, 0.9, (2+1j), 10000): 7377556747.379101,
    (4, 0.9, (2+1j), 10800): 6563148871.566355,
    (4, 0.9, (2+1j), 11600): 5894021758.330743,
    (4, 0.9, (2+1j), 14800): 3865648199.05524,
    (4, 0.9, (2+1j), 40000): 132734134.17858347,
    (5, 0.5, (1+0.5j), 10000): 59.05737040539817,
    (5, 0.5, (1+0.5j), 100000): 7.125152449195703,
    (5, 0.9, (1+0.5j), 10000): 242473606.6429351,
    (5, 0.9, (1+0.5j), 100000): 47696278.920652166,
    (6, 0.5, (1+0.5j), 10000): 59.05737040539817,
    (6, 0.5, (1+0.5j), 100000): 7.125152449195703,
    (6, 0.9, (1+0.5j), 10000): 242473606.6429351,
    (6, 0.9, (1+0.5j), 100000): 47696278.920652166,
    (7, 0.5, (1+0.5j), 10000): 5715.505265555504,
    (7, 0.5, (1+0.5j), 100000): 4449.975792634696,
    (7, 0.9, (1+0.5j), 10000): 60906616252.55801,
    (7, 0.9, (1+0.5j), 100000): 47696278920.65218,
}



class TestErrorBound:
    def test_case1_closed_form(self):
        p = params_case1()
        # k >= 1 majorant B_q(1/4) 0.5^n plus k = 0 deficit 0.5^(n+1) / 0.5
        b_const = Bq(0.25, 0.5, 1e-13).real
        for n in (5, 12, 40):
            assert error_bound(p, n, 1.0, 0.5) == pytest.approx((b_const + 1.0) * 0.5**n, rel=1e-10)

    def test_case1_monotone(self):
        p = params_case1()
        bounds = [error_bound(p, n, 1.0, 0.5) for n in range(5, 41)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_case1_decaying_budget_below_flat_budget(self):
        # the per-index budget never exceeds its index-free simplification
        p = params_case1()
        flat = 0.5 * Bq(0.25, 0.5, 1e-13).real / (1.0 - 0.5)
        assert all(error_bound(p, n, 1.0, 0.5) <= flat for n in range(1, 41))

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
                    for r in verify(p, z, q, range(1, 61)):
                        if r.bound >= 1e-10 and r.abs_err > r.bound + roundoff:
                            over.append((tau, theta, z, r.n, r.abs_err / r.bound))
        assert not over

    def test_case2_closed_form(self):
        from swigert.qcore import qpoch_infinite

        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        n, q, z = 20, 0.5, 1.0
        coeff = 2.0 * qpoch_infinite(-q**3, q, 1e-13).real * Bq(1.0, q, 1e-13).real / qq_infinity(q)
        expected = coeff * (q**10 + q**100)
        assert error_bound(p, n, z, q) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("case", (1, 2, 4))
    @pytest.mark.parametrize("n", (0, -3))
    def test_index_below_one_rejected(self, case, n):
        p = {1: params_case1(), 2: CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3)),
             4: params_case4()}[case]
        with pytest.raises(OutOfRange, match="n must be >= 1"):
            error_bound(p, n, 1.0, 0.5)

    def test_strip_bound_underflow_behavior(self):
        # beyond double range the linear-depth budget collapses to exactly 0;
        # at sweep scale it stays comfortably positive
        p = params_case4()
        assert error_bound(p, 201, 1.0 + 0.5j, 0.5) > 1e-3
        assert error_bound(p, 10**5, 1.0 + 0.5j, 0.5) == 0.0

    @pytest.mark.parametrize("case", sorted(REGIME_PARAMS))
    def test_budget_bits(self, case):
        # every row's budget keeps the bits of its per-regime formula; the
        # case-4 rows at q = 0.9 change if q**nu + grow + shrink is summed
        # in another order
        p = regime_params(case)
        rows = [(key[1:], bits) for key, bits in BUDGET_BITS.items() if key[0] == case]
        assert rows
        for (q, z, n), bits in rows:
            assert repr(error_bound(p, n, z, q)) == repr(bits), (q, z, n)


class TestVerifyMechanics:
    def test_rows_sorted_and_consistent(self):
        p = params_case1()
        rows = verify(p, 1.0, 0.5, [7, 5, 6])
        assert [r.n for r in rows] == [5, 6, 7]
        for r in rows:
            assert r.abs_err == abs(r.lhs - r.main)
            assert r.within == (r.abs_err <= r.bound)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            verify(params_case1(), 1.0, 0.5, [])

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_z_rejected(self, part, value):
        z = complex(value, 0.5) if part == "real" else complex(1.0, value)
        for p in (params_case1(), params_case4()):
            with pytest.raises(OutOfRange, match="z must be finite"):
                verify(p, z, 0.5, range(1, 11))

    @pytest.mark.parametrize("z,error,message", [
        (0, ZeroArgument, "z != 0"),
        (math.inf, OutOfRange, "z must be finite"),
        (complex(1.0, math.nan), OutOfRange, "z must be finite"),
    ])
    @pytest.mark.parametrize("case", (1, 2, 4))
    def test_one_row_names_check_z(self, case, z, error, message):
        p = regime_params(case)
        with pytest.raises(error, match=message):
            error_bound(p, 5, z, 0.5)
        with pytest.raises(error, match=message):
            main_term(p, z, 0.5, m=1)

    def test_admissible_filter_case2(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        assert admissible_candidates(p, range(1, 13)) == [1, 4, 7, 10]

    def test_admissible_filter_case4(self):
        p = params_case4()
        assert admissible_candidates(p, range(1, 22)) == [1, 5, 9, 13, 17, 21]

    def test_case3_rows_carry_witnesses(self):
        sc = Scaling.make("0", SQRT2M1)
        p = CaseParams(3, sc, beta=0.0, rho=0.9)
        ns = candidates_for_case(p, 1, 200)
        rows = verify(p, 2.0, 0.5, ns)
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
            for a, b in zip(verify(p0, 1.0 + 0.5j, 0.5, ns), verify(p1, 1.0 + 0.5j, 0.5, ns)):
                assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
                assert a.main == pytest.approx(b.main, rel=1e-12)

    def test_strip_rows_match_small_degree_reference(self):
        # split-sum lhs values agree with the raw-sum route at small degree
        p = params_case4()
        rows = verify(p, 1.0 + 0.5j, 0.5, [1, 5, 9])
        for r in rows:
            base = normalized_reference(r.n, 1.0 + 0.5j, -0.5, 0.25, 0.5)
            lifted = base * cmath.exp(log_theta_normalizer(r.n, 1.0 + 0.5j, p.scaling, 0.5))
            assert r.lhs == pytest.approx(lifted, rel=1e-8)

    def test_parallel_equals_serial(self):
        p = params_case4()
        ns = list(range(1, 62))
        serial = verify(p, 1.0 + 0.5j, 0.5, ns, jobs=1)
        parallel = verify(p, 1.0 + 0.5j, 0.5, ns, jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.n, a.lhs, a.main, a.abs_err, a.bound, a.within, a.nu_n) == (
                b.n, b.lhs, b.main, b.abs_err, b.bound, b.within, b.nu_n,
            )

    def test_pool_sized_by_rows(self, monkeypatch):
        # an in-process stand-in for the pool: it records its size and forks nothing
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(asymptotics, "ProcessPoolExecutor", InProcessPool)
        p, ns = params_case4(), [1, 5, 9]
        pooled = verify(p, 1.0 + 0.5j, 0.5, ns, jobs=8)
        assert sizes and max(sizes) <= len(ns)
        assert pooled == verify(p, 1.0 + 0.5j, 0.5, ns, jobs=1)


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


class TestCandidates:
    @settings(max_examples=200, deadline=None)
    @given(tau=SMALL_FRACTIONS.filter(lambda f: -2 < f < 0), theta=SMALL_FRACTIONS,
           lam=SMALL_FRACTIONS.map(lambda f: f % 1), lam1=SMALL_FRACTIONS.map(lambda f: f % 1))
    def test_pin_filter_equals_fraction_definition(self, tau, theta, lam, lam1):
        ns = range(1, 300)
        p2 = CaseParams(2, Scaling.make("0", str(theta)), lambda_=lam)
        assert admissible_candidates(p2, ns) == [n for n in ns if (theta * n) % 1 == lam]
        p4 = CaseParams(4, Scaling.make(str(tau), str(theta)), lambda_=lam, lambda1=lam1)
        assert admissible_candidates(p4, ns) == [
            n for n in ns if (-tau * n) % 1 == lam and (theta * n) % 1 == lam1
        ]
        p6 = CaseParams(6, Scaling.make("-sqrt2+1", str(theta)), lambda_=lam, beta=0.0, rho=0.9)
        assert admissible_candidates(p6, ns) == [n for n in ns if (theta * n) % 1 == lam]

    @settings(max_examples=200, deadline=None)
    @given(tau=SMALL_FRACTIONS.filter(lambda f: -2 < f < 0), theta=SMALL_FRACTIONS, n0=st.integers(1, 200),
           n_min=st.integers(1, 300), span=st.integers(0, 400), n_step=st.integers(1, 7))
    def test_index_sources_equal_list_definition(self, tau, theta, n0, n_min, span, n_step):
        n_max = n_min + span
        p = CaseParams(4, Scaling.make(str(tau), str(theta)), lambda_=(-tau * n0) % 1, lambda1=(theta * n0) % 1)
        on_lattice = [n for n in range(1, n_max + 1) if (-tau * n) % 1 == p.lambda_ and (theta * n) % 1 == p.lambda1]
        assert candidates_for_case(p, n_min, n_max, n_step) == [n for n in on_lattice if n >= n_min][::n_step]
        assert candidates_for_case(params_case1(), n_min, n_max, n_step) == list(range(n_min, n_max + 1))[::n_step]

    def test_case1_plain_range(self):
        assert candidates_for_case(params_case1(), 5, 9) == [5, 6, 7, 8, 9]

    def test_case2_lattice(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
        assert candidates_for_case(p, 1, 13) == [1, 4, 7, 10, 13]

    def test_case2_unattainable_lambda(self):
        p = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 4))
        with pytest.raises(EmptyCandidates):
            candidates_for_case(p, 1, 13)

    def test_case4_progression(self):
        assert candidates_for_case(params_case4(), 1, 21) == [1, 5, 9, 13, 17, 21]

    def test_case5_witnesses_respect_lambda(self):
        p = CaseParams(5, Scaling.make("-1/2", SQRT3M1), lambda_=Fraction(1, 2), beta=0.0, rho=0.9)
        ns = candidates_for_case(p, 1, 5000)
        filtered = admissible_candidates(p, ns)
        assert filtered
        assert all(n % 2 == 1 for n in filtered)

    def test_float_lambda_paths_agree(self):
        p = CaseParams(2, Scaling.make("0", "1/10"), lambda_=0.3)
        ns = candidates_for_case(p, 1, 60)
        assert ns == [3, 13, 23, 33, 43, 53]
        assert verify(p, 1.0 + 0.5j, 0.5, range(1, 61)) == verify(p, 1.0 + 0.5j, 0.5, ns)

    def test_n_step_below_one_rejected(self):
        for n_step in (0, -3):
            with pytest.raises(OutOfRange, match="n_step"):
                candidates_for_case(params_case1(), 1, 10, n_step)

    def test_case7_paired(self):
        p = CaseParams(7, Scaling.make("-sqrt2+1", SQRT3M1), beta1=0.0, beta2=0.0, rho=0.3)
        ns = candidates_for_case(p, 1, 2000)
        assert ns


def test_regime_and_row_count_are_declared_once():
    """The regime is read from CaseParams alone, and a summary counts its own rows."""
    import swigert.asymptotics as asymptotics
    from swigert.report import summary_to_json

    public = [f for name, f in vars(asymptotics).items()
              if inspect.isfunction(f) and f.__module__ == asymptotics.__name__ and not name.startswith("_")]
    assert len(public) >= 7
    assert [f.__name__ for f in public if "case_id" in inspect.signature(f).parameters] == []
    assert "n_count" not in inspect.signature(summary_to_json).parameters
    rows = verify(params_case4(), 1.0 + 0.5j, 0.5, candidates_for_case(params_case4(), 1, 41))
    assert summarize_rows(rows).n_count == len(rows) == 11


class TestSummarize:
    def test_threshold_detection(self):
        p = params_case1()
        rows = verify(p, 2.0, 0.5, range(1, 30))
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
