import cmath
import math
import random

import numpy as np
import pytest

from swigert.errors import OutOfRange, ZeroArgument
from swigert.qcore import _certify, _valid_q, qpoch_infinite
from swigert.qspecial import (
    Aq_derivative,
    Bq,
    ramanujan_Aq,
    theta_product,
    theta_series,
)

from _oracles import aq_derivative_series, aq_series, derivative_sums, entire_sums, theta_symmetric


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

    def test_theta4_near_q_one_keeps_relative_accuracy(self):
        # theta_4(0.99) = sum (-1)^n q^(n^2) = 8.459e-106: the terms cancel across 106 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(140):
            qm = mp.mpf(0.99)
            ref = complex(1 + 2 * mp.fsum((-1) ** n * qm ** (n * n) for n in range(1, 200)))
        assert ref.real == pytest.approx(8.459e-106, rel=1e-4)
        cv = theta_product(-1.0, 0.99)
        assert abs(cv.value - ref) <= 1e-10 * abs(ref)
        assert cv.tail_bound == 1e-12 * 2.0**-53    # the truncation bound, 2.6e-118, lies below the floor

    def test_tail_within_tol_on_grid(self):
        rng = np.random.default_rng(29)
        for q in (0.05, 0.3, 0.6, 0.9, 0.97, 0.99):
            for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
                for _ in range(4):
                    cv = theta_product(random_annulus(rng, 0.5, 2.0), q, tol)
                    assert tol * 2.0**-53 <= cv.tail_bound <= tol

    def test_beyond_double_range_rejected(self):
        # theta_4(0.999) is about exp(-pi^2 / 0.004) = 1e-1071
        with pytest.raises(OutOfRange, match="leaves double range"):
            theta_product(-1.0, 0.999)

    def test_infinite_tol_certifies(self):
        # the tail floor tol * 2^-53 applies to a finite tol only; at tol = inf the truncation bound stands
        cv = theta_product(1.0, 0.5, math.inf)
        assert 0.0 < cv.tail_bound < math.inf
        assert abs(cv.value - theta_product(1.0, 0.5, 1e-13).value) <= cv.tail_bound

    def test_underflowing_q_squared_rejected(self):
        # q^2 = 1e-600 rounds to 0, and the factor -q z = -1 would need log 0 to find its head
        with pytest.raises(OutOfRange) as exc:
            theta_product(1e300, 1e-300)
        assert str(exc.value) == "theta product leaves double range (|z|=1e+300, q=1e-300)"
        # without a factor beyond 1/8, q^2 = 0 still gives the value
        assert theta_product(1.0, 1e-300).value == 1.0


# (z, q, tol) -> repr of the values, then of the tail bounds, of A_q(z), B_q(|z|), theta(z), A_q'(z): a change
# that moves any bit of a series value or of its certificate, or a new guard that refuses a point the loops
# used to sum, fails here.
PINNED = [
    (0.7, 0.5, 1e-12,
     (('(0.3796368929199827+0j)', '1.7837202598694675', '(2.228893296449649+0j)', '(-0.7753487311187709+0j)'),
      ('5.065781855963983e-16', '5.065781855963983e-16', '4.3141263681167e-14', '5.065890077363189e-15'))),
    ((1+0j), 0.5, 1e-13,
     (('(0.1607637889320948+0j)', '2.172668750849658', '(2.1289368272118736+0j)', '(-0.6843258965597608+0j)'),
      ('6.1512613621844365e-15', '6.1512613621844365e-15', '3.552822102326573e-15', '4.306014366669359e-14'))),
    ((2+1j), 0.3, 1e-09,
     (('(0.18094114662807448-0.3780571648709952j)', '2.0222493541006132', '(1.745311650747083+0.271318884042831j)',
       '(-0.3779937629681181+0.025050935626573546j)'),
      ('7.731201094012084e-12', '7.731201094012084e-12', '9.473012160186551e-12', '1.7287559672428263e-11'))),
    ((-3.5+0.25j), 0.8, 1e-12,
     (('(646.155105501122-186.73861067950074j)', '675.4741523111522', '(-0.000592977858261269+0.00032430199837311485j)',
       '(-734.7703798505225+180.09037981338525j)'),
      ('2.4400613435053273e-14', '2.4400613435053273e-14', '4.735716811203588e-14', '1.115107476299343e-13'))),
    ((0.05-0.4j), 0.9, 1e-12,
     (('(-1.440296362797628-0.4178526290026197j)', '19.33486329888056', '(0.2700100694330048-0.012632484165806217j)',
       '(11.570387022677803-1.9963911130005205j)'),
      ('7.397581951942414e-13', '7.397581951942414e-13', '6.990752451766844e-14', '3.9169814203282674e-13'))),
    (10.0, 0.2, 1e-14,
     (('(-1.2923386235185002+0j)', '3.709005462503888', '(3.1805280660483364+0j)', '(-0.20853491177303562+0j)'),
      ('9.038078808671698e-20', '9.038078808671698e-20', '1.3743895459790037e-19', '5.422847329626985e-20'))),
    ((0.001+0.002j), 0.6, 1e-12,
     (('(0.9984984818023291-0.00299797489957653j)', '1.003356633777634', '(106271843.92099446-36470548.524435796j)',
       '(-1.498987048165443+0.002024397446264489j)'),
      ('4.9279350637516725e-14', '4.9279350637516725e-14', '8.24136850779992e-15', '2.483095906227788e-15'))),
    ((25-40j), 0.5, 1e-12,
     (('(276.0762190665997-56.2374828594467j)', '1313.1935746515612', '(-295.28447416065046-100.39246889277605j)',
       '(5.582788887453698+18.313513352814113j)'),
      ('1.489638857943159e-13', '1.489638857943159e-13', '8.603799363039133e-14', '3.158099097501141e-14'))),
    # Its A_q and A_q' values are sums that cancellation has destroyed, pinned as regression bits only: by
    # mpmath A_q(0.7; 0.99) is -9.52e-35 (largest term 3.9e20) and A_q' is -4.23e-33 (largest term 2.2e22).
    # The tail bounds truncation, not roundoff.
    (0.7, 0.99, 1e-12,
     (('(-161716.57315235044+0j)', '4.840937454186607e+21', '(418.60852834246293+0j)', '(-8118680.215485656+0j)'),
      ('1.152472009528978e-13', '1.152472009528978e-13', '3.386989518112528e-13', '7.822555213780499e-14'))),
    (-1.5, 0.95, 1e-06,
     (('(21989730.0107271+0j)', '21989730.0107271', '(-1.0742711744823567e-07+0j)', '(-170730646.29324996+0j)'),
      ('1.372180637344497e-07', '1.372180637344497e-07', '2.906798668130017e-07', '1.447528356721099e-07'))),
    (10000.0, 0.1, 1e-12,
     (('(8990.899091020206+0j)', '13460.037162876803', '(12002.000020000007+0j)', '(1.796969848640392+0j)'),
      ('1.1235827548610168e-21', '1.1235827548610168e-21', '2.0000000000200088e-21', '6.741496542581671e-16'))),
    ((0.3+0.9j), 0.7, 1e-15,
     (('(-0.5398090606373065-1.0912233502851507j)', '5.005603503458386', '(0.9920336556223446-0.09176648543125338j)',
       '(-0.6489872318009635+2.0979831659123356j)'),
      ('2.3922461503902666e-18', '2.3922461503902666e-18', '6.451851220303521e-19', '2.774534313070207e-17'))),
]


@pytest.mark.parametrize("z,q,tol,expected", PINNED)
def test_series_values_pinned(z, q, tol, expected):
    values = (ramanujan_Aq(z, q, tol), Bq(abs(z), q, tol), theta_series(z, q, tol), Aq_derivative(z, q, tol))
    assert (tuple(repr(cv.value) for cv in values), tuple(repr(cv.tail_bound) for cv in values)) == expected


# (function, a or z, q, tol) -> repr of the value and of the tail bound, as for PINNED: real and complex
# arguments, q from 0.05 to 0.99, an exact zero factor (1 - 4 q^2 at q = 1/2, and 1 + q z at z = -2 for
# theta), theta_4 near q = 0.99 (8.5e-106) and a theta of 1e-68 near its zero.
PINNED_PRODUCTS = [
    (qpoch_infinite, 0.5, 0.5, 1e-12, ('0.28878809508664816', '9.236087645413545e-14')),
    (qpoch_infinite, -0.3, 0.05, 1e-15, ('1.3205417496884395', '4.520977919045728e-16')),
    (qpoch_infinite, (0.4-0.7j), 0.8, 1e-10, ('(-0.17889258828399854-0.2415767344679312j)', '3.649550811865454e-12')),
    (qpoch_infinite, 1.5, 0.9, 1e-08, ('1.0867362736611101e-10', '6.893336698689952e-19')),
    (qpoch_infinite, (-1.2+0.3j), 0.97, 1e-13, ('(83139011837568.92-20358992767496.15j)', '4.4129398640788184e-14')),
    (qpoch_infinite, 0.7, 0.99, 1e-12, ('2.022934774502228e-39', '4.006738110154611e-52')),
    (qpoch_infinite, 4.0, 0.5, 1e-12, ('0.0', '0.0')),
    (theta_product, 0.5, 0.5, 1e-12, ('(2.531740190462413+0j)', '9.824444968497571e-13')),
    (theta_product, (0.3+0.9j), 0.7, 1e-15, ('(0.9920336556223444-0.09176648543125329j)', '1.8805043419327607e-16')),
    (theta_product, 2.0, 0.05, 1e-08, ('(1.1250265638074837+0j)', '1.5664750913820881e-09')),
    (theta_product, (-0.669448+0.031347j), 0.9853136075567454, 1e-10,
     ('(-5.957098040860111e-69+9.60896760166326e-69j)', '1.1102230246251566e-26')),
    (theta_product, -1.0, 0.99, 1e-12, ('(8.459276341621047e-106+0j)', '1.1102230246251565e-28')),
    (theta_product, 1.7, 0.9, 1e-14, ('(10.650967565124295+0j)', '3.1237737711801126e-15')),
    (theta_product, -2.0, 0.5, 1e-12, ('0j', '1.1102230246251565e-28')),
]


@pytest.mark.parametrize("product,a,q,tol,expected", PINNED_PRODUCTS)
def test_product_values_pinned(product, a, q, tol, expected):
    cv = product(a, q, tol)
    assert (repr(cv.value), repr(cv.tail_bound)) == expected


# Sums that leave double range raise OutOfRange naming the argument: (q;q)_inf underflowing to 0, a
# power |z|^k overflowing, or terms summing to inf or nan although every power stayed finite.  The
# CLI tests cover A_q, B_q and theta_series at the first two.
@pytest.mark.parametrize("series,z,q,message", [
    (Aq_derivative, 0.7, 0.999, r"q = 0\.999 is too close to 1"),
    (Aq_derivative, 1e8, 0.8, r"\|z\|=100000000\.0, q=0\.8"),
    (Bq, 2.5, 0.9983, r"\|w\|=2\.5, q=0\.9983"),
    (ramanujan_Aq, 2.5, 0.9983, r"\|w\|=2\.5, q=0\.9983"),
    (Aq_derivative, 2.5, 0.9983, r"\|z\|=2\.5, q=0\.9983"),
])
def test_out_of_double_range(series, z, q, message):
    with pytest.raises(OutOfRange, match=message):
        series(z, q)


def test_theta_series_did_not_certify():
    # |z| = 1 keeps every power finite, so a q this close to 1 runs out of terms instead of overflowing
    with pytest.raises(OutOfRange) as exc:
        theta_series(1.0, 0.999999)
    assert str(exc.value) == "theta series did not certify within 100000 terms"


# A NaN tol or a non-finite argument is refused at entry, naming it, instead of summing up to the term cap
# and then reporting that the sum did not certify.
@pytest.mark.parametrize("series,args,message", [
    (ramanujan_Aq, (0.5, 0.5, math.nan), "tol must be > 0, got nan"),
    (Bq, (0.5, 0.5, math.nan), "tol must be > 0, got nan"),
    (Aq_derivative, (0.5, 0.5, math.nan), "tol must be > 0, got nan"),
    (theta_series, (0.5, 0.5, math.nan), "tol must be > 0, got nan"),
    (theta_product, (0.5, 0.5, math.nan), "tol must be > 0, got nan"),
    (ramanujan_Aq, (math.nan, 0.5), "series argument must be finite, got |w|=nan"),
    (ramanujan_Aq, (complex(0.0, math.inf), 0.5), "series argument must be finite, got |w|=inf"),
    (Bq, (math.inf, 0.5), "series argument must be finite, got |w|=inf"),
    (Aq_derivative, (complex(math.nan, 1.0), 0.5), "derivative series argument must be finite, got |z|=nan"),
    (theta_series, (math.nan, 0.5), "theta series argument must be finite, got |z|=nan"),
    (theta_series, (-math.inf, 0.5), "theta series argument must be finite, got |z|=inf"),
    # tol is refused first, before the argument is checked or any product factor runs
    (ramanujan_Aq, (math.nan, 0.5, -1.0), "tol must be > 0, got -1.0"),
    (theta_product, (1e300, 1e-300, 0.0), "tol must be > 0, got 0.0"),
    (theta_product, (math.inf, 0.5, math.nan), "tol must be > 0, got nan"),
])
def test_non_finite_input_refused(series, args, message):
    with pytest.raises(OutOfRange) as exc:
        series(*args)
    assert str(exc.value) == message


def test_tiny_theta_argument_keeps_its_path():
    # finite, so not refused at entry: 1/|z| overflows to inf, and the wings never certify
    with pytest.raises(OutOfRange) as exc:
        theta_series(1e-320, 0.5)
    assert str(exc.value) == "theta series did not certify within 100000 terms"


def _outcome(series, *args):
    """repr of a certified value and its tail, or the text of its OutOfRange."""
    try:
        cv = series(*args)
    except OutOfRange as exc:
        return str(exc)
    return repr(cv.value), repr(cv.tail_bound)


def _oracle_aq(z, q, tol):
    w, qv = (-z if isinstance(z, complex) else complex(-z)), _valid_q(q)
    return _certify(entire_sums(w, qv), tol, "series", "w", w, qv)


def _oracle_bq(x, q, tol):
    w, qv = float(x), _valid_q(q)
    return _certify(entire_sums(w, qv), tol, "series", "w", w, qv)


def _oracle_derivative(z, q, tol):
    zc, qv = complex(z), _valid_q(q)
    return _certify(derivative_sums(zc, qv), tol, "derivative series", "z", zc, qv)


# 13 q values, so each (q;q) prefix is built once within the cache; (q;q)_inf is 1.5e-323 at q = 0.998
# and underflows to 0 at q = 0.9995, where every sum is refused.
ORACLE_QS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.97, 0.99, 0.995, 0.998, 0.9995)
NON_FINITE = (math.nan, math.inf, -math.inf,
              complex(math.nan, 1.0), complex(0.0, math.inf), complex(-math.inf, math.nan))


def test_entire_sums_match_reference_loops():
    # the one shifted generator against the two separate loops of _oracles: values, tails and error texts,
    # bit for bit
    rng = random.Random(30)
    for _ in range(3000):
        kind = rng.random()
        if kind < 0.03:
            z = rng.choice(NON_FINITE)
        elif kind < 0.23:
            z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        else:
            z = cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi))
        q = rng.choice(ORACLE_QS)
        tol = rng.choice((math.nan, 0.0)) if rng.random() < 0.03 else 10.0 ** rng.uniform(-15.0, -6.0)
        x = abs(z)
        assert _outcome(ramanujan_Aq, z, q, tol) == _outcome(_oracle_aq, z, q, tol)
        assert _outcome(Bq, x, q, tol) == _outcome(_oracle_bq, x, q, tol)
        assert _outcome(Aq_derivative, z, q, tol) == _outcome(_oracle_derivative, z, q, tol)
