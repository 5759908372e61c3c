"""Tests for the bound catalog.

Frozen raw values were computed with mpmath at 50 digits from the
cataloged formulas in their plain (unscaled) form; matching them
certifies that the scaled rearrangements used here are algebraically
identical.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marcumq.bounds as bounds
from marcumq.analysis import _jp_dominance_pairs, eps_pct, error_table
from marcumq.bounds import (
    FAMILY_B_GE_A,
    FAMILY_B_LT_A,
    SMALL_AB_LIMIT,
    BoundId,
    Regime,
    compute_zeta,
    eval_all,
    eval_ids,
    evaluate,
    lb1jp_small_ab_limit,
    regime_of,
)
from marcumq.errors import DomainError, RegimeError, SingularityError
from marcumq.oracle import QArgs, q1_reference

from make_frozen_lb2a import frozen_integrals
from reference_tables import lb2a_printed

_LB1JP_ABOVE_Q1 = "LB1JP is above Q1 at the tie for huge a; its mend goes with ROADMAP item 9's ulp budget"

# mpmath (50 dps) references for raw values
UB1JP_01_01 = 1.0213296921469377
UB1JP_01_1 = 0.61628215725007798
LB1JP_01_01 = 0.99338142163946174
LB1JP_01_1 = 0.60703469237424598
LB1JP_1EM6_2 = 0.13533528323672547
UB2JP_2_1 = 0.91883967084408045
UB2JP_2_15 = 0.79708573745036376
UB2JP_2_2 = 0.63130803639161626
UB1JP_2_2 = 0.69885308496094156
LB2JP_20_191 = 0.82006995116439428
LB2JP_20_20 = 0.49984352969903128
ZETA_20_191 = 19.796265906654492
ZETA_2_1 = 0.82399354148295628
# zeta = log(besseli(0, a b)) / b at mpmath 1000 dps, enough digits for log I0 ~ 1e-400
ZETA_SMALL_AB = {
    (1e-05, 1e-05): 2.5000000000000007e-16,
    (3.0, 1e-09): 2.2500000000000003e-09,
    (0.001, 0.002): 4.99999999999875e-10,
    (1.0, 1e-200): 2.5e-201,
    (0.5, 1e-08): 6.25e-10,
    (2.0, 4.0): 1.5145260638569535,
    (4.0, 2.0): 3.029052127713907,
    (1000.0, 1000.0): 999.9921733063128,
}
LB2A_20_195 = 0.66406637969246503
UB1A_01_01 = 1.1141620326061982
LB1A_01_1 = 0.41850943934458025
UB2A_2_19 = 0.71615480419959858

# mpmath (50 dps) quadratures of LB2A's envelope integral
# I = int_0^b x e^(zeta x - (x^2+a^2)/2) dx, zeta = log I0(ab)/b, from
# make_frozen_lb2a.py; LB2A = 1 - I
LB2A_ENVELOPE_INTEGRAL = {
    (2.0, 1.0): 0.09143926173408468,
    (2.0, 1.9): 0.44728657751785567,
    (4.0, 3.0): 0.1644351497727718,
    (6.0, 5.5): 0.35848938480831355,
    (20.0, 19.1): 0.1957518128803989,
}

# JP envelope integrals from make_frozen_jp.py: int_b^inf for b >= a,
# int_0^b (the complement 1 - bound) for b < a
JP_ENVELOPE_INTEGRAL = {
    ("UB1JP", 0.1, 1.0): 0.616282157250078,
    ("UB1JP", 1.0, 2.0): 0.2743815528499572,
    ("UB1JP", 0.5, 3.0): 0.017856873416317764,
    ("UB1JP", 2.0, 2.5): 0.4402461154215551,
    ("UB1JP", 4.0, 9.0): 4.40436080342444e-07,
    ("UB1JP", 10.0, 12.0): 0.025723506346887106,
    ("UB1JP", 1.0, 30.0): 1.8116184194827866e-184,
    ("UB1JP", 2.0, 25.0): 8.275195949675606e-117,
    ("LB1JP", 0.1, 1.0): 0.607034692374246,
    ("LB1JP", 1.0, 2.0): 0.24783261047292882,
    ("LB1JP", 0.5, 3.0): 0.017380210036618583,
    ("LB1JP", 2.0, 2.5): 0.3548832801143761,
    ("LB1JP", 4.0, 9.0): 4.314943679627213e-07,
    ("LB1JP", 10.0, 12.0): 0.0249476035832233,
    ("LB1JP", 1.0, 30.0): 1.8095434017242398e-184,
    ("LB1JP", 2.0, 25.0): 8.260883006931804e-117,
    ("UB2JP", 1.0, 0.5): 0.07172837859648556,
    ("UB2JP", 2.0, 1.0): 0.08116032915591954,
    ("UB2JP", 2.0, 1.9): 0.33367334548967414,
    ("UB2JP", 4.0, 3.0): 0.11470582355921626,
    ("UB2JP", 6.0, 5.5): 0.2619761771584986,
    ("UB2JP", 20.0, 19.1): 0.17478986091191587,
    ("LB2JP", 1.0, 0.5): 0.0742211583752416,
    ("LB2JP", 2.0, 1.0): 0.09020050575887326,
    ("LB2JP", 2.0, 1.9): 0.4207187194248977,
    ("LB2JP", 4.0, 3.0): 0.13884908574104543,
    ("LB2JP", 6.0, 5.5): 0.29654085399860414,
    ("LB2JP", 20.0, 19.1): 0.1799300488356061,
}

# the catalog's error against JP_ENVELOPE_INTEGRAL, measured and rounded up to
# two digits: relative for b >= a, where the deep tail's (1, 30) and (2, 25)
# carry the rounding of the erfc argument, absolute on the complement for b < a
JP_TOLERANCE = {
    "UB1JP": 2.1e-15,
    "LB1JP": 3.4e-15,
    ("LB1JP", 1.0, 30.0): 5.7e-14,
    ("LB1JP", 2.0, 25.0): 1.2e-13,
    "UB2JP": 3.8e-16,
    "LB2JP": 3.8e-16,
}

# stress point references
UB1JP_600_601 = 0.15892621023741584
LB1JP_600_601 = 0.158787466643162
UB2JP_600_599 = 0.84161593380681607
LB2JP_600_599 = 0.84147695878005662


class TestRegime:
    def test_tie_goes_to_b_ge_a(self):
        assert regime_of(QArgs(1.0, 1.0)) is Regime.BGeqA

    def test_classification(self):
        assert regime_of(QArgs(10.0, 12.0)) is Regime.BGeqA
        assert regime_of(QArgs(2.0, 1.0)) is Regime.BLtA


class TestUB1JP:
    def test_frozen(self):
        assert evaluate(BoundId.UB1JP, QArgs(0.1, 0.1)).raw == pytest.approx(UB1JP_01_01, rel=1e-13)
        assert evaluate(BoundId.UB1JP, QArgs(0.1, 1.0)).raw == pytest.approx(UB1JP_01_1, rel=1e-13)

    def test_clamped_at_one(self):
        ev = evaluate(BoundId.UB1JP, QArgs(0.1, 0.1))
        assert ev.raw > 1.0
        assert ev.clamped == 1.0
        assert ev.side == "upper"

    def test_a_zero_collapses_to_exact(self):
        for b in (0.3, 1.0, 2.5):
            assert evaluate(BoundId.UB1JP, QArgs(0.0, b)).raw == pytest.approx(math.exp(-b * b / 2), rel=1e-14)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            evaluate(BoundId.UB1JP, QArgs(2.0, 1.0))


class TestLB1JP:
    def test_frozen(self):
        assert evaluate(BoundId.LB1JP, QArgs(0.1, 0.1)).raw == pytest.approx(LB1JP_01_01, rel=1e-13)
        assert evaluate(BoundId.LB1JP, QArgs(0.1, 1.0)).raw == pytest.approx(LB1JP_01_1, rel=1e-13)

    def test_limit_branch_value(self):
        # ab = 2e-9 takes the analytic branch; direct reference 0.1353352832366127
        assert evaluate(BoundId.LB1JP, QArgs(1e-9, 2.0)).raw == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_limit_matches_direct_formula(self):
        # direct evaluation at a = 1e-6 against the small-ab branch
        direct = evaluate(BoundId.LB1JP, QArgs(1e-6, 2.0)).raw
        assert direct == pytest.approx(LB1JP_1EM6_2, rel=1e-12)
        limit = lb1jp_small_ab_limit(1e-6, 2.0)
        assert abs(direct - limit) / limit < 1e-8

    def test_a_zero_collapses_to_exact(self):
        assert evaluate(BoundId.LB1JP, QArgs(0.0, 2.0)).raw == pytest.approx(math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "a",
        [1e6, *(pytest.param(a, marks=pytest.mark.xfail(strict=True, reason=_LB1JP_ABOVE_Q1)) for a in (1e8, 1e18, 1e150))],
    )
    def test_below_q1_at_the_tie(self, a):
        # Q1(a, a) = (1 + e^(-a^2) I0(a^2))/2 is 0.5000000020 at a = 1e8 and
        # 0.5 to the double from 1e18 on; LB1JP gives 0.5000000084 and 1.0
        args = QArgs(a, a)
        assert evaluate(BoundId.LB1JP, args).raw <= q1_reference(args).value


class TestUB2JP:
    def test_frozen(self):
        assert evaluate(BoundId.UB2JP, QArgs(2.0, 1.0)).raw == pytest.approx(UB2JP_2_1, rel=1e-13)
        assert evaluate(BoundId.UB2JP, QArgs(2.0, 1.5)).raw == pytest.approx(UB2JP_2_15, rel=1e-13)

    def test_boundary_tie_allowed(self):
        assert evaluate(BoundId.UB2JP, QArgs(2.0, 2.0)).raw == pytest.approx(UB2JP_2_2, rel=1e-13)

    def test_continuous_at_tie(self):
        assert evaluate(BoundId.UB2JP, QArgs(2.0, 2.0 - 1e-9)).raw == pytest.approx(UB2JP_2_2, abs=1e-6)

    def test_family_gap_at_tie(self):
        # the two upper-bound families do not meet at b = a: at a = 2 the
        # b < a bound is tighter by a documented 6.75e-2
        gap = evaluate(BoundId.UB1JP, QArgs(2.0, 2.0)).raw - evaluate(BoundId.UB2JP, QArgs(2.0, 2.0)).raw
        assert gap == pytest.approx(UB1JP_2_2 - UB2JP_2_2, abs=1e-9)
        assert gap == pytest.approx(0.0675, abs=1e-3)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            evaluate(BoundId.UB2JP, QArgs(1.0, 2.0))


class TestLB2JP:
    def test_frozen(self):
        assert evaluate(BoundId.LB2JP, QArgs(20.0, 19.1)).raw == pytest.approx(LB2JP_20_191, rel=1e-13)
        assert evaluate(BoundId.LB2JP, QArgs(20.0, 20.0)).raw == pytest.approx(LB2JP_20_20, rel=1e-13)

    def test_published_boundary_row(self):
        assert evaluate(BoundId.LB2JP, QArgs(20.0, 20.0)).raw == pytest.approx(0.49984, abs=1e-4)

    def test_b_zero_is_one(self):
        assert evaluate(BoundId.LB2JP, QArgs(3.0, 0.0)).raw == 1.0

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            evaluate(BoundId.LB2JP, QArgs(1.0, 2.0))


class TestRegistry:
    def test_every_id_has_one_formula(self):
        # each family function returns one slot per id of its family, the
        # ids' slots number 0..n-1 in family order, and each plan repeats
        # the id's side and regime
        for family, fn in ((FAMILY_B_GE_A, bounds._family_ge), (FAMILY_B_LT_A, bounds._family_lt)):
            assert len(fn(2.0, 2.0)) == len(family)
            assert [bid._plan[1] for bid in family] == list(range(len(family)))
            assert all(bid._plan[0] is fn for bid in family)
            assert all(bid._plan[2:] == (bid.side, bid.regime) for bid in family)
        assert set(FAMILY_B_GE_A) | set(FAMILY_B_LT_A) == set(BoundId)

    @pytest.mark.parametrize("bid", list(BoundId))
    def test_evaluate_every_id(self, bid):
        assert bid.side == ("upper" if bid.name.startswith("UB") else "lower")
        assert bid.regime is (Regime.BGeqA if bid.name[2] == "1" else Regime.BLtA)
        assert BoundId(bid.value) is bid and bid == bid.name
        inside, outside = QArgs(1.0, 2.0), QArgs(2.0, 1.0)
        if bid.regime is Regime.BLtA:
            inside, outside = outside, inside
        ev = evaluate(bid, inside)
        assert ev.id is bid
        assert ev.side == bid.side
        assert math.isfinite(ev.raw)
        assert ev.clamped == min(1.0, max(0.0, ev.raw))
        with pytest.raises(RegimeError, match=bid.value):
            evaluate(bid, outside)


# raw values at and around the ends of [0, 1], and those no comparison orders
_SPECIAL_RAWS = [
    math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0,
    math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, -2.225073858507201e-308,
    0.5, 1e308, -1e308,
]


# each family function's name, its ids and a point of its regime
_FAMILIES = [("_family_ge", FAMILY_B_GE_A, QArgs(1.0, 2.0)), ("_family_lt", FAMILY_B_LT_A, QArgs(2.0, 1.0))]


def _fake_family(monkeypatch, name, family, raws):
    """Make family function ``name`` return ``raws``: for eval_all, and for eval_ids through each id's plan."""

    def fake(a, b):
        return raws

    monkeypatch.setattr(bounds, name, fake)
    for bid in family:
        monkeypatch.setattr(bid, "_plan", (fake, *bid._plan[1:]))


class TestClamp:
    """``clamped`` is the double ``min(1.0, max(0.0, raw))`` gives, for any raw."""

    @pytest.fixture
    def fake_family(self, monkeypatch):
        # every slot of UB1A's family returns the raw under test
        raws = []
        plan = BoundId.UB1A._plan
        monkeypatch.setattr(BoundId.UB1A, "_plan", (lambda a, b: raws * 10, *plan[1:]))
        return raws

    @pytest.mark.parametrize("raw", _SPECIAL_RAWS, ids=float.hex)
    def test_special_raws(self, fake_family, raw):
        fake_family.append(raw)
        expected = min(1.0, max(0.0, raw)).hex()
        (ev,), skipped = eval_ids([BoundId.UB1A], QArgs(1.0, 2.0))
        assert not skipped
        assert ev.raw is raw
        assert ev.clamped.hex() == expected
        assert evaluate(BoundId.UB1A, QArgs(1.0, 2.0)).clamped.hex() == expected

    @pytest.mark.parametrize("raw", _SPECIAL_RAWS, ids=float.hex)
    def test_special_raws_through_eval_all(self, monkeypatch, raw):
        # eval_all writes each slot's record out; in both families every
        # one clamps as min/max does and matches eval_ids's loop over the same raws
        for name, family, args in _FAMILIES:
            _fake_family(monkeypatch, name, family, (raw,) * len(family))
            evals, skipped = eval_all(args)
            assert not skipped
            assert [ev.id for ev in evals] == list(family)
            for ev in evals:
                assert ev.raw is raw
                assert ev.clamped.hex() == min(1.0, max(0.0, raw)).hex()
            by_ids, skipped_by_ids = eval_ids(family, args)
            assert ([_bits(ev) for ev in evals], skipped) == ([_bits(ev) for ev in by_ids], skipped_by_ids)

    def test_singular_slots_through_eval_all(self, monkeypatch):
        # at every slot of both families, a singular slot among special raws
        # is dropped and only then reported, as eval_ids's loop does
        for name, family, args in _FAMILIES:
            for slot, bid in enumerate(family):
                raws = [*_SPECIAL_RAWS[: len(family)]]
                raws[slot] = SingularityError(f"{bid.value} is singular here")
                _fake_family(monkeypatch, name, family, tuple(raws))
                kept = [(other, raw) for other, raw in zip(family, raws) if other is not bid]
                evals, skipped = eval_all(args)
                assert [(ev.id, ev.raw) for ev in evals] == kept
                assert [ev.clamped.hex() for ev in evals] == [min(1.0, max(0.0, r)).hex() for _, r in kept]
                assert skipped == {bid: f"{bid.value} is singular here"}
                by_ids, skipped_by_ids = eval_ids(family, args)
                assert ([_bits(ev) for ev in evals], skipped) == ([_bits(ev) for ev in by_ids], skipped_by_ids)

    @given(raw=st.floats())
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, raw):
        # the fixture's monkeypatch does not mix with @given; patch by hand
        plan = BoundId.UB1A._plan
        BoundId.UB1A._plan = (lambda a, b: (raw,) * 10, *plan[1:])
        try:
            clamped = evaluate(BoundId.UB1A, QArgs(1.0, 2.0)).clamped
            (ev,), _ = eval_ids([BoundId.UB1A], QArgs(1.0, 2.0))
        finally:
            BoundId.UB1A._plan = plan
        assert clamped.hex() == ev.clamped.hex() == min(1.0, max(0.0, raw)).hex()


class TestZeta:
    @pytest.mark.parametrize(
        "a,b",
        [
            (1.0, math.nextafter(SMALL_AB_LIMIT, 0.0)),
            (1.0, SMALL_AB_LIMIT),
            (1.0, math.nextafter(SMALL_AB_LIMIT, 1.0)),
            (4.0, math.nextafter(2.0, 0.0)),
            (4.0, 2.0),
            (4.0, math.nextafter(2.0, 3.0)),
        ],
    )
    def test_family_rate_is_compute_zeta(self, a, b, monkeypatch):
        # the b < a family feeds LB2A the rate compute_zeta gives, from the
        # log I0(ab) it shares with i0e(ab)
        rates, zeta = [], bounds._zeta

        def recorded(*fields):
            rates.append(zeta(*fields))
            return rates[-1]

        monkeypatch.setattr(bounds, "_zeta", recorded)
        eval_all(QArgs(a, b))
        assert [z.hex() for z in rates] == [compute_zeta(QArgs(a, b)).hex()]

    def test_frozen(self):
        assert compute_zeta(QArgs(20.0, 19.1)) == pytest.approx(ZETA_20_191, rel=1e-13)
        assert compute_zeta(QArgs(2.0, 1.0)) == pytest.approx(ZETA_2_1, rel=1e-13)

    @pytest.mark.parametrize("ab,expected", ZETA_SMALL_AB.items())
    def test_frozen_small_ab(self, ab, expected):
        # ab + log i0e(ab) cancels as ab -> 0; log1p(I0 - 1) does not
        a, b = ab
        z = compute_zeta(QArgs(a, b))
        assert 0.0 <= z < a
        assert z == pytest.approx(expected, rel=1e-13, abs=0.0)

    @given(
        st.floats(min_value=1e-300, max_value=1e3),
        st.floats(min_value=1e-300, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_zero_to_a_at_any_scale(self, a, b):
        assert 0.0 <= compute_zeta(QArgs(a, b)) < a

    def test_small_ab_quadratic(self):
        # log I0(x) ~ x^2/4 for small x, so zeta ~ (ab)^2 / (4b)
        z = compute_zeta(QArgs(0.1, 0.1))
        assert z == pytest.approx(0.01 ** 2 / (4 * 0.1), rel=1e-3)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            compute_zeta(QArgs(0.0, 1.0))
        with pytest.raises(DomainError):
            compute_zeta(QArgs(1.0, 0.0))

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_a(self, a, b):
        z = compute_zeta(QArgs(a, b))
        assert 0.0 < z < a


# the largest a or b QArgs, and so the catalog, takes
SQRT_DBL_MAX = 1.3407807929942596e154
# QArgs's one message past it
PAST_THE_RANGE = "^Q1 takes a, b <= sqrt\\(DBL_MAX\\) = 1.3407807929942596e\\+154, got \\(a="


class TestRange:
    # past ~8e8 zeta rounded above a, and from ~2.9e9 LB2A's scale
    # e^(-(a^2-zeta^2)/2) overflowed; (a^2-b^2)^2 in UB2D overflowed from
    # ~1.2e77, and (a+b)^2 in LB2D and the b >= a family once a + b > 1.34e154
    @given(
        st.tuples(
            st.floats(min_value=1e8, max_value=SQRT_DBL_MAX),
            st.floats(min_value=1e-12, max_value=1.0),
        ).map(lambda af: (af[0], af[0] * af[1]))
    )
    @example((2906189193.3407207, 466970117.5058383))
    @example((1e78, 1.0))
    @example((1e154, 5e153))
    @example((5e153, 1e154))
    @example((SQRT_DBL_MAX, SQRT_DBL_MAX))
    @settings(max_examples=300, deadline=None)
    def test_finite_up_to_the_range(self, point):
        a, b = point
        args = QArgs(a, b)
        assert 0.0 <= compute_zeta(args) <= a
        evals, skipped = eval_ids(list(BoundId), args)
        assert len(evals) + len(skipped) == len(BoundId)
        assert all(math.isfinite(ev.raw) for ev in evals)
        assert math.isfinite(lb1jp_small_ab_limit(a, b))

    @pytest.mark.parametrize("a,b", [(1.35e154, 1.0), (1.0, 1.35e154), (1e300, 1e300)])
    def test_domain_error_past_the_range(self, a, b):
        # the catalog has no range check of its own: QArgs refuses the point
        # before eval_all, eval_ids or evaluate can see it
        with pytest.raises(DomainError, match=PAST_THE_RANGE):
            QArgs(a, b)
        assert not hasattr(bounds, "_check_range")
        # the public ab -> 0 limit, which takes two floats, underflows instead
        assert lb1jp_small_ab_limit(a, b) == (0.5 if a == b else 0.0)

    def test_ub2d_either_side_of_its_square_overflowing(self):
        # UB2D's d = a^2 - b^2 has d^2 overflow once d > sqrt(DBL_MAX); the
        # Gaussian it feeds is 0.0 on both sides, so UB2D is exactly 1
        r = math.sqrt(SQRT_DBL_MAX)
        below, above = r, math.nextafter(r, math.inf)
        assert below * below - 1.0 <= SQRT_DBL_MAX < above * above - 1.0
        for a in (below, above):
            assert evaluate(BoundId.UB2D, QArgs(a, 1.0)).raw == 1.0

    @pytest.mark.parametrize(
        "a,b", [(1.35e154, 1.0), (1.0, 1.35e154), (1e200, 1e200), (1e300, 1.0)]
    )
    def test_zeta_domain_error_past_the_range(self, a, b):
        # not "log_bessel_i0 ... got inf" where ab overflows, nor zeta = a
        # where it does not: QArgs refuses the point first
        with pytest.raises(DomainError, match=PAST_THE_RANGE):
            compute_zeta(QArgs(a, b))


class TestLiterature:
    def test_frozen(self):
        assert evaluate(BoundId.UB1A, QArgs(0.1, 0.1)).raw == pytest.approx(UB1A_01_01, rel=1e-13)
        assert evaluate(BoundId.LB1A, QArgs(0.1, 1.0)).raw == pytest.approx(LB1A_01_1, rel=1e-13)
        assert evaluate(BoundId.LB2A, QArgs(20.0, 19.5)).raw == pytest.approx(LB2A_20_195, rel=1e-12)
        assert evaluate(BoundId.UB2A, QArgs(2.0, 1.9)).raw == pytest.approx(UB2A_2_19, rel=1e-13)

    def test_published_values(self):
        assert evaluate(BoundId.UB1A, QArgs(0.1, 0.1)).raw == pytest.approx(1.11416, abs=1e-4)
        assert evaluate(BoundId.LB2A, QArgs(20.0, 19.5)).raw == pytest.approx(0.66406, abs=1e-4)

    def test_lb2a_envelope_table_regenerates(self):
        # LB2A_ENVELOPE_INTEGRAL is exactly what make_frozen_lb2a.py prints
        assert frozen_integrals() == LB2A_ENVELOPE_INTEGRAL

    @pytest.mark.parametrize("point,integral", sorted(LB2A_ENVELOPE_INTEGRAL.items()))
    def test_lb2a_is_its_derivation(self, point, integral):
        # the corrected closed form is the envelope integral to the rounding
        # of its head's cancellation (5.6e-14 relative at (20, 19.1))
        a, b = point
        lb2a = evaluate(BoundId.LB2A, QArgs(a, b)).raw
        assert abs((1.0 - lb2a) - integral) <= 1e-13 * integral
        # the printed form, without the zeta factor, misses it by 0.031 to 0.34
        assert abs(lb2a_printed(a, b) - (1.0 - integral)) > 0.02

    @pytest.mark.parametrize("key,integral", sorted(JP_ENVELOPE_INTEGRAL.items()))
    def test_jp_is_its_derivation(self, key, integral):
        # each JP bound is the integral of its envelope (make_frozen_jp.py)
        name, a, b = key
        tol = JP_TOLERANCE.get(key, JP_TOLERANCE[name])
        raw = evaluate(BoundId[name], QArgs(a, b)).raw
        if b >= a:
            assert abs(raw - integral) <= tol * integral
        else:
            assert abs((1.0 - raw) - integral) <= tol

    def test_ub1b_singular_at_tie(self):
        with pytest.raises(SingularityError):
            evaluate(BoundId.UB1B, QArgs(1.0, 1.0))

    def test_lb2b_singular_at_tie(self):
        with pytest.raises(SingularityError):
            evaluate(BoundId.LB2B, QArgs(2.0, 2.0))

    def test_lb2d_singular_at_zero(self):
        # the tie a = b = 0 admits the b <= a family, where asin(b/a) is 0/0
        with pytest.raises(SingularityError, match="^LB2D is singular at a = b = 0$"):
            evaluate(BoundId.LB2D, QArgs(0.0, 0.0))

    def test_lb2a_singular_at_b_zero(self):
        with pytest.raises(SingularityError):
            evaluate(BoundId.LB2A, QArgs(2.0, 0.0))

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            evaluate(BoundId.UB1A, QArgs(2.0, 1.0))
        with pytest.raises(RegimeError):
            evaluate(BoundId.LB2C, QArgs(1.0, 2.0))

    # every remaining catalog formula pinned against a plain-form
    # evaluation at 50 digits; matching certifies the scaled rearrangement
    @pytest.mark.parametrize(
        "bid,a,b,expected",
        [
            (BoundId.UB1B, 0.1, 0.7, 0.97448191331315069),
            (BoundId.UB1B, 3.0, 4.5, 0.97395740207504919),
            (BoundId.UB1C, 0.1, 0.7, 0.81412763721032149),
            (BoundId.UB1C, 3.0, 4.5, 0.28678263533837082),
            (BoundId.UB1D, 0.1, 0.7, 0.80958606519847065),
            (BoundId.UB1D, 3.0, 4.5, 0.22309061484861445),
            (BoundId.LB1B, 0.1, 0.7, 0.63538040743947956),
            (BoundId.LB1B, 3.0, 4.5, 3.6611620065631946e-13),
            (BoundId.LB1C, 0.1, 0.7, 0.77975510624241951),
            (BoundId.LB1C, 3.0, 4.5, 0.035591405864145294),
            (BoundId.LB1D, 0.1, 0.7, 0.7548530438730281),
            (BoundId.LB1D, 3.0, 4.5, 3.0584810551372012e-7),
            (BoundId.UB2D, 2.0, 1.3, 0.89587301330529122),
            (BoundId.UB2D, 20.0, 19.5, 0.80842993871799638),
            (BoundId.LB2B, 2.0, 1.3, -1.2362986806910519),
            (BoundId.LB2B, 20.0, 19.5, -34.299876103383816),
            (BoundId.LB2C, 2.0, 1.3, 0.20656668227761479),
            (BoundId.LB2C, 20.0, 19.5, 0.017833243022317987),
            (BoundId.LB2D, 2.0, 1.3, 0.82468309098086631),
            (BoundId.LB2D, 20.0, 19.5, 0.62169597436347837),
        ],
    )
    def test_catalog_frozen(self, bid, a, b, expected):
        ev = evaluate(bid, QArgs(a, b))
        assert ev.raw == pytest.approx(expected, rel=1e-13)
        if expected < 0.0:
            assert ev.clamped == 0.0


def _bits(ev):
    return ev.id, ev.raw.hex(), ev.clamped.hex(), ev.side


def _by_evaluate(ids, args):
    """One ``evaluate`` per id: ([_bits of each value], {id: the message it raised})."""
    evals, skipped = [], {}
    for bid in ids:
        try:
            evals.append(_bits(evaluate(bid, args)))
        except (RegimeError, SingularityError) as exc:
            skipped[bid] = str(exc)
    return evals, skipped


class TestEvalAll:
    # b = a (UB1B's and LB2B's singular tie, both families admitted), b = 0
    # (LB2A singular), a = 0, ab below SMALL_AB_LIMIT on both sides, ab past
    # the e^ab overflow at ~709, and b - a > 7.07, where both arguments of
    # LB1JP's erfc difference exceed 5 and its terms are deep-tail values
    @given(
        st.floats(min_value=0.0, max_value=800.0),
        st.floats(min_value=0.0, max_value=800.0),
    )
    @example(1.0, 1.0)
    @example(30.0, 30.0)
    @example(2.0, 0.0)
    @example(0.0, 0.0)
    @example(0.0, 1.5)
    @example(1e-5, 1e-5)
    @example(1e-5, 2e-4)
    @example(3.0, 1e-9)
    @example(1e-3, 8.0)
    @example(1.0, 9.0)
    @example(2.0, 40.0)
    @example(600.0, 601.0)
    @example(600.0, 599.0)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_evaluate(self, a, b):
        # eval_all, an error-table row over every id and the dominance
        # pairs each share one kernel record per regime; every value must
        # match one evaluate per id, bit for bit
        args = QArgs(a, b)
        family = FAMILY_B_GE_A if regime_of(args) is Regime.BGeqA else FAMILY_B_LT_A
        evals, skipped = eval_all(args)
        assert ([_bits(ev) for ev in evals], skipped) == _by_evaluate(family, args)

        ids = list(BoundId)
        ref_evals, ref_skipped = _by_evaluate(ids, args)
        evals, skipped = eval_ids(ids, args)
        assert ([_bits(ev) for ev in evals], skipped) == (ref_evals, ref_skipped)
        (row,) = error_table(a, [b], ids)
        assert list(row.cells) == [bid for bid, *_ in ref_evals] and row.skipped == ref_skipped
        for (_, raw, clamped, _), cell in zip(ref_evals, row.cells.values()):
            eps = eps_pct(float.fromhex(raw), row.exact)
            assert (cell.raw.hex(), cell.clamped.hex(), cell.epsilon_pct.hex()) == (raw, clamped, eps.hex())

        def raw_of(bid):
            return evaluate(bid, args).raw

        if b >= a:
            ref_pairs = [
                ("UB1JP<=UB1A", raw_of(BoundId.UB1JP) - raw_of(BoundId.UB1A)),
                ("LB1JP>=LB1A", raw_of(BoundId.LB1A) - raw_of(BoundId.LB1JP)),
            ]
        else:
            ref_pairs = [("UB2JP<=UB2A", raw_of(BoundId.UB2JP) - raw_of(BoundId.UB2A))]
        pairs = _jp_dominance_pairs(a, b)
        assert [(label, v.hex()) for label, v in pairs] == [(label, v.hex()) for label, v in ref_pairs]

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (2.0, 1.0), (0.0, 3.0), (3.0, 0.0), (600.0, 601.0)])
    def test_one_record_per_point(self, a, b, monkeypatch):
        # a work count, not a time: every formula of a family reads I0(ab)
        # from the point's one Bessel evaluation, through whichever entry
        # the family takes (i0e, log I0 or both from one polynomial), and
        # no bound builds a QArgs
        calls = []

        def counted(name, fn):
            def wrapper(*fields):
                calls.append(name)
                return fn(*fields)

            return wrapper

        bessel = ("bessel_i0_scaled", "log_bessel_i0", "_i0e_and_log_i0")
        for name in (*bessel, "QArgs"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        args = QArgs(a, b)
        evals, skipped = eval_all(args)
        assert len(evals) + len(skipped) >= 8
        assert len(calls) == 1 and calls[0] in bessel
        # every id at the tie admits both families: one evaluation each
        calls.clear()
        evals, skipped = eval_ids(list(BoundId), QArgs(a, a))
        assert len(evals) + len(skipped) == len(BoundId)
        assert len(calls) == 2 and set(calls) <= set(bessel)

    def test_skipped_messages(self):
        # a tie belongs to the b >= a family, so LB2B's tie is reached
        # only through evaluate
        assert eval_all(QArgs(1.0, 1.0))[1] == {BoundId.UB1B: "UB1B is singular at b = a = 1"}
        assert eval_all(QArgs(2.0, 0.0))[1] == {
            BoundId.LB2A: "LB2A requires b > 0 (its rate zeta is undefined at b = 0)"
        }
        with pytest.raises(SingularityError, match="^LB2B is singular at a = b = 2$"):
            evaluate(BoundId.LB2B, QArgs(2.0, 2.0))
        # :g keeps six digits: a value it would round is quoted by its repr,
        # one it prints exactly keeps the :g text
        with pytest.raises(RegimeError, match=r"^UB2JP requires b <= a, got \(a=1e\+06, b=1000003\.0\)$"):
            evaluate(BoundId.UB2JP, QArgs(1e6, 1e6 + 3))
        assert eval_all(QArgs(1000003.0, 1000003.0))[1] == {BoundId.UB1B: "UB1B is singular at b = a = 1000003.0"}
        with pytest.raises(SingularityError, match=r"^LB2B is singular at a = b = 1000003\.0$"):
            evaluate(BoundId.LB2B, QArgs(1000003.0, 1000003.0))
        with pytest.raises(DomainError, match=r"^zeta requires a > 0 and b > 0, got \(a=1000003\.0, b=0\)$"):
            compute_zeta(QArgs(1000003.0, 0.0))

    def test_count_b_ge_a(self):
        evals, skipped = eval_all(QArgs(0.1, 0.5))
        assert len(evals) == 10
        assert not skipped

    def test_eval_all_is_eval_ids_over_the_family(self):
        # eval_all assembles its records apart from eval_ids's plan loop;
        # both, and one evaluate per id, give the same records and skips
        rng = random.Random(20)
        edges = [0.0, 5e-324, 1e-310, 1e-300, SMALL_AB_LIMIT, 1.0, 8.0, 30.0, 1e154, SQRT_DBL_MAX]
        points = [(x, x) for x in edges] + [(0.0, x) for x in edges] + [(x, 0.0) for x in edges]
        points += [(5e-324, 1e-323), (1e-323, 5e-324), (SQRT_DBL_MAX, 1.0), (1.0, SQRT_DBL_MAX)]
        for _ in range(150):
            a, b = 10.0 ** rng.uniform(-320, 154), 10.0 ** rng.uniform(-320, 154)
            points += [(a, b), (rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0))]
        for a, b in points:
            args = QArgs(a, b)
            family = FAMILY_B_GE_A if regime_of(args) is Regime.BGeqA else FAMILY_B_LT_A
            evals, skipped = eval_all(args)
            by_ids, skipped_by_ids = eval_ids(family, args)
            by_evaluate, skipped_by_evaluate = _by_evaluate(family, args)
            assert [_bits(ev) for ev in evals] == [_bits(ev) for ev in by_ids] == by_evaluate, args
            assert list(skipped.items()) == list(skipped_by_ids.items()) == list(skipped_by_evaluate.items())

    def test_count_b_lt_a(self):
        evals, skipped = eval_all(QArgs(2.0, 1.0))
        assert len(evals) == 8
        assert not skipped

    def test_tie_skips_ub1b(self):
        evals, skipped = eval_all(QArgs(1.0, 1.0))
        assert len(evals) == 9
        assert list(skipped) == [BoundId.UB1B]
        assert "singular" in skipped[BoundId.UB1B]

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_clamped_always_in_unit_interval(self, a, b):
        evals, _ = eval_all(QArgs(a, b))
        for ev in evals:
            assert 0.0 <= ev.clamped <= 1.0
            assert ev.side in ("upper", "lower")


class TestStressPoints:
    def test_beyond_plain_overflow(self):
        # ab = 359400..360600, far past where e^(ab) is representable
        assert evaluate(BoundId.UB1JP, QArgs(600.0, 601.0)).raw == pytest.approx(UB1JP_600_601, rel=1e-12)
        assert evaluate(BoundId.LB1JP, QArgs(600.0, 601.0)).raw == pytest.approx(LB1JP_600_601, rel=1e-12)
        assert evaluate(BoundId.UB2JP, QArgs(600.0, 599.0)).raw == pytest.approx(UB2JP_600_599, rel=1e-12)
        assert evaluate(BoundId.LB2JP, QArgs(600.0, 599.0)).raw == pytest.approx(LB2JP_600_599, rel=1e-12)

    def test_all_bounds_finite(self):
        for (a, b) in [(600.0, 599.0), (600.0, 601.0)]:
            evals, _ = eval_all(QArgs(a, b))
            assert evals
            for ev in evals:
                assert math.isfinite(ev.raw), ev
