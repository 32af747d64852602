"""Device model tests.

Invariants covered:
- drift rate branches: power-law beyond thresholds, dead zone between them,
  zero at exact threshold, and (in the row-at-a-time oracle) zero rate at
  the bound the drive pushes toward;
- state boundedness under arbitrary drive;
- resistance map orientation and monotonicity, normalized-state identity;
- analytic switch-time oracle (w span / |rate|) vs `trajectory`;
- Euler self-consistency of `trajectory` under timestep halving;
- pinched hysteresis and pulse-train monotonicity, through `trajectory`;
- `trajectory` and `pulse` input checks, `pulse` saturation at the bounds;
- `pulse` copies every cell that cannot move without evaluating its rate,
  so an overflowing rate raises only on a movable cell.

Expected numbers are recomputed here from closed forms rather than pasted,
so a regression in the model cannot hide behind a matching constant.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from memassoc.device import DeviceParams, drive_rate, pulse, resistance, trajectory
from memassoc.errors import InvalidInputError
from memassoc.vision import ArrayState, state_grid
from oracle import drift_rate, fold

P = DeviceParams()  # reference parameter set

DT = 1e-4  # s, default integration step used throughout


def analytic_switch_time(params: DeviceParams, v: float) -> float:
    """Full-span traversal time under constant over-threshold drive."""
    return (params.w_off - params.w_on) / abs(drive_rate(params, v))


def state_of(r: float) -> float:
    """State w at resistance r, inverting the exponential resistance map."""
    return P.w_off - (P.w_off - P.w_on) * math.log(r / P.r_on) / math.log(P.r_off / P.r_on)


class TestDriftRate:
    def test_set_branch_reference_point(self):
        # k_on * (0.35/0.14 - 1) = 2.82 * 1.5
        assert drive_rate(P, 0.35) == pytest.approx(2.82 * 1.5, rel=1e-12)
        assert drive_rate(P, 0.35) == pytest.approx(4.23, rel=1e-9)

    def test_reset_branch_reference_point(self):
        # k_off * (-0.32/-0.16 - 1) = -18.33 * 1.0
        assert drive_rate(P, -0.32) == pytest.approx(-18.33, rel=1e-12)

    def test_dead_zone(self):
        for v in (0.10, 0.0, -0.1, 0.1399, -0.1599):
            assert drive_rate(P, v) == 0.0

    def test_threshold_equality_is_zero_rate(self):
        assert drive_rate(P, P.v_on) == 0.0
        assert drive_rate(P, P.v_off) == 0.0

    def test_window_blocks_bound_being_pushed_toward(self):
        assert drift_rate(P, P.w_off, 0.35) == 0.0
        assert drift_rate(P, P.w_on, -0.35) == 0.0
        # the opposite bound does not block
        assert drift_rate(P, P.w_on, 0.35) > 0.0
        assert drift_rate(P, P.w_off, -0.35) < 0.0

    def test_natural_forgetting_rates(self):
        assert drive_rate(P, -0.18) == pytest.approx(-18.33 * 0.125, rel=1e-12)
        assert drive_rate(P, -0.165) == pytest.approx(-18.33 * 0.03125, rel=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            pulse(P, float("nan"), 0.2, DT, 1)
        with pytest.raises(InvalidInputError):
            pulse(P, 0.5, float("inf"), DT, 1)
        with pytest.raises(InvalidInputError):
            trajectory(P, [0.2], DT, float("nan"))
        with pytest.raises(InvalidInputError):
            trajectory(P, [float("inf")], DT, 0.5)


class TestResistanceMap:
    def test_endpoints(self):
        assert resistance(P, P.w_off) == pytest.approx(P.r_on, rel=1e-12)
        assert resistance(P, P.w_on) == pytest.approx(P.r_off, rel=1e-12)

    def test_midpoint_is_geometric_mean(self):
        assert resistance(P, 0.5) == pytest.approx(math.sqrt(P.r_on * P.r_off), rel=1e-12)
        assert resistance(P, 0.5) == pytest.approx(61644.14, rel=1e-6)

    def test_strictly_decreasing_in_w(self):
        w = np.linspace(P.w_on, P.w_off, 101)
        r = np.array([resistance(P, wi) for wi in w])
        assert np.all(np.diff(r) < 0.0)
        assert np.all((r >= P.r_on - 1e-9) & (r <= P.r_off + 1e-9))

    def test_normalized_state_identity(self):
        w = np.linspace(P.w_on, P.w_off, 11)
        n_direct = state_grid(ArrayState(P, w.reshape(1, -1)))[0]
        for wi, ni in zip(w, n_direct):
            n_from_r = math.log(resistance(P, wi) / P.r_on) / math.log(P.r_off / P.r_on)
            assert ni == pytest.approx(n_from_r, abs=1e-12)
        assert n_direct[-1] == 0.0
        assert n_direct[0] == 1.0

    def test_half_set_state_from_50k(self):
        # w such that R = 50 kohm, via the log identity
        w_50k = P.w_off - math.log(50e3 / P.r_on) / math.log(P.r_off / P.r_on)
        assert resistance(P, w_50k) == pytest.approx(50e3, rel=1e-12)
        n_50k = state_grid(ArrayState(P, np.array([[w_50k]])))[0, 0]
        assert n_50k == pytest.approx(0.4070, abs=5e-5)


class TestStep:
    def test_single_euler_update(self):
        assert pulse(P, 0.0, 0.35, 1e-3, 1) == pytest.approx(1e-3 * 4.23, rel=1e-9)

    def test_clamps_at_bounds(self):
        assert pulse(P, 0.999999, 0.5, 1.0, 1) == P.w_off
        assert pulse(P, 1e-6, -0.5, 1.0, 1) == P.w_on

    def test_rejects_bad_dt(self):
        for dt in (0.0, -1e-4):
            with pytest.raises(InvalidInputError):
                pulse(P, 0.5, 0.2, dt, 1)
            with pytest.raises(InvalidInputError):
                trajectory(P, [0.2], dt, 0.5)

    def test_trajectory_checks_inputs_once(self):
        assert trajectory(P, [], DT, 0.0) == [P.r_off]
        bad = [
            dict(v=[0.2, math.inf], dt=DT, w0=0.5),
            dict(v=[0.2, math.nan], dt=DT, w0=0.5),
            dict(v=[0.2], dt=DT, w0=math.nan),
            dict(v=[0.2], dt=0.0, w0=0.5),
            dict(v=[0.2, 0.2], dt=[DT, -DT], w0=0.5),
            dict(v=[0.2, 0.2], dt=[DT], w0=0.5),
            dict(v=[0.2], dt=DT, w0=0.5, source_r_ohm=-1.0),
        ]
        for kwargs in bad:
            with pytest.raises(InvalidInputError):
                trajectory(P, **kwargs)

    def test_trajectory_rejects_start_state_outside_bounds(self):
        # a start beyond a bound would read R off the map's range and then
        # snap to the bound on its first held row
        for w0 in (5.0, -1.0, np.nextafter(P.w_off, math.inf),
                   np.nextafter(P.w_on, -math.inf)):
            with pytest.raises(InvalidInputError, match="lie within"):
                trajectory(P, [0.0, 0.0], DT, w0)
            with pytest.raises(InvalidInputError, match="lie within"):
                trajectory(P, [0.0], DT, w0, source_r_ohm=1e3)
        assert trajectory(P, [0.0], DT, P.w_off) == [P.r_on, P.r_on]
        assert trajectory(P, [0.0], DT, P.w_on) == [P.r_off, P.r_off]

    def test_pulse_checks_inputs_once(self):
        assert pulse(P, 0.5, 0.2, DT, 0) == 0.5
        bad = [
            dict(w=0.5, v=math.inf, dt=DT, n_steps=1),
            dict(w=np.full(2, 0.5), v=np.array([0.2, math.nan]), dt=DT, n_steps=1),
            dict(w=math.nan, v=0.2, dt=DT, n_steps=1),
            dict(w=P.w_off + 0.1, v=0.2, dt=DT, n_steps=1),
            dict(w=np.array([0.5, P.w_on - 0.1]), v=np.zeros(2), dt=DT, n_steps=1),
            dict(w=np.full(2, 0.5), v=np.zeros(3), dt=DT, n_steps=1),
            dict(w=0.5, v=0.2, dt=0.0, n_steps=1),
            dict(w=0.5, v=0.2, dt=math.inf, n_steps=1),
            dict(w=0.5, v=0.2, dt=DT, n_steps=-1),
            dict(w=0.5, v=0.2, dt=DT, n_steps=1.0),
        ]
        for kwargs in bad:
            with pytest.raises(InvalidInputError):
                pulse(P, **kwargs)

    def test_pulse_saturates_at_the_bounds(self):
        # a set pulse four times as long as the switch time ends on w_off,
        # a reset pulse on w_on; the grid form leaves its input untouched
        v_set, v_reset = 0.35, -0.35
        n_set = math.ceil(4.0 / (drive_rate(P, v_set) * DT))
        assert pulse(P, P.w_on, v_set, DT, n_set) == P.w_off
        n_reset = math.ceil(4.0 / (-drive_rate(P, v_reset) * DT))
        assert pulse(P, P.w_off, v_reset, DT, n_reset) == P.w_on
        w = np.full((2, 2), 0.5)
        out = pulse(P, w, np.array([[v_set, v_reset], [0.0, 0.1]]), DT, n_set)
        np.testing.assert_array_equal(out, [[P.w_off, P.w_on], [0.5, 0.5]])
        np.testing.assert_array_equal(w, 0.5)

    def test_pulse_without_a_movable_cell_copies_its_input(self):
        # dead zone, exact thresholds at the bound each pushes toward, and
        # drives into the bound a cell sits on: nothing can move
        w = np.array([0.5, -0.0, P.w_off, P.w_on, P.w_off, P.w_on])
        v = np.array([0.1, 0.0, P.v_on, P.v_off, 0.35, -0.35])
        for n_steps in (0, 1, 500):
            got = pulse(P, w, v, DT, n_steps)
            assert got is not w
            np.testing.assert_array_equal(got.view(np.int64), w.view(np.int64))
        moving = np.full(6, 0.5)
        got = pulse(P, moving, np.full(6, 0.35), DT, 0)
        assert got is not moving and np.array_equal(got, moving)

    def test_pulse_skips_the_rate_of_a_cell_that_cannot_move(self):
        # (v / v_on - 1) ** 1e308 overflows once v exceeds 2 * v_on
        params = DeviceParams(alpha_on=1e308)
        v = 3.0 * params.v_on
        with pytest.raises(OverflowError):
            drive_rate(params, v)
        # on w_off the drive pushes into the bound: the rate is never taken
        w = np.full((2, 2), params.w_off)
        np.testing.assert_array_equal(pulse(params, w, np.full((2, 2), v), DT, 10), w)
        assert pulse(params, params.w_off, v, DT, 10) == params.w_off
        # the same drive on one cell below w_off still raises
        w[1, 0] = 0.5
        with pytest.raises(OverflowError):
            pulse(params, w, np.full((2, 2), v), DT, 10)
        with pytest.raises(OverflowError):
            pulse(params, 0.5, v, DT, 10)

    def test_bounded_under_random_drive(self):
        rng = np.random.default_rng(42)
        ws = fold(P, rng.uniform(-2.0, 2.0, size=4000).tolist(), DT, 0.3)
        assert all(P.w_on <= w <= P.w_off for w in ws)

    def test_dead_zone_holds_state(self):
        assert fold(P, [0.12] * 1000, DT, 0.37)[-1] == 0.37


def switch_time(v: float, w0: float, w_end: float, limit: float) -> float:
    """Seconds of constant drive v, stepped by `trajectory`, until the
    state first reaches w_end (within `limit` seconds)."""
    r = np.array(trajectory(P, [v] * int(round(limit / DT)), DT, w0))
    reached = np.nonzero(r == resistance(P, w_end))[0]
    assert reached.size, f"no switch within {limit} s"
    return reached[0] * DT


class TestSwitchTimeOracle:
    """Simulated traversal matches span / |rate| within 1% at dt = 0.1 ms."""

    @pytest.mark.parametrize("v", [0.35, 0.5, 0.28])
    def test_set_direction(self, v):
        t = switch_time(v, P.w_on, P.w_off, limit=2.0)
        assert t == pytest.approx(analytic_switch_time(P, v), rel=0.01)

    @pytest.mark.parametrize("v", [-0.32, -0.18])
    def test_reset_direction(self, v):
        t = switch_time(v, P.w_off, P.w_on, limit=10.0)
        assert t == pytest.approx(analytic_switch_time(P, v), rel=0.01)

    def test_full_set_at_learning_voltage_reference(self):
        # 1 / 4.23 = 0.23641 s
        assert analytic_switch_time(P, 0.35) == pytest.approx(0.23641, abs=5e-6)


def _integrate(drive, dt: float, w0: float = 0.0) -> float:
    """Final w after `trajectory` steps through drive(t) over [0, 1) s."""
    volts = [drive(k * dt) for k in range(int(round(1.0 / dt)))]
    return state_of(trajectory(P, volts, dt, w0)[-1])


class TestEulerConvergence:
    """Halving dt changes the final state of a fixed 1 s drive by < 1e-3."""

    @pytest.mark.parametrize("drive", [
        lambda t: 0.35,                                      # saturating
        lambda t: 0.5 * math.sin(2 * math.pi * 10.0 * t),    # cyclic
        lambda t: 0.3 * math.sin(2 * math.pi * 7.0 * t) + 0.4 * t,  # mixed
    ])
    def test_dt_halving(self, drive):
        w_coarse = _integrate(drive, DT)
        w_fine = _integrate(drive, DT / 2)
        assert abs(w_coarse - w_fine) < 1e-3


class TestHysteresisAndPulses:
    def test_pinched_loop_under_sinusoid(self):
        f, amp = 10.0, 0.5
        n = int(round(0.2 / DT))  # two periods
        vs = np.array([amp * math.sin(2 * math.pi * f * k * DT) for k in range(n + 1)])
        rs = np.array(trajectory(P, vs, DT, P.w_on)[:-1])  # R before each step
        cur = vs / rs
        # pinch: negligible current whenever voltage is negligible
        near_zero = np.abs(vs) < 1e-6
        assert near_zero.any()
        assert np.all(np.abs(cur[near_zero]) < 1e-9)
        # resistance confined to its bounds
        assert np.all((rs >= P.r_on - 1e-9) & (rs <= P.r_off + 1e-9))
        # the loop enclosed area is nonzero: state actually moved
        assert np.ptp(rs) > 1e3

    def test_set_pulse_train_monotone_conductance(self):
        # 20 cycles of 10 ms at +0.35 V, then 10 ms rest at 0 V (dead zone)
        r = trajectory(P, ([0.35] * 100 + [0.0] * 100) * 20, DT, P.w_on)
        diffs = np.diff(1.0 / np.array(r[::200]))
        assert np.all(diffs >= -1e-15)
        assert diffs[0] > 0.0  # strictly increasing until saturation

    def test_reset_pulse_train_monotone_resistance(self):
        # 20 cycles of 10 ms at -0.2 V, then 10 ms rest at 0 V
        r = trajectory(P, ([-0.2] * 100 + [0.0] * 100) * 20, DT, P.w_off)
        diffs = np.diff(r[::200])
        assert np.all(diffs >= -1e-9)
        assert diffs[0] > 0.0


class TestParamValidation:
    def test_resistance_order(self):
        with pytest.raises(InvalidInputError):
            DeviceParams(r_on=200e3, r_off=20e3)

    def test_threshold_signs(self):
        with pytest.raises(InvalidInputError):
            DeviceParams(v_on=-0.1)
        with pytest.raises(InvalidInputError):
            DeviceParams(v_off=0.1)

    def test_rate_signs(self):
        with pytest.raises(InvalidInputError):
            DeviceParams(k_on=-1.0)
        with pytest.raises(InvalidInputError):
            DeviceParams(k_off=5.0)

    def test_state_bounds_order(self):
        with pytest.raises(InvalidInputError):
            DeviceParams(w_on=1.0, w_off=0.0)

    def test_state_span_beyond_float_range_rejected(self):
        # w_off - w_on = 2e308 overflows; R(w) and the vision state map
        # divide by it
        with pytest.raises(InvalidInputError, match="^w_on must .* by a finite span"):
            DeviceParams(w_on=-1e308, w_off=1e308)
        assert DeviceParams(w_on=-1e308, w_off=1.0).w_on == -1e308

    def test_resistance_ratio_beyond_float_range_rejected(self):
        # r_off / r_on overflows to inf, and R(w) = r_on * inf ** frac is
        # inf at every state short of w_off
        for r_on, r_off in ((1e-300, 1e300), (5e-324, 1000.0)):
            with pytest.raises(InvalidInputError,
                               match="^r_off must .* by a finite ratio"):
                DeviceParams(r_on=r_on, r_off=r_off)
        wide = DeviceParams(r_on=1e-300, r_off=1e7)  # a ratio of 1e307
        assert resistance(wide, wide.w_on) == pytest.approx(1e7, rel=1e-9)

    def test_non_finite_state_rejected(self):
        # every entry point that takes a start state refuses a NaN one
        with pytest.raises(InvalidInputError):
            pulse(P, float("nan"), 0.0, DT, 1)
        with pytest.raises(InvalidInputError):
            trajectory(P, [], DT, float("nan"))
        with pytest.raises(InvalidInputError):
            ArrayState(P, np.array([[0.5, float("nan")]]))
