"""Parameter-extraction tests.

Covered here:
- trace container validation and CSV round trip;
- simulate_current contract points (dead-zone constant current, saturation
  current, identity of timestamps/voltage, series-resistance division);
- rmse hand-computed values, resampling invariance, current-scaling law;
- gradient vs an independently coded central-difference oracle;
- fit determinism, monotone accepted objective, trivial start at truth,
  and full self-consistency recovery from a +-30% perturbed start;
- a start whose line search overflows exp still returns a result, and so
  does one whose gradient probe overflows the device replay;
- trace columns are read-only copies, and the shipped `fit_sinusoid.conf`
  fit is pinned: iterations, replay count, the rmse's float and the
  stop reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import memassoc.fit
from memassoc.device import DeviceParams
from memassoc.errors import DataError, InvalidInputError, InvalidStartError
from memassoc.fit import (
    PARAM_NAMES,
    FitConfig,
    FitResult,
    IVTrace,
    central_difference_gradient,
    default_bounds,
    fit,
    read_trace_csv,
    rmse,
    simulate_current,
    write_trace_csv,
)

REPO = Path(__file__).resolve().parents[1]
TRUE = DeviceParams()


def sine_drive(amp=0.5, freq=10.0, duration=0.2, dt=5e-4) -> IVTrace:
    t = np.arange(0.0, duration + dt / 2, dt)
    return IVTrace(t, amp * np.sin(2 * np.pi * freq * t), np.zeros_like(t))


@pytest.fixture(scope="module")
def reference_trace() -> IVTrace:
    return simulate_current(TRUE, sine_drive())


def perturbed_start(scale=0.3) -> DeviceParams:
    """All eight fitted parameters moved by +-scale, alternating sign."""
    factors = [1.0 + scale if j % 2 == 0 else 1.0 - scale for j in range(8)]
    return DeviceParams(**{n: getattr(TRUE, n) * f
                           for n, f in zip(PARAM_NAMES, factors)})


class TestIVTrace:
    def test_rejects_single_sample(self):
        with pytest.raises(InvalidInputError):
            IVTrace(np.array([0.0]), np.array([0.1]), np.array([1e-6]))

    def test_rejects_non_increasing_time(self):
        with pytest.raises(InvalidInputError):
            IVTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            IVTrace(np.array([0.0, 1.0]), np.zeros(2), np.zeros(3))

    def test_rejects_interval_beyond_float_range(self):
        # both timestamps are finite, but 1e308 - (-1e308) is not
        with pytest.raises(InvalidInputError, match="intervals must be finite"):
            IVTrace(np.array([-1e308, 1e308]), np.ones(2), np.ones(2))

    def test_columns_are_read_only_copies(self):
        t, v, i = np.arange(3.0), np.ones(3), np.ones(3)
        trace = IVTrace(t, v, i)
        for column in (trace.t, trace.v, trace.i):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 5.0
        # the caller's arrays stay writeable, and writing them leaves the
        # trace as it was built
        assert t.flags.writeable and v.flags.writeable and i.flags.writeable
        t[0], v[0] = -1.0, 7.0
        assert trace.t[0] == 0.0 and trace.v[0] == 1.0
        assert trace.step_v == [1.0, 1.0] and trace.step_dt == [1.0, 1.0]

    def test_replay_columns_are_read_only(self, reference_trace):
        for source in (0.0, 1e3):
            model = simulate_current(TRUE, reference_trace, source_r_ohm=source)
            assert not (model.t.flags.writeable or model.v.flags.writeable
                        or model.i.flags.writeable)

    def test_csv_round_trip(self, tmp_path, reference_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(reference_trace, path)
        back = read_trace_csv(path)
        np.testing.assert_allclose(back.t, reference_trace.t, rtol=1e-9)
        np.testing.assert_allclose(back.v, reference_trace.v, rtol=1e-9)
        np.testing.assert_allclose(back.i, reference_trace.i, rtol=1e-9)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,volt,amp\n0,0,0\n1,0,0\n")
        with pytest.raises(DataError):
            read_trace_csv(path)


class TestSimulateCurrent:
    def test_dead_zone_constant_current(self):
        t = np.arange(0.0, 0.1, 1e-3)
        drive = IVTrace(t, np.full_like(t, 0.10), np.zeros_like(t))
        out = simulate_current(TRUE, drive)
        np.testing.assert_allclose(out.i, 0.10 / TRUE.r_off, rtol=1e-12)

    def test_saturating_set_drive(self):
        t = np.arange(0.0, 0.3 + 1e-9, 1e-3)
        drive = IVTrace(t, np.full_like(t, 0.35), np.zeros_like(t))
        out = simulate_current(TRUE, drive)
        assert out.i[-1] == pytest.approx(0.35 / TRUE.r_on, rel=1e-12)
        assert out.i[-1] == pytest.approx(17.5e-6, rel=1e-12)

    def test_returns_identical_time_and_voltage(self, reference_trace):
        drive = sine_drive()
        assert np.array_equal(reference_trace.t, drive.t)
        assert np.array_equal(reference_trace.v, drive.v)

    def test_series_resistance_divides_voltage(self):
        t = np.arange(0.0, 0.01, 1e-3)
        drive = IVTrace(t, np.full_like(t, 0.10), np.zeros_like(t))
        out = simulate_current(TRUE, drive, source_r_ohm=TRUE.r_off)
        # equal divider at the fully reset state: half the drive, half current
        assert out.v[0] == pytest.approx(0.05, rel=1e-12)
        assert out.i[0] == pytest.approx(0.10 / (2 * TRUE.r_off), rel=1e-12)


class TestRmse:
    def test_identical_traces(self, reference_trace):
        assert rmse(reference_trace, reference_trace) == 0.0

    def test_hand_computed_current_offset(self):
        t = np.arange(4.0)
        real = IVTrace(t, np.ones(4), np.ones(4))
        model = IVTrace(t, np.ones(4), np.full(4, 2.0))
        # i-term: sum (1)^2 / sum 1^2 = 1; v-term 0; sqrt(1/4) = 0.5
        assert rmse(model, real) == pytest.approx(0.5, rel=1e-12)

    def test_hand_computed_both_terms(self):
        t = np.arange(2.0)
        real = IVTrace(t, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        model = IVTrace(t, np.array([2.0, 2.0]), np.array([2.0, 3.0]))
        expect = math.sqrt((1.0 / 5.0 + 4.0 / 5.0) / 2.0)
        assert rmse(model, real) == pytest.approx(expect, rel=1e-12)

    def test_resampling_identical_traces_stays_zero(self):
        # a perfect model stays perfect under any reordering-free resampling
        t1 = np.arange(3.0)
        real1 = IVTrace(t1, np.array([1.0, -1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        assert rmse(real1, real1) == 0.0
        t2 = np.arange(6.0)
        real2 = IVTrace(t2, np.repeat(real1.v, 2), np.repeat(real1.i, 2))
        assert rmse(real2, real2) == 0.0

    def test_current_scaling_law(self):
        # with matching voltages, scaling the model current error scales
        # the i-term quadratically under the normalized sum
        t = np.arange(4.0)
        real = IVTrace(t, np.ones(4), np.ones(4))
        m1 = IVTrace(t, np.ones(4), np.ones(4) + 0.1)
        m2 = IVTrace(t, np.ones(4), np.ones(4) + 0.2)
        assert rmse(m2, real) == pytest.approx(2.0 * rmse(m1, real), rel=1e-12)

    def test_rejects_zero_energy_reference(self):
        t = np.arange(3.0)
        real = IVTrace(t, np.zeros(3), np.ones(3))
        with pytest.raises(InvalidInputError):
            rmse(real, real)

    def test_rejects_length_mismatch(self):
        a = IVTrace(np.arange(3.0), np.ones(3), np.ones(3))
        b = IVTrace(np.arange(4.0), np.ones(4), np.ones(4))
        with pytest.raises(InvalidInputError):
            rmse(a, b)


class TestGradient:
    def test_matches_independent_oracle(self):
        def f(x):
            return float(np.sum(np.sin(x) * x ** 2) + np.exp(0.1 * x[0]))

        rel_step = 1e-6
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.uniform(-2.0, 2.0, size=5)
            got = central_difference_gradient(f, x, rel_step)
            want = np.empty_like(x)
            for j in range(len(x)):
                h = rel_step * max(1.0, abs(x[j]))
                e = np.zeros_like(x)
                e[j] = h
                want[j] = (f(x + e) - f(x - e)) / (2.0 * h)
            np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-12)


class TestFit:
    def test_start_at_truth_is_immediate(self, reference_trace):
        res = fit(reference_trace, FitConfig(initial=TRUE))
        assert res.converged
        assert res.stop_reason == "objective_floor"
        assert res.iterations == 0
        assert res.rmse <= 1e-12

    def test_self_consistency_from_perturbed_start(self, reference_trace):
        res = fit(reference_trace, FitConfig(initial=perturbed_start()))
        assert res.converged
        assert res.rmse <= 1e-3
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 0.0)
        assert hist[0] > 1e-3  # the start really was off

    def test_deterministic(self, reference_trace):
        cfg = FitConfig(initial=perturbed_start(), max_iters=25)
        r1 = fit(reference_trace, cfg)
        r2 = fit(reference_trace, cfg)
        assert r1.params == r2.params
        assert r1.objective_history == r2.objective_history

    def test_iteration_budget_reported_not_converged(self, reference_trace):
        res = fit(reference_trace, FitConfig(initial=perturbed_start(), max_iters=2))
        assert res.iterations == 2
        assert not res.converged
        assert res.stop_reason == "max_iters"

    def test_bounds_clamp_is_respected(self, reference_trace):
        lower, upper = default_bounds(perturbed_start())
        cfg = FitConfig(initial=perturbed_start(), lower=lower, upper=upper,
                        max_iters=40)
        res = fit(reference_trace, cfg)
        for name in PARAM_NAMES:
            assert cfg.lower[name] - 1e-12 <= getattr(res.params, name) \
                <= cfg.upper[name] + 1e-12

    def test_bounds_must_bracket_initial(self):
        with pytest.raises(InvalidInputError):
            FitConfig(initial=TRUE, lower={"r_on": 30e3})

    def test_invalid_start_raises(self):
        t = np.arange(3.0)
        # voltage energy present, current all-zero reference is rejected by
        # rmse inside the first objective evaluation
        real = IVTrace(t, np.array([0.1, 0.1, 0.1]), np.zeros(3))
        with pytest.raises((InvalidStartError, InvalidInputError)):
            fit(real, FitConfig(initial=TRUE))

    def test_exp_overflow_start_is_searched_not_raised(self):
        # every parameter 0.7x or 1.3x the device behind the shipped sine
        # trace, 1.3x where bit j of 252 is set; the line search probes a
        # log-space point whose exp overflows, which must score as
        # infeasible instead of escaping as OverflowError
        start = DeviceParams(**{
            name: getattr(TRUE, name) * (1.3 if 252 >> j & 1 else 0.7)
            for j, name in enumerate(PARAM_NAMES)})
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
        res = fit(real, FitConfig(initial=start))
        assert isinstance(res, FitResult)
        assert math.isfinite(res.rmse)

    def test_replay_overflow_mid_search_backs_off(self, monkeypatch):
        # the smallest alpha_on whose replay of the shipped sine overflows
        # float pow at v_on = 1 mV, found by bisection; the start sits just
        # below it, so the gradient's alpha_on probe (relative step ~6e-6)
        # overflows and must score as infeasible
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")

        def overflows(alpha_on):
            try:
                simulate_current(DeviceParams(alpha_on=alpha_on, v_on=1e-3), real)
            except OverflowError:
                return True
            return False

        lo, hi = 10.0, 1000.0
        assert not overflows(lo) and overflows(hi)
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
        start = DeviceParams(alpha_on=lo * (1.0 - 1e-6), v_on=1e-3)

        raised = []
        replay = memassoc.fit.simulate_current

        def counting_replay(*args, **kwargs):
            try:
                return replay(*args, **kwargs)
            except OverflowError:
                raised.append(args[0])
                raise

        monkeypatch.setattr(memassoc.fit, "simulate_current", counting_replay)
        res = fit(real, FitConfig(initial=start, max_iters=5))
        assert raised, "no replay overflowed: the case no longer tests back-off"
        assert math.isfinite(res.rmse)
        # the overflowing probe put the surrogate into the gradient, so the
        # line search along it failed: that is not convergence
        assert not res.converged
        assert res.stop_reason == "line_search"
        assert list(res.objective_history) == sorted(res.objective_history,
                                                     reverse=True)

    def test_shipped_config_fit_is_pinned(self, monkeypatch):
        # the shipped fit, replay for replay: a change that moves one float
        # of any objective eval, or adds or drops an eval, shows here
        from memassoc.cli import build_fit_config, load_config

        config = build_fit_config(load_config(REPO / "configs" / "fit_sinusoid.conf"))
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
        calls = []
        replay = memassoc.fit.simulate_current

        def counting_replay(*args, **kwargs):
            calls.append(args[0])
            return replay(*args, **kwargs)

        monkeypatch.setattr(memassoc.fit, "simulate_current", counting_replay)
        res = fit(real, config)
        assert (res.iterations, len(calls)) == (78, 1429)
        assert repr(res.rmse) == "2.1612733124098566e-07"
        assert res.converged and res.stop_reason == "tol"
        assert res.objective_history[-1] == res.rmse

    def test_structural_state_bounds_fixed(self, reference_trace):
        start = perturbed_start()
        res = fit(reference_trace, FitConfig(initial=start, max_iters=5))
        assert res.params.w_on == start.w_on
        assert res.params.w_off == start.w_off
