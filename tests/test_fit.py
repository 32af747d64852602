"""Parameter-extraction tests.

Covered here:
- trace container validation and CSV round trip;
- simulate_current contract points (dead-zone constant current, saturation
  current, identity of timestamps/voltage, series-resistance division);
- rmse hand-computed values, resampling invariance, current-scaling law;
- gradient vs an independently coded central-difference oracle;
- fit determinism, monotone accepted objective, trivial start at truth,
  and full self-consistency recovery from a +-30% perturbed start;
- `FitConfig` bound overrides: kept in parameter order, each name known
  and given once, and merged into a box that must bracket the start;
- a start whose line search overflows exp still returns a result, and so
  does one whose gradient probe overflows the device replay; a start
  corner whose search ends on a stationary point stops on `gradient`;
- trace columns are read-only copies, and the shipped `fit_sinusoid.conf`
  fit is pinned: iterations, replay count, the rmse's float and the
  stop reason;
- `simulate_current` scores rows replayed elsewhere as its own, and
  refuses rows of another length;
- the forked gradient workers: one, two or three processes give the same
  gradients and results bit for bit, and make the same objective evals,
  infeasible probes and failed line searches included; the workers
  replay the line search's next halvings ahead, which it takes in the
  serial order; the 3.12 fork warning is ignored; one usable CPU, or a
  start that cannot be searched, forks nothing; a worker that dies on a
  gradient probe or on a line-search candidate fails the fit with
  `OSError` (exit 2 at the CLI) and leaves no child behind.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from functools import cache
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memassoc._fork
import memassoc.fit
from memassoc.device import DeviceParams
from memassoc.errors import DataError, InvalidInputError, InvalidStartError
from memassoc.fit import (
    PARAM_NAMES,
    FitConfig,
    FitResult,
    IVTrace,
    central_difference_gradient,
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


def bits(a) -> np.ndarray:
    """Raw IEEE bits, so that -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def perturbed_start(scale=0.3) -> DeviceParams:
    """All eight fitted parameters moved by +-scale, alternating sign."""
    factors = [1.0 + scale if j % 2 == 0 else 1.0 - scale for j in range(8)]
    return DeviceParams(**{n: getattr(TRUE, n) * f
                           for n, f in zip(PARAM_NAMES, factors)})


@cache
def shipped_sine() -> IVTrace:
    return read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")


@cache
def replay_overflow_start() -> DeviceParams:
    """A start just below the smallest alpha_on whose replay of the shipped
    sine overflows float pow at v_on = 1 mV, found by bisection: its
    gradient's alpha_on probe (relative step ~6e-6) overflows."""
    real = shipped_sine()

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
    return DeviceParams(alpha_on=lo * (1.0 - 1e-6), v_on=1e-3)


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

    def test_rejects_columns_that_are_not_1d(self):
        with pytest.raises(InvalidInputError, match="^trace columns must be 1-D$"):
            IVTrace(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros(2))

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

    def test_energy_beyond_float_range_is_inf_without_a_warning(self):
        # 1e308 squared overflows; the suite turns numpy's warning into an error
        trace = IVTrace(np.arange(3.0), np.full(3, 1e308), np.full(3, 1e-6))
        assert trace.v_energy == math.inf
        assert trace.i_energy == pytest.approx(3e-12)

    @pytest.mark.parametrize("column", ["voltage", "current"])
    def test_csv_energy_beyond_float_range_refused(self, tmp_path, column):
        big = "1e308,1e-6" if column == "voltage" else "0.1,1e200"
        path = tmp_path / "big.csv"
        path.write_text("t_s,v_v,i_a\n" + "".join(f"{k},{big}\n" for k in range(3)))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: trace "
                           rf"{column}'s sum of squares is beyond the float range$"):
            read_trace_csv(path)

    def test_csv_keeps_line_numbers_across_line_ends(self, tmp_path):
        # CR, LF and CRLF each end one line; a quoted field may span two
        path = tmp_path / "ends.csv"
        path.write_bytes(b't_s,v_v,i_a\r\n0,0.1,1e-6\r1,"0.2\n",1e-6\n2,0.3\n')
        with pytest.raises(DataError, match=r"ends.csv:5: expected 3 fields, got 2"):
            read_trace_csv(path)

    def test_csv_that_is_not_utf8_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"t_s,v_v,i_a\n0,\xe9,1\n")
        with pytest.raises(DataError) as info:
            read_trace_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0xe9 at offset 14"


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

    @pytest.mark.parametrize("source", [-1.0, math.inf, math.nan])
    def test_rejects_bad_source_resistance(self, source):
        drive = IVTrace(np.arange(2.0), np.ones(2), np.ones(2))
        with pytest.raises(InvalidInputError, match="source_r_ohm must be >= 0"):
            simulate_current(TRUE, drive, source_r_ohm=source)


    @pytest.mark.parametrize("source", [0.0, 30e3])
    def test_replay_rows_are_scored_as_its_own(self, source):
        drive = sine_drive()
        own = simulate_current(TRUE, drive, source)
        rows = memassoc.fit._step_loop(TRUE, drive.step_v, drive.step_dt,
                                       TRUE.w_on, source)

        def loop_not_run(*args):
            raise AssertionError("simulate_current ran the loop again")

        with patch.object(memassoc.fit, "_step_loop", loop_not_run):
            replayed = simulate_current(TRUE, drive, source, replay=rows)
            from_bytes = simulate_current(TRUE, drive, source,
                                          replay=np.array(rows))
        for model in (replayed, from_bytes):
            assert bits(model.i).tolist() == bits(own.i).tolist()
            assert bits(model.v).tolist() == bits(own.v).tolist()
            assert (model.v is drive.v) == (source == 0.0)
            assert not model.i.flags.writeable

    def test_replay_of_another_length_refused(self):
        drive = sine_drive()
        rows = simulate_current(TRUE, drive).i  # any float column
        for wrong in (rows[:-1], np.append(rows, 1.0), []):
            with pytest.raises(InvalidInputError,
                               match=rf"^replay has {len(wrong)} rows for a "
                                     rf"drive of {len(drive)} samples$"):
                simulate_current(TRUE, drive, replay=wrong)


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
        res = fit(reference_trace, TRUE, FitConfig())
        assert res.converged
        assert res.stop_reason == "objective_floor"
        assert res.iterations == 0
        assert res.rmse <= 1e-12

    def test_self_consistency_from_perturbed_start(self, reference_trace):
        res = fit(reference_trace, perturbed_start(), FitConfig())
        assert res.converged
        assert res.rmse <= 1e-3
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 0.0)
        assert hist[0] > 1e-3  # the start really was off

    def test_deterministic(self, reference_trace):
        cfg = FitConfig(max_iters=25)
        r1 = fit(reference_trace, perturbed_start(), cfg)
        r2 = fit(reference_trace, perturbed_start(), cfg)
        assert r1.params == r2.params
        assert r1.objective_history == r2.objective_history

    def test_iteration_budget_reported_not_converged(self, reference_trace):
        res = fit(reference_trace, perturbed_start(), FitConfig(max_iters=2))
        assert res.iterations == 2
        assert not res.converged
        assert res.stop_reason == "max_iters"

    def test_bounds_clamp_is_respected(self, reference_trace):
        start = perturbed_start()
        lower, upper = FitConfig().bounds(start)
        cfg = FitConfig(max_iters=40,
                        **{f"{name}_lo": lower[name] for name in PARAM_NAMES},
                        **{f"{name}_hi": upper[name] for name in PARAM_NAMES})
        res = fit(reference_trace, start, cfg)
        assert cfg.bounds(start) == (lower, upper)
        for name in PARAM_NAMES:
            assert lower[name] - 1e-12 <= getattr(res.params, name) \
                <= upper[name] + 1e-12

    def test_bounds_must_bracket_initial(self):
        cfg = FitConfig(r_on_lo=30e3)
        with pytest.raises(InvalidInputError, match=r"^r_on_lo must not exceed the "
                                                    r"initial r_on=20000\.0, got 30000\.0$"):
            cfg.bounds(TRUE)
        with pytest.raises(InvalidInputError, match="^r_on_lo must not exceed"):
            fit(sine_drive(), TRUE, cfg)
        assert cfg.bounds(DeviceParams(r_on=40e3))[0]["r_on"] == 30e3
        with pytest.raises(InvalidInputError, match=r"^k_off_hi must not fall below "
                                                    r"the initial k_off=-18\.33, "
                                                    r"got -20\.0$"):
            FitConfig(k_off_hi=-20.0).bounds(TRUE)

    def test_invalid_start_raises(self):
        t = np.arange(3.0)
        # voltage energy present, current all-zero reference is rejected by
        # rmse inside the first objective evaluation
        real = IVTrace(t, np.array([0.1, 0.1, 0.1]), np.zeros(3))
        with pytest.raises((InvalidStartError, InvalidInputError)):
            fit(real, TRUE, FitConfig())

    def test_exp_overflow_start_is_searched_not_raised(self):
        # every parameter 0.7x or 1.3x the device behind the shipped sine
        # trace, 1.3x where bit j of 252 is set; the line search probes a
        # log-space point whose exp overflows, which must score as
        # infeasible instead of escaping as OverflowError
        start = DeviceParams(**{
            name: getattr(TRUE, name) * (1.3 if 252 >> j & 1 else 0.7)
            for j, name in enumerate(PARAM_NAMES)})
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
        res = fit(real, start, FitConfig())
        assert isinstance(res, FitResult)
        assert math.isfinite(res.rmse)

    def test_stationary_corner_stops_on_gradient(self):
        # corner 190 of the shipped fit's +-30% starts (1.3x where bit j is
        # set): the search reaches a point on its box whose gradient is
        # below the stationarity cutoff, the one start of the 256 that
        # stops there
        start = DeviceParams(**{
            name: getattr(TRUE, name) * (1.3 if 190 >> j & 1 else 0.7)
            for j, name in enumerate(PARAM_NAMES)})
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
        res = fit(real, start, FitConfig())
        assert (res.stop_reason, res.iterations) == ("gradient", 70)
        assert res.converged
        assert res.rmse == pytest.approx(1.044e-3, abs=1e-6)
        assert res.at_bounds == ("alpha_on", "k_on", "k_off", "v_on", "v_off")

    def test_replay_overflow_mid_search_backs_off(self, monkeypatch):
        # the gradient's alpha_on probe of this start overflows and must
        # score as infeasible
        real = shipped_sine()
        start = replay_overflow_start()

        raised = []
        replay = memassoc.fit.simulate_current

        def counting_replay(*args, **kwargs):
            try:
                return replay(*args, **kwargs)
            except OverflowError:
                raised.append(args[0])
                raise

        monkeypatch.setattr(memassoc.fit, "simulate_current", counting_replay)
        res = fit(real, start, FitConfig(max_iters=5))
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
        from memassoc.cli import build_device, build_fit_config, load_config

        config = load_config(REPO / "configs" / "fit_sinusoid.conf")
        real = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
        calls = []
        replay = memassoc.fit.simulate_current

        def counting_replay(*args, **kwargs):
            calls.append(args[0])
            return replay(*args, **kwargs)

        monkeypatch.setattr(memassoc.fit, "simulate_current", counting_replay)
        res = fit(real, build_device(config), build_fit_config(config))
        assert (res.iterations, len(calls)) == (78, 1429)
        assert repr(res.rmse) == "2.1612733124098566e-07"
        assert res.converged and res.stop_reason == "tol"
        assert res.objective_history[-1] == res.rmse
        assert res.at_bounds == ()

    def test_structural_state_bounds_fixed(self, reference_trace):
        start = perturbed_start()
        res = fit(reference_trace, start, FitConfig(max_iters=5))
        assert res.params.w_on == start.w_on
        assert res.params.w_off == start.w_off


def fit_with_cpus(cpus, real, start, config, shares=None):
    """`fit` with `cpus` usable CPUs, the gradients it computed, and its
    objective evals: its `simulate_current` calls, the count the benchmark
    pins.  With `shares`, gradient k keeps the first shares[k % len(shares)]
    probes in this process instead of the share the workers' timing would
    give.  Only the gradients' sends are drawn; the line search that
    follows a gradient deals its candidates as that gradient's share left
    the workers."""
    gradients, evals = [], []
    gradient = memassoc.fit.central_difference_gradient
    send = memassoc.fit._ReplayWorkers.send
    replay = memassoc.fit.simulate_current

    def recorded(*args):
        gradients.append(gradient(*args))
        return gradients[-1]

    def send_share(self, points):
        if shares is not None:
            self._own = shares[len(gradients) % len(shares)]
        return send(self, points)

    def counted(*args, **kwargs):
        evals.append(args)
        return replay(*args, **kwargs)

    with patch.object(memassoc._fork, "usable_cpus", lambda: cpus), \
            patch.object(memassoc.fit, "central_difference_gradient", recorded), \
            patch.object(memassoc.fit._ReplayWorkers, "send", send_share), \
            patch.object(memassoc.fit, "simulate_current", counted):
        return fit(real, start, config), gradients, len(evals)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The start factors of a fit whose second line search halves six times
# with a source resistance of 30 kOhm and accepts 1/64: on three
# processes its candidates span three rounds of one replayed in the
# caller and two on workers, and the last round's two worker candidates
# are dropped.
SEVERAL_HALVINGS = [0.92, 1.16, 0.72, 0.97, 0.92, 0.99, 0.78, 0.83]


# Each start is fitted, with and without a source resistance, by one, two
# and three processes, the latter two with drawn shares of the probes kept
# in the calling process, or the share their timing gives; each fit must
# make the same objective evals.  The named cases have infeasible gradient
# probes: "clamp" puts r_off one probe step above r_on, whose lower edge
# sits at its start, so r_on clamps at or above a lowered r_off;
# "overflow" is the start whose alpha_on probe overflows the replay
# without a source resistance (`test_replay_overflow_mid_search_backs_off`).  With a share of 0 the
# workers replay those probes, fail, and the caller replays them again.
# Both stop on `line_search` after all 50 halvings, "overflow" only
# without a source resistance: three processes split those into 16
# rounds of three and a last round of two, so no candidate is sent past
# the last one the search may try.
@settings(max_examples=8, deadline=None)
@given(st.one_of(st.sampled_from(["clamp", "overflow"]),
                 st.lists(st.floats(0.7, 1.3), min_size=8, max_size=8)),
       st.none() | st.lists(st.integers(0, 16), min_size=1, max_size=5),
       st.sampled_from([0.0, 30e3]))
@example("clamp", [0], 0.0)
@example("overflow", [0], 0.0)
@example("overflow", [16], 0.0)
@example(SEVERAL_HALVINGS, [4], 30e3)
@example("clamp", [4], 30e3)
def test_worker_counts_give_identical_fits(case, shares, source):
    config = FitConfig(max_iters=3, source_r_ohm=source)
    if case == "clamp":
        start = DeviceParams(r_on=100e3, r_off=100e3 * (1.0 + 2e-6))
        config = FitConfig(max_iters=3, source_r_ohm=source,
                           r_on_lo=start.r_on)
    elif case == "overflow":
        start = replay_overflow_start()
    else:
        start = DeviceParams(**{name: getattr(TRUE, name) * factor
                                for name, factor in zip(PARAM_NAMES, case)})
    (serial, gradients, evals), *others = [
        fit_with_cpus(cpus, shipped_sine(), start, config, shares)
        for cpus in (1, 2, 3)]
    for res, grads, n in others:
        assert n == evals
        assert [bits(g).tolist() for g in grads] == \
            [bits(g).tolist() for g in gradients]
        assert bits(res.objective_history).tolist() == \
            bits(serial.objective_history).tolist()
        assert bits([getattr(res.params, name) for name in PARAM_NAMES]).tolist() \
            == bits([getattr(serial.params, name) for name in PARAM_NAMES]).tolist()
        assert (res.iterations, res.converged, res.stop_reason, res.at_bounds) \
            == (serial.iterations, serial.converged, serial.stop_reason,
                serial.at_bounds)
    if case == "clamp" or (case == "overflow" and not source):
        assert any((g >= 1e6).any() or (g <= -1e6).any() for g in gradients), \
            "no gradient probe was infeasible"
    no_child_left()


def check_that_a_dying_worker_fails_the_fit(tmp_path, monkeypatch, capsys):
    """A worker that dies on its first replay makes the fit raise OSError,
    naming its exit status, and the CLI exit 2 with one error line; the
    other worker and the dead one are reaped."""
    from memassoc.cli import console_main

    parent = os.getpid()
    step_loop = memassoc.fit._step_loop

    def die_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step_loop(*args)

    monkeypatch.setattr(memassoc.fit, "_step_loop", die_in_worker)
    monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 3)
    with pytest.raises(OSError, match="^gradient worker process exited "
                                      "with status 3$"):
        fit(shipped_sine(), perturbed_start(), FitConfig(max_iters=3))
    no_child_left()

    out = tmp_path / "fit"
    assert console_main(["fit", str(REPO / "data" / "iv" / "sine_10hz_0v5.csv"),
                         "--config", str(REPO / "configs" / "fit_sinusoid.conf"),
                         "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: gradient worker process exited with status 3"]
    no_child_left()


class TestGradientWorkers:
    def test_fork_warning_of_python_3_12_is_ignored(self, monkeypatch):
        """From Python 3.12, `os.fork` in a process with several threads
        warns in the parent.  The workers are forked with that one warning
        ignored, so a fit passes under warnings as errors and matches the
        fit in one process; any other warning from the fork still
        raises."""
        serial, *_ = fit_with_cpus(1, shipped_sine(), perturbed_start(),
                                   FitConfig(max_iters=3))
        fork, forked = os.fork, []

        def fork_that_warns(message):
            def warning_fork():
                pid = fork()
                if pid:  # as CPython does, in the parent once the child runs
                    forked.append(pid)
                    warnings.warn(message.format(pid=os.getpid()),
                                  DeprecationWarning, stacklevel=2)
                return pid
            return warning_fork

        monkeypatch.setattr(os, "fork", fork_that_warns(
            "This process (pid={pid}) is multi-threaded, use of fork() may "
            "lead to deadlocks in the child."))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, *_ = fit_with_cpus(3, shipped_sine(), perturbed_start(),
                                    FitConfig(max_iters=3))
        assert len(forked) == 2
        assert res == serial
        no_child_left()

        monkeypatch.setattr(os, "fork", fork_that_warns("pid {pid} forked"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="forked"):
                fit_with_cpus(2, shipped_sine(), perturbed_start(),
                              FitConfig(max_iters=3))
        # the fit never learned the worker's pid; it leaves once its
        # request pipe closes
        os.waitpid(forked[-1], 0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_one_usable_cpu_forks_nothing(self, monkeypatch):
        forked, *_ = fit_with_cpus(3, shipped_sine(), perturbed_start(),
                                   FitConfig(max_iters=3))

        def no_fork():
            raise AssertionError("the fit forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved)})
        try:
            pinned = fit(shipped_sine(), perturbed_start(), FitConfig(max_iters=3))
        finally:
            os.sched_setaffinity(0, saved)
        assert pinned == forked

    def test_start_that_cannot_be_searched_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("the fit forked for a start it refused")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 3)
        start = DeviceParams(alpha_on=replay_overflow_start().alpha_on * 1.01,
                             v_on=1e-3)
        with pytest.raises(InvalidStartError, match="replay overflows"):
            fit(shipped_sine(), start, FitConfig())

    def test_line_search_candidates_are_replayed_ahead(self):
        """While the fit replays a line-search candidate, each worker
        replays one of the next halvings; the search takes the same
        candidates in the same order as in one process, and every third
        one, from the first, is the fit's own."""
        start = DeviceParams(**{name: getattr(TRUE, name) * factor
                                for name, factor in zip(PARAM_NAMES,
                                                        SEVERAL_HALVINGS)})
        config = FitConfig(max_iters=3, source_r_ohm=30e3)
        halvings = memassoc.fit._ReplayWorkers.halvings
        searches = []

        def recorded(self, x, d):
            searches.append([])
            for alpha, point, rows in halvings(self, x, d):
                searches[-1].append((alpha, rows is not None))
                yield alpha, point, rows

        with patch.object(memassoc.fit._ReplayWorkers, "halvings", recorded):
            serial, *_ = fit_with_cpus(1, shipped_sine(), start, config)
            alone = searches[:]
            forked, *_ = fit_with_cpus(3, shipped_sine(), start, config, [4])
        ahead = searches[len(alone):]
        assert forked == serial
        steps = [[alpha for alpha, _ in search] for search in alone]
        assert [len(search) for search in steps] == [1, 7, 1]
        assert steps == [[0.5 ** k for k in range(len(search))]
                         for search in steps]
        assert [[alpha for alpha, _ in search] for search in ahead] == steps
        assert not any(replayed for search in alone for _, replayed in search)
        assert [[replayed for _, replayed in search] for search in ahead] \
            == [[k % 3 != 0 for k in range(len(search))] for search in steps]
        no_child_left()

    def test_worker_that_dies_fails_the_fit(self, tmp_path, monkeypatch, capsys):
        """The workers die on their first gradient probes."""
        check_that_a_dying_worker_fails_the_fit(tmp_path, monkeypatch, capsys)

    def test_worker_that_dies_on_a_line_search_candidate_fails_the_fit(
            self, tmp_path, monkeypatch, capsys):
        """Every gradient probe is replayed in the fitting process, so the
        workers die on the first line search's halvings."""
        gradient = memassoc.fit.central_difference_gradient
        monkeypatch.setattr(memassoc.fit, "central_difference_gradient",
                            lambda f, x, rel_step, replays: gradient(f, x, rel_step))
        check_that_a_dying_worker_fails_the_fit(tmp_path, monkeypatch, capsys)

