"""Property tests: the fast engines against the row-at-a-time oracle.

The oracle (`tests/oracle.py`) takes one Euler step per call with plain
floats.  Covered invariants (hypothesis-generated inputs, exact
comparisons):
  * `device.trajectory` at one dt, and the stepping loop it shares with
    the fit replay at per-step dt and behind a series source resistance,
    equal the oracle's `fold` read through `resistance`, for rate
    exponents away from 1, start states at and between the bounds,
    voltages at, one ULP beyond and across both thresholds, and constant
    runs that drive the state onto a bound and hold it there;
  * `fit.rmse` of `fit.simulate_current`, and the model trace it scores,
    equal the `fit` module's formula computed from the oracle's states,
    with and without a source resistance, for one trace replayed in turn
    at up to four parameter points (what the trace caches cannot leak
    from one point into the next);
  * `device.pulse`, on one float or on a grid, and `train_pair` equal the
    oracle's `fold` over the pulse cell by cell, for rate exponents away
    from 1, start states at and between the bounds, voltages at and
    across both thresholds and rates that saturate mid-pulse, pulses of 0
    and 1 steps drawn often, and grids that always mix cells on w_on, on
    w_off and between under the exact thresholds, a dead-zone voltage and
    drives beyond both thresholds, so that cells that cannot move sit
    beside cells that do (states
    compared as numbers, so a signed-zero state bound may differ in the
    sign of a zero state); on one float also one step short of, at and
    one step past one to three blocks of its running sum, and with
    increments, or unclamped sums, beyond the float range, without a
    numpy warning; on grids whose cells repeat a few (state, voltage)
    pairs, or hold so many distinct moving pairs that a block of the
    running sum is shorter than the pulse (one step long when the pairs
    outnumber `_FOLD_BLOCK`), up to 300 steps and one step short of, at
    and one step past a block; and on grids that draw each cell's state
    and voltage apart from small pools (both bounds and both signed
    zeros among the states), so that one state meets several voltages
    and one voltage several states, for up to 300 steps;
  * `vision.read_image_csv` reads the same intensities, or fails with the
    same message, as the oracle's line-at-a-time reader, on texts broken
    at LF, CRLF or a lone CR with blank, ragged, out-of-range and
    unparsable lines, and with several texts of one value (-0 kept apart
    from 0); half of them grids of one-character cells, its byte table's
    input, beside one-character cells float() refuses, a non-ASCII digit
    and a doubled comma that keeps the table's length arithmetic; and on
    every shipped image and a seeded 0/1 grid with CRLF and blank lines;
  * `classify` reads the label device's resistance after the same pulse
    that `device.trajectory` steps through;
  * equal-binary `match_counts`, under both scopes, and `similarity` equal
    the oracle's formulas on `binarize` float grids bit for bit, on grids
    whose cells sit at the threshold, one ULP either side of it, at 0.0,
    -0.0, 1.0 and nan; a trained array's cached `state` grid is
    (w_off - w) / (w_off - w_on) of it, bit for bit, and read-only like its
    cell grid; and
    `train_pair`, which steps the unchecked fold, equals `device.pulse`
    over the voltages `modulation_voltages` derives from the same counts;
  * the stage-at-a-time `run_chain` equals the oracle's row-at-a-time
    chain, which samples every row with its own scalar sampler and selects
    from its own wildcard copy of the truth tables, on random custom
    schedules with one to four stages, drawn stage voltages and higher
    stages at the adjusted or a fixed learning voltage: signal levels and
    every stage column, bit for bit;
  * `write_sim_trace_csv`, which formats each distinct value of a chunk
    once and splits the chunks among up to one process per usable CPU,
    writes the same bytes as a row-by-row `f"{x:.10g}"` writer, on traces
    one row short of, at and one row past one to three chunks (of 5 rows
    and of the real size), written by one, two, three or more processes
    than chunks, holding signed zeros, subnormals, huge magnitudes, values
    at the `.10g` notation switches, nan and inf, and long runs of one
    repeated value; the trace's directory holds no other file afterwards.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from memassoc import _fork, circuit
from memassoc.circuit import (
    _TRACE_CHUNK_ROWS,
    SCHEMES,
    ChainConfig,
    SimTrace,
    StageConfig,
    StageTrace,
    StimulusSchedule,
    run_chain,
    write_sim_trace_csv,
)
from memassoc.device import (
    _FOLD_BLOCK,
    DeviceParams,
    _step_loop,
    drive_rate,
    pulse,
    resistance,
    trajectory,
)
from memassoc.errors import DataError
from memassoc.fit import IVTrace, rmse, simulate_current
from memassoc.vision import (
    ArrayState,
    VisionConfig,
    classify,
    match_counts,
    modulation_voltages,
    read_image_csv,
    similarity,
    train_pair,
)
from oracle import fold, match_counts_binary, run_chain_rows
from oracle import similarity as similarity_of_binarized
from oracle import read_image_csv as read_image_csv_by_line

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def device_params(draw):
    r_on = draw(st.floats(1e3, 5e4))
    w_on = draw(st.floats(-1.0, 0.5))
    return DeviceParams(
        r_on=r_on, r_off=r_on * draw(st.floats(1.5, 20.0)),
        alpha_on=draw(st.floats(0.5, 3.0)), alpha_off=draw(st.floats(0.5, 3.0)),
        k_on=draw(st.floats(0.5, 200.0)), k_off=-draw(st.floats(0.5, 200.0)),
        v_on=draw(st.floats(0.05, 0.4)), v_off=-draw(st.floats(0.05, 0.4)),
        w_on=w_on, w_off=w_on + draw(st.floats(0.1, 2.0)))


@st.composite
def start_state(draw, params):
    lo, hi = params.w_on, params.w_off
    return draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))


def bits64(a: np.ndarray) -> np.ndarray:
    """Raw IEEE bits, so that -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def drive_voltage(params):
    """Voltages at, just beyond and across both thresholds."""
    return st.sampled_from([
        params.v_on, params.v_off, 0.0,
        np.nextafter(params.v_on, np.inf), np.nextafter(params.v_off, -np.inf),
    ]) | st.floats(-1.0, 1.0, **finite)


@st.composite
def constant_runs(draw, params, max_runs, max_len):
    """Voltages in up to `max_runs` constant runs of 1 to `max_len` rows,
    each at a `drive_voltage` level."""
    v = []
    for _ in range(draw(st.integers(0, max_runs))):
        v += [draw(drive_voltage(params))] * draw(st.integers(1, max_len))
    return v


# --- device kernel ------------------------------------------------------------

@st.composite
def kernel_case(draw):
    """A drive of constant runs: single rows, and runs long enough to drive
    the state onto a bound and hold it there (dead zone, exact thresholds,
    one ULP beyond them), from start states at and between the bounds,
    plain or divided by a series source resistance."""
    params = draw(device_params())
    v = draw(constant_runs(params, 12, 80))
    n = len(v)
    dt_floats = st.floats(1e-5, 0.1)
    per_step = draw(st.booleans())
    dt = draw(st.lists(dt_floats, min_size=n, max_size=n)) if per_step \
        else draw(dt_floats)
    source = draw(st.just(0.0) | st.floats(0.0, 1e5))
    return params, v, dt, draw(start_state(params)), source


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_trajectory_matches_step_fold(case):
    # one dt without a source resistance is `trajectory`'s own call; per-step
    # dt and a divided drive reach the loop it runs through the fit replay
    params, v, dt, w0, source = case
    if isinstance(dt, list) or source > 0.0:
        steps = dt if isinstance(dt, list) else [dt] * len(v)
        got = _step_loop(params, [float(x) for x in v], steps, w0, source)
    else:
        got = trajectory(params, v, dt, w0)
    want = [resistance(params, w) for w in fold(params, v, dt, w0, source)]
    assert np.array_equal(bits64(np.array(got)), bits64(np.array(want)))


# --- fit objective ------------------------------------------------------------

@st.composite
def objective_case(draw):
    """A recorded trace with uneven sample intervals, its drive in constant
    runs as in `kernel_case`, and one to four parameter points to replay
    it at in turn, each with or without a source resistance."""
    points = draw(st.lists(st.tuples(device_params(),
                                     st.just(0.0) | st.floats(1.0, 1e5)),
                           min_size=1, max_size=4))
    v = draw(constant_runs(points[0][0], 6, 40))
    n = len(v)
    assume(n >= 2)
    steps = draw(st.lists(st.floats(1e-5, 0.1), min_size=n - 1, max_size=n - 1))
    i = draw(st.lists(st.floats(-1e-3, 1e-3, **finite), min_size=n, max_size=n))
    assume(sum(x * x for x in v) > 0.0 and sum(x * x for x in i) > 0.0)
    drive = IVTrace(np.concatenate([[0.0], np.cumsum(steps)]), np.array(v),
                    np.array(i))
    return drive, points


@settings(max_examples=100, deadline=None)
@given(objective_case())
def test_objective_matches_docstring_formula(case):
    # rmse = sqrt((sum (dv)^2 / sum v_r^2 + sum (di)^2 / sum i_r^2) / N),
    # the model read off the oracle's states from the fully reset w_on.
    # One trace serves every parameter point, as in a fit: what it caches
    # on the first replay must not leak into the next
    drive, points = case
    volts, amps = drive.v.tolist(), drive.i.tolist()
    for params, source in points:
        model = simulate_current(params, drive, source_r_ohm=source)
        got = rmse(model, drive)

        ws = fold(params, volts[:-1], np.diff(drive.t).tolist(), params.w_on,
                  source)
        rs = [resistance(params, w) for w in ws]
        i_model = [v / (r + source) for v, r in zip(volts, rs)]
        v_model = [i * r for i, r in zip(i_model, rs)] if source > 0.0 else volts
        assert np.array_equal(bits64(model.i), bits64(np.array(i_model)))
        assert np.array_equal(bits64(model.v), bits64(np.array(v_model)))
        dv = np.array([(a - b) * (a - b) for a, b in zip(v_model, volts)])
        di = np.array([(a - b) * (a - b) for a, b in zip(i_model, amps)])
        v_norm = np.array([x * x for x in volts])
        i_norm = np.array([x * x for x in amps])
        want = math.sqrt((float(np.sum(dv)) / float(np.sum(v_norm))
                          + float(np.sum(di)) / float(np.sum(i_norm)))
                         / len(volts))
        assert got == want


# --- constant-voltage pulse -------------------------------------------------------

def pulse_steps(max_steps):
    """Step counts from 0, with 0 and 1 drawn often."""
    return st.sampled_from([0, 1]) | st.integers(0, max_steps)


@st.composite
def scalar_pulse_case(draw):
    params = draw(device_params())
    # dt up to 0.1 s with rates up to ~10^3 / s: many pulses saturate in
    # their first steps, others only after thousands
    return (params, draw(start_state(params)), draw(drive_voltage(params)),
            draw(st.floats(1e-6, 0.1)), draw(pulse_steps(3000)))


@st.composite
def block_pulse_case(draw, blocks):
    """A pulse one step short of, at or one step past `blocks` blocks of
    the running sum, driven beyond either threshold with a dt that covers
    0.05 to 1.5 times the distance to the bound it drives toward, so that
    most pulses still move at their last step."""
    params = draw(device_params())
    n_steps = blocks * _FOLD_BLOCK + draw(st.sampled_from([-1, 0, 1]))
    w0 = draw(st.floats(params.w_on, params.w_off))
    v = draw(st.sampled_from([params.v_on, params.v_off])) * draw(st.floats(1.01, 4.0))
    room = params.w_off - w0 if v > 0.0 else w0 - params.w_on
    dt = draw(st.floats(0.05, 1.5)) * (room or 1.0) / (abs(drive_rate(params, v)) * n_steps)
    assume(dt > 0.0)
    return params, w0, v, dt, n_steps


def check_pulse_matches_step_fold(case):
    params, w0, v, dt, n_steps = case
    got = pulse(params, w0, v, dt, n_steps)
    want = fold(params, [v] * n_steps, dt, w0)[-1]
    assert isinstance(got, float)
    assert got == want
    assert resistance(params, got) == resistance(params, want)


@settings(max_examples=100, deadline=None)
@given(scalar_pulse_case())
def test_pulse_matches_step_fold(case):
    check_pulse_matches_step_fold(case)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pulse_matches_step_fold_across_blocks(blocks, data):
    check_pulse_matches_step_fold(data.draw(block_pulse_case(blocks)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [False, True], ids=["scalar", "grid"])
@pytest.mark.parametrize("params, v, dt, n_steps", [
    # dw = 1.5e307 and -2.5e306 per step: the unclamped sum overflows
    # within the first block and carries inf into the next
    (DeviceParams(k_on=1e308), 0.35, 0.1, _FOLD_BLOCK + 1),
    (DeviceParams(k_off=-1e308), -0.2, 0.1, _FOLD_BLOCK + 1),
    # rate * dt is 3e308 and -2.5e308: the increment itself overflows
    (DeviceParams(k_on=1e308), 0.35, 2.0, 1),
    (DeviceParams(k_on=1e308), 0.35, 2.0, 3),
    (DeviceParams(k_off=-1e308), -0.2, 10.0, 3),
], ids=["set-sum", "reset-sum", "set-step-once", "set-step", "reset-step"])
def test_pulse_sum_beyond_float_range_matches_step_fold(params, v, dt, n_steps,
                                                        grid):
    # the clamp maps an infinite state to the bound, silently
    want = fold(params, [v] * n_steps, dt, 0.5)[-1]
    if grid:
        got = pulse(params, np.full((2, 3), 0.5), np.full((2, 3), v), dt, n_steps)
        assert np.array_equal(got, np.full((2, 3), want))
    else:
        assert pulse(params, 0.5, v, dt, n_steps) == want


@st.composite
def grid_pulse_case(draw):
    """Drawn cells mixed, in a drawn order, with one cell of each corner:
    states on w_on, on w_off and between, each under the exact v_on and
    v_off thresholds, a dead-zone voltage and drives beyond both
    thresholds.  Up to 300 steps, 0 and 1 often."""
    params = draw(device_params())
    lo, hi = params.w_on, params.w_off
    corners = [(w, v) for w in (lo, hi, (lo + hi) / 2)
               for v in (params.v_on, params.v_off, 0.0,
                         2.0 * params.v_on, 2.0 * params.v_off)]
    rows = draw(st.integers(1, 4))
    cols = -(-(len(corners) + draw(st.integers(0, 9))) // rows)
    n = rows * cols - len(corners)
    cells = corners + list(zip(
        draw(st.lists(start_state(params), min_size=n, max_size=n)),
        draw(st.lists(drive_voltage(params), min_size=n, max_size=n))))
    w, v = zip(*draw(st.permutations(cells)))
    return (params, np.reshape(w, (rows, cols)), np.reshape(v, (rows, cols)),
            draw(st.floats(1e-5, 0.1)), draw(pulse_steps(300)))


@settings(max_examples=100, deadline=None)
@given(grid_pulse_case())
def test_grid_pulse_matches_cellwise_step_fold(case):
    params, w, v, dt, n_steps = case
    w_before = w.copy()
    got = pulse(params, w, v, dt, n_steps)
    want = np.array([[fold(params, [v[i, j]] * n_steps, dt, w[i, j])[-1]
                      for j in range(w.shape[1])] for i in range(w.shape[0])])
    assert np.array_equal(got, want)
    assert np.array_equal(bits64(w), bits64(w_before))  # input left alone


@st.composite
def shared_pair_grid_case(draw, many, offset):
    """A grid whose cells repeat a pool of (state, voltage) pairs: a few
    drawn pairs (states at the bounds, at either signed zero and between;
    voltages at and across the thresholds), or so many distinct moving
    pairs that a block of the running sum holds only 227 to 252 steps.
    The pulse runs up to 300 steps when `offset` is None, else `offset`
    steps past one block (one to three for the many pairs)."""
    params = draw(device_params())
    lo, hi = params.w_on, params.w_off
    if many:
        # states strictly inside the bounds, each driven beyond a threshold
        n_pairs = 64 + draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        states = lo + (hi - lo) * rng.uniform(0.01, 0.99, n_pairs)
        volts = rng.choice([params.v_on, params.v_off], n_pairs) * rng.uniform(
            1.01, 4.0, n_pairs)
        pool = list(zip(states.tolist(), volts.tolist()))
        assume(len(set(pool)) == n_pairs)
    else:
        state = (st.sampled_from([0.0, -0.0]).filter(lambda x: lo <= x <= hi)
                 | start_state(params))
        pool = draw(st.lists(st.tuples(state, drive_voltage(params)),
                             min_size=1, max_size=4))
    rows = draw(st.integers(1, 6))
    cols = -(-max(len(pool), draw(st.integers(1, 84))) // rows)
    # every pooled pair sits in at least one cell, in a drawn order
    extra = rows * cols - len(pool)
    picks = draw(st.permutations(list(range(len(pool))) + draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=extra, max_size=extra))))
    if offset is None:
        n_steps = draw(st.integers(0, 300))
    else:
        # `pulse` folds each distinct (state, voltage) pair of a movable
        # cell once
        moving = {(w, v) for w, v in pool if (v >= params.v_on and w < hi)
                  or (v <= params.v_off and w > lo)}
        per_block = max(1, _FOLD_BLOCK // max(len(moving), 1))
        blocks = draw(st.integers(1, 3)) if many else 1
        n_steps = blocks * per_block + offset
    # a dt that drives the first pair 0.05 to 1.5 times the state span
    # over the pulse, so that many pairs still move at the last step
    rate = abs(drive_rate(params, pool[0][1])) or 1.0
    dt = draw(st.floats(0.05, 1.5)) * (hi - lo) / (rate * max(n_steps, 1))
    assume(dt > 0.0)
    return params, pool, np.reshape(picks, (rows, cols)), dt, n_steps


def check_shared_pair_grid_pulse(case):
    params, pool, picks, dt, n_steps = case
    w = np.array([pool[k][0] for k in picks.flat]).reshape(picks.shape)
    v = np.array([pool[k][1] for k in picks.flat]).reshape(picks.shape)
    got = pulse(params, w, v, dt, n_steps)
    # the oracle once per pooled pair: a cell's fold depends on its pair only
    ends = [fold(params, [vk] * n_steps, dt, wk)[-1] for wk, vk in pool]
    want = np.array([ends[k] for k in picks.flat]).reshape(picks.shape)
    # equal numbers are equal bits, except that a zero state may differ
    # in sign (see `test_grid_step_matches_scalar_step`)
    assert np.array_equal(got, want)


# one test per step count: hypothesis rarely draws the later entries of
# one sampled list
@pytest.mark.parametrize("offset", [None, -1, 0, 1],
                         ids=["short", "block-1", "block", "block+1"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_grid_pulse_with_shared_pairs_matches_step_fold(offset, data):
    check_shared_pair_grid_pulse(data.draw(shared_pair_grid_case(False, offset)))


@pytest.mark.parametrize("offset", [None, -1, 1], ids=["short", "block-1", "block+1"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_grid_pulse_with_many_pairs_matches_step_fold(offset, data):
    check_shared_pair_grid_pulse(data.draw(shared_pair_grid_case(True, offset)))


def test_grid_pulse_with_more_pairs_than_a_block_matches_step_fold():
    # more distinct moving pairs than a block holds increments: every
    # block is one step long
    params = DeviceParams()
    rng = np.random.default_rng(15)
    n = _FOLD_BLOCK + 7
    w = rng.uniform(0.01, 0.99, n)
    v = rng.choice([0.3, -0.3], n) * rng.uniform(1.0, 2.0, n)
    assert len(set(zip(w.tolist(), v.tolist()))) == n
    got = pulse(params, w, v, 1e-3, 3)
    want = [fold(params, [vk] * 3, 1e-3, wk)[-1]
            for wk, vk in zip(w.tolist(), v.tolist())]
    assert np.array_equal(got, want)


@st.composite
def grid_case(draw):
    """A grid whose cells draw their state and their voltage apart, from a
    pool of states (both bounds, both signed zeros when they lie within
    them, and drawn states) and a small pool of voltages, so that one
    state meets several voltages and one voltage several states."""
    params = draw(device_params())
    lo, hi = params.w_on, params.w_off
    states = [lo, hi] + [z for z in (0.0, -0.0) if lo <= z <= hi] + draw(
        st.lists(st.floats(lo, hi), max_size=3))
    volts = draw(st.lists(drive_voltage(params), min_size=1, max_size=4))
    side = draw(st.integers(1, 6))
    cells = side * side
    w = draw(st.lists(st.sampled_from(states), min_size=cells, max_size=cells))
    v = draw(st.lists(st.sampled_from(volts), min_size=cells, max_size=cells))
    return (params, np.reshape(w, (side, side)), np.reshape(v, (side, side)),
            draw(st.floats(1e-5, 0.1)), draw(pulse_steps(300)))


@settings(max_examples=200, deadline=None)
@given(grid_case())
def test_grid_step_matches_scalar_step(case):
    params, w, v, dt, n_steps = case
    got = pulse(params, w, v, dt, n_steps)
    want = np.array([[fold(params, [v[i, j]] * n_steps, dt, w[i, j])[-1]
                      for j in range(w.shape[1])] for i in range(w.shape[0])])
    # states compare as numbers: clamping to a bound of -0.0 can leave -0.0
    # where the rate window leaves 0.0; every resistance is the same
    assert np.array_equal(got, want)


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1),
       pulses=st.integers(1, 8))
def test_train_pair_matches_scalar_step(alpha, seed, pulses):
    params = DeviceParams(alpha_on=alpha, alpha_off=alpha, k_on=40.0)
    rng = np.random.default_rng(seed)
    inp, teacher = rng.random((6, 6)), rng.random((6, 6))
    cfg = VisionConfig(predicate="abs-diff", tau=0.3, v_max=0.5,
                       pulse_dt=pulses * 1e-3, dt=1e-3)
    fresh = ArrayState(params, np.full((6, 6), params.w_on))
    got = train_pair(fresh, inp, teacher, cfg).w
    # the voltages train_pair derives, rebuilt from the documented formula
    counts = np.array([[np.sum(np.abs(inp - t) <= cfg.tau) for t in row]
                       for row in teacher], dtype=float)
    volts = cfg.v_min + (cfg.v_max - cfg.v_min) * counts / inp.size
    want = np.empty_like(got)
    for (i, j), v in np.ndenumerate(volts):
        want[i, j] = fold(params, [float(v)] * pulses, cfg.dt, params.w_on)[-1]
    assert np.array_equal(got, want)


@st.composite
def classify_case(draw):
    device = draw(device_params())
    dt = draw(st.floats(1e-5, 1e-2))
    cfg = VisionConfig(
        similarity_threshold=draw(st.floats(0.01, 0.99)),
        label_learn_v=device.v_on + draw(st.floats(1e-3, 1.0)),
        label_forget_v=device.v_off - draw(st.floats(1e-3, 1.0)),
        label_pulse_s=dt * draw(st.integers(1, 3000)),
        label_boundary_ohm=(device.r_on * device.r_off) ** 0.5, dt=dt)
    array = ArrayState(device, np.reshape(draw(st.lists(
        start_state(device), min_size=9, max_size=9)), (3, 3)))
    img = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=9,
                                   max_size=9)), (3, 3))
    return array, img, cfg


@settings(max_examples=100, deadline=None)
@given(classify_case())
def test_classify_label_resistance_matches_trajectory(case):
    array, img, cfg = case
    got = classify(array, img, cfg)
    drive = (cfg.label_learn_v if got.score < cfg.similarity_threshold
             else cfg.label_forget_v)
    n = int(round(cfg.label_pulse_s / cfg.dt))
    want = trajectory(array.params, [drive] * n, cfg.dt, array.params.w_on)[-1]
    assert got.label_resistance == want


@st.composite
def binary_case(draw):
    """A threshold and three grids of one shape: input, teacher and state.
    Image cells sit at the threshold, one ULP either side of it, at 0.0,
    -0.0, 1.0 or nan, or anywhere in [0, 1]; state cells at 0.0, -0.0,
    1.0 or anywhere in [0, 1]."""
    threshold = draw(st.sampled_from([0.5, 1e-9, 1.0 - 1e-9])
                     | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    pixels = (st.sampled_from([threshold, math.nextafter(threshold, 0.0),
                               math.nextafter(threshold, 1.0), 0.0, -0.0, 1.0,
                               math.nan])
              | st.floats(0.0, 1.0))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    cells = shape[0] * shape[1]

    def grid(values):
        return np.reshape(draw(st.lists(values, min_size=cells, max_size=cells)),
                          shape)

    state = grid(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0))
    return threshold, grid(pixels), grid(pixels), state


@settings(max_examples=300, deadline=None)
@given(binary_case())
def test_binary_matching_equals_binarize_formulas(case):
    threshold, inp, teacher, state = case
    for scope in ("all-vector", "corresponding"):
        cfg = VisionConfig(binarize_threshold=threshold, scope=scope)
        counts, n = match_counts(inp, teacher, cfg)
        want_counts, want_n = match_counts_binary(inp, teacher, threshold, scope)
        assert n == want_n
        assert np.array_equal(bits64(counts), bits64(want_counts))
    got = similarity(state, inp, threshold)
    want = similarity_of_binarized(state, inp, threshold)
    assert bits64(np.array(got)) == bits64(np.array(want))


@st.composite
def training_case(draw):
    """An array on a drawn device, a binary input and teacher, and a rule
    whose voltages reach past v_on from a v_min at 0 V, at v_off, or
    anywhere from 0.5 V below v_off up to v_on, for 1 to 40 steps."""
    device = draw(device_params())
    side = draw(st.integers(1, 5))
    array = ArrayState(device, np.reshape(draw(st.lists(
        start_state(device), min_size=side * side, max_size=side * side)),
        (side, side)))
    inp, teacher = (np.reshape(draw(st.lists(
        st.sampled_from([0.0, 1.0]), min_size=side * side,
        max_size=side * side)), (side, side)) for _ in range(2))
    dt = draw(st.floats(1e-5, 1e-2))
    cfg = VisionConfig(
        scope=draw(st.sampled_from(["all-vector", "corresponding"])),
        v_min=draw(st.sampled_from([0.0, device.v_off])
                   | st.floats(device.v_off - 0.5, device.v_on)),
        v_max=device.v_on + draw(st.floats(1e-3, 1.0)),
        dt=dt, pulse_dt=dt * draw(st.integers(1, 40)))
    return array, inp, teacher, cfg


@settings(max_examples=200, deadline=None)
@given(training_case())
def test_trained_array_equals_checked_pulse(case):
    array, inp, teacher, cfg = case
    trained = train_pair(array, inp, teacher, cfg)
    volts = modulation_voltages(*match_counts(inp, teacher, cfg), cfg.v_min,
                                cfg.v_max)
    want = pulse(array.params, array.w, volts, cfg.dt,
                 int(round(cfg.pulse_dt / cfg.dt)))
    assert np.array_equal(bits64(trained.w), bits64(want))
    for grid in (trained.w, trained.state):
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.5
    assert trained.state is trained.state
    params = trained.params
    want_state = (params.w_off - trained.w) / (params.w_off - params.w_on)
    assert np.array_equal(bits64(trained.state), bits64(want_state))


# --- CSV images -----------------------------------------------------------------

# cells Python's float() reads (padded, signed, with underscores, in
# non-ASCII digits; several texts of one value, -0 apart from 0), cells
# out of the intensity range, cells it refuses
CSV_CELLS = ["0", "1", "0.5", " 0.25 ", "\t1", "+1", "1e0", "-0", "\u0661",
             "255", "1_0", "0.0", "+0", "1.0"]
CSV_OUT_OF_RANGE = ["256", "-1", "nan", "inf", "1e999"]
CSV_BAD = ["", " ", "oops", "0x1", "1__0", "1 0"]
# one-character cells, which `read_image_csv` reads through its byte table:
# ASCII digits, characters float() refuses (and an empty cell, which ends
# a row "0,1," with commas at odd positions alone), and a non-ASCII digit
# and a doubled comma ("1,,00", as long as three one-character cells),
# which each turn the grid away from the table
CSV_CHARS = list("0123456789")
CSV_BAD_CHARS = [" ", "-", ".", "e", ""]
CSV_OFF_TABLE = ["\u0661", "1,,00"]


@st.composite
def csv_image_text(draw):
    """One to six lines of a common width, joined by LF, CRLF or a lone
    CR: some blank, some of another width, some with a cell that float()
    refuses, or else out of range.  Half the texts hold one-character
    cells, where the last kind is a cell that turns the grid away from
    the byte table instead."""
    one_char = draw(st.booleans())
    pool, bad, other = ((CSV_CHARS, CSV_BAD_CHARS, CSV_OFF_TABLE) if one_char
                        else (CSV_CELLS, CSV_BAD, CSV_OUT_OF_RANGE))
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        n = draw(st.integers(1, 4)) if kind == 1 else width
        cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        if kind in (2, 3):
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
                bad if kind == 2 else other))
        lines.append(",".join(cells))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


def read_outcome(path):
    """`path`'s intensities as raw IEEE bits read by `read_image_csv` and
    by the line-at-a-time reader, or each reader's error message."""
    outcomes = []
    for read in (read_image_csv, read_image_csv_by_line):
        try:
            outcomes.append(bits64(read(path)).tolist())
        except DataError as exc:
            outcomes.append(str(exc))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(csv_image_text())
@example("0,1,\n")           # commas at the odd positions, an empty last cell
@example("1,,00\r1,0,1\r")  # 2n - 1 characters, a comma at an even position
def test_read_image_csv_matches_line_by_line_reader(text):
    # the same intensities, or the same error: bad cell (first line
    # named, blank lines counted), then ragged rows, then range
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img.csv"
        path.write_text(text, newline="")
        outcomes = read_outcome(path)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "data" / "vision").glob("*/*.csv")),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_images_read_as_line_by_line_reader(path):
    outcomes = read_outcome(path)
    assert isinstance(outcomes[0], list) and outcomes[0] == outcomes[1]


def test_seeded_grid_with_crlf_and_blank_lines_reads_as_line_by_line_reader(
        tmp_path):
    grid = np.random.default_rng(0).integers(0, 2, (20, 20))
    rows = [",".join(map(str, row)) for row in grid]
    path = tmp_path / "img.csv"
    path.write_bytes("\r\n".join(rows[:7] + [""] + rows[7:] + ["", ""]).encode())
    outcomes = read_outcome(path)
    assert outcomes[0] == outcomes[1] == bits64(grid.astype(float)).tolist()


# --- chain engine ---------------------------------------------------------------

@st.composite
def windows(draw, duration):
    cuts = sorted(draw(st.lists(st.floats(0.0, duration), max_size=8,
                                unique=True)))
    return tuple((a, b, draw(st.floats(0.2, 1.5)))
                 for a, b in zip(cuts[::2], cuts[1::2]) if b > a)


@st.composite
def chain_case(draw):
    n_stages = draw(st.integers(1, 4))
    dt = 1e-3
    duration = draw(st.integers(2, 200)) * dt
    device = DeviceParams(
        alpha_on=draw(st.floats(0.5, 3.0)), alpha_off=draw(st.floats(0.5, 3.0)),
        k_on=draw(st.floats(1.0, 60.0)), k_off=-draw(st.floats(1.0, 60.0)))
    stages = []
    for k in range(n_stages):
        # stage 1 needs a fixed learning voltage; a higher stage may take one
        learning = st.floats(0.15, 0.6)
        stages.append(StageConfig(
            learning_v=draw(learning if k == 0 else st.none() | learning),
            forgetting_v=draw(st.floats(-0.3, -0.1)),
            natural_forgetting_v=draw(st.floats(-0.3, -0.1)),
            gain=draw(st.floats(0.5, 5.0)),
            v_learn_max=draw(st.floats(0.2, 0.6)),
            state_threshold_v=draw(st.floats(0.03, 0.2))))
    # signals either share one window set (co-pulsed, so higher stages
    # can learn) or draw their own; one ripple runs on every ring
    shared = draw(windows(duration))
    roles = ["food"] + [f"ring{k}" for k in range(1, n_stages + 1)]
    schedule = StimulusSchedule(
        preset="custom", zigzag_amplitude=draw(st.floats(0.0, 0.3)),
        zigzag_frequency=draw(st.floats(20.0, 500.0)),
        segments=tuple((role, draw(st.just(shared) | windows(duration)))
                       for role in roles))
    config = ChainConfig(
        stages=tuple(stages), schedule=schedule,
        duration=duration, device=device, dt=dt,
        logic_threshold=draw(st.floats(0.1, 1.0)),
        readout_amplitude=draw(st.floats(0.0, 0.3)))
    initial = [draw(start_state(device)) for _ in range(n_stages)]
    return config, initial


@settings(max_examples=100, deadline=None)
@given(chain_case())
def test_run_chain_matches_row_at_a_time_engine(case):
    config, initial = case
    trace = run_chain(config, initial)
    levels, want = run_chain_rows(config, initial)
    assert np.array_equal(bits64(trace.signal_levels), bits64(levels))
    for k, stage in enumerate(trace.stages):
        for name in ("mod_v", "r_ohm", "s_v", "resp_v", "p_w"):
            assert np.array_equal(bits64(getattr(stage, name)),
                                  bits64(want[name][k])), (k, name)
        assert [SCHEMES[c] for c in stage.scheme_code] == want["scheme"][k], k


# --- trace writer ---------------------------------------------------------------

# -0.0 beside 0.0, the smallest subnormal, huge and tiny magnitudes, and
# values on both sides of the `.10g` switches to exponent notation (below
# 1e-4 and from 1e10, after rounding to ten digits)
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1e-4,
                  np.nextafter(1e-4, 0.0), 9.99999999949e-05, 9.99999999951e-05,
                  1e10, np.nextafter(1e10, 0.0), 9999999999.4, 9999999999.5,
                  -1e10, 0.1, 1.0, float("nan"), float("inf"), float("-inf"))


@st.composite
def trace_column(draw, n_rows):
    """n_rows values built from runs of one repeated value, cycled; about
    half the columns start with a run of 0.0 and a run of -0.0."""
    runs = draw(st.lists(st.tuples(st.sampled_from(SPECIAL_VALUES) | st.floats(),
                                   st.integers(1, n_rows)), min_size=1, max_size=8))
    if draw(st.booleans()):
        runs = [(0.0, draw(st.integers(1, 4))), (-0.0, draw(st.integers(1, 4)))] + runs
    values, lengths = zip(*runs)
    return np.resize(np.repeat(np.array(values, dtype=float), lengths), n_rows)


@st.composite
def writer_case(draw):
    """(trace, chunk rows, CPUs the writer sees): one row short of, at and
    one row past one to three chunks, written by one, two, three or more
    processes than there are chunks."""
    chunk_rows = draw(st.sampled_from([5, _TRACE_CHUNK_ROWS]))
    n_chunks = draw(st.integers(1, 3))
    n_rows = n_chunks * chunk_rows + draw(st.sampled_from([-1, 0, 1]))
    cpus = draw(st.sampled_from([1, 2, 3, n_chunks + 2]))
    n_stages = draw(st.integers(1, 2))
    stages = tuple(StageTrace(
        mod_v=draw(trace_column(n_rows)),
        scheme_code=np.resize(np.array(draw(st.lists(
            st.integers(0, len(SCHEMES) - 1), min_size=1, max_size=8)),
            dtype=np.int8), n_rows),
        r_ohm=draw(trace_column(n_rows)),
        s_v=draw(trace_column(n_rows)), resp_v=draw(trace_column(n_rows)),
        p_w=draw(trace_column(n_rows)), r_on=20e3, reset_r_ohm=50e3)
        for _ in range(n_stages))
    names = ("food",) + tuple(f"ring{k}" for k in range(1, n_stages + 1))
    trace = SimTrace(t=draw(trace_column(n_rows)), dt=1e-4, signal_names=names,
                     signal_levels=np.vstack([draw(trace_column(n_rows))
                                              for _ in names]),
                     stages=stages)
    return trace, chunk_rows, cpus


def row_by_row_csv(trace):
    """The trace CSV written one row at a time, each number formatted on
    its own with `f"{x:.10g}"`."""
    header = ["t_s"] + [f"{name}_v" for name in trace.signal_names]
    columns = [trace.t.tolist()] + trace.signal_levels.tolist()
    for k, stage in enumerate(trace.stages, start=1):
        header += [f"mod{k}_v", f"scheme{k}", f"r{k}_ohm",
                   f"s{k}_v", f"resp{k}_v", f"p{k}_w"]
        columns += [stage.mod_v.tolist(),
                    [SCHEMES[c] for c in stage.scheme_code.tolist()],
                    stage.r_ohm.tolist(), stage.s_v.tolist(),
                    stage.resp_v.tolist(), stage.p_w.tolist()]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(x if isinstance(x, str) else f"{x:.10g}" for x in row))
    return ("\n".join(lines) + "\n").encode()


# no shrink phase: shrinking reruns both 2k-row writers thousands of times
# (minutes); the line-wise compare names the first line that differs
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(writer_case())
def test_trace_csv_matches_row_by_row_writer(case):
    trace, chunk_rows, cpus = case
    real_fork, forks = os.fork, []

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(circuit, "_TRACE_CHUNK_ROWS", chunk_rows), \
            patch.object(_fork, "usable_cpus", lambda: cpus), \
            patch.object(os, "fork", counted_fork):
        path = Path(tmp) / "trace.csv"
        write_sim_trace_csv(trace, path)
        assert [p.name for p in Path(tmp).iterdir()] == ["trace.csv"]
        assert path.read_bytes().split(b"\n") == row_by_row_csv(trace).split(b"\n")
    n_chunks = -(-len(trace.t) // chunk_rows)
    assert len(forks) == min(n_chunks, cpus) - 1
