"""Row-at-a-time reference model: the oracle for the shipped kernels.

Each function is the plain-float, one-step-at-a-time form of the model in
`memassoc.device` and `memassoc.circuit`, written from the formulas in
their docstrings.  The property tests check `trajectory`, `pulse` and
`run_chain` (its signal sampler included) against these bit for bit,
`errors.split_lines` against the regex split, the vision matching and
scoring against the float-grid formulas built on `binarize`, and
`vision.read_image_csv` against the line-at-a-time reader at the end;
the package never calls them.
"""

from __future__ import annotations

import math
import re

import numpy as np

from memassoc.device import resistance
from memassoc.errors import DataError, InvalidInputError


def drift_rate(params, w, v):
    """dw/dt in 1/s at state w under voltage v: the power law beyond either
    threshold, zero in the dead zone and at the bound the drive pushes
    toward (rectangular window)."""
    if v >= params.v_on and w < params.w_off:
        return params.k_on * (v / params.v_on - 1.0) ** params.alpha_on
    if v <= params.v_off and w > params.w_on:
        return params.k_off * (v / params.v_off - 1.0) ** params.alpha_off
    return 0.0


def step(params, w, v, dt):
    """State after one explicit-Euler step of dt seconds, clamped to
    [w_on, w_off]."""
    return min(max(w + dt * drift_rate(params, w, v), params.w_on), params.w_off)


def fold(params, volts, dt, w0, source_r_ohm=0.0):
    """States before the first and after each `step` over `volts`.

    dt is one float for every step or a list with one per step.  With a
    positive `source_r_ohm`, step k drives the device with
    v[k] / (R + source_r_ohm) * R, R read before the step.
    """
    dts = dt if isinstance(dt, list) else [dt] * len(volts)
    ws = [w0]
    for v, h in zip(volts, dts):
        if source_r_ohm > 0.0:
            r = resistance(params, ws[-1])
            v = v / (r + source_r_ohm) * r
        ws.append(step(params, ws[-1], v, h))
    return ws


def sample_signal(schedule, signal, t):
    """Level of `signal` at time t: its window's level, on a `ring*` signal
    plus the schedule's triangle ripple (0 -> +1 -> 0 -> -1 -> 0 per period,
    phase-locked to the window start), 0 outside every window."""
    amplitude = schedule.zigzag_amplitude if signal.startswith("ring") else 0.0
    for start, end, level in schedule.windows[signal]:
        if start <= t < end:
            if amplitude == 0.0:
                return level
            phase = (t - start) * schedule.zigzag_frequency
            p = phase - math.floor(phase)
            tri = 4.0 * p if p < 0.25 else 2.0 - 4.0 * p if p < 0.75 else 4.0 * p - 4.0
            return level + amplitude * tri
    return 0.0


# The modulation truth tables as (bits, scheme) rows, None a wildcard:
# stage 1 over (food, ring1), stage k over (previous state, ring(k-1),
# ring(k)).  Exactly one row matches each pattern.
FIRST_ORDER_TABLE = (((1, 1), "learning"), ((0, 1), "forgetting"),
                     ((None, 0), "natural_forgetting"))
HIGHER_ORDER_TABLE = (((1, 1, 1), "learning"), ((0, 1, 1), "natural_forgetting"),
                      ((None, 0, 1), "forgetting"),
                      ((None, None, 0), "natural_forgetting"))


def select(stage, bits, v_adjusted=None):
    """(scheme, voltage) of the table row that matches `bits`: the
    first-order table for two bits, the higher-order one for three.  The
    voltage is the stage's for that scheme; a learning row of a stage
    without a fixed `learning_v` takes `v_adjusted`."""
    table = FIRST_ORDER_TABLE if len(bits) == 2 else HIGHER_ORDER_TABLE
    (scheme,) = [scheme for pattern, scheme in table
                 if all(p is None or p == b for p, b in zip(pattern, bits))]
    voltage = {"learning": stage.learning_v, "forgetting": stage.forgetting_v,
               "natural_forgetting": stage.natural_forgetting_v}[scheme]
    return scheme, v_adjusted if voltage is None else voltage


def run_chain_rows(config, initial_states):
    """The chain stepped one row at a time: per row, sample every signal,
    then let every stage select its table row and take one `step`.

    Returns the signal levels, shape (n_signals, n_rows), and per column
    name of `StageTrace` one list per stage, with scheme names in place of
    scheme codes.
    """
    n_rows = int(round(config.run_length / config.dt)) + 1
    names = config.signal_names()
    levels = np.empty((len(names), n_rows))
    cols = {name: [[] for _ in config.stages]
            for name in ("mod_v", "scheme", "r_ohm", "s_v", "resp_v", "p_w")}
    ws = list(initial_states)
    for i in range(n_rows):
        levels[:, i] = [sample_signal(config.schedule, name, i * config.dt)
                        for name in names]
        bits = [int(x >= config.logic_threshold) for x in levels[:, i]]
        s_prev = 0.0
        for k, stage in enumerate(config.stages):
            if k == 0:
                scheme, v = select(stage, bits[:2])
            else:
                v_adj = min(max(stage.gain * s_prev, 0.0), stage.v_learn_max)
                key = (int(s_prev >= stage.state_threshold_v), bits[k], bits[k + 1])
                scheme, v = select(stage, key, v_adj)
            ws[k] = step(config.device, ws[k], v, config.dt)
            r = resistance(config.device, ws[k])
            s_prev = stage.r_f / r
            resp = -config.readout_amplitude * stage.r_f / r if bits[k + 1] else 0.0
            for name, x in zip(cols, (v, scheme, r, s_prev, resp, v * v / r)):
                cols[name][k].append(x)
    return levels, cols


def read_image_csv(path):
    """A CSV image parsed one line and one cell at a time with float():
    lines broken at CR, LF and CRLF (universal newlines), blank lines
    skipped but counted, the first bad cell's line named, then the
    ragged-row check, then 8-bit intensities scaled to [0, 1]."""
    rows = []
    for ln, line in enumerate(path.read_text().split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise DataError(f"{path.name}:{ln}: {exc}") from exc
    if not rows:
        raise DataError(f"{path.name}: empty image")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path.name}: ragged rows (widths {sorted(widths)})")
    raw = np.array(rows, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise DataError(f"{path.name}: image entries must be finite and non-empty")
    if raw.min() < 0.0:
        raise DataError(f"{path.name}: negative intensity {float(raw.min())!r}")
    if raw.max() > 1.0:
        if raw.max() > 255.0:
            raise DataError(
                f"{path.name}: intensity {float(raw.max())!r} exceeds 255")
        return raw / 255.0
    return raw


def split_lines(text):
    """`text` split at CR, LF and CRLF by one regex, CRLF tried first."""
    return re.split(r"\r\n|\r|\n", text)


def binarize(img, threshold=0.5):
    """Intensities mapped to {0.0, 1.0} by >= threshold, as a float grid."""
    if not 0.0 < threshold < 1.0:
        raise InvalidInputError(f"threshold must lie in (0,1), got {threshold!r}")
    return (np.asarray(img, dtype=float) >= threshold).astype(float)


def match_counts_binary(input_img, teacher_img, threshold, scope):
    """Match counts and scope size of the equal-binary predicate on the
    `binarize` grids: position-wise equality under `corresponding` scope,
    else per teacher pixel the input entries equal to it."""
    inp, tea = binarize(input_img, threshold), binarize(teacher_img, threshold)
    if scope == "corresponding":
        return (inp == tea).astype(float), 1
    ones = float(np.sum(inp == 1.0))
    return np.where(tea == 1.0, ones, inp.size - ones), inp.size


def similarity(state, img, threshold=0.5):
    """Mean squared difference between the state grid and 1 - binarize(img)."""
    return float(np.mean((np.asarray(state, dtype=float)
                          - (1.0 - binarize(img, threshold))) ** 2))
