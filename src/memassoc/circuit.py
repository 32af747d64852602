"""Associative-learning chain: stimuli, truth tables, stage engine.

An N-order chain couples N memristive synaptic stages.  Stage 1 associates
the unconditioned `food` signal with `ring1`; each higher stage k links
`ring(k)` to the already-learned `ring(k-1)`, gated by the previous stage's
state signal.

Signals are square pulses described by half-open segments [start, end).
Ring signals carry a triangular ripple on their high level; the ripple
amplitude stays well below the logic threshold margin, so detection is
unaffected.

Engine, one stage at a time.  The key observation: a stage's modulation
voltage never depends on its own state.  It is a function of the logic
bits and the previous stage's post-step state signal S = r_f / M, and that
stage has already run over the whole time grid.  So `run_chain`:

1. samples all signal levels on the grid and derives the logic bits;
2. reads each row's scheme from a fixed truth table, indexed by the row's
   logic pattern read as a binary number: stage 1 from the 4-row table
   over the (food, ring1) bits, stage k >= 2 from the 8-row table over
   (state bit, ring(k-1) bit, ring(k) bit), the state bit being the
   previous stage's S >= threshold over its whole S column;
3. gives each scheme the stage's voltage for it: `learning_v`,
   `forgetting_v` or `natural_forgetting_v`.  A higher stage without a
   fixed `learning_v` learns at the adjusted voltage, g * S clamped to
   [0, v_learn_max];
4. runs the stage's device over its voltage column with one
   `device.trajectory` call (the scalar kernel; `pow` stays scalar);
5. derives the state signal, readout response and power columns from the
   resistance column with numpy.  Only + - * / and min/max are
   vectorized, all correctly rounded, so every column is bit-identical to
   stepping the chain row by row.

Schemes stay int8 codes into the stage's scheme names until the trace is
written.  The recorded resistance is the post-step value, which is exactly
the value the next stage's gate saw; the response voltage is the
sub-threshold readout amplitude passed through the inverting stage
whenever the stage's conditioned stimulus is present; power is modulation
voltage squared over the recorded resistance.

Everything here is pure and deterministic: identical configs produce
bit-identical traces.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .device import DeviceParams, trajectory
from .errors import DataError, InvalidInputError, require

__all__ = [
    "SCHEME_LEARNING",
    "SCHEME_FORGETTING",
    "SCHEME_NATURAL",
    "Segment",
    "StimulusSchedule",
    "StageConfig",
    "FIRST_STAGE",
    "ChainConfig",
    "StageTrace",
    "SimTrace",
    "run_chain",
    "metrics",
    "write_sim_trace_csv",
    "write_metrics_report",
    "stimulus_schedule",
    "pavlov_schedule",
    "default_duration",
]

SCHEME_LEARNING = "learning"
SCHEME_FORGETTING = "forgetting"
SCHEME_NATURAL = "natural_forgetting"

DEFAULT_R_F = 5e3             # ohm, feedback resistance of the inverting stage
DEFAULT_STATE_THRESHOLD = 0.1  # V, state-signal level that asserts "learned"
DEFAULT_LOGIC_THRESHOLD = 0.5  # V, stimulus presence threshold
DEFAULT_READOUT_V = 0.1        # V, sub-threshold readout amplitude
DEFAULT_ZIGZAG_AMPLITUDE = 0.1  # V, ripple on ring highs
DEFAULT_ZIGZAG_FREQUENCY = 100.0  # Hz
DEFAULT_HIGH_LEVEL = 1.0       # V, stimulus high level
MAX_ROWS = 10_000_000          # trace rows per run, about 2 GB of trace CSV


@dataclass(frozen=True)
class Segment:
    """Half-open active window [start, end) of one signal."""

    start: float
    end: float
    level: float = DEFAULT_HIGH_LEVEL
    zigzag_amplitude: float = 0.0
    zigzag_frequency: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.start, self.end, self.level,
                self.zigzag_amplitude, self.zigzag_frequency)
        if not all(math.isfinite(x) for x in vals):
            raise InvalidInputError(f"segment fields must be finite: {self!r}")
        if self.start < 0.0 or self.end <= self.start:
            raise InvalidInputError(
                f"segment needs 0 <= start < end, got [{self.start!r}, {self.end!r})")
        if self.zigzag_amplitude < 0.0:
            raise InvalidInputError("zigzag amplitude must be >= 0")
        if self.zigzag_amplitude > 0.0 and self.zigzag_frequency <= 0.0:
            raise InvalidInputError("zigzag ripple needs a positive frequency")


@dataclass(frozen=True)
class StimulusSchedule:
    """Per-signal ordered, non-overlapping segments keyed by role name."""

    signals: dict[str, tuple[Segment, ...]]

    def __post_init__(self) -> None:
        normalized: dict[str, tuple[Segment, ...]] = {}
        for name, segments in self.signals.items():
            segs = tuple(sorted(segments, key=lambda s: s.start))
            for a, b in zip(segs, segs[1:]):
                if b.start < a.end:
                    raise InvalidInputError(
                        f"signal {name!r}: segments [{a.start}, {a.end}) and "
                        f"[{b.start}, {b.end}) overlap")
            normalized[name] = segs
        object.__setattr__(self, "signals", normalized)

    def roles(self) -> tuple[str, ...]:
        return tuple(self.signals)


def _sample_signal_array(schedule: StimulusSchedule, signal: str,
                         t: np.ndarray) -> np.ndarray:
    """Level of `signal` at each time in t: segment level plus a triangle
    ripple (0, +1, 0, -1 per period from the segment start), 0 outside."""
    out = np.zeros_like(t)
    for seg in schedule.signals[signal]:
        mask = (t >= seg.start) & (t < seg.end)
        if not mask.any():
            continue
        level = np.full(int(mask.sum()), seg.level)
        if seg.zigzag_amplitude > 0.0:
            phase = (t[mask] - seg.start) * seg.zigzag_frequency
            p = phase - np.floor(phase)
            tri = np.where(p < 0.25, 4.0 * p,
                           np.where(p < 0.75, 2.0 - 4.0 * p, 4.0 * p - 4.0))
            level = level + seg.zigzag_amplitude * tri
        out[mask] = level
    return out


# Modulation truth tables: the scheme code of each logic pattern, indexed by
# the pattern read as a binary number, first bit most significant.  The
# codes index `_SCHEMES`.
_SCHEMES = (SCHEME_NATURAL, SCHEME_FORGETTING, SCHEME_LEARNING)
_NATURAL, _FORGETTING, _LEARNING = range(len(_SCHEMES))
# Stage 1 over (food, ring1): coincidence learns; the conditioned stimulus
# alone actively forgets; everything else, food alone included, decays.
_FIRST_ORDER = np.array([_NATURAL, _FORGETTING, _NATURAL, _LEARNING], dtype=np.int8)
# Stage k over (previous state, ring(k-1), ring(k)): learning needs the new
# stimulus, the previously learned one and an asserted previous stage; the
# new stimulus without its predecessor actively forgets; the rest decays.
_HIGHER_ORDER = np.array([_NATURAL, _FORGETTING, _NATURAL, _NATURAL,
                          _NATURAL, _FORGETTING, _NATURAL, _LEARNING], dtype=np.int8)


@dataclass(frozen=True)
class StageConfig:
    """One synaptic stage: scheme voltages and analog constants.

    The defaults are a higher stage's; `FIRST_STAGE` holds stage 1's.
    `learning_v` None takes the adjusted voltage clamp(gain * S, 0,
    v_learn_max) from the previous stage's state signal S.
    """

    learning_v: float | None = None          # V, None: the adjusted voltage
    forgetting_v: float = -0.19              # V, active forgetting
    natural_forgetting_v: float = -0.18      # V, natural decay
    r_f: float = DEFAULT_R_F                 # ohm, feedback resistance
    gain: float = 1.8                        # adjusted-voltage gain
    v_learn_max: float = 0.47                # V, adjusted-voltage clamp
    state_threshold_v: float = DEFAULT_STATE_THRESHOLD  # V, on previous stage's S

    def __post_init__(self) -> None:
        # learning sets the device; both forgetting schemes reset it
        require(self, ("learning_v", self.learning_v is None
                       or 0.0 < self.learning_v < math.inf, "be positive and finite"),
                *((name, -math.inf < getattr(self, name) < 0.0, "be negative and finite")
                  for name in ("forgetting_v", "natural_forgetting_v")),
                *((name, 0.0 < getattr(self, name) < math.inf, "be positive and finite")
                  for name in ("r_f", "gain", "v_learn_max", "state_threshold_v")))


FIRST_STAGE = StageConfig(learning_v=0.35, forgetting_v=-0.175,
                          natural_forgetting_v=-0.165)


@dataclass(frozen=True)
class ChainConfig:
    """Full chain description; stage k (1-based) reads `ring(k)`, and every
    stage runs on `device`."""

    stages: tuple[StageConfig, ...]
    schedule: StimulusSchedule
    duration: float
    device: DeviceParams = field(default_factory=DeviceParams)
    dt: float = 1e-4
    logic_threshold: float = DEFAULT_LOGIC_THRESHOLD
    readout_amplitude: float = DEFAULT_READOUT_V

    def __post_init__(self) -> None:
        if len(self.stages) < 1:
            raise InvalidInputError("chain needs at least one stage")
        if not 0.0 < self.dt < math.inf:
            raise InvalidInputError(f"dt must be positive and finite, got {self.dt!r}")
        if not isinstance(self.duration, (int, float)):
            raise InvalidInputError(
                f"duration must be a number of seconds, got {self.duration!r}")
        if not self.dt <= self.duration < math.inf:
            raise InvalidInputError(
                f"duration must be finite and cover at least one step of dt, "
                f"got duration={self.duration!r}, dt={self.dt!r}")
        # run_chain records round(duration / dt) + 1 rows
        if not self.duration / self.dt < MAX_ROWS - 0.5:
            raise InvalidInputError(
                f"dt must leave at most {MAX_ROWS} trace rows over "
                f"duration={self.duration!r}, got dt={self.dt!r}")
        if not 0.0 < self.logic_threshold < math.inf:
            raise InvalidInputError(f"logic threshold must be positive and finite, "
                                    f"got logic_threshold={self.logic_threshold!r}")
        if not 0.0 <= self.readout_amplitude < math.inf:
            raise InvalidInputError(f"readout amplitude must be finite and >= 0, "
                                    f"got readout_amplitude={self.readout_amplitude!r}")
        needed = self.signal_names()
        roles = set(self.schedule.roles())
        if roles != set(needed):
            raise InvalidInputError(
                f"schedule roles {sorted(roles)} must be exactly {list(needed)}")
        if self.stages[0].learning_v is None:
            raise InvalidInputError("stage 1 needs a fixed learning_v: it has no "
                                    "previous stage to adjust a voltage from")

    def signal_names(self) -> tuple[str, ...]:
        return ("food",) + tuple(f"ring{k}" for k in range(1, len(self.stages) + 1))


@dataclass(frozen=True)
class StageTrace:
    """Per-stage recorded columns plus the constants metrics needs.

    The scheme column is stored as int8 codes into `schemes`.
    """

    mod_v: np.ndarray
    scheme_code: np.ndarray
    schemes: tuple[str, ...]
    r_ohm: np.ndarray
    s_v: np.ndarray
    resp_v: np.ndarray
    p_w: np.ndarray
    r_on: float
    reset_r_ohm: float

    def in_scheme(self, name: str) -> np.ndarray:
        """Boolean mask of the rows run under scheme `name`."""
        if name not in self.schemes:
            return np.zeros(self.scheme_code.shape, dtype=bool)
        return self.scheme_code == self.schemes.index(name)


@dataclass(frozen=True)
class SimTrace:
    """Column-oriented chain simulation record on a uniform time grid."""

    t: np.ndarray
    dt: float
    signal_names: tuple[str, ...]
    signal_levels: np.ndarray      # shape (n_signals, n_rows)
    stages: tuple[StageTrace, ...]


def run_chain(config: ChainConfig,
              initial_states: Sequence[float] | None = None) -> SimTrace:
    """Integrate the whole chain on a uniform grid of `dt` steps.

    `initial_states` optionally sets each stage's starting w, within the
    device's [w_on, w_off]; the default is the fully reset state w_on.
    Stages run one after another over the whole grid (see the module
    docstring).  A stage whose drift rate, resistance, state signal,
    response or power leaves the float range raises `DataError` naming
    the stage: whether it does depends on each row's voltage and state.
    """
    n_stages, device = len(config.stages), config.device
    if initial_states is None:
        initial_states = [device.w_on] * n_stages
    if len(initial_states) != n_stages:
        raise InvalidInputError(
            f"need {n_stages} initial states, got {len(initial_states)}")
    lo, hi = device.w_on, device.w_off
    for k, w in enumerate(initial_states, start=1):
        if not lo <= w <= hi:
            raise InvalidInputError(
                f"initial states must lie within the device bounds: stage {k} "
                f"starts at {w!r}, outside [{lo!r}, {hi!r}]")

    n_rows = int(round(config.duration / config.dt)) + 1
    t = np.arange(n_rows) * config.dt
    names = config.signal_names()
    levels = np.vstack([_sample_signal_array(config.schedule, name, t)
                        for name in names])
    bits = (levels >= config.logic_threshold).astype(np.int8)

    readout = config.readout_amplitude
    stage_traces: list[StageTrace] = []
    for k, stage in enumerate(config.stages):
        if k == 0:
            code = _FIRST_ORDER[bits[0] * 2 + bits[1]]
        else:
            s_prev = stage_traces[-1].s_v
            state_bit = s_prev >= stage.state_threshold_v
            code = _HIGHER_ORDER[state_bit * 4 + bits[k] * 2 + bits[k + 1]]
        # per scheme code; without a fixed learning_v the adjusted voltage
        # fills the learning rows
        mod_v = np.array([stage.natural_forgetting_v, stage.forgetting_v,
                          stage.learning_v or 0.0])[code]
        if stage.learning_v is None:
            v_adj = np.minimum(np.maximum(stage.gain * s_prev, 0.0),
                               stage.v_learn_max)
            mod_v = np.where(code == _LEARNING, v_adj, mod_v)
        try:
            r = np.array(trajectory(device, mod_v, config.dt,
                                    initial_states[k]))[1:]
        except OverflowError as exc:
            raise DataError(f"stage {k + 1}: the device's drift rate is beyond "
                            "the float range") from exc
        # a column beyond the float range fails the run below, not numpy
        with np.errstate(over="ignore", divide="ignore"):
            columns = {"r_ohm": r, "s_v": stage.r_f / r,
                       "resp_v": np.where(bits[k + 1] != 0,
                                          -readout * stage.r_f / r, 0.0),
                       "p_w": mod_v * mod_v / r}
        for name, column in columns.items():
            finite = np.isfinite(column)
            if not finite.all():
                row = int(np.argmin(finite))
                raise DataError(f"stage {k + 1}: {name} is {float(column[row])!r} "
                                f"at t = {float(t[row])!r} s, beyond the float range")
        stage_traces.append(StageTrace(
            mod_v=mod_v, scheme_code=code, schemes=_SCHEMES,
            **columns, r_on=device.r_on,
            reset_r_ohm=stage.r_f / stage.state_threshold_v))
    return SimTrace(t=t, dt=config.dt, signal_names=names,
                    signal_levels=levels, stages=tuple(stage_traces))


def metrics(trace: SimTrace) -> dict[str, float]:
    """Summary metrics of a chain trace.

    Per stage k:
      stageK.switch_time_s   accumulated learning-scheme time until the
                             resistance first reaches within 1% of r_on
                             (absent when the stage never switches);
      stageK.peak_power_w    maximum instantaneous power;
      stageK.reset_time_s    time from the end of the last stimulus until
                             the resistance climbs back to the learned-state
                             boundary r_f / state_threshold (absent when the
                             stage was not set at stimulus end, or never
                             recovers within the trace).
    Between stages: chain.speedup_K_(K+1) = switch_time K / switch_time K+1.
    """
    report: dict[str, float] = {}
    any_active = trace.signal_levels.max(axis=0) > 0.0
    last_stim = int(np.nonzero(any_active)[0][-1]) if any_active.any() else None

    switch_times: dict[int, float] = {}
    for k, stage in enumerate(trace.stages, start=1):
        threshold = stage.r_on * 1.01
        learning = stage.in_scheme(SCHEME_LEARNING)
        accumulated = np.cumsum(learning.astype(float)) * trace.dt
        crossed = np.nonzero(stage.r_ohm <= threshold)[0]
        if crossed.size:
            st = float(accumulated[crossed[0]])
            switch_times[k] = st
            report[f"stage{k}.switch_time_s"] = st
        report[f"stage{k}.peak_power_w"] = float(stage.p_w.max())
        if last_stim is not None and stage.r_ohm[last_stim] < stage.reset_r_ohm:
            after = stage.r_ohm[last_stim:]
            recovered = np.nonzero(after >= stage.reset_r_ohm)[0]
            if recovered.size:
                report[f"stage{k}.reset_time_s"] = float(recovered[0]) * trace.dt
    for k in range(1, len(trace.stages)):
        if k in switch_times and k + 1 in switch_times:
            report[f"chain.speedup_{k}_{k + 1}"] = (
                switch_times[k] / switch_times[k + 1])
    return report


# Rows formatted per write; bounds the formatted text each writer process
# holds.  The chunks are shared among up to one process per usable CPU, and
# the bytes written do not depend on how many.
_TRACE_CHUNK_ROWS = 2048


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _format_cells(values: np.ndarray) -> list[str]:
    """`.10g` text of each value, formatting each distinct bit pattern once.

    Values are told apart by their bits, so -0.0 keeps its own "-0".
    """
    bits, inverse = np.unique(values.astype(np.float64, copy=False).view(np.int64),
                              return_inverse=True)
    text = ("%.10g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(text, dtype=object)[inverse].tolist()


def _write_chunks(fh: TextIO,
                  columns: list[tuple[np.ndarray, tuple[str, ...] | None]],
                  starts: range) -> None:
    """Write the rows of the chunks that begin at `starts`."""
    for start in starts:
        chunk = slice(start, start + _TRACE_CHUNK_ROWS)
        cells = [_format_cells(col[chunk]) if names is None
                 else [names[c] for c in col[chunk].tolist()]
                 for col, names in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _fork_part_writer(columns: list[tuple[np.ndarray, tuple[str, ...] | None]],
                      starts: range, part: BinaryIO) -> int:
    """Fork a process that writes the chunks at `starts` into `part`; its pid.

    A forked child shares the columns without copying or pickling them and
    starts at once; a spawned one would first import numpy, which takes
    about as long as the whole write.  The caller runs no other threads
    (the CLI runs none), so the child holds no lock another thread took.
    The child never returns: it leaves through `os._exit`, which skips the
    parent's buffers and exit handlers, with status 0 once its part is
    flushed and 1 on any error.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part.fileno(), "w", newline="", closefd=False) as fh:
            _write_chunks(fh, columns, starts)
        status = 0
    except BaseException as exc:  # reported here, re-raised as the exit status
        os.write(2, f"trace writer process: {exc!r}\n".encode())
    finally:
        os._exit(status)


def write_sim_trace_csv(trace: SimTrace, path: str | Path) -> None:
    """Emit the trace with one row per step.

    Header: t_s, one level column per signal, then per stage K the block
    modK_v, schemeK, rK_ohm, sK_v, respK_v, pK_w.  Numbers are written
    as `.10g`.  Rows are formatted column by column in chunks of
    `_TRACE_CHUNK_ROWS`, and within a chunk each distinct bit pattern of
    a column is formatted once.

    The chunks are split into up to one contiguous range per usable CPU.
    This process writes the first range straight into `path`; a forked
    process formats each other range into an anonymous temporary file in
    the same directory, which is appended in order once that process has
    exited.  The bytes do not depend on the number of processes, and are
    identical to formatting every cell with `f"{x:.10g}"`.  A writer
    process that fails raises `OSError`; no writer process outlives the
    call.
    """
    header = ["t_s"] + [f"{name}_v" for name in trace.signal_names]
    # (column, scheme names when the column holds scheme codes)
    columns: list[tuple[np.ndarray, tuple[str, ...] | None]] = [(trace.t, None)]
    columns += [(levels, None) for levels in trace.signal_levels]
    for k, stage in enumerate(trace.stages, start=1):
        header += [f"mod{k}_v", f"scheme{k}", f"r{k}_ohm",
                   f"s{k}_v", f"resp{k}_v", f"p{k}_w"]
        columns += [(stage.mod_v, None), (stage.scheme_code, stage.schemes),
                    (stage.r_ohm, None), (stage.s_v, None),
                    (stage.resp_v, None), (stage.p_w, None)]
    path = Path(path)
    starts = range(0, len(trace.t), _TRACE_CHUNK_ROWS)
    n_ranges = min(len(starts), _usable_cpus()) or 1
    ranges = [starts[len(starts) * i // n_ranges:len(starts) * (i + 1) // n_ranges]
              for i in range(n_ranges)]
    parts: list[BinaryIO] = []
    pids: list[int] = []  # writer processes not yet reaped, in range order
    try:
        for part_starts in ranges[1:]:
            parts.append(tempfile.TemporaryFile(dir=path.parent))
            pids.append(_fork_part_writer(columns, part_starts, parts[-1]))
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            _write_chunks(fh, columns, ranges[0])
            fh.flush()
            for part in parts:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                pids.pop(0)
                if code != 0:
                    raise OSError(f"trace writer process exited with status {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)  # in 64 KiB blocks
    finally:
        for pid in pids:  # left only when the write failed
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def write_metrics_report(report: dict[str, float], path: str | Path) -> None:
    """Flat key=value lines, stage keys first, then chain ratios."""
    with Path(path).open("w") as fh:
        for key in report:
            fh.write(f"{key}={report[key]:.10g}\n")


# --- reference stimulus schedules -----------------------------------------

# Training cadence: 50 ms pulses with 50 ms gaps from t = 0; the window
# [0.62, 0.67) s presents ring 1 alone (active forgetting probe); pairing
# resumes and runs through 0.97 s.  Higher-order pairing windows then
# follow on a 75 ms cadence (50 ms on / 25 ms off), each phase joining the
# next ring while keeping every earlier signal co-pulsed so that no earlier
# stage is pushed into active forgetting while a later stage learns.
_BASE_WINDOWS = [(0.0, 0.05), (0.1, 0.15), (0.2, 0.25), (0.3, 0.35),
                 (0.4, 0.45), (0.5, 0.55)]
_FOOD_SOLO_GAP = (0.6, 0.62)   # food drops out here: ring 1 continues alone
_RING1_BRIDGE = (0.6, 0.67)
_LATE_WINDOWS = [(0.7, 0.75), (0.8, 0.85), (0.9, 0.97)]
_PAIR_SLOTS = [(0.995, 1.045), (1.07, 1.12), (1.145, 1.195), (1.22, 1.27)]
_SECOND_ORDER_START = 0.92     # ring 2 joins inside the (0.9, 0.97) window

# Per reference order: run length (s) and how many pair slots every signal
# joins.
_REFERENCE_RUNS = {1: (1.5, 0), 2: (1.7, 3), 3: (1.8, 4)}


def _reference_run(n_orders: int) -> tuple[float, int]:
    if n_orders not in _REFERENCE_RUNS:
        raise InvalidInputError(
            f"no reference schedule for order {n_orders}; supply segments")
    return _REFERENCE_RUNS[n_orders]


def default_duration(n_orders: int) -> float:
    """Reference run length (s) for `pavlov_schedule(n_orders)`."""
    return _reference_run(n_orders)[0]


def stimulus_schedule(windows: Mapping[str, Iterable[tuple[float, ...]]],
                      high_level: float = DEFAULT_HIGH_LEVEL,
                      zigzag_amplitude: float = DEFAULT_ZIGZAG_AMPLITUDE,
                      zigzag_frequency: float = DEFAULT_ZIGZAG_FREQUENCY,
                      ) -> StimulusSchedule:
    """Schedule from per-role (start, end[, level]) windows.

    A window without a level runs at `high_level`.  `ring*` roles carry the
    zigzag ripple on their level; `food` carries none.
    """
    if not 0.0 < high_level < math.inf:
        raise InvalidInputError(
            f"high_level must be positive and finite, got {high_level!r}")
    if not 0.0 <= zigzag_amplitude < math.inf:
        raise InvalidInputError(
            f"zigzag_amplitude must be finite and >= 0, got {zigzag_amplitude!r}")
    if not 0.0 < zigzag_frequency < math.inf:
        raise InvalidInputError(
            f"zigzag_frequency must be positive and finite, got {zigzag_frequency!r}")
    signals: dict[str, tuple[Segment, ...]] = {}
    for role, role_windows in windows.items():
        ripple = (zigzag_amplitude, zigzag_frequency) if role.startswith("ring") else ()
        try:
            signals[role] = tuple(
                Segment(start, end, level[0] if level else high_level, *ripple)
                for start, end, *level in role_windows)
        except InvalidInputError as exc:
            raise InvalidInputError(f"signal {role!r}: {exc}") from exc
    return StimulusSchedule(signals)


def pavlov_schedule(n_orders: int,
                    high_level: float = DEFAULT_HIGH_LEVEL,
                    zigzag_amplitude: float = DEFAULT_ZIGZAG_AMPLITUDE,
                    zigzag_frequency: float = DEFAULT_ZIGZAG_FREQUENCY,
                    ) -> StimulusSchedule:
    """Reference conditioning schedule for chains of order 1, 2 or 3."""
    n_slots = _reference_run(n_orders)[1]
    shared = _BASE_WINDOWS + [_FOOD_SOLO_GAP] + _LATE_WINDOWS \
        + _PAIR_SLOTS[:n_slots]
    ring1 = _BASE_WINDOWS + [_RING1_BRIDGE] + _LATE_WINDOWS \
        + _PAIR_SLOTS[:n_slots]
    windows = {"food": shared, "ring1": ring1}
    if n_orders >= 2:
        windows["ring2"] = [(_SECOND_ORDER_START, _LATE_WINDOWS[-1][1])] \
            + _PAIR_SLOTS[:n_slots]
    if n_orders >= 3:
        windows["ring3"] = _PAIR_SLOTS[2:4]
    return stimulus_schedule(windows, high_level, zigzag_amplitude,
                             zigzag_frequency)
