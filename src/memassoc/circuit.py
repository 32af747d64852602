"""Associative-learning chain: stimuli, truth tables, stage engine.

An N-order chain couples N memristive synaptic stages.  Stage 1 associates
the unconditioned `food` signal with `ring1`; each higher stage k links
`ring(k)` to the already-learned `ring(k-1)`, gated by the previous stage's
state signal.

A `StimulusSchedule` is the config's [schedule] section as written: a
reference preset (`pavlov1` to `pavlov3`: food and ring pulses pair, part
and join again for first- to third-order conditioning, over a reference
run length) or `custom` windows per role.  Each signal is a train of
square pulses over half-open windows [start, end).  Ring signals carry a
triangular ripple on their level; the ripple amplitude stays well below
the logic threshold margin, so detection is unaffected.

Engine, one stage at a time.  The key observation: a stage's modulation
voltage never depends on its own state.  It is a function of the logic
bits and the previous stage's post-step state signal S = r_f / M, and that
stage has already run over the whole time grid.  So `run_chain`:

1. samples all signal levels on the grid and derives the logic bits;
2. reads each row's scheme from one fixed 8-row truth table, indexed by
   the row's (gate bit, ring(k-1) bit, ring(k) bit) read as a binary
   number, the gate bit being the previous stage's S >= threshold over
   its whole S column.  Stage 1 reads the food signal as ring 0, and its
   gate is always asserted, so it reads the table's second half;
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
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Sequence, TextIO

import numpy as np

from .device import DeviceParams, trajectory
from .errors import DataError, InvalidInputError, require

__all__ = [
    "SCHEME_LEARNING",
    "SCHEME_FORGETTING",
    "SCHEME_NATURAL",
    "SCHEMES",
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
]

SCHEME_LEARNING = "learning"
SCHEME_FORGETTING = "forgetting"
SCHEME_NATURAL = "natural_forgetting"

MAX_ROWS = 10_000_000          # trace rows per run, about 2 GB of trace CSV


# --- stimulus schedules ------------------------------------------------------

# Reference training cadence: 50 ms pulses with 50 ms gaps from t = 0; the
# window [0.62, 0.67) s presents ring 1 alone (active forgetting probe);
# pairing resumes and runs through 0.97 s.  Higher-order pairing windows
# then follow on a 75 ms cadence (50 ms on / 25 ms off), each phase joining
# the next ring while keeping every earlier signal co-pulsed so that no
# earlier stage is pushed into active forgetting while a later stage learns.
_BASE_WINDOWS = [(0.0, 0.05), (0.1, 0.15), (0.2, 0.25), (0.3, 0.35),
                 (0.4, 0.45), (0.5, 0.55)]
_FOOD_SOLO_GAP = (0.6, 0.62)   # food drops out here: ring 1 continues alone
_RING1_BRIDGE = (0.6, 0.67)
_LATE_WINDOWS = [(0.7, 0.75), (0.8, 0.85), (0.9, 0.97)]
_PAIR_SLOTS = [(0.995, 1.045), (1.07, 1.12), (1.145, 1.195), (1.22, 1.27)]
_SECOND_ORDER_START = 0.92     # ring 2 joins inside the (0.9, 0.97) window

# Reference preset -> (conditioning order, run length in s, pair slots every
# signal joins); `custom` takes its windows from the schedule's segments.
_REFERENCE_RUNS = {"pavlov1": (1, 1.5, 0), "pavlov2": (2, 1.7, 3),
                   "pavlov3": (3, 1.8, 4)}
_PRESETS = (*_REFERENCE_RUNS, "custom")

Window = tuple[float, float, float]  # (start, end, level) over [start, end)


@dataclass(frozen=True)
class StimulusSchedule:
    """The stimulus signals by role: a reference preset's windows at
    `high_level`, or with `preset = "custom"` the windows `segments` lists.

    `segments` holds (role, windows) pairs, kept sorted by role.  A window
    (start, end, level) holds its signal at `level` over the half-open
    [start, end).  `ring*` roles carry the triangle ripple on their level;
    `food` carries none.  A role's windows may not overlap.
    """

    preset: str = "pavlov1"
    high_level: float = 1.0          # V, stimulus high level
    zigzag_amplitude: float = 0.1    # V, ripple on ring highs
    zigzag_frequency: float = 100.0  # Hz
    segments: tuple[tuple[str, tuple[Window, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.preset not in _PRESETS:
            raise InvalidInputError(f"preset must be one of {', '.join(_PRESETS)}; "
                                    f"got {self.preset!r}")
        if self.segments and self.preset != "custom":
            raise InvalidInputError(f"signal {self.segments[0][0]!r}: segment lists "
                                    "are only valid with preset = custom")
        require(self, ("high_level", 0.0 < self.high_level < math.inf,
                       "be positive and finite"),
                ("zigzag_amplitude", 0.0 <= self.zigzag_amplitude < math.inf,
                 "be finite and >= 0"),
                ("zigzag_frequency", 0.0 < self.zigzag_frequency < math.inf,
                 "be positive and finite"))
        object.__setattr__(self, "segments", tuple(sorted(self.segments)))
        roles = [role for role, _ in self.segments]
        if len(set(roles)) < len(roles):
            raise InvalidInputError(f"segments list a role twice: {roles}")
        for role, windows in self.segments:
            for window in windows:
                if not all(map(math.isfinite, window)):
                    raise InvalidInputError(f"signal {role!r}: segment (start, end, "
                                            f"level) must be finite, got {window!r}")
                if not 0.0 <= window[0] < window[1]:
                    raise InvalidInputError(
                        f"signal {role!r}: segment needs 0 <= start < end, "
                        f"got [{window[0]!r}, {window[1]!r})")
        for role, windows in self.windows.items():
            for (a, a_end, _), (b, b_end, _) in zip(windows, windows[1:]):
                if b < a_end:
                    raise InvalidInputError(f"signal {role!r}: segments [{a}, {a_end}) "
                                            f"and [{b}, {b_end}) overlap")

    @cached_property
    def windows(self) -> dict[str, tuple[Window, ...]]:
        """Each role's windows in start order."""
        if self.preset == "custom":
            return {role: tuple(sorted(windows, key=lambda w: w[0]))
                    for role, windows in self.segments}
        order, _, n_slots = _REFERENCE_RUNS[self.preset]
        slots = _PAIR_SLOTS[:n_slots]
        spans = {"food": _BASE_WINDOWS + [_FOOD_SOLO_GAP] + _LATE_WINDOWS + slots,
                 "ring1": _BASE_WINDOWS + [_RING1_BRIDGE] + _LATE_WINDOWS + slots,
                 "ring2": [(_SECOND_ORDER_START, _LATE_WINDOWS[-1][1])] + slots,
                 "ring3": _PAIR_SLOTS[2:4]}
        return {role: tuple((a, b, self.high_level) for a, b in spans[role])
                for role in list(spans)[:order + 1]}

    @property
    def default_duration(self) -> float | None:
        """The preset's reference run length in s; None for `custom`."""
        return None if self.preset == "custom" else _REFERENCE_RUNS[self.preset][1]


def _sample_signal_array(schedule: StimulusSchedule, role: str,
                         t: np.ndarray) -> np.ndarray:
    """Level of `role`'s signal at each time in t: its window's level, on a
    `ring*` role plus a triangle ripple (0, +1, 0, -1 per period from the
    window start), 0 outside every window.  t must be sorted."""
    out = np.zeros_like(t)
    ripple = role.startswith("ring") and schedule.zigzag_amplitude > 0.0
    for start, end, level in schedule.windows[role]:
        i, j = np.searchsorted(t, (start, end))
        out[i:j] = level
        if ripple:
            phase = (t[i:j] - start) * schedule.zigzag_frequency
            p = phase - np.floor(phase)
            tri = np.where(p < 0.25, 4.0 * p,
                           np.where(p < 0.75, 2.0 - 4.0 * p, 4.0 * p - 4.0))
            out[i:j] += schedule.zigzag_amplitude * tri
    return out


# The modulation truth table: the scheme code of each logic pattern
# (gate, ring(k-1), ring(k)), indexed by the pattern read as a binary
# number, first bit most significant.  The codes index `SCHEMES`.
SCHEMES = (SCHEME_NATURAL, SCHEME_FORGETTING, SCHEME_LEARNING)
_NATURAL, _FORGETTING, _LEARNING = range(len(SCHEMES))
# Learning needs the new stimulus, the previously learned one and an
# asserted gate; the new stimulus without its predecessor actively forgets;
# the rest decays.  Stage 1's gate is always asserted and its ring 0 is
# food, so its second half reads: coincidence learns, ring 1 alone forgets.
_TRUTH_TABLE = np.array([_NATURAL, _FORGETTING, _NATURAL, _NATURAL,
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
    r_f: float = 5e3                         # ohm, feedback resistance
    gain: float = 1.8                        # adjusted-voltage gain
    v_learn_max: float = 0.47                # V, adjusted-voltage clamp
    state_threshold_v: float = 0.1           # V, previous stage's S that asserts "learned"

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
    stage runs on `device`.  `duration` None runs for the schedule's
    reference length (`run_length`)."""

    stages: tuple[StageConfig, ...] = (FIRST_STAGE,)
    schedule: StimulusSchedule = field(default_factory=StimulusSchedule)
    duration: float | None = None
    device: DeviceParams = field(default_factory=DeviceParams)
    dt: float = 1e-4
    logic_threshold: float = 0.5     # V, stimulus presence threshold
    readout_amplitude: float = 0.1   # V, sub-threshold readout amplitude

    def __post_init__(self) -> None:
        if len(self.stages) < 1:
            raise InvalidInputError("chain needs at least one stage")
        require(self, ("dt", 0.0 < self.dt < math.inf, "be positive and finite"))
        duration = self.run_length
        if not isinstance(duration, (int, float)):
            raise InvalidInputError(
                f"duration must be a number of seconds, got {duration!r}")
        if not self.dt <= duration < math.inf:
            raise InvalidInputError(
                f"duration must be finite and cover at least one step of dt, "
                f"got duration={duration!r}, dt={self.dt!r}")
        # run_chain records round(duration / dt) + 1 rows
        if not duration / self.dt < MAX_ROWS - 0.5:
            raise InvalidInputError(
                f"dt must leave at most {MAX_ROWS} trace rows over "
                f"duration={duration!r}, got dt={self.dt!r}")
        require(self, ("logic_threshold", 0.0 < self.logic_threshold < math.inf,
                       "be positive and finite"),
                ("readout_amplitude", 0.0 <= self.readout_amplitude < math.inf,
                 "be finite and >= 0"))
        needed = self.signal_names()
        roles = set(self.schedule.windows)
        if roles != set(needed):
            raise InvalidInputError(
                f"schedule roles {sorted(roles)} must be exactly {list(needed)}")
        if self.stages[0].learning_v is None:
            raise InvalidInputError("stage 1 needs a fixed learning_v: it has no "
                                    "previous stage to adjust a voltage from")

    @property
    def run_length(self) -> float | None:
        """Run length in s: `duration`, else the schedule's reference length."""
        return self.schedule.default_duration if self.duration is None else self.duration

    def signal_names(self) -> tuple[str, ...]:
        return ("food",) + tuple(f"ring{k}" for k in range(1, len(self.stages) + 1))


@dataclass(frozen=True, eq=False)
class StageTrace:
    """Per-stage recorded columns plus the constants metrics needs.

    The scheme column is stored as int8 codes into `SCHEMES`.  A trace
    compares by identity and hashes by `id` (`eq=False`): an array field has
    no single truth value to compare by.
    """

    mod_v: np.ndarray
    scheme_code: np.ndarray
    r_ohm: np.ndarray
    s_v: np.ndarray
    resp_v: np.ndarray
    p_w: np.ndarray
    r_on: float
    reset_r_ohm: float

    def in_scheme(self, name: str) -> np.ndarray:
        """Boolean mask of the rows run under scheme `name`."""
        return self.scheme_code == SCHEMES.index(name)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Column-oriented chain simulation record on a uniform time grid; it
    compares by identity and hashes by `id`, as `StageTrace` does."""

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

    n_rows = int(round(config.run_length / config.dt)) + 1
    t = np.arange(n_rows) * config.dt
    names = config.signal_names()
    levels = np.vstack([_sample_signal_array(config.schedule, name, t)
                        for name in names])
    bits = (levels >= config.logic_threshold).astype(np.int8)

    readout = config.readout_amplitude
    stage_traces: list[StageTrace] = []
    for k, stage in enumerate(config.stages):
        # stage 1's gate is always asserted, so it reads the table's second
        # half; its learning_v is fixed, so nothing reads its s_prev
        s_prev = stage_traces[-1].s_v if k else math.inf
        code = _TRUTH_TABLE[(s_prev >= stage.state_threshold_v) * 4
                            + bits[k] * 2 + bits[k + 1]]
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
            mod_v=mod_v, scheme_code=code, **columns, r_on=device.r_on,
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
        crossed = np.nonzero(stage.r_ohm <= threshold)[0]
        if crossed.size:
            learning = stage.in_scheme(SCHEME_LEARNING)[:crossed[0] + 1]
            st = float(np.count_nonzero(learning) * trace.dt)
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
    about as long as the whole write.  The child never returns: it leaves
    through `os._exit`, which skips the parent's buffers and exit handlers,
    with status 0 once its part is flushed and 1 on any error.
    """
    # Python 3.12+ warns that forking a process with several threads may
    # deadlock the child.  Importing numpy starts an OpenBLAS worker thread,
    # so the warning would fire on every write.  The child runs only Python
    # formatting and file writes, no BLAS, and the package starts no thread
    # of its own, so the child needs no lock another thread could hold.
    # That one warning is ignored here, and nothing else.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of "
            r"fork\(\) may lead to deadlocks", DeprecationWarning)
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
        columns += [(stage.mod_v, None), (stage.scheme_code, SCHEMES),
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
