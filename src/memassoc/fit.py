"""Device parameter extraction from recorded current traces.

`simulate_current` replays a recorded voltage drive through the device
model and reports the model current sample by sample.  `rmse` scores a
model trace against the recorded one with energy-normalized voltage and
current terms:

    rmse = sqrt((sum (dv)^2 / sum v_r^2 + sum (di)^2 / sum i_r^2) / N)

`fit` minimizes that score with a bound-constrained BFGS search:
central-difference gradients (relative step), Armijo backtracking line
search with halving, magnitudes of scale-like parameters optimized in log
space, thresholds in linear space, and box bounds applied by clamping the
back-transformed parameters.  Accepted objective values are therefore
non-increasing and the whole routine is deterministic.

The fitted vector covers (r_on, r_off, alpha_on, alpha_off, k_on, k_off,
v_on, v_off); the structural state bounds w_on / w_off are taken from the
initial guess and held fixed.  Each objective evaluation restarts the
integration from the fully reset state w = w_on.  `FitConfig.bounds`
builds the box once per fit: a wide multiplicative box around the initial
guess with each edge `FitConfig` sets in place of its default, refused at
the first edge set that misses the start.

The recorded trace is validated once, when it is built, and its columns
are read-only float64 copies.  What the replay and the score derive from
the trace alone is computed on first use and kept on the trace: the step
voltages v[:-1] and step lengths diff(t) as Python float lists, and the
reference energies sum v^2 and sum i^2.  The columns cannot change, so
these cannot go stale, and a fit eval pays only for the model at its
parameter point: `simulate_current` checks its source resistance and
runs the device's stepping loop (the one `device.trajectory` runs) from
w_on on the cached lists, without checking the columns again.  Without a
source resistance the model's voltage column is the drive's own array,
and `rmse` takes its error term as the exact 0.0 it is instead of
summing it.  A parameter point whose replay
overflows (a drift rate beyond the float range) scores as infeasible, so
the search backs off; a start point that overflows raises
InvalidStartError.  A gradient with an infeasible probe carries the
surrogate in a central difference, so a failed line search along it does
not count as converged; nor does one whose every probe was infeasible.
A replay or score beyond the float range becomes inf without numpy's
overflow warning: the search runs with overflow ignored, entered once
per fit.

The gradient's 2n probes are independent, and so are the line search's
halvings.  Once the start is known to be valid, `fit` forks up to one
gradient worker per usable CPU, capped at 2n and counting itself,
through the package's fork helper (`_fork.Workers`, shared with the
trace writer), and reaps them all before it returns.  One method,
`_ReplayWorkers.deal`, sends the workers their points and reads their
replies: each one's share of each gradient's probes, and, while the fit
scores a line-search candidate, the halvings after it, one per worker.
A worker replays each point (`_from_vector` and `device._step_loop`) and
streams the rows back as raw float64.  The fit scores them through
`simulate_current(..., replay=rows)` and `rmse` without rebuilding the
parameters, which the worker built from the same floats, and reads a
reply only when it reaches that point; those past the accepted step are
read and dropped.  So every objective eval is still one
`simulate_current` call in the fitting process, every float is the one a
replay there gives, and neither the result nor the number of evals
depends on the number of CPUs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from . import _fork
from .device import DeviceParams, _step_loop
from .errors import DataError, InvalidInputError, InvalidStartError, read_input, require

__all__ = [
    "IVTrace",
    "FitConfig",
    "FitResult",
    "read_trace_csv",
    "write_trace_csv",
    "simulate_current",
    "rmse",
    "central_difference_gradient",
    "fit",
]

TRACE_HEADER = ("t_s", "v_v", "i_a")

# Fitted parameters, in vector order.  Scale-like entries travel through
# the optimizer as log |value| with the initial guess's sign restored
# afterwards; the two thresholds stay linear.
PARAM_NAMES = ("r_on", "r_off", "alpha_on", "alpha_off",
               "k_on", "k_off", "v_on", "v_off")
_LOG_SPACE = ("r_on", "r_off", "alpha_on", "alpha_off", "k_on", "k_off")
_INFEASIBLE = 1e6  # objective surrogate outside the feasible parameter set
_PROBES = 50  # Armijo halvings per line search


@dataclass(frozen=True, eq=False)
class IVTrace:
    """Sampled drive/response trace: time (s), voltage (V), current (A).

    The columns are read-only float64 copies, so the values derived from
    them below, each computed on first use, cannot go stale.  A trace
    compares by identity and hashes by `id` (`eq=False`): an array field has
    no single truth value to compare by.
    """

    t: np.ndarray
    v: np.ndarray
    i: np.ndarray

    def __post_init__(self) -> None:
        t, v, i = (_frozen_copy(self.t), _frozen_copy(self.v),
                   _frozen_copy(self.i))
        if not (t.ndim == v.ndim == i.ndim == 1):
            raise InvalidInputError("trace columns must be 1-D")
        if not (len(t) == len(v) == len(i)):
            raise InvalidInputError(
                f"trace columns differ in length: {len(t)}, {len(v)}, {len(i)}")
        if len(t) < 2:
            raise InvalidInputError(f"trace needs at least 2 samples, got {len(t)}")
        if not (np.isfinite(t).all() and np.isfinite(v).all() and np.isfinite(i).all()):
            raise InvalidInputError("trace contains non-finite samples")
        # two finite timestamps can lie further apart than the float range
        with np.errstate(over="ignore"):
            intervals = np.diff(t)
        if not np.all(intervals > 0.0):
            raise InvalidInputError("trace timestamps must increase strictly")
        if not np.isfinite(intervals).all():
            raise InvalidInputError("trace sample intervals must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "i", i)

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def _trusted(cls, t: np.ndarray, v: np.ndarray, i: np.ndarray) -> IVTrace:
        """A trace of read-only float columns known to pass `__post_init__`,
        built without running its checks again."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "t", t)
        object.__setattr__(trace, "v", v)
        object.__setattr__(trace, "i", i)
        return trace

    @cached_property
    def step_v(self) -> list[float]:
        """The drive voltage of each replay step: every sample but the last."""
        return self.v[:-1].tolist()

    @cached_property
    def step_dt(self) -> list[float]:
        """The length of each replay step: the sample intervals."""
        return np.diff(self.t).tolist()

    @cached_property
    def v_energy(self) -> float:
        """sum v^2, the voltage term's normalizer in `rmse`."""
        return _energy(self.v)

    @cached_property
    def i_energy(self) -> float:
        """sum i^2, the current term's normalizer in `rmse`."""
        return _energy(self.i)


def _energy(column: np.ndarray) -> float:
    """sum x^2; inf, without numpy's overflow warning, beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.sum(column ** 2))


def _frozen_copy(column: np.ndarray) -> np.ndarray:
    """A read-only float64 copy; the caller's array keeps its flags."""
    out = np.array(column, dtype=float)
    out.flags.writeable = False
    return out


def read_trace_csv(path: str | Path) -> IVTrace:
    """Load a trace from CSV with header t_s,v_v,i_a.

    Every non-empty row must hold three numbers, and neither the voltage
    nor the current may be zero throughout or have a sum of squares beyond
    the float range: `rmse` normalizes by both.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_input(path, DataError), newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
            raise DataError(f"{path}: expected header {','.join(TRACE_HEADER)}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(TRACE_HEADER):
                raise DataError(f"{path}:{reader.line_num}: expected "
                                f"{len(TRACE_HEADER)} fields, got {len(row)}")
            rows.append(row)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    try:
        data = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric trace sample ({exc})") from exc
    if data.size == 0:
        raise DataError(f"{path}: trace has no samples")
    try:
        trace = IVTrace(data[:, 0], data[:, 1], data[:, 2])
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    for name, energy in (("voltage", trace.v_energy), ("current", trace.i_energy)):
        if not energy > 0.0:
            raise DataError(
                f"{path}: trace {name} is zero throughout (sum of squares 0)")
        if energy == math.inf:
            raise DataError(f"{path}: trace {name}'s sum of squares is beyond "
                            "the float range")
    return trace


def write_trace_csv(trace: IVTrace, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for k in range(len(trace)):
            writer.writerow([f"{trace.t[k]:.10g}",
                             f"{trace.v[k]:.10g}",
                             f"{trace.i[k]:.10g}"])


def simulate_current(params: DeviceParams, drive: IVTrace,
                     source_r_ohm: float = 0.0, *,
                     replay: Sequence[float] | None = None) -> IVTrace:
    """Replay the drive voltage through the model from the state w_on.

    Returns a trace with identical timestamps; the state advances by one
    explicit-Euler step per sample interval.  With the default zero source
    resistance the returned voltage equals the drive and the current is
    v / R(w).  A positive `source_r_ohm` models a series source resistance:
    the device then sees the divided voltage, which also feeds the voltage
    error term of `rmse`.

    `replay`, when given, is the resistance along that replay, one row per
    drive sample, as `device._step_loop` computed it for some parameters
    elsewhere (a forked gradient worker of `fit`); the loop is then not
    run again, and `params` is not read.  Rows of another length raise
    `InvalidInputError`.

    Only `source_r_ohm` (finite, >= 0) is checked: the drive's columns
    passed `IVTrace`'s checks when it was built, and its step lists are
    computed once per trace.  The returned columns are read-only.
    """
    if not 0.0 <= source_r_ohm < math.inf:
        raise InvalidInputError(f"source_r_ohm must be >= 0, got {source_r_ohm!r}")
    if replay is None:
        replay = _step_loop(params, drive.step_v, drive.step_dt, params.w_on,
                            source_r_ohm)
    elif len(replay) != len(drive):
        raise InvalidInputError(f"replay has {len(replay)} rows for a drive "
                                f"of {len(drive)} samples")
    r = np.array(replay, dtype=float)
    i_out = drive.v / (r + source_r_ohm)
    v_out = i_out * r if source_r_ohm > 0.0 else drive.v
    # finite, and read-only as every trace's columns are: a model trace can
    # serve as the recorded one, whose energies it then keeps
    i_out.flags.writeable = v_out.flags.writeable = False
    return IVTrace._trusted(drive.t, v_out, i_out)


def rmse(model: IVTrace, real: IVTrace) -> float:
    """Energy-normalized RMS error between model and recorded traces.

    The normalizers are `real`'s reference energies, summed once per trace
    with the same expressions, so they are the same floats on every call.
    """
    if len(model) != len(real):
        raise InvalidInputError(
            f"trace length mismatch: model {len(model)}, real {len(real)}")
    v_norm, i_norm = real.v_energy, real.i_energy
    if v_norm <= 0.0 or i_norm <= 0.0:
        raise InvalidInputError("reference trace has zero voltage or current energy")
    # the replay without source resistance hands back the drive's own
    # voltage array, whose error term is exactly 0.0
    dv = 0.0 if model.v is real.v else float(np.sum((model.v - real.v) ** 2))
    di = float(np.sum((model.i - real.i) ** 2))
    return math.sqrt((dv / v_norm + di / i_norm) / len(real))


@dataclass(frozen=True)
class FitConfig:
    """The [fit] section: search settings, and one optional override per
    edge of the fit's box, `<parameter>_lo` and `<parameter>_hi` for each
    of `PARAM_NAMES`.  An edge left None keeps its default (see `bounds`)."""

    grad_step: float = 1e-6   # relative central-difference step
    max_iters: int = 200
    tol: float = 1e-12        # objective-improvement stop tolerance
    source_r_ohm: float = 0.0
    r_on_lo: float | None = None
    r_off_lo: float | None = None
    alpha_on_lo: float | None = None
    alpha_off_lo: float | None = None
    k_on_lo: float | None = None
    k_off_lo: float | None = None
    v_on_lo: float | None = None
    v_off_lo: float | None = None
    r_on_hi: float | None = None
    r_off_hi: float | None = None
    alpha_on_hi: float | None = None
    alpha_off_hi: float | None = None
    k_on_hi: float | None = None
    k_off_hi: float | None = None
    v_on_hi: float | None = None
    v_off_hi: float | None = None

    def __post_init__(self) -> None:
        require(self,
                ("grad_step", 0.0 < self.grad_step < math.inf, "be positive and finite"),
                ("max_iters", self.max_iters >= 1, "be >= 1"),
                ("tol", 0.0 <= self.tol < math.inf, "be finite and >= 0"),
                ("source_r_ohm", 0.0 <= self.source_r_ohm < math.inf,
                 "be finite and >= 0"),
                # an edge left None keeps its default, which is finite
                *((edge, math.isfinite(getattr(self, edge) or 0.0), "be finite")
                  for edge in [f"{name}_{end}" for end in ("lo", "hi")
                               for name in PARAM_NAMES]))

    def bounds(self, initial: DeviceParams) -> tuple[dict[str, float], dict[str, float]]:
        """The box's lower and upper edges by parameter: a wide
        multiplicative box around the initial guess (sign-preserving), each
        edge set here in place of its default.  Raises, naming the edge,
        unless every edge set brackets its parameter's initial value."""
        lower: dict[str, float] = {}
        upper: dict[str, float] = {}
        checks = []
        for name in PARAM_NAMES:
            p0 = getattr(initial, name)
            scale = 8.0 if name in _LOG_SPACE else 4.0
            lo, hi = getattr(self, f"{name}_lo"), getattr(self, f"{name}_hi")
            checks += [(f"{name}_lo", lo is None or lo <= p0,
                        f"not exceed the initial {name}={p0!r}"),
                       (f"{name}_hi", hi is None or hi >= p0,
                        f"not fall below the initial {name}={p0!r}")]
            default_lo, default_hi = sorted((p0 / scale, p0 * scale))
            lower[name] = default_lo if lo is None else lo
            upper[name] = default_hi if hi is None else hi
        require(self, *checks)
        return lower, upper


@dataclass(frozen=True)
class FitResult:
    """The fitted device and how the search ended.

    `stop_reason` names the test that ended it: `objective_floor` (the
    objective reached 1e-15), `gradient` (a stationary point), `tol` (an
    accepted step improved by at most `FitConfig.tol`), `line_search`
    (no step along the search direction was accepted) or `max_iters`.
    `at_bounds` names, in `PARAM_NAMES` order, the fitted parameters that
    equal an edge of the box `FitConfig.bounds` gave the search.
    """

    params: DeviceParams
    rmse: float
    iterations: int
    converged: bool
    objective_history: tuple[float, ...]
    stop_reason: str
    at_bounds: tuple[str, ...]


def _to_vector(params: DeviceParams) -> np.ndarray:
    x = np.empty(len(PARAM_NAMES))
    for j, name in enumerate(PARAM_NAMES):
        p = getattr(params, name)
        x[j] = math.log(abs(p)) if name in _LOG_SPACE else p
    return x


def _from_vector(x: np.ndarray, initial: DeviceParams, lower: dict[str, float],
                 upper: dict[str, float]) -> DeviceParams:
    """The parameters at `x`, clamped to the box; w_on / w_off are `initial`'s."""
    values: dict[str, float] = {}
    for j, name in enumerate(PARAM_NAMES):
        if name in _LOG_SPACE:
            p = math.copysign(math.exp(x[j]), getattr(initial, name))
        else:
            p = float(x[j])
        values[name] = min(max(p, lower[name]), upper[name])
    return DeviceParams(w_on=initial.w_on, w_off=initial.w_off, **values)


def central_difference_gradient(f: Callable[..., float], x: np.ndarray,
                                rel_step: float,
                                replays: _ReplayWorkers | None = None) -> np.ndarray:
    """Central differences with per-coordinate step rel_step * max(1, |x_j|).

    `f(point)` scores each of the 2n probe points x + h_j e_j and
    x - h_j e_j.  With `replays`, `fit`'s forked workers replay the probes
    past this process's own share while it scores that share, and each
    point is scored by `f(point, rows)`, with the rows a worker replayed
    there or None for one `f` replays itself.  Each value is the float
    `f(point)` gives, and g[j] combines the same two values in the same
    order, so g does not depend on how many workers there are.
    """
    steps = [rel_step * max(1.0, abs(x[j])) for j in range(len(x))]
    points = np.tile(x, (2 * len(x), 1))  # row 2j: x + h_j e_j; 2j + 1: x - h_j e_j
    for j, h in enumerate(steps):
        points[2 * j, j] += h
        points[2 * j + 1, j] -= h
    if replays is None:
        values = [f(point) for point in points]
    else:
        own = replays.share()
        values = [f(point, rows)
                  for point, rows in zip(points, replays.deal(points, own))]
        replays.tune(own)
    return np.array([(values[2 * j] - values[2 * j + 1]) / (2.0 * h)
                     for j, h in enumerate(steps)])


_REPLAYED, _NOT_REPLAYED = b"\0", b"\1"  # a gradient worker's reply status


class _ReplayWorkers:
    """`count` forked processes that replay `fit`'s gradient probes and
    line-search candidates.

    The workers are forked through the class's own `_fork.Workers` on
    entering the `with` block; leaving it closes their request pipes, so
    they leave, and then reaps them.  `deal` alone sends them points, as
    raw float64, and reads their replies, point by point: a status byte,
    then the raw float64 resistance rows of the replay, or nothing for a
    point whose `_from_vector` or `_step_loop` raised, which the caller
    replays itself.  A reply that ends early, or a request its worker
    cannot read, means the worker died: `deal` reaps it and raises
    `OSError`.  Every reply a worker sends is read, in order, through one
    queue.

    The caller's share of a gradient (`share`) starts at an even split and
    then follows the host.  After each gradient (`tune`) it grows by one
    point when the caller spent more than 1/32 of the gradient's wall time
    off its CPU, waiting for a reply or giving its CPU to a worker, and
    shrinks by one otherwise.  Where the workers find no free CPU, the
    caller so takes every point back, and keeps the line search's
    candidates too; it then offers one point again after a rest of 1, 2,
    4, ... gradients, doubling with each offer that fails.  Line-search
    points do not enter that count or its clock.  Which process replays
    which point changes no value.
    """

    def __init__(self, count: int, real: IVTrace, initial: DeviceParams,
                 lower: dict[str, float], upper: dict[str, float],
                 source_r_ohm: float) -> None:
        self._serve = partial(_serve_probes, real, initial, lower, upper,
                              source_r_ohm)
        self._count = count
        self._rows_bytes = 8 * len(real)
        self._forked = _fork.Workers("gradient worker")
        # (pid, request pipe's write end, reply pipe's reader) per worker
        self._channels: list[tuple[int, int, BinaryIO]] = []
        # (pid, reply pipe's reader) per point sent and not yet answered
        self._pending: list[tuple[int, BinaryIO]] = []
        self._points = 2 * len(PARAM_NAMES)  # per gradient
        self._own = self._points // (count + 1)  # the caller's share
        self._started = (0.0, 0.0)  # wall and CPU clocks at the last share
        # gradients left before a share of every point is offered again,
        # and the wait after the next failed offer (doubles each time)
        self._rest = self._backoff = 1

    def __enter__(self) -> _ReplayWorkers:
        try:
            for _ in range(self._count):
                self._fork_one()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        for _, requests, replies in self._channels:
            os.close(requests)  # its worker leaves once this closes
            replies.close()
        self._channels.clear()
        self._forked.__exit__()

    def _fork_one(self) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        # the worker keeps only its own two ends: a copy of another pipe's
        # end would keep that pipe open after its owner closed it
        parent_ends = [request_w, reply_r] + [
            fd for _, requests, replies in self._channels
            for fd in (requests, replies.fileno())]
        try:
            pid = self._forked.fork(
                partial(self._serve, parent_ends, request_r, reply_w))
        except BaseException:
            os.close(request_w)
            os.close(reply_r)
            raise
        finally:
            os.close(request_r)
            os.close(reply_w)
        self._channels.append((pid, request_w, open(reply_r, "rb")))

    def share(self) -> int:
        """The caller's share of the next gradient's probes, the first ones;
        starts that gradient's clock when the workers get any."""
        # an empty deal reads what the last line search left unread, so
        # that waiting for it is not timed as a slow worker
        list(self.deal(np.empty((0, len(PARAM_NAMES))), 0))
        if not self._channels:
            return self._points
        if self._own == self._points:
            # kept them all: offer a point again once the rest is over
            self._rest -= 1
            if self._rest > 0:
                return self._own
            self._own -= 1
        self._started = (time.perf_counter(), time.process_time())
        return self._own

    def tune(self, own: int) -> None:
        """Tune the share once every reply to a gradient that kept `own` is read."""
        if own == self._points:
            return  # nothing was sent, so nothing was timed
        wall = time.perf_counter() - self._started[0]
        idle = wall - (time.process_time() - self._started[1])
        if idle > wall / 32:  # waited for a reply, or lost the CPU to a worker
            self._own += 1
            if self._own == self._points:
                self._backoff *= 2
                self._rest = self._backoff
        else:
            self._own = max(self._own - 1, 0)
            self._backoff = 1

    def deal(self, points: np.ndarray, own: int) -> Iterator[np.ndarray | None]:
        """The rows replayed at each of `points`, in order: None for the
        first `own` (every point where there is no worker), which the
        caller replays itself, and for one its worker could not replay.

        First reads and drops the replies an earlier deal left unread,
        such as those to line-search candidates past the accepted step,
        then sends the rest of `points` to the workers, one contiguous
        block each; a reply is read only when its point is reached."""
        while self._pending:
            self._reply(*self._pending.pop(0))
        if not self._channels:
            own = len(points)  # no worker to send the rest to
        else:
            # np.array_split's blocks, the first ones a point longer, cut as
            # slices: array_split's 9 us would be paid on every search round
            size, longer = divmod(len(points) - own, len(self._channels))
            end = own
            for k, (pid, requests, replies) in enumerate(self._channels):
                block = points[end:(end := end + size + (k < longer))]
                if len(block):
                    self._request(pid, requests, block)
                    self._pending += [(pid, replies)] * len(block)
        yield from itertools.repeat(None, own)
        while self._pending:
            yield self._reply(*self._pending.pop(0))

    def halvings(self, x: np.ndarray, d: np.ndarray
                 ) -> Iterator[tuple[float, np.ndarray, np.ndarray | None]]:
        """The line search's `_PROBES` candidates in the order it tries
        them: the step alpha = 1, 1/2, 1/4, ..., the point x + alpha d, and
        the rows a worker replayed there, or None for a point the caller
        replays itself.  The steps are exact powers of two, so every point
        is the float that halving one step at a time gives.

        They are dealt in rounds of one per process, the first of each the
        caller's own, or one at a time while the caller keeps every
        gradient probe; the last round ends at the last step, so no worker
        is sent a step past it."""
        size = 1 + len(self._channels) if self._own < self._points else 1
        for k in range(0, _PROBES, size):
            alphas = [0.5 ** j for j in range(k, min(k + size, _PROBES))]
            points = x + np.array(alphas)[:, np.newaxis] * d
            yield from zip(alphas, points, self.deal(points, 1))

    def _request(self, pid: int, requests: int, block: np.ndarray) -> None:
        """Send worker `pid` a block of points: their count, then raw float64."""
        try:
            os.write(requests, len(block).to_bytes(4, "little") + block.tobytes())
        except BrokenPipeError:  # the worker died before reading it
            self._forked.join(pid)  # raises, naming its exit status
            raise

    def _reply(self, pid: int, replies: BinaryIO) -> np.ndarray | None:
        """The next reply of worker `pid`: the rows it replayed, or None
        for a point it could not replay."""
        status = replies.read(1)
        if status == _NOT_REPLAYED:
            return None
        rows = replies.read(self._rows_bytes)
        if status != _REPLAYED or len(rows) != self._rows_bytes:
            self._forked.join(pid)  # raises, naming its exit status
            raise OSError("gradient worker process ended its reply early")
        return np.frombuffer(rows)


def _serve_probes(real: IVTrace, initial: DeviceParams,
                  lower: dict[str, float], upper: dict[str, float],
                  source_r_ohm: float, parent_ends: list[int],
                  requests: int, replies: int) -> None:
    """A gradient worker's loop: replay each point of each batch read from
    `requests` and reply on `replies`, until `requests` closes."""
    for fd in parent_ends:
        os.close(fd)
    n = len(PARAM_NAMES)
    with open(requests, "rb") as inbox, open(replies, "wb") as outbox:
        while head := inbox.read(4):
            count = int.from_bytes(head, "little")
            for x in np.frombuffer(inbox.read(8 * n * count)).reshape(count, n):
                try:
                    params = _from_vector(x, initial, lower, upper)
                    rows = _step_loop(params, real.step_v, real.step_dt,
                                      params.w_on, source_r_ohm)
                except Exception:  # the caller replays it, raising as it would
                    outbox.write(_NOT_REPLAYED)
                else:
                    outbox.write(_REPLAYED)
                    outbox.write(array("d", rows))
                outbox.flush()


@np.errstate(over="ignore")
def fit(real: IVTrace, initial: DeviceParams, config: FitConfig) -> FitResult:
    """Minimize `rmse` of the replayed model against the recorded trace,
    starting from `initial` inside `config.bounds(initial)`.

    Deterministic: identical inputs yield the identical result.  The
    returned history holds the accepted objective values, first entry the
    starting point, and is non-increasing.
    """
    lower, upper = config.bounds(initial)
    infeasible = 0  # evaluations scored `_INFEASIBLE` so far

    def objective(x: np.ndarray, replay: np.ndarray | None = None, *,
                  start: bool = False) -> float:
        nonlocal infeasible
        if replay is not None:
            # a worker's `_from_vector` succeeded at x and replayed it, and
            # `simulate_current` reads no parameters beside a replay
            return rmse(simulate_current(initial, real, config.source_r_ohm,
                                         replay=replay), real)
        try:
            params = _from_vector(x, initial, lower, upper)
        except (InvalidInputError, OverflowError):
            # clamped box corner that violates a cross-parameter ordering
            # (e.g. r_on >= r_off), or a log-space coordinate too large for
            # exp; a large finite value backs the search off
            infeasible += 1
            return _INFEASIBLE
        try:
            model = simulate_current(params, real, config.source_r_ohm)
        except OverflowError as exc:
            # a drift rate beyond the float range backs the search off the
            # same way; a start there leaves it nowhere to begin
            if start:
                raise InvalidStartError(
                    "the device replay overflows at the initial parameters: "
                    "a drift rate exceeds the float range") from exc
            infeasible += 1
            return _INFEASIBLE
        return rmse(model, real)

    def gradient(at: np.ndarray) -> tuple[np.ndarray, bool]:
        """The gradient at `at`, and whether one of its probes was infeasible."""
        seen = infeasible
        g = central_difference_gradient(objective, at, config.grad_step,
                                        replays)
        return g, infeasible > seen

    x = _to_vector(initial)
    f_x = objective(x, start=True)
    if not math.isfinite(f_x):
        raise InvalidStartError(
            f"objective is non-finite at the initial parameters ({f_x!r})")

    history = [f_x]
    n = len(x)
    h_inv = np.eye(n)          # inverse Hessian estimate
    grad_tol = 1e-9            # sup-norm stationarity cutoff
    iterations = 0
    converged, stop_reason = False, "max_iters"

    # up to one process per usable CPU replays the 2n gradient probes and
    # the line search's candidates; the workers are forked here, after the
    # start is known to be valid, and none outlives the block
    workers = min(_fork.usable_cpus(), 2 * n) - 1
    with _ReplayWorkers(workers, real, initial, lower, upper,
                        config.source_r_ohm) as replays:
        g, probe_infeasible = gradient(x)
        for _ in range(config.max_iters):
            if f_x <= 1e-15:
                converged, stop_reason = True, "objective_floor"
                break
            if np.max(np.abs(g)) < grad_tol:
                converged, stop_reason = True, "gradient"
                break
            d = -h_inv @ g
            slope = float(g @ d)
            if slope >= 0.0:       # stale curvature: fall back to steepest descent
                h_inv = np.eye(n)
                d = -g
                slope = float(g @ d)
            # Armijo backtracking: halve until sufficient decrease
            accepted, seen = False, infeasible
            for alpha, x_new, rows in replays.halvings(x, d):
                f_new = objective(x_new, rows)
                if math.isfinite(f_new) and f_new <= f_x + 1e-4 * alpha * slope:
                    accepted = True
                    break
            if not accepted:
                # no acceptable step along d: stationary to line-search precision,
                # unless an infeasible probe's surrogate inflated the gradient,
                # or no probe along d was scored at all
                converged = not probe_infeasible and infeasible - seen < _PROBES
                stop_reason = "line_search"
                break
            g_new, probe_infeasible = gradient(x_new)
            s = x_new - x
            y = g_new - g
            sy = float(s @ y)
            if sy > 1e-12:         # curvature condition; skip update otherwise
                rho = 1.0 / sy
                eye = np.eye(n)
                h_inv = ((eye - rho * np.outer(s, y)) @ h_inv
                         @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s))
            improvement = f_x - f_new
            x, f_x, g = x_new, f_new, g_new
            history.append(f_x)
            iterations += 1
            if improvement <= config.tol:
                converged, stop_reason = True, "tol"
                break

    params = _from_vector(x, initial, lower, upper)
    at_bounds = tuple(name for name in PARAM_NAMES
                      if getattr(params, name) in (lower[name], upper[name]))
    return FitResult(params=params, rmse=f_x, iterations=iterations,
                     converged=converged, objective_history=tuple(history),
                     stop_reason=stop_reason, at_bounds=at_bounds)
