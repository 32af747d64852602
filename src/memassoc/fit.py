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
integration from the fully reset state w = w_on.

The recorded trace is validated once, when it is built, and its columns
are read-only float64 copies.  What the replay and the score derive from
the trace alone is computed on first use and kept on the trace: the step
voltages v[:-1] and step lengths diff(t) as Python float lists, and the
reference energies sum v^2 and sum i^2.  The columns cannot change, so
these cannot go stale, and a fit eval pays only for the model at its
parameter point: `simulate_current` checks its scalar arguments and runs
`device.trajectory`'s stepping loop on the cached lists, without checking
the columns again.  Without a source resistance the model's voltage
column is the drive's own array, and `rmse` takes its error term as the
exact 0.0 it is instead of summing it.  A parameter point whose replay
overflows (a drift rate beyond the float range) scores as infeasible, so
the search backs off; a start point that overflows raises
InvalidStartError.  A gradient with an infeasible probe carries the
surrogate in a central difference, so a failed line search along it does
not count as converged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .device import DeviceParams, _check_start, _step_loop
from .errors import DataError, InvalidInputError, InvalidStartError, require

__all__ = [
    "IVTrace",
    "FitConfig",
    "FitResult",
    "read_trace_csv",
    "write_trace_csv",
    "simulate_current",
    "rmse",
    "central_difference_gradient",
    "default_bounds",
    "fit",
]

TRACE_HEADER = ("t_s", "v_v", "i_a")

# Fitted parameters, in vector order.  Scale-like entries travel through
# the optimizer as log |value| with the sign restored afterwards; the two
# thresholds stay linear.
PARAM_NAMES = ("r_on", "r_off", "alpha_on", "alpha_off",
               "k_on", "k_off", "v_on", "v_off")
_LOG_SPACE = ("r_on", "r_off", "alpha_on", "alpha_off", "k_on", "k_off")
_PARAM_SIGN = {"k_off": -1.0, "v_off": -1.0}
_INFEASIBLE = 1e6  # objective surrogate outside the feasible parameter set


@dataclass(frozen=True)
class IVTrace:
    """Sampled drive/response trace: time (s), voltage (V), current (A).

    The columns are read-only float64 copies, so the values derived from
    them below, each computed on first use, cannot go stale.
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
        return float(np.sum(self.v ** 2))

    @cached_property
    def i_energy(self) -> float:
        """sum i^2, the current term's normalizer in `rmse`."""
        return float(np.sum(self.i ** 2))


def _frozen_copy(column: np.ndarray) -> np.ndarray:
    """A read-only float64 copy; the caller's array keeps its flags."""
    out = np.array(column, dtype=float)
    out.flags.writeable = False
    return out


def read_trace_csv(path: str | Path) -> IVTrace:
    """Load a trace from CSV with header t_s,v_v,i_a.

    Every non-empty row must hold three numbers, and neither the voltage
    nor the current may be zero throughout: `rmse` normalizes by both.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
                raise DataError(
                    f"{path}: expected header {','.join(TRACE_HEADER)}")
            rows = []
            for row in filter(None, reader):
                if len(row) != len(TRACE_HEADER):
                    raise DataError(f"{path}:{reader.line_num}: expected "
                                    f"{len(TRACE_HEADER)} fields, got {len(row)}")
                rows.append(row)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
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
                     w0: float | None = None,
                     source_r_ohm: float = 0.0) -> IVTrace:
    """Replay the drive voltage through the model.

    Returns a trace with identical timestamps; the state advances by one
    explicit-Euler step per sample interval.  With the default zero source
    resistance the returned voltage equals the drive and the current is
    v / R(w).  A positive `source_r_ohm` models a series source resistance:
    the device then sees the divided voltage, which also feeds the voltage
    error term of `rmse`.

    Only `w0` (within [w_on, w_off]) and `source_r_ohm` (finite, >= 0) are
    checked, with `trajectory`'s messages: the drive's columns passed
    `IVTrace`'s checks when it was built, and its step lists are computed
    once per trace.  The returned columns are read-only.
    """
    w = params.w_on if w0 is None else w0
    _check_start(params, w, source_r_ohm)
    r = np.array(_step_loop(params, drive.step_v, drive.step_dt, w,
                            source_r_ohm), dtype=float)
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
    """Search settings; bounds are per-parameter closed intervals."""

    initial: DeviceParams
    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)
    grad_step: float = 1e-6   # relative central-difference step
    max_iters: int = 200
    tol: float = 1e-12        # objective-improvement stop tolerance
    source_r_ohm: float = 0.0

    def __post_init__(self) -> None:
        require(self,
                ("grad_step", 0.0 < self.grad_step < math.inf, "be positive and finite"),
                ("max_iters", self.max_iters >= 1, "be >= 1"),
                ("tol", 0.0 <= self.tol < math.inf, "be finite and >= 0"),
                ("source_r_ohm", 0.0 <= self.source_r_ohm < math.inf,
                 "be finite and >= 0"))
        for name, bound in [*self.lower.items(), *self.upper.items()]:
            if not math.isfinite(bound):
                raise InvalidInputError(f"bounds for {name} must be finite, got {bound!r}")
        lower, upper = default_bounds(self.initial)
        lower.update(self.lower)
        upper.update(self.upper)
        for name in PARAM_NAMES:
            lo, hi, p0 = lower[name], upper[name], getattr(self.initial, name)
            if not lo <= p0 <= hi:
                raise InvalidInputError(
                    f"bounds for {name} must bracket the initial guess: "
                    f"{lo!r} <= {p0!r} <= {hi!r} fails")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class FitResult:
    """The fitted device and how the search ended.

    `stop_reason` names the test that ended it: `objective_floor` (the
    objective reached 1e-15), `gradient` (a stationary point), `tol` (an
    accepted step improved by at most `FitConfig.tol`), `line_search`
    (no step along the search direction was accepted) or `max_iters`.
    """

    params: DeviceParams
    rmse: float
    iterations: int
    converged: bool
    objective_history: tuple[float, ...]
    stop_reason: str


def default_bounds(initial: DeviceParams) -> tuple[dict[str, float], dict[str, float]]:
    """Wide multiplicative box around the initial guess (sign-preserving)."""
    lower: dict[str, float] = {}
    upper: dict[str, float] = {}
    for name in PARAM_NAMES:
        p0 = getattr(initial, name)
        scale = 8.0 if name in _LOG_SPACE else 4.0
        mag = abs(p0)
        lo_mag, hi_mag = mag / scale, mag * scale
        if p0 >= 0.0:
            lower[name], upper[name] = lo_mag, hi_mag
        else:
            lower[name], upper[name] = -hi_mag, -lo_mag
    return lower, upper


def _to_vector(params: DeviceParams) -> np.ndarray:
    x = np.empty(len(PARAM_NAMES))
    for j, name in enumerate(PARAM_NAMES):
        p = getattr(params, name)
        x[j] = math.log(abs(p)) if name in _LOG_SPACE else p
    return x


def _from_vector(x: np.ndarray, cfg: FitConfig) -> DeviceParams:
    values: dict[str, float] = {}
    for j, name in enumerate(PARAM_NAMES):
        if name in _LOG_SPACE:
            p = math.exp(x[j]) * _PARAM_SIGN.get(name, 1.0)
        else:
            p = float(x[j])
        values[name] = min(max(p, cfg.lower[name]), cfg.upper[name])
    return DeviceParams(w_on=cfg.initial.w_on, w_off=cfg.initial.w_off, **values)


def central_difference_gradient(f: Callable[[np.ndarray], float],
                                x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central differences with per-coordinate step rel_step * max(1, |x_j|)."""
    g = np.empty(len(x))
    for j in range(len(x)):
        h = rel_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fit(real: IVTrace, config: FitConfig) -> FitResult:
    """Minimize `rmse` of the replayed model against the recorded trace.

    Deterministic: identical inputs yield the identical result.  The
    returned history holds the accepted objective values, first entry the
    starting point, and is non-increasing.
    """
    infeasible = 0  # evaluations scored `_INFEASIBLE` so far

    def objective(x: np.ndarray, start: bool = False) -> float:
        nonlocal infeasible
        try:
            params = _from_vector(x, config)
        except (InvalidInputError, OverflowError):
            # clamped box corner that violates a cross-parameter ordering
            # (e.g. r_on >= r_off), or a log-space coordinate too large for
            # exp; a large finite value backs the search off
            infeasible += 1
            return _INFEASIBLE
        try:
            model = simulate_current(params, real,
                                     source_r_ohm=config.source_r_ohm)
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
        g = central_difference_gradient(objective, at, config.grad_step)
        return g, infeasible > seen

    x = _to_vector(config.initial)
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
        alpha, accepted = 1.0, False
        for _ in range(50):
            x_new = x + alpha * d
            f_new = objective(x_new)
            if math.isfinite(f_new) and f_new <= f_x + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # no acceptable step along d: stationary to line-search precision,
            # unless an infeasible probe's surrogate inflated the gradient
            converged, stop_reason = not probe_infeasible, "line_search"
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

    params = _from_vector(x, config)
    return FitResult(params=params, rmse=f_x, iterations=iterations,
                     converged=converged, objective_history=tuple(history),
                     stop_reason=stop_reason)
