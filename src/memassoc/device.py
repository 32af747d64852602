"""Behavioral model of a voltage-threshold memristor.

The device carries a single internal state variable w confined to
[w_on, w_off].  Voltage beyond either threshold moves the state at a
power-law rate; between the thresholds the state holds (dead zone):

    dw/dt = k_on * (v / v_on - 1)^alpha_on   for v >= v_on   (v_on  > 0)
    dw/dt = 0                                for v_off < v < v_on
    dw/dt = k_off * (v / v_off - 1)^alpha_off for v <= v_off  (v_off < 0)

Sign convention: k_on > 0, so positive over-threshold drive raises w
toward w_off, and the resistance map is oriented so that w = w_off is the
low-resistance (fully set) end:

    R(w) = r_on * (r_off / r_on)^((w_off - w) / (w_off - w_on))

Rate windows are rectangular: the rate is unmodified strictly inside the
state bounds and zero at the bound the drive pushes toward.  Each
explicit-Euler update is clamped to the bounds, so w never leaves them.

Exact threshold equality (v == v_on or v == v_off) gives zero rate because
the over-threshold factor vanishes; with the default unit exponents the
rate is therefore continuous across the dead-zone edges.

All Euler stepping lives in two integrators, each checking its inputs
once per call instead of once per step, and each bit-identical to the
one-step-per-call oracle in `tests/oracle.py`.  Both refuse a start state
outside [w_on, w_off]: the held-row rules below rely on it.

`trajectory` steps the chain through a voltage sequence at one dt with
plain floats and returns the resistance along the run.  It is its input
checks followed by a private stepping loop on Python float sequences.
The fit replay, whose drive was checked once when its trace was built
and which always starts at w_on, runs that same loop with its own step
lengths and source resistance, so each model formula still lives in one
place.  A row holds when the state cannot move: its drive lies in the
dead zone, or pushes toward the bound the state already sits on (the
rectangular window).  A held row appends the previous resistance and
computes neither the rate nor R(w); in a fit replay about half of the
rows hold.  A row that moves adds its increment, which has the sign of
its drive, so it clamps only at the bound that drive can cross.  A state
at exactly w_on or w_off stays there until the drive turns, and R is
recomputed only from the same w, so every row equals the oracle's
(a zero state may differ in sign, which R does not see).

`pulse` holds a constant voltage per cell for n steps, on one device (the
vision label device, stepped as a grid of one cell) or on a grid (the
vision array).  Like `trajectory`, it is its input checks followed by a
private fold, `_fold`; the vision training pulse, whose inputs pass the
checks by construction (the array's own grid, voltages it built and
checked finite, the config's dt and step count), calls the fold
directly.  Only the cells that can move are stepped: a cell is movable
when v >= v_on and w < w_off, or v <= v_off and w > w_on.  Every other
cell sits in the dead zone or is driven into the bound it already
holds, so the rectangular window keeps its state, and `pulse` copies it
without computing its rate.  The test over-approximates (a rate that
rounds to zero still passes), and such a cell's sum stays at its state.
One consequence is deliberate: a rate beyond the float range raises
`OverflowError` only on a movable cell; on a cell that cannot move it is
never evaluated.  Cells that share an exact (state, voltage) pair share
the increment and so every sum, so the movable cells are grouped by pair
once (a zero state merges with its negative twin, which changes no sum).
For each distinct pair `pulse` computes the rate with the scalar
`drive_rate` (array `pow` can differ from scalar `pow` in the last bit),
adds its increment n times and clamps once at the end.  Under the
rectangular window that single clamp gives the per-step clamp's state: a
cell's increment keeps one sign for the whole pulse, so a start state
inside the bounds never crosses the opposite bound; and once the
per-step clamp binds, the unclamped sum stays beyond that bound, because
float addition is monotonic.  The n adds run as `np.add.accumulate`
along the step axis over blocks of rows [u, dw, dw, ...] holding at most
`_FOLD_BLOCK` increments (at least one step), each block starting from
the last row of the one before, so memory stays bounded.  The running
sum adds in order and rounds once per add, as `u += dw` does, so the
state is the same float.  An increment or a sum beyond the float range
becomes inf, as a Python multiply or add does, and the clamp maps it to
the bound; numpy's overflow warning is suppressed, so nothing reaches
stderr.

Units: volts, ohms, seconds; w is dimensionless.  All functions are
pure and all types immutable, so values can be shared freely across
threads and processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, require

__all__ = [
    "DeviceParams",
    "drive_rate",
    "resistance",
    "trajectory",
    "pulse",
]

_FOLD_BLOCK = 1 << 14  # increments per block of a `pulse` running sum


@dataclass(frozen=True)
class DeviceParams:
    """Switching parameters.  Defaults describe the reference device."""

    r_on: float = 20e3        # ohm, low-resistance bound (fully set)
    r_off: float = 190e3      # ohm, high-resistance bound (fully reset)
    alpha_on: float = 1.0     # set-rate exponent
    alpha_off: float = 1.0    # reset-rate exponent
    k_on: float = 2.82        # 1/s, set-rate scale, > 0
    k_off: float = -18.33     # 1/s, reset-rate scale, < 0
    v_on: float = 0.14        # V, positive threshold
    v_off: float = -0.16      # V, negative threshold
    w_on: float = 0.0         # state bound reached by sustained reset
    w_off: float = 1.0        # state bound reached by sustained set

    def __post_init__(self) -> None:
        inf = math.inf
        require(self,
                ("r_on", 0.0 < self.r_on < inf, "be positive and finite"),
                # R(w) raises r_off / r_on to a power; every check is
                # evaluated, so a zero r_on must not reach the division
                ("r_off", 0.0 < self.r_on < self.r_off < inf
                 and self.r_off / self.r_on < inf,
                 f"be finite and exceed r_on={self.r_on!r} by a finite "
                 "ratio"),
                ("alpha_on", 0.0 < self.alpha_on < inf, "be > 0 and finite"),
                ("alpha_off", 0.0 < self.alpha_off < inf, "be > 0 and finite"),
                ("k_on", 0.0 < self.k_on < inf, "be > 0 and finite"),
                ("k_off", -inf < self.k_off < 0.0, "be < 0 and finite"),
                ("v_on", 0.0 < self.v_on < inf, "be positive and finite"),
                ("v_off", -inf < self.v_off < 0.0, "be negative and finite"),
                ("w_off", math.isfinite(self.w_off), "be finite"),
                # R(w) and the normalized state divide by w_off - w_on
                ("w_on", -inf < self.w_on < self.w_off
                 and self.w_off - self.w_on < inf,
                 f"be finite and lie below w_off={self.w_off!r} by a "
                 "finite span"))


def drive_rate(params: DeviceParams, v: float) -> float:
    """Power-law state velocity in 1/s under voltage v, before the window.

    Zero in the dead zone; no input checks, so callers validate v.
    """
    if v >= params.v_on:
        return params.k_on * (v / params.v_on - 1.0) ** params.alpha_on
    if v <= params.v_off:
        return params.k_off * (v / params.v_off - 1.0) ** params.alpha_off
    return 0.0


def resistance(params: DeviceParams, w: float) -> float:
    """Resistance in ohms at state w (expects w within its bounds).

    Exponential interpolation with R(w_off) = r_on and R(w_on) = r_off.
    """
    if not math.isfinite(w):
        raise InvalidInputError(f"state w must be finite, got {w!r}")
    frac = (params.w_off - w) / (params.w_off - params.w_on)
    return params.r_on * (params.r_off / params.r_on) ** frac


def trajectory(params: DeviceParams, v: Sequence[float] | np.ndarray,
               dt: float, w0: float) -> list[float]:
    """Resistance before the first Euler step and after each of len(v) steps.

    Step k applies voltage v[k] for dt, starting from state w0.  Inputs
    are checked once: v finite, w0 within [w_on, w_off], dt finite and > 0.
    """
    vs = np.asarray(v, dtype=float)
    if vs.ndim != 1 or not np.isfinite(vs).all():
        raise InvalidInputError("voltages must be a finite 1-D sequence")
    w_on, w_off = params.w_on, params.w_off
    if not w_on <= w0 <= w_off:
        raise InvalidInputError(
            f"state w must be finite and lie within [{w_on!r}, {w_off!r}], got {w0!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"need finite dt > 0, got dt={dt!r}")
    return _step_loop(params, vs.tolist(), itertools.repeat(dt), w0, 0.0)


def _step_loop(params: DeviceParams, volts: Iterable[float],
               steps: Iterable[float], w0: float,
               source_r_ohm: float) -> list[float]:
    """The stepping loop of `trajectory` and the fit replay, on Python
    floats whose checks have passed: one Euler step per (voltage, dt)
    pair, no input checked again.  With a positive `source_r_ohm`, v is a
    source voltage behind that series resistance and step k drives the
    device with v[k] / (R + source_r_ohm) * R, R read before the step.

    The fit's gradient workers, forked through the package's fork helper
    (`_fork.Workers`), run this loop on their share of the probes and
    send its rows back raw, so it must stay free of any state the forked
    copy could not see: it reads only its arguments."""
    w_on, w_off = params.w_on, params.w_off
    v_on, v_off = params.v_on, params.v_off
    k_on, k_off = params.k_on, params.k_off
    alpha_on, alpha_off = params.alpha_on, params.alpha_off
    r_on, r_ratio, span = params.r_on, params.r_off / params.r_on, w_off - w_on
    divided = source_r_ohm > 0.0

    w = w0
    r = r_on * r_ratio ** ((w_off - w) / span)
    out = [r]
    append = out.append
    for vk, h in zip(volts, steps):
        if divided:
            vk = vk / (r + source_r_ohm) * r
        # `drive_rate` and the window, inlined: a call per step makes the
        # fit replay about a fifth slower.  A row in the dead zone, or
        # driven toward the bound w sits on, holds w and r as they are.
        # Beyond v_on the increment is >= 0, beyond v_off <= 0, so a row
        # that moves can cross only the bound it is driven toward
        if vk >= v_on:
            if w < w_off:
                w += h * (k_on * (vk / v_on - 1.0) ** alpha_on)
                if w > w_off:
                    w = w_off
                r = r_on * r_ratio ** ((w_off - w) / span)
        elif vk <= v_off:
            if w > w_on:
                w += h * (k_off * (vk / v_off - 1.0) ** alpha_off)
                if w < w_on:
                    w = w_on
                r = r_on * r_ratio ** ((w_off - w) / span)
        append(r)
    return out


def pulse(params: DeviceParams, w: float | np.ndarray, v: float | np.ndarray,
          dt: float, n_steps: int) -> float | np.ndarray:
    """State after `n_steps` Euler steps of dt at a constant voltage per cell.

    `w` and `v` are one float each or two arrays of one shape; every cell
    steps on its own.  The state equals taking the pulse's Euler steps
    one at a time (up to the sign of a zero state).  Inputs are checked
    once: v finite, w within [w_on, w_off], dt finite and > 0,
    n_steps >= 0.  Only movable cells (v >= v_on below w_off, or
    v <= v_off above w_on) are folded, and only their rates are computed:
    every other cell keeps its state, so a rate beyond the float range
    raises `OverflowError` on a movable cell and is never evaluated on
    one that cannot move.  With no movable cell, or no step, the result
    is a copy of `w`.
    """
    ws, vs = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    if ws.shape != vs.shape:
        raise InvalidInputError(
            f"state shape {ws.shape} and voltage shape {vs.shape} differ")
    if not np.isfinite(vs).all():
        raise InvalidInputError("voltages must be finite")
    lo, hi = params.w_on, params.w_off
    # the bounds are finite, so nan and inf fail this test too
    if not ((ws >= lo) & (ws <= hi)).all():
        raise InvalidInputError(f"states must lie within [{lo!r}, {hi!r}]")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"need finite dt > 0, got dt={dt!r}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise InvalidInputError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    return _fold(params, ws, vs, dt, n_steps)


def _fold(params: DeviceParams, ws: np.ndarray, vs: np.ndarray, dt: float,
          n_steps: int) -> float | np.ndarray:
    """The stepping of `pulse` on float arrays whose checks have passed: `ws`
    and `vs` of one shape, no input checked again.  The result is a new
    array (or a float for 0-d inputs); `ws` is only read."""
    lo, hi = params.w_on, params.w_off
    shape = ws.shape
    ws, vs = ws.ravel(), vs.ravel()
    u = ws.copy()
    # only these cells can move: the rectangular window holds the rest
    movable = (((vs >= params.v_on) & (ws < hi))
               | ((vs <= params.v_off) & (ws > lo)))
    if n_steps and movable.any():
        # cells with one (state, voltage) pair share the increment and so
        # every sum: each distinct pair is folded once and scattered back
        pair = np.empty(np.count_nonzero(movable), dtype=complex)
        pair.real, pair.imag = ws[movable], vs[movable]
        pairs, slot = np.unique(pair, return_inverse=True)
        # one rate per pair, from the scalar `drive_rate`: array `pow` can
        # differ from scalar `pow` in the last bit
        rates = np.array([drive_rate(params, x) for x in pairs.imag.tolist()])
        # a float multiply or add overflows silently
        with np.errstate(over="ignore"):
            total, step = pairs.real, rates * dt
            # rows [u, dw, dw, ...]: row k of their running sum is u after
            # k steps; the block's last row starts the next block
            per_block = max(1, _FOLD_BLOCK // step.size)
            rows = np.empty((min(n_steps, per_block) + 1, step.size))
            while n_steps:
                k = min(n_steps, per_block)
                block = rows[:k + 1]
                block[0] = total
                block[1:] = step
                np.add.accumulate(block, axis=0, out=block)
                total = block[k]
                n_steps -= k
        u[movable] = np.clip(total, lo, hi)[slot]
    return float(u[0]) if not shape else u.reshape(shape)
