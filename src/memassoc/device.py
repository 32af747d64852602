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

`trajectory` steps through a voltage sequence with plain floats and
returns the resistance along the run; the chain and the fit replay use
it.  A row holds when the state cannot move: its drive lies in the dead
zone, or pushes toward the bound the state already sits on (the
rectangular window).  A held row appends the previous resistance and
computes neither the rate nor R(w); in a fit replay about half of the
rows hold.  A row that moves adds its increment, which has the sign of
its drive, so it clamps only at the bound that drive can cross.  A state
at exactly w_on or w_off stays there until the drive turns, and R is
recomputed only from the same w, so every row equals the oracle's
(a zero state may differ in sign, which R does not see).

`pulse` holds a constant voltage per cell for n steps, on one device (the
vision label device) or on a grid (the vision array).  It computes one
rate per distinct voltage with the scalar `drive_rate` (array `pow` can
differ from scalar `pow` in the last bit), adds it n times and clamps
once at the end.  Under the rectangular window that single clamp gives
the per-step clamp's state: a cell's increment keeps one sign for the
whole pulse, so a start state inside the bounds never crosses the
opposite bound; and once the per-step clamp binds, the unclamped sum
stays beyond that bound, because float addition is monotonic.  A cell
that cannot move (zero rate, or driven into the bound it sits on) stops
after its first step.  On one device the n adds run as `np.add.accumulate`
over blocks [u, dw, dw, ...] of at most `_FOLD_BLOCK` steps, each block
starting from the last sum of the one before, so memory stays bounded.
The running sum adds in order and rounds once per add, as `u += dw`
does, so the state is the same float.  A sum beyond the float range
becomes inf, as a Python add does, and the clamp maps it to the bound;
numpy's overflow warning is suppressed, on the grid too, so nothing
reaches stderr.  The grid keeps its per-step array add, which is faster
there than a 2-D running sum.

Units: volts, ohms, seconds; w is dimensionless.  All functions are
pure and all types immutable, so values can be shared freely across
threads and processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, require

__all__ = [
    "DeviceParams",
    "drive_rate",
    "resistance",
    "trajectory",
    "pulse",
]

_FOLD_BLOCK = 4096  # Euler steps per running sum in a scalar `pulse`


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
                ("r_off", self.r_on < self.r_off < inf,
                 f"be finite and exceed r_on={self.r_on!r}"),
                ("alpha_on", 0.0 < self.alpha_on < inf, "be > 0 and finite"),
                ("alpha_off", 0.0 < self.alpha_off < inf, "be > 0 and finite"),
                ("k_on", 0.0 < self.k_on < inf, "be > 0 and finite"),
                ("k_off", -inf < self.k_off < 0.0, "be < 0 and finite"),
                ("v_on", 0.0 < self.v_on < inf, "be positive and finite"),
                ("v_off", -inf < self.v_off < 0.0, "be negative and finite"),
                ("w_off", math.isfinite(self.w_off), "be finite"),
                ("w_on", -inf < self.w_on < self.w_off,
                 f"be finite and lie below w_off={self.w_off!r}"))


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
               dt: float | Sequence[float] | np.ndarray, w0: float,
               source_r_ohm: float = 0.0) -> list[float]:
    """Resistance before the first Euler step and after each of len(v) steps.

    Step k applies voltage v[k] for dt (one float for every step, or one
    per step) starting from state w0.  With a positive `source_r_ohm`, v is
    a source voltage behind that series resistance and step k drives the
    device with v[k] / (R + source_r_ohm) * R, R read before the step.
    Inputs are checked once: v finite, w0 within [w_on, w_off], every dt
    finite and > 0.
    """
    vs = np.asarray(v, dtype=float)
    if vs.ndim != 1 or not np.isfinite(vs).all():
        raise InvalidInputError("voltages must be a finite 1-D sequence")
    w_on, w_off = params.w_on, params.w_off
    if not w_on <= w0 <= w_off:
        raise InvalidInputError(
            f"state w must be finite and lie within [{w_on!r}, {w_off!r}], got {w0!r}")
    dts = np.asarray(dt, dtype=float)
    if dts.ndim != 0 and dts.shape != vs.shape:
        raise InvalidInputError(
            f"need one dt or one per step: {dts.size} dt values for {vs.size} steps")
    bad_dt = dts[~(np.isfinite(dts) & (dts > 0.0))]
    if bad_dt.size:
        raise InvalidInputError(f"need finite dt > 0, got dt={float(bad_dt[0])!r}")
    if source_r_ohm < 0.0 or not math.isfinite(source_r_ohm):
        raise InvalidInputError(f"source_r_ohm must be >= 0, got {source_r_ohm!r}")

    v_on, v_off = params.v_on, params.v_off
    k_on, k_off = params.k_on, params.k_off
    alpha_on, alpha_off = params.alpha_on, params.alpha_off
    r_on, r_ratio, span = params.r_on, params.r_off / params.r_on, w_off - w_on
    divided = source_r_ohm > 0.0

    w = w0
    r = r_on * r_ratio ** ((w_off - w) / span)
    out = [r]
    append = out.append
    dt_steps = dts.tolist() if dts.ndim else itertools.repeat(float(dts))
    for vk, h in zip(vs.tolist(), dt_steps):
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
    once: v finite, w finite and within [w_on, w_off], dt finite and > 0,
    n_steps >= 0.
    """
    scalar = np.ndim(w) == 0 and np.ndim(v) == 0
    ws, vs = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    if ws.shape != vs.shape:
        raise InvalidInputError(
            f"state shape {ws.shape} and voltage shape {vs.shape} differ")
    if not np.isfinite(vs).all():
        raise InvalidInputError("voltages must be finite")
    lo, hi = params.w_on, params.w_off
    if not (np.isfinite(ws).all() and ((ws >= lo) & (ws <= hi)).all()):
        raise InvalidInputError(f"states must lie within [{lo!r}, {hi!r}]")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"need finite dt > 0, got dt={dt!r}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise InvalidInputError(f"n_steps must be an integer >= 0, got {n_steps!r}")

    # a cell that cannot move (zero rate, or driven into the bound it sits
    # on) ends where its first step leaves it; only the others are folded
    if scalar:
        dw = drive_rate(params, float(vs)) * dt
        u = float(ws)
        if n_steps and not ((dw > 0.0 and u < hi) or (dw < 0.0 and u > lo)):
            n_steps = 1
        if n_steps:
            # [u, dw, dw, ...]: element k of its running sum is u after k
            # steps; the block's last sum starts the next block
            block = np.full(min(n_steps, _FOLD_BLOCK) + 1, dw)
            with np.errstate(over="ignore"):  # a float add overflows silently
                while n_steps:
                    k = min(n_steps, _FOLD_BLOCK)
                    block[0] = u
                    u = float(np.add.accumulate(block[:k + 1])[-1])
                    n_steps -= k
        return lo if u < lo else hi if u > hi else u
    # one rate per distinct voltage, from the scalar `drive_rate`: array
    # `pow` can differ from scalar `pow` in the last bit
    levels, where = np.unique(vs, return_inverse=True)
    rates = np.array([drive_rate(params, float(x)) for x in levels.tolist()])
    dw = rates[where.reshape(vs.shape)] * dt
    if n_steps == 0:
        return ws.copy()
    u = ws + dw
    moving = ((dw > 0.0) & (ws < hi)) | ((dw < 0.0) & (ws > lo))
    if n_steps > 1 and moving.any():
        u_moving, dw_moving = u[moving], dw[moving]
        with np.errstate(over="ignore"):
            for _ in range(n_steps - 1):
                u_moving += dw_moving
        u[moving] = u_moving
    return np.clip(u, lo, hi, out=u)

