#!/usr/bin/env python3
"""Fit the shipped sine trace from every +/-30% corner start, serial and forked.

    PYTHONPATH=src python scripts/fit_corners.py [CORNER ...]

Corner c (0-255, all of them by default) starts from the device that
generated data/iv/sine_10hz_0v5.csv with fitted parameter j scaled by 1.3
where bit j of c is set and by 0.7 where it is not, in `fit.PARAM_NAMES`
order; the [fit] settings are those of configs/fit_sinusoid.conf.  Each
corner is fitted twice: once with the fork helper reporting one usable
CPU, so the gradient runs in this process alone, and once with the CPUs
this process has, so it runs on forked workers where there are several.

One line per corner: the stop reason, iterations, the objective evals
(`simulate_current` calls, each one scored replay), rmse, the parameters
on the box (`at_bounds`), and `same` when the two `FitResult`s are equal
field for field, bit for bit, and the two fits made as many evals, or
else the fields that differ (`objective_evals` for the count).  A
summary counts the stop reasons and the corners that differ.  Exits 1
when any corner differs.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import sys
import time
from pathlib import Path
from unittest.mock import patch

import memassoc.fit
from memassoc import _fork
from memassoc.cli import build_fit_config, load_config
from memassoc.device import DeviceParams
from memassoc.fit import PARAM_NAMES, FitConfig, FitResult, IVTrace, fit, read_trace_csv

ROOT = Path(__file__).resolve().parents[1]


def corner_start(corner: int) -> DeviceParams:
    truth = DeviceParams()  # the device behind the shipped sine trace
    return dataclasses.replace(truth, **{
        name: getattr(truth, name) * (1.3 if corner >> j & 1 else 0.7)
        for j, name in enumerate(PARAM_NAMES)})


def counted_fit(real: IVTrace, start: DeviceParams,
                config: FitConfig) -> tuple[FitResult, int]:
    """`fit`, and the number of `simulate_current` calls it made."""
    calls = 0
    replay = memassoc.fit.simulate_current

    def counting_replay(*args, **kwargs):
        nonlocal calls
        calls += 1
        return replay(*args, **kwargs)

    with patch.object(memassoc.fit, "simulate_current", counting_replay):
        result = fit(real, start, config)
    return result, calls


def differing_fields(a: FitResult, b: FitResult) -> list[str]:
    """Fields whose values differ; `repr` tells floats apart bit for bit."""
    return [field.name for field in dataclasses.fields(FitResult)
            if repr(getattr(a, field.name)) != repr(getattr(b, field.name))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("corners", nargs="*", type=int, default=range(256),
                        metavar="CORNER", help="corners to fit (default: all)")
    corners = parser.parse_args(argv).corners
    real = read_trace_csv(ROOT / "data" / "iv" / "sine_10hz_0v5.csv")
    config = build_fit_config(load_config(ROOT / "configs" / "fit_sinusoid.conf"))
    print(f"usable CPUs: {_fork.usable_cpus()}")
    stops: collections.Counter[str] = collections.Counter()
    differ = []
    started = time.perf_counter()
    for corner in corners:
        start = corner_start(corner)
        with patch.object(_fork, "usable_cpus", lambda: 1):
            serial, evals = counted_fit(real, start, config)
        forked, forked_evals = counted_fit(real, start, config)
        fields = differing_fields(serial, forked)
        if forked_evals != evals:
            fields.append("objective_evals")
        stops[serial.stop_reason] += 1
        if fields:
            differ.append(corner)
        print(f"{corner:3d}  {serial.stop_reason:<11} {serial.iterations:3d}  "
              f"evals={evals:4d}  rmse={serial.rmse:.3e}  "
              f"at_bounds={','.join(serial.at_bounds) or '-'}"
              f"  {'differ: ' + ','.join(fields) if fields else 'same'}")
    print(f"{len(corners)} corners in {time.perf_counter() - started:.1f} s: "
          + ", ".join(f"{n} {reason}" for reason, n in stops.most_common())
          + f"; {len(corners) - len(differ)} same, {len(differ)} differ"
          + (f" ({', '.join(map(str, differ))})" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
