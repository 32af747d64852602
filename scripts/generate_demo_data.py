#!/usr/bin/env python3
"""Regenerate the shipped demo data (deterministic, seeded).

Produces:
  data/vision/train/        teacher.csv + 10 noisy prototype inputs
  data/vision/calibration/  5 noisy prototype + 5 distinct-class images
  data/vision/test/         5 noisy prototype + 5 distinct-class images
  data/iv/sine_10hz_0v5.csv   synthetic I-V trace from the default device

Noise = exactly 10% of pixels flipped, disjoint draws per image.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from memassoc.device import DeviceParams
from memassoc.fit import IVTrace, simulate_current, write_trace_csv
from memassoc.vision import write_state_csv

ROOT = Path(__file__).resolve().parents[1]
SIDE = 20
FLIPS = 40  # 10% of 400 pixels


def prototype() -> np.ndarray:
    """Filled disk, ~72% of the grid set."""
    i, j = np.mgrid[0:SIDE, 0:SIDE]
    return (((i - 9.5) ** 2 + (j - 9.5) ** 2) <= 9.6 ** 2).astype(float)


def other_class() -> np.ndarray:
    """Thick diagonal bars; overlaps the disk on under half the pixels."""
    i, j = np.mgrid[0:SIDE, 0:SIDE]
    return (((i + j) % 8) < 3).astype(float)


def flipped(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flat = img.flatten()
    idx = rng.choice(flat.size, size=FLIPS, replace=False)
    flat[idx] = 1.0 - flat[idx]
    return flat.reshape(img.shape)


def write_vision(rng: np.random.Generator) -> None:
    base = ROOT / "data" / "vision"
    for split in ("train", "calibration", "test"):
        (base / split).mkdir(parents=True, exist_ok=True)
    proto, other = prototype(), other_class()
    write_state_csv(proto, base / "train" / "teacher.csv")
    for k in range(10):
        write_state_csv(flipped(proto, rng), base / "train" / f"input_{k:02d}.csv")
    for split in ("calibration", "test"):
        for k in range(5):
            write_state_csv(flipped(proto, rng), base / split / f"cat_{k:02d}.csv")
        for k in range(5):
            write_state_csv(flipped(other, rng), base / split / f"other_{k:02d}.csv")


def write_iv_trace() -> None:
    t = np.arange(0.0, 0.2, 5e-4)
    v = 0.5 * np.sin(2.0 * np.pi * 10.0 * t)
    trace = simulate_current(DeviceParams(), IVTrace(t, v, np.zeros_like(t)))
    out = ROOT / "data" / "iv" / "sine_10hz_0v5.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out)


if __name__ == "__main__":
    rng = np.random.default_rng(20240817)
    write_vision(rng)
    write_iv_trace()
    print(f"demo data written under {ROOT / 'data'}")
