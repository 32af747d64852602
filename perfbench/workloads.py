"""Seeded inputs, domain checks and shipped-config jobs for the benchmark.

A workload turns a seed into a list of jobs.  A job is one `memassoc` CLI
command, given relative to the run's work directory, plus the output files
whose bytes are pinned and a domain check on the outputs.  The program only
ever sees the generated config and data files.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# --- jobs --------------------------------------------------------------------


@dataclass
class Job:
    name: str
    argv: list[str]
    out: str                        # output directory, relative to the work dir
    pinned: tuple[str, ...]         # output files whose SHA-256 is pinned
    check: Callable[[Path], list[str]] = field(default=lambda out: [])


def _read_metrics(path: Path) -> dict[str, float]:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if line)
    return {key: float(value) for key, value in pairs}


def _chain_check(n_stages: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        found = _read_metrics(out / "metrics.txt")
        return [f"stage{k} reports no switch_time_s"
                for k in range(1, n_stages + 1)
                if f"stage{k}.switch_time_s" not in found]
    return check


FIT_RMSE_LIMIT = 1e-3


def _fit_check(out: Path) -> list[str]:
    report = json.loads((out / "fit_report.json").read_text())
    problems = []
    if not report["converged"]:
        problems.append("fit did not converge")
    if not report["rmse"] <= FIT_RMSE_LIMIT:
        problems.append(f"fit rmse {report['rmse']!r} exceeds {FIT_RMSE_LIMIT}")
    return problems


def _vision_check(expected: dict[str, str]) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = (out / "report.csv").read_text().splitlines()[1:]
        labels = {row.split(",")[0]: row.split(",")[3] for row in rows}
        if set(labels) != set(expected):
            return [f"report lists {len(labels)} images, expected {len(expected)}"]
        return [f"{name} labelled {labels[name]}, generated as {want}"
                for name, want in sorted(expected.items()) if labels[name] != want]
    return check


_CHAIN_OUTPUTS = ("trace.csv", "metrics.txt", "plot_trace.py")
_FIT_OUTPUTS = ("device_fit.conf", "fit_report.json")
_VISION_OUTPUTS = ("array_state.csv", "report.csv")


def shipped_jobs(workload: str, root: Path) -> list[Job]:
    """Jobs that run the repository's shipped configs next to a workload.

    Each workload carries the shipped configs of the command it exercises,
    so every shipped output is checked against its pin in every round.
    """
    configs, data = root / "configs", root / "data"
    if workload == "chain_long":
        return [Job(stem, ["pavlov", "--config", str(configs / f"{stem}.conf"),
                           "--out", f"shipped/{stem}"],
                    f"shipped/{stem}", _CHAIN_OUTPUTS, _chain_check(n))
                for stem, n in (("pavlov2_lowpower", 2), ("pavlov2_highgain", 2),
                                ("pavlov3", 3))]
    if workload == "fit_sine":
        return [Job("fit_sinusoid",
                    ["fit", str(data / "iv" / "sine_10hz_0v5.csv"), "--config",
                     str(configs / "fit_sinusoid.conf"), "--out", "shipped/fit"],
                    "shipped/fit", _FIT_OUTPUTS, _fit_check)]
    vision = data / "vision"
    expected = {p.name: "cat" if p.name.startswith("cat_") else "non-cat"
                for p in (vision / "test").glob("*.csv")}
    return [Job("vision_demo",
                ["vision-classify", str(vision / "train"), str(vision / "test"),
                 "--config", str(configs / "vision_demo.conf"),
                 "--out", "shipped/vision"],
                "shipped/vision", _VISION_OUTPUTS, _vision_check(expected))]


# --- chain_long --------------------------------------------------------------

CHAIN_SECONDS = 3.0      # simulated length; 30 001 rows at dt = 1e-4 s
_CHAIN_ROLES = ("food", "ring1", "ring2", "ring3")
# Stage constants of the shipped pavlov3 config.
_CHAIN_STAGES = """\
[stage.1]
learning_v = 0.35
forgetting_v = -0.175
natural_forgetting_v = -0.165

[stage.2]
gain = 2.5
v_learn_max_v = 0.65
forgetting_v = -0.19
natural_forgetting_v = -0.18

[stage.3]
gain = 3.0
v_learn_max_v = 0.8
forgetting_v = -0.19
natural_forgetting_v = -0.18
"""


def chain_schedule(rng: np.random.Generator,
                   duration: float) -> dict[str, list[tuple[float, float]]]:
    """Segments per role: acquisition, then shuffled probe rounds, then decay.

    Acquisition co-pulses every signal ten times, which sets all three
    stages.  Each later round presents, in a random order, a full pairing,
    food alone and each ring alone, and a gap, so every rule-table row of
    every stage fires: learning, learning blocked by an unset previous
    stage, active forgetting on a ring alone, and natural decay.  The last
    0.3 s carry no stimulus.
    """
    segments: dict[str, list[tuple[float, float]]] = {r: [] for r in _CHAIN_ROLES}
    t = 0.0

    def present(roles: tuple[str, ...], length: float) -> None:
        nonlocal t
        start, end = round(t, 4), round(t + length, 4)
        for role in roles:
            segments[role].append((start, end))
        t = end

    for _ in range(10):
        present(_CHAIN_ROLES, rng.uniform(0.04, 0.06))
        t += rng.uniform(0.02, 0.03)
    blocks = [_CHAIN_ROLES, ("food",), ("ring1",), ("ring2",), ("ring3",), ()]
    while True:
        for index in rng.permutation(len(blocks)):
            length = rng.uniform(0.02, 0.08)
            if t + length > duration - 0.3:
                return segments
            present(blocks[index], length)
            t += rng.uniform(0.01, 0.03)


def chain_config(seed: int, duration: float) -> str:
    segments = chain_schedule(np.random.default_rng(seed), duration)
    lines = ["[schedule]", "preset = custom"]
    for role in _CHAIN_ROLES:
        lines.append(f"{role}_segments = " + ", ".join(
            f"{a!r}:{b!r}" for a, b in segments[role]))
    lines += ["", _CHAIN_STAGES, "[sim]", f"duration_s = {duration!r}", ""]
    return "\n".join(lines)


def chain_jobs(seed: int, work: Path, duration: float = CHAIN_SECONDS,
               name: str = "chain") -> list[Job]:
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "in" / f"{name}.conf").write_text(chain_config(seed, duration))
    return [Job(name, ["pavlov", "--config", f"in/{name}.conf", "--out", f"out/{name}"],
                f"out/{name}", _CHAIN_OUTPUTS, _chain_check(3))]


# --- fit_sine ----------------------------------------------------------------

FIT_STARTS = 8
_FIT_TRUTH = {  # the default device that generated data/iv/sine_10hz_0v5.csv
    "r_on_ohm": 20e3, "r_off_ohm": 190e3, "alpha_on": 1.0, "alpha_off": 1.0,
    "k_on_per_s": 2.82, "k_off_per_s": -18.33, "v_on_v": 0.14, "v_off_v": -0.16,
}
# A start scales every parameter by 0.7 or 1.3, as the shipped
# fit_sinusoid.conf does; corner c takes 1.3 for parameter j when bit j of
# c is set.  Seventeen of the 256 corners do not recover to rmse <= 1e-3
# at the baseline commit, measured one by one: 21-23, 28-31, 52, 60, 180
# and 188-190 stop early at rmse 1.04e-3 to 1.25e-3 with exit 0; 20, 158
# and 159 run out of iterations (exit 2); 252 raises OverflowError in
# fit._from_vector.  They measure the optimizer's robustness, not its
# speed, so the workload draws from the other 239, listed here by their
# measured iteration count (54 to 167), ties by corner.  A seed draws one
# corner from each of FIT_STARTS equal strata of this list, so every seed
# gets a similar spread of fit lengths and run_s does not swing with the
# seed's luck.
FIT_CORNERS_BY_ITERATIONS = (
    37, 66, 36, 130, 136, 255, 2, 4, 247, 10, 64, 74, 164, 192, 8, 117, 182,
    194, 245, 253, 53, 54, 125, 128, 42, 127, 138, 72, 89, 217, 5, 12, 87,
    156, 219, 172, 234, 165, 160, 202, 215, 44, 85, 133, 181, 34, 55, 132,
    140, 200, 40, 45, 86, 95, 98, 211, 0, 106, 150, 162, 94, 141, 148, 149,
    61, 170, 183, 222, 25, 151, 155, 173, 232, 14, 27, 96, 142, 168, 214,
    221, 32, 104, 157, 209, 1, 3, 13, 223, 226, 63, 99, 107, 118, 195, 198,
    249, 26, 59, 91, 48, 62, 93, 115, 126, 134, 191, 193, 220, 254, 51, 67,
    76, 177, 179, 224, 243, 246, 9, 88, 119, 147, 204, 251, 49, 90, 113,
    131, 196, 218, 227, 137, 145, 187, 73, 84, 121, 153, 216, 174, 19, 24,
    139, 176, 185, 201, 203, 206, 212, 236, 16, 65, 124, 244, 68, 116, 241,
    6, 197, 199, 230, 78, 83, 92, 154, 75, 114, 152, 166, 178, 238, 11, 50,
    70, 110, 228, 235, 242, 15, 102, 108, 123, 129, 169, 186, 225, 43, 112,
    171, 233, 17, 38, 184, 105, 207, 79, 143, 240, 111, 71, 100, 122, 205,
    35, 135, 144, 161, 175, 237, 47, 250, 57, 7, 46, 231, 41, 69, 239, 248,
    33, 58, 81, 97, 210, 77, 120, 56, 103, 146, 163, 167, 82, 39, 208, 18,
    101, 80, 229, 213, 109)


def fit_corner_config(corner: int) -> str:
    lines = ["[device]"]
    for bit, (key, value) in enumerate(_FIT_TRUTH.items()):
        lines.append(f"{key} = {value * (1.3 if corner >> bit & 1 else 0.7)!r}")
    lines += ["", "[fit]", "grad_step = 1e-6", "max_iters = 200", "tol = 1e-12", ""]
    return "\n".join(lines)


def fit_jobs(seed: int, work: Path, root: Path) -> list[Job]:
    (work / "in").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(root / "data" / "iv" / "sine_10hz_0v5.csv",
                    work / "in" / "sine_10hz_0v5.csv")
    rng = np.random.default_rng(seed)
    corners = [rng.choice(stratum) for stratum in
               np.array_split(FIT_CORNERS_BY_ITERATIONS, FIT_STARTS)]
    jobs = []
    for k, corner in enumerate(corners):
        name = f"fit_{k:02d}"
        (work / "in" / f"{name}.conf").write_text(fit_corner_config(int(corner)))
        jobs.append(Job(name, ["fit", "in/sine_10hz_0v5.csv", "--config",
                               f"in/{name}.conf", "--out", f"out/{name}"],
                        f"out/{name}", _FIT_OUTPUTS, _fit_check))
    return jobs


# --- vision_batch ------------------------------------------------------------

VISION_TRAIN = 100          # noisy prototype inputs paired with the teacher
VISION_TEST = 50            # per class
VISION_CALIBRATION = 10     # per class
_SIDE = 20
_FLIPS = 40                 # 10% of the pixels


def _prototype() -> np.ndarray:
    i, j = np.mgrid[0:_SIDE, 0:_SIDE]
    return (((i - 9.5) ** 2 + (j - 9.5) ** 2) <= 9.6 ** 2).astype(float)


def _other_class() -> np.ndarray:
    i, j = np.mgrid[0:_SIDE, 0:_SIDE]
    return (((i + j) % 8) < 3).astype(float)


def _flipped(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flat = img.flatten()
    idx = rng.choice(flat.size, size=_FLIPS, replace=False)
    flat[idx] = 1.0 - flat[idx]
    return flat.reshape(img.shape)


def _write_grid(img: np.ndarray, path: Path) -> None:
    path.write_text("".join(",".join(f"{x:.10g}" for x in row) + "\n" for row in img))


VISION_CONFIG = """\
[vision]
binarize_threshold = 0.5
match_predicate = equal-binary
match_scope = all-vector
v_min_v = 0.0
v_max_v = 0.35
pulse_dt_s = 0.05
similarity_threshold = {threshold!r}
label_learn_v = 0.35
label_forget_v = -0.2
label_pulse_s = 0.25
"""


def vision_images(seed: int, work: Path) -> dict[str, dict[str, str]]:
    """Write train/calibration/test splits; return the class of each image."""
    rng = np.random.default_rng(seed)
    proto, other = _prototype(), _other_class()
    train = work / "in" / "train"
    train.mkdir(parents=True)
    _write_grid(proto, train / "teacher.csv")
    for k in range(VISION_TRAIN):
        _write_grid(_flipped(proto, rng), train / f"input_{k:03d}.csv")
    classes: dict[str, dict[str, str]] = {}
    for split, per_class in (("calibration", VISION_CALIBRATION),
                             ("test", VISION_TEST)):
        (work / "in" / split).mkdir()
        classes[split] = {}
        for prefix, img, label in (("cat", proto, "cat"),
                                   ("other", other, "non-cat")):
            for k in range(per_class):
                name = f"{prefix}_{k:03d}.csv"
                _write_grid(_flipped(img, rng), work / "in" / split / name)
                classes[split][name] = label
    return classes


def vision_calibration_job() -> Job:
    """Scores the calibration split; its threshold is only a placeholder."""
    return Job("calibration", ["vision-classify", "in/train", "in/calibration",
                               "--config", "in/calibrate.conf",
                               "--out", "out/calibration"],
               "out/calibration", ())


def vision_job(classes: dict[str, str]) -> Job:
    return Job("classify", ["vision-classify", "in/train", "in/test",
                            "--config", "in/vision.conf", "--out", "out/classify"],
               "out/classify", _VISION_OUTPUTS, _vision_check(classes))
