"""Image association on a 20x20 memristor array.

Training compares each teacher pixel against the input image under a
configurable match predicate and scope, turns the match count into a
modulation voltage V = v_min + (v_max - v_min) * count / scope_size, and
pulses the corresponding array cell with that voltage.  Cells whose
voltage clears the device's set threshold drift toward low resistance;
the rest stay put, so after a handful of pairs the array's normalized
state map approaches the inverse of the teacher's binary pattern
(learned pixels read 0, background reads 1).

Inference reads the state map, scores a probe image by the mean squared
difference between the map and the inverted binary probe (0 = perfect
match), and commits the verdict to a label device with the array's
parameters: scores below the threshold drive a set pulse (low resistance,
label "cat"), others a reset pulse (high resistance, label "non-cat").

Cell updates are independent and a cell's voltage is constant for the
whole pulse, so a training pair is one `device.pulse` over the grid and a
label verdict is one `device.pulse` on the label device, read through
`device.resistance`.  Every verdict restarts the label device at w_on, so
its resistance depends only on the device, the drive and the pulse; it is
computed once per drive and remembered for later probes.  `pulse` adds
each cell's increment once per Euler step and clamps to the state bounds
once at the end, which under the device's rectangular window gives the
per-step clamp's state: the grid reproduces the one-step reference of
`tests/oracle.py` cell by cell, bit for bit, for every exponent (up to
the sign of a zero state), and the label resistance equals the last
resistance of `device.trajectory` over the same pulse.  `pulse` takes
the rate only of cells that can move, so most pairs of a trained array
cost the movability test alone.  A drift rate beyond the float range on
a cell that can move fails the training or label pulse with a
`DataError` that names it; on a cell that cannot move it is never
evaluated.

What does not change from one image, pair or probe to the next is done
once per run.  The config checks its threshold, voltages, dt and step
budgets when it is built, so matching binarizes each grid with one
comparison into a boolean mask and counts with `np.count_nonzero`, and
the training pulse steps `pulse`'s fold on the array's own grid and on
voltages built here, without running `pulse`'s input checks again (the
label pulse, run once per drive, keeps them).  An array holds its cell
grid read-only and computes its normalized `state` grid once, so every
probe of a trained array, and the written `array_state.csv`, read one
grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Sequence

import numpy as np

from .device import DeviceParams, _fold, pulse, resistance
from .errors import DataError, InvalidInputError, read_input, require, split_lines

__all__ = [
    "GRID_SIDE",
    "LABEL_POSITIVE",
    "LABEL_NEGATIVE",
    "MAX_PULSE_STEPS",
    "VisionConfig",
    "ArrayState",
    "ClassifyResult",
    "new_array",
    "IMAGE_READERS",
    "load_image",
    "read_image_csv",
    "read_image_pgm",
    "match_counts",
    "modulation_voltages",
    "train_pair",
    "train_many",
    "similarity",
    "midpoint_threshold",
    "classify",
    "write_state_csv",
]

GRID_SIDE = 20
LABEL_POSITIVE = "cat"      # label-device set  -> low resistance
LABEL_NEGATIVE = "non-cat"  # label-device reset -> high resistance
MAX_PULSE_STEPS = 10_000_000  # Euler steps per training or label pulse

_PREDICATES = ("equal-binary", "abs-diff")
_SCOPES = ("all-vector", "corresponding")


@dataclass(frozen=True)
class VisionConfig:
    """The count-to-voltage training rule, one pulse per (input, teacher)
    pair, and the label device's drive.  Without a similarity threshold
    nothing is classified and the label settings go unchecked; the checks
    that need the array's device are `check_reach` and `check_classify`."""

    binarize_threshold: float = 0.5
    predicate: str = "equal-binary"
    tau: float = 0.1              # tolerance of the abs-diff predicate
    scope: str = "all-vector"
    v_min: float = 0.0            # V at count 0
    v_max: float = 0.35           # V at full count
    pulse_dt: float = 0.05        # s, pulse length per pair
    dt: float = 1e-4              # s, integration step of both pulses
    similarity_threshold: float | None = None
    label_learn_v: float = 0.35
    label_forget_v: float = -0.2
    label_pulse_s: float = 0.25
    label_boundary_ohm: float = 50e3   # resistance separating the two labels
    allow_resize: bool = False

    def __post_init__(self) -> None:
        require(self,
                ("binarize_threshold", 0.0 < self.binarize_threshold < 1.0,
                 "lie in (0,1)"),
                ("predicate", self.predicate in _PREDICATES, f"be one of {_PREDICATES}"),
                ("scope", self.scope in _SCOPES, f"be one of {_SCOPES}"),
                ("tau", 0.0 <= self.tau < math.inf, "be finite and >= 0"),
                ("v_min", math.isfinite(self.v_min), "be finite"),
                ("v_max", self.v_min < self.v_max < math.inf,
                 f"be finite and exceed v_min={self.v_min!r}"),
                ("v_max", math.isfinite(self.v_max - self.v_min),
                 f"lie within the float range of v_min={self.v_min!r}"),
                ("pulse_dt", 0.0 < self.pulse_dt < math.inf, "be positive and finite"),
                self._dt_fits("pulse_dt"))
        if self.similarity_threshold is not None:
            require(self,
                    ("similarity_threshold", 0.0 < self.similarity_threshold < 1.0,
                     "lie in (0,1)"),
                    ("label_pulse_s", 0.0 < self.label_pulse_s < math.inf,
                     "be positive and finite"),
                    self._dt_fits("label_pulse_s"))

    def _dt_fits(self, pulse: str) -> tuple[str, bool, str]:
        """The check that dt splits the pulse whose length is the field
        `pulse` into at most `MAX_PULSE_STEPS` steps, round(length / dt)."""
        length = getattr(self, pulse)
        return ("dt", 0.0 < self.dt <= length
                and length / self.dt < MAX_PULSE_STEPS + 0.5,
                f"lie in (0, {pulse}={length!r}] and leave at most "
                f"{MAX_PULSE_STEPS} steps per pulse")

    def check_reach(self, device: DeviceParams) -> None:
        """Raise unless the full-count voltage clears the device's set
        threshold; below it no pulse moves any cell."""
        require(self, ("v_max", device.v_on < self.v_max,
                       f"exceed the set threshold v_on={device.v_on!r}"))

    def check_classify(self, device: DeviceParams) -> None:
        """Raise unless a threshold is set and the label drive and boundary
        tell the two labels apart on `device`."""
        require(self,
                ("similarity_threshold", self.similarity_threshold is not None,
                 "be set to classify"),
                ("label_boundary_ohm", device.r_on < self.label_boundary_ohm < device.r_off,
                 f"lie strictly between r_on={device.r_on!r} and r_off={device.r_off!r}"),
                ("label_learn_v", device.v_on < self.label_learn_v < math.inf,
                 f"be finite and exceed v_on={device.v_on!r}"),
                ("label_forget_v", -math.inf < self.label_forget_v < device.v_off,
                 f"be finite and lie below v_off={device.v_off!r}"))


@dataclass(frozen=True, eq=False)
class ArrayState:
    """Shared device parameters plus the per-cell state grid, held as a
    read-only float copy (the caller's array keeps its flags), so the
    normalized grid `state` can be computed once per array.  An array
    compares by identity and hashes by `id` (`eq=False`): its grid has no
    single truth value to compare by."""

    params: DeviceParams
    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 2:
            raise InvalidInputError(f"cell grid must be 2-D, got shape {w.shape}")
        if w.size == 0:
            raise InvalidInputError(f"cell grid must not be empty, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("cell states must be finite")
        if w.min() < self.params.w_on or w.max() > self.params.w_off:
            raise InvalidInputError("cell states must lie within device bounds")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def _trusted(cls, params: DeviceParams, w: np.ndarray) -> ArrayState:
        """An array on `w`, a new float grid known to pass `__post_init__`
        that no one else holds, built without running its checks again."""
        w.flags.writeable = False
        array = object.__new__(cls)
        object.__setattr__(array, "params", params)
        object.__setattr__(array, "w", w)
        return array

    @functools.cached_property
    def state(self) -> np.ndarray:
        """Normalized state per cell: 0 at low resistance, 1 at high,
        computed on first use and read-only: every probe of a trained array
        reads the same grid.

        (w_off - w) / (w_off - w_on) equals log(R / r_on) / log(r_off / r_on)
        under the device's resistance map.
        """
        span = self.params.w_off - self.params.w_on
        grid = (self.params.w_off - self.w) / span
        grid.flags.writeable = False
        return grid


def new_array(params: DeviceParams) -> ArrayState:
    """Fresh `GRID_SIDE` x `GRID_SIDE` array with every cell fully reset
    (high resistance)."""
    return ArrayState(params, np.full((GRID_SIDE, GRID_SIDE), params.w_on))


# --- image ingestion -------------------------------------------------------

def _normalize_intensities(raw: np.ndarray, values: Collection[float],
                           origin: str, full_scale: float | None) -> np.ndarray:
    """`raw`, an image or a table of its values, over its full scale once
    `values`, the image's distinct entries, are finite, >= 0 and at most
    it: a PGM's maxval, a CSV's (None) 255 or 1."""
    if not all(map(math.isfinite, values)):
        raise DataError(f"{origin}: image entries must be finite and non-empty")
    lo, hi = min(values), max(values)
    if lo < 0.0:
        raise DataError(f"{origin}: negative intensity {lo!r}")
    if full_scale is None:
        full_scale = 255.0 if hi > 1.0 else 1.0
    if hi > full_scale:
        raise DataError(f"{origin}: intensity {hi!r} exceeds {full_scale:g}")
    return raw / full_scale


def read_image_csv(path: Path) -> np.ndarray:
    """Rectangular grid of comma-separated intensities, any size.  A grid
    of one-character ASCII cells is read through a byte table, any other
    one distinct cell text at a time, under the same checks and messages."""
    lines = split_lines(read_input(path, DataError))
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise DataError(f"{path.name}: empty image")
    cells = ",".join(rows)
    n = cells.count(",") + 1
    # one ASCII character per cell and rows of one length (never ragged), as
    # in every shipped image: the cells at the even positions, commas at the
    # odd ones
    one_char = (len(cells) == 2 * n - 1 and cells.isascii()
                and cells[1::2] == "," * (n - 1)
                and len(set(map(len, rows))) == 1)
    texts = cells[::2] if one_char else cells.split(",")
    # each distinct cell text through Python's float() once; most images
    # hold a handful of texts, such as "0" and "1"
    try:
        value = {text: float(text) for text in set(texts)}
    except ValueError:
        # float() each cell again in file order, blank lines counted, so the
        # first bad cell raises again and its line is named
        try:
            for ln, line in enumerate(lines, start=1):
                if line.strip():
                    list(map(float, line.split(",")))
        except ValueError as exc:
            raise DataError(f"{path.name}:{ln}: {exc}") from exc
    if one_char:
        # the cell bytes index a 128-entry table of scaled intensities
        table = np.zeros(128)
        table[[ord(text) for text in value]] = list(value.values())
        img = _normalize_intensities(table, value.values(), path.name, None).take(
            np.frombuffer(texts.encode("ascii"), np.uint8))
    else:
        widths = {line.count(",") + 1 for line in rows}
        if len(widths) != 1:
            raise DataError(f"{path.name}: ragged rows (widths {sorted(widths)})")
        img = _normalize_intensities(
            np.fromiter(map(value.__getitem__, texts), dtype=float, count=n),
            value.values(), path.name, None)
    return img.reshape(len(rows), -1)


# a PGM header token: magic, width, height or maxval, each after whitespace
# and '#' comments running to end of line
_PGM_TOKEN = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)")


def read_image_pgm(path: Path) -> np.ndarray:
    """Grayscale PGM, ASCII (P2) or binary (P5), of integers to maxval <= 255."""
    blob = read_input(path, DataError, text=False)
    header = list(itertools.islice(_PGM_TOKEN.finditer(blob), 4))
    tokens = [m[1] for m in header]
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise DataError(f"{path.name}: not a P2/P5 PGM")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise DataError(f"{path.name}: bad PGM header") from exc
    if width <= 0 or height <= 0 or not 0 < maxval <= 255:
        raise DataError(f"{path.name}: unsupported PGM geometry "
                        f"{width}x{height} maxval {maxval}")
    n, pos = width * height, header[-1].end()
    if tokens[0] == b"P5":
        data = blob[pos + 1: pos + 1 + n]  # single whitespace after maxval
        if len(data) != n:
            raise DataError(f"{path.name}: truncated PGM payload")
        raw, values = np.frombuffer(data, dtype=np.uint8), set(data)
    else:
        try:
            values = [int(t) for t in blob[pos:].split()]
            raw = np.array(values, dtype=float)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path.name}: bad PGM sample") from exc
        if raw.size != n:
            raise DataError(f"{path.name}: expected {n} samples, got {raw.size}")
    return _normalize_intensities(raw.reshape(height, width), values, path.name,
                                  float(maxval))


# suffix -> reader: the image formats of `load_image` and the CLI's listings
IMAGE_READERS = {".csv": read_image_csv, ".pgm": read_image_pgm}


def _box_resize(img: np.ndarray, side: int) -> np.ndarray:
    """Center-crop to square, then box-filter down to side x side."""
    h, w = img.shape
    s = min(h, w)
    top, left = (h - s) // 2, (w - s) // 2
    square = img[top: top + s, left: left + s]
    # average source pixels whose index falls in each destination bin
    edges = np.linspace(0, s, side + 1)
    starts = np.floor(edges[:-1]).astype(int)
    stops = np.ceil(edges[1:]).astype(int)
    out = np.empty((side, side))
    for i in range(side):
        for j in range(side):
            out[i, j] = square[starts[i]:stops[i], starts[j]:stops[j]].mean()
    return out


def load_image(path: Path, allow_resize: bool = False) -> np.ndarray:
    """Image as a `GRID_SIDE` x `GRID_SIDE` grid of intensities in [0, 1].

    `IMAGE_READERS` picks the reader by lower-cased suffix.  Larger images
    are center-cropped and box-filtered down only when `allow_resize` is
    set; any other shape mismatch is an error naming the dimensions.
    """
    suffix = path.suffix.lower()
    if suffix not in IMAGE_READERS:
        raise DataError(f"{path.name}: unsupported image format {suffix!r}")
    img = IMAGE_READERS[suffix](path)
    if img.shape == (GRID_SIDE, GRID_SIDE):
        return img
    if allow_resize and img.shape[0] >= GRID_SIDE and img.shape[1] >= GRID_SIDE:
        return _box_resize(img, GRID_SIDE)
    raise DataError(
        f"{path.name}: image is {img.shape[0]}x{img.shape[1]}, "
        f"expected {GRID_SIDE}x{GRID_SIDE}"
        + ("" if allow_resize else " (resizing not enabled)"))


# --- training --------------------------------------------------------------

def _pulse(what: str, step: Callable[..., float | np.ndarray],
           params: DeviceParams, w: float | np.ndarray, v: float | np.ndarray,
           dt: float, n_steps: int) -> float | np.ndarray:
    """`step(params, w, v, dt, n_steps)`, which is `device.pulse` or, on
    float arrays that pass its checks already, its fold, with a drift rate
    beyond the float range as a `DataError` that names the pulse."""
    try:
        return step(params, w, v, dt, n_steps)
    except OverflowError as exc:
        raise DataError(f"{what}: the device's drift rate is beyond the "
                        "float range") from exc


def match_counts(input_img: np.ndarray, teacher_img: np.ndarray,
                 cfg: VisionConfig) -> tuple[np.ndarray, int]:
    """Per-teacher-pixel match counts and the scope size normalizing them.

    all-vector scope compares each teacher pixel against every input
    entry (scope size = number of pixels); corresponding scope compares
    position-wise (scope size = 1, counts in {0, 1}).
    """
    inp = np.asarray(input_img, dtype=float)
    tea = np.asarray(teacher_img, dtype=float)
    if inp.shape != tea.shape:
        raise InvalidInputError(
            f"input {inp.shape} and teacher {tea.shape} shapes differ")
    if cfg.predicate == "equal-binary":
        # each image binarized once, as the mask of intensities >= the
        # threshold, which `cfg` has checked
        inp_on = inp >= cfg.binarize_threshold
        tea_on = tea >= cfg.binarize_threshold
        if cfg.scope == "corresponding":
            return (inp_on == tea_on).astype(float), 1
        ones = float(np.count_nonzero(inp_on))
        return np.where(tea_on, ones, inp.size - ones), inp.size
    # abs-diff predicate on raw intensities
    if cfg.scope == "corresponding":
        counts = (np.abs(inp - tea) <= cfg.tau).astype(float)
        return counts, 1
    counts = np.array([[np.sum(np.abs(inp - t) <= cfg.tau) for t in row]
                       for row in tea], dtype=float)
    return counts, inp.size


def modulation_voltages(counts: np.ndarray, scope_n: int,
                        v_min: float, v_max: float) -> np.ndarray:
    """V = v_min + (v_max - v_min) * count / scope_n, elementwise."""
    if scope_n <= 0:
        raise InvalidInputError(f"scope size must be positive, got {scope_n!r}")
    counts = np.asarray(counts, dtype=float)
    if counts.min() < 0 or counts.max() > scope_n:
        raise InvalidInputError("counts must lie in [0, scope size]")
    return v_min + (v_max - v_min) * counts / scope_n


def train_pair(array: ArrayState, input_img: np.ndarray,
               teacher_img: np.ndarray, cfg: VisionConfig) -> ArrayState:
    """One modulation pulse derived from a single (input, teacher) pair."""
    cfg.check_reach(array.params)
    if np.asarray(teacher_img).shape != array.w.shape:
        raise InvalidInputError(
            f"teacher shape {np.asarray(teacher_img).shape} does not match "
            f"array shape {array.w.shape}")
    counts, scope_n = match_counts(input_img, teacher_img, cfg)
    volts = modulation_voltages(counts, scope_n, cfg.v_min, cfg.v_max)
    # `pulse`'s checks hold by construction: the grid is the array's own,
    # `cfg` has checked dt, the step count and a finite v_max - v_min
    w = _pulse("training pulse", _fold, array.params, array.w, volts, cfg.dt,
               int(round(cfg.pulse_dt / cfg.dt)))
    # the fold returns a new float grid of the array's shape within the bounds
    return ArrayState._trusted(array.params, w)


def train_many(array: ArrayState, inputs: Sequence[np.ndarray],
               teacher_img: np.ndarray, cfg: VisionConfig) -> ArrayState:
    """Fold `train_pair` over the inputs in order."""
    for img in inputs:
        array = train_pair(array, img, teacher_img, cfg)
    return array


# --- inference -------------------------------------------------------------

def similarity(state: np.ndarray, img: np.ndarray,
               binarize_threshold: float = VisionConfig.binarize_threshold
               ) -> float:
    """Mean squared difference between the state map and the inverted
    binary image; 0 means the array encodes exactly this pattern."""
    state = np.asarray(state, dtype=float)
    if not 0.0 < binarize_threshold < 1.0:
        raise InvalidInputError(
            f"threshold must lie in (0,1), got {binarize_threshold!r}")
    img = np.asarray(img, dtype=float)
    if state.shape != img.shape:
        raise InvalidInputError(
            f"state {state.shape} and image {img.shape} shapes differ")
    # the inverted binary image as a mask, True where the intensity is not
    # >= the threshold (nan included): subtracting it subtracts 1.0 or 0.0
    return float(np.mean((state - ~(img >= binarize_threshold)) ** 2))


def midpoint_threshold(scores_a: Sequence[float],
                       scores_b: Sequence[float]) -> float:
    """Decision threshold halfway between two score-cluster means."""
    a, b = np.asarray(scores_a, float), np.asarray(scores_b, float)
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("both calibration clusters must be non-empty")
    return float((a.mean() + b.mean()) / 2.0)


@functools.lru_cache(maxsize=32)
def _label_resistance(device: DeviceParams, drive: float, dt: float,
                      n_steps: int) -> float:
    """Label device's resistance after a pulse of `n_steps` steps of dt at
    `drive`, from w_on.  Every verdict restarts the device at w_on, so the
    result depends on these arguments alone and is computed once for each."""
    return resistance(device, _pulse("label pulse", pulse, device, device.w_on,
                                     drive, dt, n_steps))


@dataclass(frozen=True)
class ClassifyResult:
    label: str
    label_resistance: float
    score: float


def classify(array: ArrayState, img: np.ndarray,
             cfg: VisionConfig) -> ClassifyResult:
    """Score a probe image and commit the verdict to a label device, a
    fresh device with the array's parameters.

    Scores below the threshold drive the label device with the learning
    voltage (sets to low resistance); others get the forgetting voltage.
    The returned label reads the final resistance against the configured
    boundary (50 kOhm by default).
    """
    cfg.check_classify(array.params)
    score = similarity(array.state, img, cfg.binarize_threshold)
    drive = (cfg.label_learn_v if score < cfg.similarity_threshold
             else cfg.label_forget_v)
    r = _label_resistance(array.params, drive, cfg.dt,
                          int(round(cfg.label_pulse_s / cfg.dt)))
    label = LABEL_POSITIVE if r < cfg.label_boundary_ohm else LABEL_NEGATIVE
    return ClassifyResult(label=label, label_resistance=r, score=score)


def write_state_csv(state: np.ndarray, path: str | Path) -> None:
    """Normalized state grid, one CSV row per array row."""
    with Path(path).open("w", newline="") as fh:
        for row in np.asarray(state, dtype=float):
            fh.write(",".join(f"{x:.10g}" for x in row) + "\n")
