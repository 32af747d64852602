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
match), and commits the verdict to a separate label device: scores below
the threshold drive a set pulse (low resistance, label "cat"), others a
reset pulse (high resistance, label "non-cat").

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
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .device import DeviceParams, pulse, resistance
from .errors import DataError, InvalidInputError, require

__all__ = [
    "GRID_SIDE",
    "LABEL_POSITIVE",
    "LABEL_NEGATIVE",
    "MAX_PULSE_STEPS",
    "TrainConfig",
    "InferConfig",
    "ArrayState",
    "ClassifyResult",
    "new_array",
    "load_image",
    "read_image_csv",
    "read_image_pgm",
    "binarize",
    "match_counts",
    "modulation_voltages",
    "train_pair",
    "train_many",
    "state_grid",
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
class TrainConfig:
    """Count-to-voltage training rule for one pulse per (input, teacher) pair."""

    binarize_threshold: float = 0.5
    predicate: str = "equal-binary"
    tau: float = 0.1              # tolerance of the abs-diff predicate
    scope: str = "all-vector"
    v_min: float = 0.0            # V at count 0
    v_max: float = 0.35           # V at full count
    pulse_dt: float = 0.05        # s, pulse length per pair
    dt: float = 1e-4              # s, integration step

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
                ("pulse_dt", 0.0 < self.pulse_dt < math.inf, "be positive and finite"),
                # a pulse runs round(pulse_dt / dt) steps
                ("dt", 0.0 < self.dt <= self.pulse_dt
                 and self.pulse_dt / self.dt < MAX_PULSE_STEPS + 0.5,
                 f"lie in (0, pulse_dt={self.pulse_dt!r}] and leave at most "
                 f"{MAX_PULSE_STEPS} steps per pulse"))

    def check_reach(self, device: DeviceParams) -> None:
        """Raise unless the full-count voltage clears the device's set
        threshold; below it no pulse moves any cell."""
        require(self, ("v_max", device.v_on < self.v_max,
                       f"exceed the set threshold v_on={device.v_on!r}"))


@dataclass(frozen=True)
class InferConfig:
    """Similarity threshold and label-device drive for classification."""

    similarity_threshold: float
    label_device: DeviceParams = field(default_factory=DeviceParams)
    label_learn_v: float = 0.35
    label_forget_v: float = -0.2
    label_pulse_s: float = 0.25
    label_boundary_ohm: float = 50e3   # resistance separating the two labels
    dt: float = TrainConfig.dt         # s, integration step

    def __post_init__(self) -> None:
        device = self.label_device
        require(self,
                ("similarity_threshold", 0.0 < self.similarity_threshold < 1.0,
                 "lie in (0,1)"),
                ("label_boundary_ohm", device.r_on < self.label_boundary_ohm < device.r_off,
                 f"lie strictly between r_on={device.r_on!r} and r_off={device.r_off!r}"),
                ("label_learn_v", device.v_on < self.label_learn_v < math.inf,
                 f"be finite and exceed v_on={device.v_on!r}"),
                ("label_forget_v", -math.inf < self.label_forget_v < device.v_off,
                 f"be finite and lie below v_off={device.v_off!r}"),
                ("label_pulse_s", 0.0 < self.label_pulse_s < math.inf,
                 "be positive and finite"),
                ("dt", 0.0 < self.dt <= self.label_pulse_s
                 and self.label_pulse_s / self.dt < MAX_PULSE_STEPS + 0.5,
                 f"lie in (0, label_pulse_s={self.label_pulse_s!r}] and leave "
                 f"at most {MAX_PULSE_STEPS} steps per pulse"))


@dataclass(frozen=True)
class ArrayState:
    """Shared device parameters plus the per-cell state grid."""

    params: DeviceParams
    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2:
            raise InvalidInputError(f"cell grid must be 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("cell states must be finite")
        if w.min() < self.params.w_on or w.max() > self.params.w_off:
            raise InvalidInputError("cell states must lie within device bounds")
        object.__setattr__(self, "w", w)

    @classmethod
    def _trusted(cls, params: DeviceParams, w: np.ndarray) -> ArrayState:
        """An array whose float grid is known to pass `__post_init__`,
        built without running its checks again."""
        array = object.__new__(cls)
        object.__setattr__(array, "params", params)
        object.__setattr__(array, "w", w)
        return array


def new_array(params: DeviceParams | None = None,
              side: int = GRID_SIDE) -> ArrayState:
    """Fresh array with every cell fully reset (high resistance)."""
    params = params or DeviceParams()
    return ArrayState(params, np.full((side, side), params.w_on))


# --- image ingestion -------------------------------------------------------

def _normalize_intensities(raw: np.ndarray, values: Collection[float],
                           origin: str) -> np.ndarray:
    """`raw` scaled to [0, 1], checked on `values`, its distinct entries as
    Python floats: a handful per image instead of a pass per check."""
    if not all(map(math.isfinite, values)):
        raise DataError(f"{origin}: image entries must be finite and non-empty")
    lo, hi = min(values), max(values)
    if lo < 0.0:
        raise DataError(f"{origin}: negative intensity {lo!r}")
    # 8-bit ranges are detected by magnitude; unit-range data passes through
    if hi > 1.0:
        if hi > 255.0:
            raise DataError(f"{origin}: intensity {hi!r} exceeds 255")
        return raw / 255.0
    return raw


def read_image_csv(path: str | Path) -> np.ndarray:
    """Rectangular grid of comma-separated intensities, any size."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise DataError(f"{path.name}: empty image")
    # each distinct cell text through Python's float() once; most images
    # hold a handful of texts, such as "0" and "1"
    texts = ",".join(rows).split(",")
    try:
        value = {text: float(text) for text in set(texts)}
    except ValueError:
        # name the first bad line, counting blank lines
        for ln, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    list(map(float, line.split(",")))
                except ValueError as exc:
                    raise DataError(f"{path.name}:{ln}: {exc}") from exc
        raise
    widths = {line.count(",") + 1 for line in rows}
    if len(widths) != 1:
        raise DataError(f"{path.name}: ragged rows (widths {sorted(widths)})")
    raw = np.fromiter(map(value.__getitem__, texts), dtype=float,
                      count=len(texts)).reshape(len(rows), widths.pop())
    return _normalize_intensities(raw, value.values(), path.name)


def read_image_pgm(path: str | Path) -> np.ndarray:
    """Grayscale PGM, ASCII (P2) or binary (P5) with maxval <= 255."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        m = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)").match(blob, pos)
        if m is None:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise DataError(f"{path.name}: not a P2/P5 PGM")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise DataError(f"{path.name}: bad PGM header") from exc
    if width <= 0 or height <= 0 or not 0 < maxval <= 255:
        raise DataError(f"{path.name}: unsupported PGM geometry "
                        f"{width}x{height} maxval {maxval}")
    n = width * height
    if tokens[0] == b"P5":
        data = blob[pos + 1: pos + 1 + n]  # single whitespace after maxval
        if len(data) != n:
            raise DataError(f"{path.name}: truncated PGM payload")
        flat = np.frombuffer(data, dtype=np.uint8).astype(float)
    else:
        try:
            flat = np.array([float(t) for t in blob[pos:].split()], dtype=float)
        except ValueError as exc:
            raise DataError(f"{path.name}: bad PGM sample") from exc
        if flat.size != n:
            raise DataError(f"{path.name}: expected {n} samples, got {flat.size}")
    if flat.size and flat.max() > maxval:
        raise DataError(f"{path.name}: sample exceeds maxval {maxval}")
    return flat.reshape(height, width) / float(maxval)


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


def load_image(path: str | Path, side: int = GRID_SIDE,
               allow_resize: bool = False) -> np.ndarray:
    """Image as a side x side grid of intensities in [0, 1].

    CSV and PGM inputs are dispatched on the file suffix.  Larger images
    are center-cropped and box-filtered down only when `allow_resize` is
    set; any other shape mismatch is an error naming the dimensions.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        img = read_image_csv(path)
    elif suffix == ".pgm":
        img = read_image_pgm(path)
    else:
        raise DataError(f"{path.name}: unsupported image format {suffix!r}")
    if img.shape == (side, side):
        return img
    if allow_resize and img.shape[0] >= side and img.shape[1] >= side:
        return _box_resize(img, side)
    raise DataError(
        f"{path.name}: image is {img.shape[0]}x{img.shape[1]}, "
        f"expected {side}x{side}"
        + ("" if allow_resize else " (resizing not enabled)"))


# --- training --------------------------------------------------------------

def _pulse(what: str, params: DeviceParams, w: float | np.ndarray,
           v: float | np.ndarray, dt: float, n_steps: int) -> float | np.ndarray:
    """`device.pulse`, with a drift rate beyond the float range as a
    `DataError` that names the pulse."""
    try:
        return pulse(params, w, v, dt, n_steps)
    except OverflowError as exc:
        raise DataError(f"{what}: the device's drift rate is beyond the "
                        "float range") from exc


def binarize(img: np.ndarray,
             threshold: float = TrainConfig.binarize_threshold) -> np.ndarray:
    """Intensities mapped to {0, 1} by >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise InvalidInputError(f"threshold must lie in (0,1), got {threshold!r}")
    return (np.asarray(img, dtype=float) >= threshold).astype(float)


def match_counts(input_img: np.ndarray, teacher_img: np.ndarray,
                 cfg: TrainConfig) -> tuple[np.ndarray, int]:
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
        inp = binarize(inp, cfg.binarize_threshold)
        tea = binarize(tea, cfg.binarize_threshold)
        if cfg.scope == "corresponding":
            counts = (inp == tea).astype(float)
            return counts, 1
        ones = float(np.sum(inp == 1.0))
        counts = np.where(tea == 1.0, ones, inp.size - ones)
        return counts, inp.size
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
               teacher_img: np.ndarray, cfg: TrainConfig) -> ArrayState:
    """One modulation pulse derived from a single (input, teacher) pair."""
    cfg.check_reach(array.params)
    if np.asarray(teacher_img).shape != array.w.shape:
        raise InvalidInputError(
            f"teacher shape {np.asarray(teacher_img).shape} does not match "
            f"array shape {array.w.shape}")
    counts, scope_n = match_counts(input_img, teacher_img, cfg)
    volts = modulation_voltages(counts, scope_n, cfg.v_min, cfg.v_max)
    w = _pulse("training pulse", array.params, array.w, volts, cfg.dt,
               int(round(cfg.pulse_dt / cfg.dt)))
    # `pulse` returns a float grid of the array's shape within the bounds
    return ArrayState._trusted(array.params, w)


def train_many(array: ArrayState, inputs: Sequence[np.ndarray],
               teacher_img: np.ndarray, cfg: TrainConfig) -> ArrayState:
    """Fold `train_pair` over the inputs in order."""
    for img in inputs:
        array = train_pair(array, img, teacher_img, cfg)
    return array


# --- inference -------------------------------------------------------------

def state_grid(array: ArrayState) -> np.ndarray:
    """Normalized state per cell: 0 at low resistance, 1 at high.

    (w_off - w) / (w_off - w_on) equals log(R / r_on) / log(r_off / r_on)
    under the device's resistance map.
    """
    span = array.params.w_off - array.params.w_on
    return (array.params.w_off - array.w) / span


def similarity(state: np.ndarray, img: np.ndarray,
               binarize_threshold: float = TrainConfig.binarize_threshold
               ) -> float:
    """Mean squared difference between the state map and the inverted
    binary image; 0 means the array encodes exactly this pattern."""
    state = np.asarray(state, dtype=float)
    target = 1.0 - binarize(img, binarize_threshold)
    if state.shape != target.shape:
        raise InvalidInputError(
            f"state {state.shape} and image {target.shape} shapes differ")
    return float(np.mean((state - target) ** 2))


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
    return resistance(device, _pulse("label pulse", device, device.w_on, drive,
                                     dt, n_steps))


@dataclass(frozen=True)
class ClassifyResult:
    label: str
    label_resistance: float
    score: float


def classify(array: ArrayState, img: np.ndarray, cfg: InferConfig,
             binarize_threshold: float = TrainConfig.binarize_threshold
             ) -> ClassifyResult:
    """Score a probe image and commit the verdict to a label device.

    Scores below the threshold drive the label device with the learning
    voltage (sets to low resistance); others get the forgetting voltage.
    The returned label reads the final resistance against the configured
    boundary (50 kOhm by default).
    """
    score = similarity(state_grid(array), img, binarize_threshold)
    drive = (cfg.label_learn_v if score < cfg.similarity_threshold
             else cfg.label_forget_v)
    r = _label_resistance(cfg.label_device, drive, cfg.dt,
                          int(round(cfg.label_pulse_s / cfg.dt)))
    label = LABEL_POSITIVE if r < cfg.label_boundary_ohm else LABEL_NEGATIVE
    return ClassifyResult(label=label, label_resistance=r, score=score)


def write_state_csv(state: np.ndarray, path: str | Path) -> None:
    """Normalized state grid, one CSV row per array row."""
    with Path(path).open("w", newline="") as fh:
        for row in np.asarray(state, dtype=float):
            fh.write(",".join(f"{x:.10g}" for x in row) + "\n")
