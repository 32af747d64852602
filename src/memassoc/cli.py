"""Experiment runner: declarative configs in, CSV artifacts out.

Config files are line-oriented `key = value` entries under `[section]`
headers (`#` starts a comment).  Sections: [device], [stage.K] for
K = 1..N, [schedule], [sim], [fit], [vision].  Unknown sections or keys
and values the domain types reject fail with their line number; numeric
keys carry their unit in the suffix (_v, _ohm, _s, _per_s).

Subcommands:
  fit             extract device parameters from an I-V trace CSV;
                  exits 0 only when the optimizer converged
  pavlov          run the associative chain; writes trace.csv,
                  metrics.txt, plot_trace.py
  vision-train    train the image array; writes array_state.csv
  vision-classify train, then score and label a directory of images;
                  adds report.csv

Every run also writes manifest.json (tool version, command, resolved
config snapshot and its hash, output hashes).  `replay_manifest`
re-executes the snapshot and returns the fresh output hashes, which
must match the recorded ones byte for byte.

Exit codes: 0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .circuit import (
    DEFAULT_HIGH_LEVEL,
    DEFAULT_ZIGZAG_AMPLITUDE,
    DEFAULT_ZIGZAG_FREQUENCY,
    FIRST_STAGE,
    ChainConfig,
    StageConfig,
    StimulusSchedule,
    default_duration,
    metrics,
    pavlov_schedule,
    run_chain,
    stimulus_schedule,
    write_metrics_report,
    write_sim_trace_csv,
)
from .device import DeviceParams
from .errors import ConfigError, DataError, InvalidInputError, InvalidStartError
from .fit import PARAM_NAMES, FitConfig, fit, read_trace_csv
from .vision import (
    InferConfig,
    TrainConfig,
    classify,
    load_image,
    new_array,
    state_grid,
    train_many,
    write_state_csv,
)

__all__ = [
    "ScheduleSettings",
    "SimSettings",
    "FitSettings",
    "VisionSettings",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "cmd_fit",
    "cmd_pavlov",
    "cmd_vision",
    "replay_manifest",
    "console_main",
]

_SECTIONS = ("device", "schedule", "sim", "fit", "vision")  # and stage.K
_PRESETS = ("pavlov1", "pavlov2", "pavlov3", "custom")
_ROLE_RE = re.compile(r"^(food|ring[1-9][0-9]*)_segments$")

# Key tables, one per section: config key -> the domain field it sets, in
# serialized order.  They drive parsing, serialization and the line a
# domain error is reported at, so every domain message names its field.
_DEVICE_KEYS = {
    "r_on_ohm": "r_on", "r_off_ohm": "r_off",
    "alpha_on": "alpha_on", "alpha_off": "alpha_off",
    "k_on_per_s": "k_on", "k_off_per_s": "k_off",
    "v_on_v": "v_on", "v_off_v": "v_off", "w_on": "w_on", "w_off": "w_off",
}
_STAGE_KEYS = {
    "r_f_ohm": "r_f", "gain": "gain", "v_learn_max_v": "v_learn_max",
    "state_threshold_v": "state_threshold_v", "learning_v": "learning_v",
    "forgetting_v": "forgetting_v", "natural_forgetting_v": "natural_forgetting_v",
}
# plus one `<role>_segments` key per custom signal
_SCHEDULE_KEYS = {
    "preset": "preset", "high_level_v": "high_level",
    "zigzag_amplitude_v": "zigzag_amplitude",
    "zigzag_frequency_hz": "zigzag_frequency",
}
_SIM_KEYS = {
    "dt_s": "dt", "duration_s": "duration",
    "logic_threshold_v": "logic_threshold", "readout_v": "readout_amplitude",
}
# `<device key>_lo` / `_hi` bound one fitted parameter
_FIT_KEYS = {
    "grad_step": "grad_step", "max_iters": "max_iters", "tol": "tol",
    "source_r_ohm": "source_r_ohm",
    **{f"{key}_{end}": name for end in ("lo", "hi")
       for key, name in _DEVICE_KEYS.items() if name in PARAM_NAMES},
}
_VISION_KEYS = {
    "binarize_threshold": "binarize_threshold", "match_predicate": "predicate",
    "match_tau": "tau", "match_scope": "scope", "v_min_v": "v_min",
    "v_max_v": "v_max", "pulse_dt_s": "pulse_dt", "dt_s": "dt",
    "similarity_threshold": "similarity_threshold",
    "label_learn_v": "label_learn_v", "label_forget_v": "label_forget_v",
    "label_pulse_s": "label_pulse_s", "allow_resize": "allow_resize",
}


# The sections below stay plain records: their domain types cannot be
# written back (a preset's name, the fit's default bounds, a missing
# similarity threshold).  `parse_config` checks them through those types.
# Each default is the domain's own; only the record-only fields (the
# preset, a preset's duration, custom segments, the fit's bound overrides,
# the similarity threshold and `allow_resize`) set theirs here.

@dataclass(frozen=True)
class ScheduleSettings:
    preset: str = "pavlov1"
    high_level_v: float = DEFAULT_HIGH_LEVEL
    zigzag_amplitude_v: float = DEFAULT_ZIGZAG_AMPLITUDE
    zigzag_frequency_hz: float = DEFAULT_ZIGZAG_FREQUENCY
    # custom segments: (role, ((start, end, level), ...)) sorted by role
    segments: tuple[tuple[str, tuple[tuple[float, float, float], ...]], ...] = ()


@dataclass(frozen=True)
class SimSettings:
    dt_s: float = ChainConfig.dt
    duration_s: float | None = None     # None: preset default
    logic_threshold_v: float = ChainConfig.logic_threshold
    readout_v: float = ChainConfig.readout_amplitude


@dataclass(frozen=True)
class FitSettings:
    grad_step: float = FitConfig.grad_step
    max_iters: int = FitConfig.max_iters
    tol: float = FitConfig.tol
    source_r_ohm: float = FitConfig.source_r_ohm
    lower: tuple[tuple[str, float], ...] = ()   # (fit param, bound)
    upper: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class VisionSettings:
    binarize_threshold: float = TrainConfig.binarize_threshold
    match_predicate: str = TrainConfig.predicate
    match_tau: float = TrainConfig.tau
    match_scope: str = TrainConfig.scope
    v_min_v: float = TrainConfig.v_min
    v_max_v: float = TrainConfig.v_max
    pulse_dt_s: float = TrainConfig.pulse_dt
    dt_s: float = TrainConfig.dt
    similarity_threshold: float | None = None
    label_learn_v: float = InferConfig.label_learn_v
    label_forget_v: float = InferConfig.label_forget_v
    label_pulse_s: float = InferConfig.label_pulse_s
    allow_resize: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config.  Every stage runs on the `[device]` parameters."""

    device: DeviceParams = field(default_factory=DeviceParams)
    stages: tuple[StageConfig, ...] = (FIRST_STAGE,)
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    sim: SimSettings = field(default_factory=SimSettings)
    fit: FitSettings = field(default_factory=FitSettings)
    vision: VisionSettings = field(default_factory=VisionSettings)


# --- parsing ---------------------------------------------------------------

@dataclass
class _Section:
    """One `[name]` block: its header line (None when absent) and entries."""

    name: str
    line: int | None = None
    entries: dict[str, tuple[str, int]] = field(default_factory=dict)


def _convert(raw: str, like: Any, where: str) -> Any:
    """`raw` read as the type of the default value `like` (None reads a float)."""
    if isinstance(like, str):
        return raw
    if isinstance(like, bool):
        if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
            raise ConfigError(f"{where}: not a boolean: {raw!r}")
        return raw.lower() in ("true", "yes", "1")
    try:
        return int(raw) if isinstance(like, int) else float(raw)
    except ValueError:
        kind = "an integer" if isinstance(like, int) else "a number"
        raise ConfigError(f"{where}: not {kind}: {raw!r}") from None


def _parse_segments(raw: str, where: str,
                    default_level: float) -> tuple[tuple[float, float, float], ...]:
    """Comma-separated `start:end[:level]` entries."""
    out = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"{where}: segment must be start:end[:level], got {chunk.strip()!r}")
        nums = [_convert(p, 0.0, where) for p in parts]
        level = nums[2] if len(nums) == 3 else default_level
        out.append((nums[0], nums[1], level))
    return tuple(out)


def _split_sections(text: str) -> dict[str, _Section]:
    """Raw sections with each entry's value and line number."""
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.fullmatch(r"\[([a-z0-9._]+)\]", line)
            if m is None:
                raise ConfigError(f"line {ln}: malformed section header {line!r}")
            name = m.group(1)
            if name not in _SECTIONS and not name.startswith("stage."):
                raise ConfigError(f"line {ln}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {ln}: duplicate section [{name}]")
            current = sections[name] = _Section(name, ln)
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"line {ln}: entry outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in current.entries:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        current.entries[key] = (value, ln)
    return sections


def _values(section: _Section, keys: Mapping[str, str],
            defaults: Any = None) -> dict[str, Any]:
    """The section's entries by config key, each read as the type of the
    same-named field of `defaults` (a float where there is none)."""
    values = {}
    for key, (raw, ln) in section.entries.items():
        if key not in keys:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{section.name}]")
        values[key] = _convert(raw, getattr(defaults, key, 0.0), f"line {ln}")
        if values[key] != values[key]:  # nan fits no range and equals nothing
            raise ConfigError(f"line {ln}: {key}: not a number: {raw!r}")
    return values


def _located(located: Sequence[tuple[_Section, Mapping[str, str]]],
             make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """`make(*args, **kwargs)`, its error re-raised at the line of the key,
    among the given (section, key table) pairs, whose domain field the
    message names first; else at the header of the first section present."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        message = str(exc)
        named = [(m.start(), section.entries[key][1], key)
                 for section, keys in located
                 for key, name in keys.items() if key in section.entries
                 for m in [re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message)]
                 if m is not None]
        if named:
            _, line, key = min(named)
            where = f"line {line}: {key}"
        else:  # defaults are valid, so a failing config has a header
            section = next(section for section, _ in located
                           if section.line is not None)
            where = f"line {section.line}: [{section.name}]"
        raise ConfigError(f"{where}: {message}") from exc


def _stage_count(sections: dict[str, _Section]) -> int:
    lines = {}  # stage index -> header line
    for name, section in sections.items():
        if name.startswith("stage."):
            suffix = name.split(".", 1)[1]
            if not re.fullmatch(r"[1-9][0-9]*", suffix):
                raise ConfigError(f"line {section.line}: bad stage section [{name}]")
            lines[int(suffix)] = section.line
    top = max(lines, default=1)
    # the first gap lies within 1..len(lines) + 1, whatever the indices
    missing = next(k for k in range(1, len(lines) + 2) if k not in lines)
    if missing < top:
        raise ConfigError(f"line {lines[top]}: stage sections must be contiguous "
                          f"from 1: missing stage {missing}")
    return top


def _parse_stage(index: int, section: _Section) -> StageConfig:
    values = {_STAGE_KEYS[key]: value
              for key, value in _values(section, _STAGE_KEYS).items()}
    return _located([(section, _STAGE_KEYS)], replace,
                    FIRST_STAGE if index == 1 else StageConfig(), **values)


def _parse_schedule(section: _Section) -> ScheduleSettings:
    scalars = _Section(section.name, section.line, {
        key: entry for key, entry in section.entries.items()
        if not _ROLE_RE.match(key)})
    settings = ScheduleSettings(**_values(scalars, _SCHEDULE_KEYS, ScheduleSettings()))
    if settings.preset not in _PRESETS:
        raise ConfigError(
            f"line {section.entries['preset'][1]}: preset must be one of "
            f"{', '.join(_PRESETS)}; got {settings.preset!r}")
    segments = []
    for key, (raw, ln) in section.entries.items():
        if key in scalars.entries:
            continue
        if settings.preset != "custom":
            raise ConfigError(
                f"line {ln}: segment lists are only valid with preset = custom")
        segments.append((key[: -len("_segments")], _parse_segments(
            raw, f"line {ln}", settings.high_level_v)))
    return replace(settings, segments=tuple(sorted(segments)))


def _stimulus(sched: ScheduleSettings) -> StimulusSchedule:
    if sched.preset == "custom":
        return stimulus_schedule(dict(sched.segments), sched.high_level_v,
                                 sched.zigzag_amplitude_v, sched.zigzag_frequency_hz)
    return pavlov_schedule(int(sched.preset[-1]), sched.high_level_v,
                           sched.zigzag_amplitude_v, sched.zigzag_frequency_hz)


def _parse_fit(section: _Section) -> FitSettings:
    values = _values(section, _FIT_KEYS, FitSettings())

    def bounds(end: str) -> tuple[tuple[str, float], ...]:
        given = {_FIT_KEYS[key]: v for key, v in values.items() if key.endswith(end)}
        return tuple((name, given[name]) for name in PARAM_NAMES if name in given)

    return FitSettings(
        **{key: v for key, v in values.items() if not key.endswith(("_lo", "_hi"))},
        lower=bounds("_lo"), upper=bounds("_hi"))


def parse_config(text: str, *, vision: bool = False) -> ExperimentConfig:
    """Parse a config document; defaults fill every gap.

    Each section is checked by constructing the domain objects it feeds;
    the chain, the training rule and the fit span several sections.  A
    domain error becomes a `ConfigError` at the line of the key whose field
    it names, or at the header of the first of its sections present (for
    the chain: [schedule], [sim], then the last [stage.K]).  With `vision`
    the config drives a vision command, so its training rule must also
    reach the [device] set threshold.
    """
    sections = _split_sections(text)

    def section(name: str) -> _Section:
        return sections.get(name, _Section(name))

    dev = section("device")
    device = _located([(dev, _DEVICE_KEYS)], DeviceParams, **{
        _DEVICE_KEYS[key]: v for key, v in _values(dev, _DEVICE_KEYS).items()})
    stages = tuple(_parse_stage(k, section(f"stage.{k}"))
                   for k in range(1, _stage_count(sections) + 1))

    sched_section = section("schedule")
    schedule = _parse_schedule(sched_section)
    _located([(sched_section, {**_SCHEDULE_KEYS, **{
        f"{role}_segments": role for role, _ in schedule.segments}})],
        _stimulus, schedule)

    sim_section, fit_section, vision_section = (
        section("sim"), section("fit"), section("vision"))
    config = ExperimentConfig(
        device=device, stages=stages, schedule=schedule,
        sim=SimSettings(**_values(sim_section, _SIM_KEYS, SimSettings())),
        fit=_parse_fit(fit_section),
        vision=VisionSettings(**_values(vision_section, _VISION_KEYS,
                                        VisionSettings())))
    _located([(sched_section, _SCHEDULE_KEYS), (sim_section, _SIM_KEYS),
              (section(f"stage.{len(stages)}"), {})], build_chain, config)
    _located([(fit_section, _FIT_KEYS)], build_fit_config, config)
    train = _located([(vision_section, _VISION_KEYS)], build_train_config, config)
    if vision:
        _located([(vision_section, _VISION_KEYS), (dev, _DEVICE_KEYS)],
                 train.check_reach, device)
    if config.vision.similarity_threshold is not None:
        _located([(vision_section, _VISION_KEYS)], build_infer_config, config)
    return config


def _block(section: str, pairs: list[tuple[str, Any]]) -> str:
    """One section of `key = value` lines; None values are left out."""
    lines = [f"[{section}]"]
    for key, value in pairs:
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _device_block(device: DeviceParams) -> str:
    return _block("device", [(key, getattr(device, name))
                             for key, name in _DEVICE_KEYS.items()])


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; `parse_config` reads it back to equality."""
    sched, fit_settings = config.schedule, config.fit
    bounds = {"lo": dict(fit_settings.lower), "hi": dict(fit_settings.upper)}
    blocks = [_device_block(config.device)]
    blocks += [_block(f"stage.{k}", [(key, getattr(stage, name))
                                     for key, name in _STAGE_KEYS.items()])
               for k, stage in enumerate(config.stages, start=1)]
    blocks.append(_block("schedule", [
        (key, getattr(sched, key)) for key in _SCHEDULE_KEYS] + [
        (f"{role}_segments", ", ".join(f"{a!r}:{b!r}:{level!r}"
                                       for a, b, level in segs))
        for role, segs in sched.segments]))
    blocks.append(_block("sim", [(key, getattr(config.sim, key))
                                 for key in _SIM_KEYS]))
    blocks.append(_block("fit", [
        (key, bounds[key[-2:]].get(name) if key[-3:] in ("_lo", "_hi")
         else getattr(fit_settings, key)) for key, name in _FIT_KEYS.items()]))
    blocks.append(_block("vision", [(key, getattr(config.vision, key))
                                    for key in _VISION_KEYS]))
    return "\n".join(blocks)


def load_config(path: str | Path, *, vision: bool = False) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, vision=vision)


# --- domain-object assembly -------------------------------------------------

def build_device(config: ExperimentConfig) -> DeviceParams:
    return config.device


def build_chain(config: ExperimentConfig) -> ChainConfig:
    """The chain; a preset without `duration_s` runs for its reference
    length, and `ChainConfig` checks the rest."""
    sched, duration = config.schedule, config.sim.duration_s
    if duration is None and sched.preset != "custom":
        duration = default_duration(int(sched.preset[-1]))
    return ChainConfig(
        stages=config.stages,
        schedule=_stimulus(sched),
        duration=duration,
        device=build_device(config),
        dt=config.sim.dt_s,
        logic_threshold=config.sim.logic_threshold_v,
        readout_amplitude=config.sim.readout_v)


def _domain_args(record: Any, keys: Mapping[str, str], cls: type) -> dict[str, Any]:
    """The record's values under the domain names that `cls` has fields for."""
    names = {f.name for f in fields(cls)}
    return {name: getattr(record, key) for key, name in keys.items() if name in names}


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    return FitConfig(initial=build_device(config), lower=dict(config.fit.lower),
                     upper=dict(config.fit.upper),
                     **_domain_args(config.fit, _FIT_KEYS, FitConfig))


def build_train_config(config: ExperimentConfig) -> TrainConfig:
    return TrainConfig(**_domain_args(config.vision, _VISION_KEYS, TrainConfig))


def build_infer_config(config: ExperimentConfig) -> InferConfig:
    if config.vision.similarity_threshold is None:
        raise ConfigError("[vision] similarity_threshold is required for "
                          "classification")
    return InferConfig(label_device=build_device(config),
                       **_domain_args(config.vision, _VISION_KEYS, InferConfig))


# --- outputs and manifests ---------------------------------------------------

_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render the chain panels (signals, modulation/resistance, responses)
from a simulation trace CSV produced by the runner."""

import argparse
import csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?", default="trace.csv")
    ap.add_argument("--out", default="trace.png")
    args = ap.parse_args()

    with open(args.trace, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    idx = {name: i for i, name in enumerate(header)}
    t = [float(r[idx["t_s"]]) for r in rows]
    n_stages = sum(1 for name in header if name.startswith("mod"))
    signal_names = [n for n in header[1:] if "_v" in n
                    and not n.startswith(("mod", "s", "resp"))][: 1 + n_stages]

    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax_sig, ax_mod, ax_resp) = plt.subplots(
        3, 1, sharex=True, figsize=(10, 8))
    for name in signal_names:
        ax_sig.plot(t, [float(r[idx[name]]) for r in rows], label=name)
    ax_sig.set_ylabel("stimulus (V)")
    ax_sig.legend(loc="upper right", fontsize="small")

    ax_r = ax_mod.twinx()
    for k in range(1, n_stages + 1):
        ax_mod.plot(t, [float(r[idx[f"mod{k}_v"]]) for r in rows],
                    label=f"mod{k}", alpha=0.7)
        ax_r.plot(t, [float(r[idx[f"r{k}_ohm"]]) for r in rows],
                  linestyle="--", label=f"r{k}")
    ax_mod.set_ylabel("modulation (V)")
    ax_r.set_ylabel("resistance (ohm)")
    ax_mod.legend(loc="upper left", fontsize="small")
    ax_r.legend(loc="upper right", fontsize="small")

    for k in range(1, n_stages + 1):
        ax_resp.plot(t, [float(r[idx[f"resp{k}_v"]]) for r in rows],
                     label=f"resp{k}")
    ax_resp.set_xlabel("time (s)")
    ax_resp.set_ylabel("response (V)")
    ax_resp.legend(loc="lower right", fontsize="small")

    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
'''


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: ExperimentConfig,
                    args: dict[str, Any], outputs: list[str]) -> None:
    text = serialize_config(config)
    manifest = {
        "version": __version__,
        "command": command,
        "args": args,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "config_text": text,
        "outputs": {name: _sha256(out_dir / name) for name in sorted(outputs)},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_fit(config: ExperimentConfig, trace_path: str | Path,
            out_dir: str | Path) -> int:
    """Fit the device to a trace; exit 0 only on convergence."""
    fit_config = build_fit_config(config)
    trace = read_trace_csv(trace_path)
    result = fit(trace, fit_config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "device_fit.conf").write_text(_device_block(result.params))
    report = {"converged": result.converged, "iterations": result.iterations,
              "rmse": result.rmse}
    (out / "fit_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "fit", config, {"trace": str(trace_path)},
                    ["device_fit.conf", "fit_report.json"])
    if result.converged:
        return 0
    print(f"error: fit did not converge: stopped on {result.stop_reason} after "
          f"{result.iterations} iterations (rmse {result.rmse!r}); "
          "fit_report.json records converged: false", file=sys.stderr)
    return 2


def cmd_pavlov(config: ExperimentConfig, out_dir: str | Path) -> int:
    """Run the chain and write trace, metrics, and the plot script."""
    trace = run_chain(build_chain(config))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sim_trace_csv(trace, out / "trace.csv")
    write_metrics_report(metrics(trace), out / "metrics.txt")
    (out / "plot_trace.py").write_text(_PLOT_SCRIPT)
    _write_manifest(out, "pavlov", config, {},
                    ["trace.csv", "metrics.txt", "plot_trace.py"])
    return 0


def _image_files(directory: Path) -> list[Path]:
    # by name: every file shares the directory, and comparing names skips
    # building each Path's parts
    return sorted((p for p in directory.iterdir()
                   if p.suffix.lower() in (".csv", ".pgm")),
                  key=lambda p: p.name)


def cmd_vision(config: ExperimentConfig, train_dir: str | Path,
               test_dir: str | Path | None, out_dir: str | Path) -> int:
    """Train the array; when a test directory is given, also classify it.

    The teacher image is `teacher.csv`/`teacher.pgm` inside the training
    directory; every other image there is an input paired with it.
    """
    train_config = build_train_config(config)
    infer = None if test_dir is None else build_infer_config(config)
    train = Path(train_dir)
    if not train.is_dir():
        raise DataError(f"training directory {train} does not exist")
    teacher_path = next(
        (train / name for name in ("teacher.csv", "teacher.pgm")
         if (train / name).exists()), None)
    if teacher_path is None:
        raise DataError(f"no teacher.csv or teacher.pgm in {train}")
    test = None if test_dir is None else Path(test_dir)
    if test is not None and not test.is_dir():
        raise DataError(f"test directory {test} does not exist")
    allow = config.vision.allow_resize
    teacher = load_image(teacher_path, allow_resize=allow)
    inputs = [load_image(p, allow_resize=allow)
              for p in _image_files(train) if p != teacher_path]
    if not inputs:
        raise DataError(f"no training inputs next to {teacher_path.name}")
    probes = [] if test is None else [(p.name, load_image(p, allow_resize=allow))
                                      for p in _image_files(test)]
    # train and classify before creating --out, so a run that fails there
    # leaves no directory
    array = train_many(new_array(build_device(config)), inputs, teacher,
                       train_config)
    lines = ["name,similarity,threshold,label"]
    for name, img in probes:
        res = classify(array, img, infer, config.vision.binarize_threshold)
        lines.append(f"{name},{res.score:.10g},"
                     f"{infer.similarity_threshold:.10g},{res.label}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_state_csv(state_grid(array), out / "array_state.csv")
    outputs = ["array_state.csv"]
    args: dict[str, Any] = {"train_dir": str(train_dir)}
    command = "vision-train"
    if test is not None:
        command = "vision-classify"
        args["test_dir"] = str(test_dir)
        (out / "report.csv").write_text("\n".join(lines) + "\n")
        outputs.append("report.csv")
    _write_manifest(out, command, config, args, outputs)
    return 0


def replay_manifest(manifest_path: str | Path,
                    out_dir: str | Path) -> dict[str, str]:
    """Re-execute a manifest's run into `out_dir`; return fresh output hashes.

    A faithful replay reproduces the recorded `outputs` hashes exactly.
    """
    manifest = json.loads(Path(manifest_path).read_text())
    command, args = manifest["command"], manifest["args"]
    config = parse_config(manifest["config_text"],
                          vision=command.startswith("vision"))
    if command == "fit":
        cmd_fit(config, args["trace"], out_dir)
    elif command == "pavlov":
        cmd_pavlov(config, out_dir)
    elif command == "vision-train":
        cmd_vision(config, args["train_dir"], None, out_dir)
    elif command == "vision-classify":
        cmd_vision(config, args["train_dir"], args["test_dir"], out_dir)
    else:
        raise DataError(f"manifest names unknown command {command!r}")
    out = Path(out_dir)
    return {name: _sha256(out / name) for name in manifest["outputs"]}


# --- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", action="append", default=[],
                        metavar="PATH", help="config file (repeatable for "
                        "pavlov sweeps); defaults apply when omitted")
    common.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: ./out)")
    common.add_argument("--dt-override", type=float, default=None,
                        metavar="DT", help="override [sim] dt_s")

    parser = argparse.ArgumentParser(
        prog="memassoc",
        description="Memristive associative-learning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_fit = sub.add_parser("fit", parents=[common],
                           help="extract device parameters from an I-V trace")
    p_fit.add_argument("trace", help="CSV trace with t_s,v_v,i_a columns")
    sub.add_parser("pavlov", parents=[common],
                   help="simulate the associative chain")
    p_tr = sub.add_parser("vision-train", parents=[common],
                          help="train the image array")
    p_tr.add_argument("train_dir", help="directory with teacher.* and inputs")
    p_cl = sub.add_parser("vision-classify", parents=[common],
                          help="train the array, then label a test directory")
    p_cl.add_argument("train_dir", help="directory with teacher.* and inputs")
    p_cl.add_argument("test_dir", help="directory of images to label")
    return parser


def _single_config(ns: argparse.Namespace) -> ExperimentConfig:
    if len(ns.config) > 1:
        raise ConfigError(f"{ns.command} accepts a single --config")
    if not ns.config:
        return ExperimentConfig()
    return load_config(ns.config[0], vision=ns.command.startswith("vision"))


def _with_dt_override(config: ExperimentConfig,
                      ns: argparse.Namespace) -> ExperimentConfig:
    """The config with `--dt-override` as its [sim] dt_s for pavlov runs,
    its [vision] dt_s otherwise."""
    if ns.dt_override is None:
        return config
    if ns.command == "pavlov":
        return replace(config, sim=replace(config.sim, dt_s=ns.dt_override))
    return replace(config, vision=replace(config.vision, dt_s=ns.dt_override))


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "fit":
        config = _single_config(ns)
        if ns.dt_override is not None:
            raise ConfigError("--dt-override only applies to simulation runs")
        return cmd_fit(config, ns.trace, ns.out)
    if ns.command == "pavlov" and len(ns.config) > 1:
        outs = [str(Path(ns.out) / Path(path).stem) for path in ns.config]
        if len(set(outs)) != len(outs):
            raise ConfigError("sweep configs must have distinct file stems")
        # every config is parsed before the first one runs, in order
        configs = [_with_dt_override(load_config(path), ns) for path in ns.config]
        return max(cmd_pavlov(config, out) for config, out in zip(configs, outs))
    config = _with_dt_override(_single_config(ns), ns)
    if ns.command == "pavlov":
        return cmd_pavlov(config, ns.out)
    if ns.command == "vision-train":
        return cmd_vision(config, ns.train_dir, None, ns.out)
    return cmd_vision(config, ns.train_dir, ns.test_dir, ns.out)


def console_main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(ns)
    except (DataError, InvalidStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
