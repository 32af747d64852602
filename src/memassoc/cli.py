"""Experiment runner: declarative configs in, CSV artifacts out.

Config files are line-oriented `key = value` entries under `[section]`
headers (`#` starts a comment).  Sections: [device], [stage.K] for
K = 1..N, [schedule], [sim], [fit], [vision].  Unknown sections or keys
are rejected with their line number; numeric keys carry their unit in
the suffix (_v, _ohm, _s, _per_s).

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .circuit import (
    ChainConfig,
    Segment,
    StageConfig,
    StimulusSchedule,
    default_duration,
    first_order_rules,
    higher_order_rules,
    metrics,
    pavlov_schedule,
    run_chain,
    write_metrics_report,
    write_sim_trace_csv,
)
from .device import DeviceParams
from .errors import ConfigError, DataError, InvalidInputError, InvalidStartError
from .fit import FitConfig, fit, read_trace_csv
from .vision import (
    InferConfig,
    TrainConfig,
    classify,
    load_image,
    new_array,
    similarity,
    state_grid,
    train_many,
    write_state_csv,
)

__all__ = [
    "DeviceSettings",
    "StageSettings",
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

_PRESETS = ("pavlov1", "pavlov2", "pavlov3", "custom")
_ROLE_RE = re.compile(r"^(food|ring[1-9][0-9]*)_segments$")

# fit parameter names keyed by their config spelling
_FIT_PARAM_KEYS = {
    "r_on_ohm": "r_on", "r_off_ohm": "r_off",
    "alpha_on": "alpha_on", "alpha_off": "alpha_off",
    "k_on_per_s": "k_on", "k_off_per_s": "k_off",
    "v_on_v": "v_on", "v_off_v": "v_off",
}


@dataclass(frozen=True)
class DeviceSettings:
    r_on_ohm: float = 20e3
    r_off_ohm: float = 190e3
    alpha_on: float = 1.0
    alpha_off: float = 1.0
    k_on_per_s: float = 2.82
    k_off_per_s: float = -18.33
    v_on_v: float = 0.14
    v_off_v: float = -0.16
    w_on: float = 0.0
    w_off: float = 1.0


@dataclass(frozen=True)
class StageSettings:
    r_f_ohm: float = 5e3
    gain: float = 1.8
    v_learn_max_v: float = 0.47
    state_threshold_v: float = 0.1
    learning_v: float | None = 0.35     # fixed level; stage 1 only
    forgetting_v: float = -0.175
    natural_forgetting_v: float = -0.165


def _default_stage(index: int) -> StageSettings:
    """Stage defaults: index 1 uses first-order levels, the rest higher-order."""
    if index == 1:
        return StageSettings()
    return StageSettings(learning_v=None, forgetting_v=-0.19,
                         natural_forgetting_v=-0.18)


@dataclass(frozen=True)
class ScheduleSettings:
    preset: str = "pavlov1"
    high_level_v: float = 1.0
    zigzag_amplitude_v: float = 0.1
    zigzag_frequency_hz: float = 100.0
    # custom segments: (role, ((start, end, level), ...)) sorted by role
    segments: tuple[tuple[str, tuple[tuple[float, float, float], ...]], ...] = ()


@dataclass(frozen=True)
class SimSettings:
    dt_s: float = 1e-4
    duration_s: float | None = None     # None: preset default
    logic_threshold_v: float = 0.5
    readout_v: float = 0.1


@dataclass(frozen=True)
class FitSettings:
    grad_step: float = 1e-6
    max_iters: int = 200
    tol: float = 1e-12
    source_r_ohm: float = 0.0
    lower: tuple[tuple[str, float], ...] = ()   # (fit param, bound)
    upper: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class VisionSettings:
    binarize_threshold: float = 0.5
    match_predicate: str = "equal-binary"
    match_tau: float = 0.1
    match_scope: str = "all-vector"
    v_min_v: float = 0.0
    v_max_v: float = 0.35
    pulse_dt_s: float = 0.05
    dt_s: float = 1e-4
    similarity_threshold: float | None = None
    label_learn_v: float = 0.35
    label_forget_v: float = -0.2
    label_pulse_s: float = 0.25
    allow_resize: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceSettings = field(default_factory=DeviceSettings)
    stages: tuple[StageSettings, ...] = (StageSettings(),)
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    sim: SimSettings = field(default_factory=SimSettings)
    fit: FitSettings = field(default_factory=FitSettings)
    vision: VisionSettings = field(default_factory=VisionSettings)


# --- parsing ---------------------------------------------------------------

def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {raw!r}") from None


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: not a boolean: {raw!r}")


def _parse_segments(raw: str, where: str,
                    default_level: float) -> tuple[tuple[float, float, float], ...]:
    """Comma-separated `start:end[:level]` entries."""
    out = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"{where}: segment must be start:end[:level], got {chunk.strip()!r}")
        nums = [_parse_float(p, where) for p in parts]
        level = nums[2] if len(nums) == 3 else default_level
        out.append((nums[0], nums[1], level))
    return tuple(out)


def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw section map: {section: {key: (value, line_no)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.fullmatch(r"\[([a-z0-9._]+)\]", line)
            if m is None:
                raise ConfigError(f"line {ln}: malformed section header {line!r}")
            name = m.group(1)
            if name in sections:
                raise ConfigError(f"line {ln}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"line {ln}: entry outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in current:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        current[key] = (value, ln)
    return sections


def _apply_scalars(settings: Any, entries: dict[str, tuple[str, int]],
                   converters: dict[str, Callable[[str, str], Any]],
                   section: str) -> Any:
    """Overlay `key = value` entries onto a settings dataclass."""
    updates = {}
    for key, (raw, ln) in entries.items():
        if key not in converters:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{section}]")
        updates[key] = converters[key](raw, f"line {ln}")
    return replace(settings, **updates) if updates else settings


_DEVICE_CONVERTERS = {f.name: _parse_float for f in fields(DeviceSettings)}
_STAGE_CONVERTERS = {f.name: _parse_float for f in fields(StageSettings)}
_SIM_CONVERTERS = {f.name: _parse_float for f in fields(SimSettings)}
_VISION_CONVERTERS: dict[str, Callable[[str, str], Any]] = {
    **{f.name: _parse_float for f in fields(VisionSettings)},
    "match_predicate": lambda raw, _w: raw,
    "match_scope": lambda raw, _w: raw,
    "allow_resize": _parse_bool,
}


def _check(cond: bool, message: str, line: int | None = None) -> None:
    if not cond:
        prefix = f"line {line}: " if line is not None else ""
        raise ConfigError(prefix + message)


def _line_of(entries: dict[str, tuple[str, int]], key: str) -> int | None:
    return entries[key][1] if key in entries else None


def _validate_device(dev: DeviceSettings,
                     entries: dict[str, tuple[str, int]]) -> None:
    _check(dev.r_on_ohm > 0, "r_on must be positive", _line_of(entries, "r_on_ohm"))
    _check(dev.r_off_ohm > dev.r_on_ohm, "r_off must exceed r_on",
           _line_of(entries, "r_off_ohm"))
    _check(dev.alpha_on > 0, "alpha_on must be positive",
           _line_of(entries, "alpha_on"))
    _check(dev.alpha_off > 0, "alpha_off must be positive",
           _line_of(entries, "alpha_off"))
    _check(dev.k_on_per_s > 0, "k_on must be positive",
           _line_of(entries, "k_on_per_s"))
    _check(dev.k_off_per_s < 0, "k_off must be negative",
           _line_of(entries, "k_off_per_s"))
    _check(dev.v_on_v > 0, "v_on must be positive", _line_of(entries, "v_on_v"))
    _check(dev.v_off_v < 0, "v_off must be negative", _line_of(entries, "v_off_v"))
    _check(dev.w_on < dev.w_off, "w_on must lie below w_off",
           _line_of(entries, "w_on"))


def _validate_stage(index: int, stage: StageSettings,
                    entries: dict[str, tuple[str, int]]) -> None:
    _check(stage.r_f_ohm > 0, "r_f must be positive", _line_of(entries, "r_f_ohm"))
    _check(stage.gain > 0, "gain must be positive", _line_of(entries, "gain"))
    _check(stage.v_learn_max_v > 0, "v_learn_max must be positive",
           _line_of(entries, "v_learn_max_v"))
    _check(stage.state_threshold_v > 0, "state_threshold must be positive",
           _line_of(entries, "state_threshold_v"))
    if index > 1:
        _check("learning_v" not in entries,
               f"learning_v is only valid in [stage.1]; stage {index} derives "
               "its learning voltage from the previous stage's state signal",
               _line_of(entries, "learning_v"))
    elif stage.learning_v is not None:
        _check(stage.learning_v > 0, "learning_v must be positive",
               _line_of(entries, "learning_v"))
    _check(stage.forgetting_v < 0, "forgetting_v must be negative",
           _line_of(entries, "forgetting_v"))
    _check(stage.natural_forgetting_v < 0,
           "natural_forgetting_v must be negative",
           _line_of(entries, "natural_forgetting_v"))


def _parse_stages(sections: dict[str, dict[str, tuple[str, int]]]
                  ) -> tuple[StageSettings, ...]:
    indices = []
    for name in sections:
        if name.startswith("stage."):
            suffix = name.split(".", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"bad stage section [{name}]")
            indices.append(int(suffix))
    if not indices:
        return (_default_stage(1),)
    top = max(indices)
    missing = sorted(set(range(1, top + 1)) - set(indices))
    if missing:
        raise ConfigError(
            f"stage sections must be contiguous from 1: missing stage {missing[0]}")
    stages = []
    for k in range(1, top + 1):
        entries = sections.get(f"stage.{k}", {})
        stage = _apply_scalars(_default_stage(k), entries,
                               _STAGE_CONVERTERS, f"stage.{k}")
        _validate_stage(k, stage, entries)
        stages.append(stage)
    return tuple(stages)


def _parse_schedule(entries: dict[str, tuple[str, int]]) -> ScheduleSettings:
    settings = ScheduleSettings()
    scalars: dict[str, Any] = {}
    segments: list[tuple[str, tuple[tuple[float, float, float], ...], int]] = []
    for key, (raw, ln) in entries.items():
        where = f"line {ln}"
        if key == "preset":
            _check(raw in _PRESETS,
                   f"preset must be one of {', '.join(_PRESETS)}; got {raw!r}", ln)
            scalars["preset"] = raw
        elif key in ("high_level_v", "zigzag_amplitude_v", "zigzag_frequency_hz"):
            scalars[key] = _parse_float(raw, where)
        elif _ROLE_RE.match(key):
            role = key[: -len("_segments")]
            segments.append((role, _parse_segments(
                raw, where, settings.high_level_v), ln))
        else:
            raise ConfigError(f"{where}: unknown key {key!r} in [schedule]")
    settings = replace(settings, **scalars)
    _check(settings.zigzag_amplitude_v >= 0, "zigzag_amplitude must be >= 0",
           _line_of(entries, "zigzag_amplitude_v"))
    _check(settings.zigzag_frequency_hz > 0, "zigzag_frequency must be positive",
           _line_of(entries, "zigzag_frequency_hz"))
    _check(settings.high_level_v > 0, "high_level must be positive",
           _line_of(entries, "high_level_v"))
    if segments and settings.preset != "custom":
        raise ConfigError(
            f"line {segments[0][2]}: segment lists are only valid with "
            "preset = custom")
    seg_tuple = tuple(sorted((role, segs) for role, segs, _ in segments))
    return replace(settings, segments=seg_tuple)


def _parse_fit(entries: dict[str, tuple[str, int]]) -> FitSettings:
    settings = FitSettings()
    scalars: dict[str, Any] = {}
    lower: dict[str, float] = {}
    upper: dict[str, float] = {}
    for key, (raw, ln) in entries.items():
        where = f"line {ln}"
        if key == "max_iters":
            value = _parse_int(raw, where)
            _check(value >= 1, "max_iters must be >= 1", ln)
            scalars[key] = value
        elif key in ("grad_step", "tol", "source_r_ohm"):
            value = _parse_float(raw, where)
            if key == "grad_step":
                _check(value > 0, "grad_step must be positive", ln)
            else:
                _check(value >= 0, f"{key} must be >= 0", ln)
            scalars[key] = value
        elif key.endswith("_lo") and key[:-3] in _FIT_PARAM_KEYS:
            lower[_FIT_PARAM_KEYS[key[:-3]]] = _parse_float(raw, where)
        elif key.endswith("_hi") and key[:-3] in _FIT_PARAM_KEYS:
            upper[_FIT_PARAM_KEYS[key[:-3]]] = _parse_float(raw, where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r} in [fit]")
    order = list(_FIT_PARAM_KEYS.values())
    return replace(
        settings, **scalars,
        lower=tuple(sorted(lower.items(), key=lambda kv: order.index(kv[0]))),
        upper=tuple(sorted(upper.items(), key=lambda kv: order.index(kv[0]))))


def _validate_vision(vis: VisionSettings,
                     entries: dict[str, tuple[str, int]]) -> None:
    _check(0.0 < vis.binarize_threshold < 1.0,
           "binarize_threshold must lie in (0,1)",
           _line_of(entries, "binarize_threshold"))
    _check(vis.match_predicate in ("equal-binary", "abs-diff"),
           "match_predicate must be equal-binary or abs-diff",
           _line_of(entries, "match_predicate"))
    _check(vis.match_scope in ("all-vector", "corresponding"),
           "match_scope must be all-vector or corresponding",
           _line_of(entries, "match_scope"))
    _check(vis.match_tau >= 0, "match_tau must be >= 0",
           _line_of(entries, "match_tau"))
    _check(vis.v_min_v < vis.v_max_v, "v_min must lie below v_max",
           _line_of(entries, "v_max_v"))
    _check(vis.pulse_dt_s > 0, "pulse_dt must be positive",
           _line_of(entries, "pulse_dt_s"))
    _check(vis.dt_s > 0, "dt must be positive", _line_of(entries, "dt_s"))
    if vis.similarity_threshold is not None:
        _check(0.0 < vis.similarity_threshold < 1.0,
               "similarity_threshold must lie in (0,1)",
               _line_of(entries, "similarity_threshold"))
    _check(vis.label_pulse_s > 0, "label_pulse must be positive",
           _line_of(entries, "label_pulse_s"))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; defaults fill every gap."""
    sections = _split_sections(text)
    known = {"device", "schedule", "sim", "fit", "vision"}
    for name in sections:
        if name not in known and not name.startswith("stage."):
            raise ConfigError(f"unknown section [{name}]")

    dev_entries = sections.get("device", {})
    device = _apply_scalars(DeviceSettings(), dev_entries,
                            _DEVICE_CONVERTERS, "device")
    _validate_device(device, dev_entries)

    stages = _parse_stages(sections)
    schedule = _parse_schedule(sections.get("schedule", {}))

    sim_entries = sections.get("sim", {})
    sim = _apply_scalars(SimSettings(), sim_entries, _SIM_CONVERTERS, "sim")
    _check(sim.dt_s > 0, "dt must be positive", _line_of(sim_entries, "dt_s"))
    if sim.duration_s is not None:
        _check(sim.duration_s > 0, "duration must be positive",
               _line_of(sim_entries, "duration_s"))
    _check(sim.logic_threshold_v > 0, "logic_threshold must be positive",
           _line_of(sim_entries, "logic_threshold_v"))
    _check(sim.readout_v >= 0, "readout must be >= 0",
           _line_of(sim_entries, "readout_v"))

    fit_settings = _parse_fit(sections.get("fit", {}))

    vis_entries = sections.get("vision", {})
    vision = _apply_scalars(VisionSettings(), vis_entries,
                            _VISION_CONVERTERS, "vision")
    _validate_vision(vision, vis_entries)

    return ExperimentConfig(device=device, stages=stages, schedule=schedule,
                            sim=sim, fit=fit_settings, vision=vision)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; `parse_config` reads it back to equality."""
    lines: list[str] = []

    def emit(section: str, pairs: list[tuple[str, Any]]) -> None:
        lines.append(f"[{section}]")
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")

    emit("device", [(f.name, getattr(config.device, f.name))
                    for f in fields(DeviceSettings)])
    for k, stage in enumerate(config.stages, start=1):
        pairs = [(f.name, getattr(stage, f.name)) for f in fields(StageSettings)
                 if not (f.name == "learning_v" and stage.learning_v is None)]
        emit(f"stage.{k}", pairs)
    sched = config.schedule
    sched_pairs: list[tuple[str, Any]] = [
        ("preset", sched.preset), ("high_level_v", sched.high_level_v),
        ("zigzag_amplitude_v", sched.zigzag_amplitude_v),
        ("zigzag_frequency_hz", sched.zigzag_frequency_hz)]
    for role, segs in sched.segments:
        sched_pairs.append((f"{role}_segments", ", ".join(
            f"{repr(a)}:{repr(b)}:{repr(level)}" for a, b, level in segs)))
    emit("schedule", sched_pairs)
    sim_pairs = [(f.name, getattr(config.sim, f.name)) for f in fields(SimSettings)
                 if not (f.name == "duration_s" and config.sim.duration_s is None)]
    emit("sim", sim_pairs)
    inverse = {param: key for key, param in _FIT_PARAM_KEYS.items()}
    fit_pairs: list[tuple[str, Any]] = [
        ("grad_step", config.fit.grad_step), ("max_iters", config.fit.max_iters),
        ("tol", config.fit.tol), ("source_r_ohm", config.fit.source_r_ohm)]
    fit_pairs += [(f"{inverse[p]}_lo", v) for p, v in config.fit.lower]
    fit_pairs += [(f"{inverse[p]}_hi", v) for p, v in config.fit.upper]
    emit("fit", fit_pairs)
    vis_pairs = [(f.name, getattr(config.vision, f.name))
                 for f in fields(VisionSettings)
                 if not (f.name == "similarity_threshold"
                         and config.vision.similarity_threshold is None)]
    emit("vision", vis_pairs)
    return "\n".join(lines)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# --- domain-object assembly -------------------------------------------------

def build_device(config: ExperimentConfig) -> DeviceParams:
    d = config.device
    return DeviceParams(r_on=d.r_on_ohm, r_off=d.r_off_ohm,
                        alpha_on=d.alpha_on, alpha_off=d.alpha_off,
                        k_on=d.k_on_per_s, k_off=d.k_off_per_s,
                        v_on=d.v_on_v, v_off=d.v_off_v,
                        w_on=d.w_on, w_off=d.w_off)


def _build_schedule(config: ExperimentConfig, n_stages: int) -> StimulusSchedule:
    sched = config.schedule
    if sched.preset != "custom":
        order = int(sched.preset[-1])
        if order != n_stages:
            raise ConfigError(
                f"preset {sched.preset} drives {order} stage(s) but the config "
                f"declares {n_stages}")
        return pavlov_schedule(order, high_level=sched.high_level_v,
                               zigzag_amplitude=sched.zigzag_amplitude_v,
                               zigzag_frequency=sched.zigzag_frequency_hz)
    roles = {role for role, _ in sched.segments}
    needed = {"food"} | {f"ring{k}" for k in range(1, n_stages + 1)}
    if roles != needed:
        raise ConfigError(
            f"custom schedule defines roles {sorted(roles)}; "
            f"need exactly {sorted(needed)}")
    signals = {}
    for role, segs in sched.segments:
        ripple = sched.zigzag_amplitude_v if role.startswith("ring") else 0.0
        signals[role] = tuple(
            Segment(a, b, level, ripple, sched.zigzag_frequency_hz)
            for a, b, level in segs)
    return StimulusSchedule(signals)


def build_chain(config: ExperimentConfig,
                dt_override: float | None = None) -> ChainConfig:
    device = build_device(config)
    stage_configs = []
    for k, s in enumerate(config.stages, start=1):
        if k == 1:
            rules = first_order_rules(
                learning_v=s.learning_v if s.learning_v is not None else 0.35,
                forgetting_v=s.forgetting_v, natural_v=s.natural_forgetting_v)
        else:
            rules = higher_order_rules(forgetting_v=s.forgetting_v,
                                       natural_v=s.natural_forgetting_v)
        stage_configs.append(StageConfig(
            device=device, rules=rules, r_f=s.r_f_ohm, gain=s.gain,
            v_learn_max=s.v_learn_max_v, state_threshold_v=s.state_threshold_v))
    duration = config.sim.duration_s
    if duration is None:
        if config.schedule.preset == "custom":
            raise ConfigError("custom schedules require [sim] duration_s")
        duration = default_duration(int(config.schedule.preset[-1]))
    try:
        return ChainConfig(
            stages=tuple(stage_configs),
            schedule=_build_schedule(config, len(stage_configs)),
            duration=duration,
            dt=dt_override if dt_override is not None else config.sim.dt_s,
            logic_threshold=config.sim.logic_threshold_v,
            readout_amplitude=config.sim.readout_v)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    try:
        return FitConfig(initial=build_device(config),
                         lower=dict(config.fit.lower),
                         upper=dict(config.fit.upper),
                         grad_step=config.fit.grad_step,
                         max_iters=config.fit.max_iters,
                         tol=config.fit.tol,
                         source_r_ohm=config.fit.source_r_ohm)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def build_train_config(config: ExperimentConfig) -> TrainConfig:
    v = config.vision
    try:
        return TrainConfig(binarize_threshold=v.binarize_threshold,
                           predicate=v.match_predicate, tau=v.match_tau,
                           scope=v.match_scope, v_min=v.v_min_v,
                           v_max=v.v_max_v, pulse_dt=v.pulse_dt_s, dt=v.dt_s)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def build_infer_config(config: ExperimentConfig) -> InferConfig:
    v = config.vision
    if v.similarity_threshold is None:
        raise ConfigError("[vision] similarity_threshold is required for "
                          "classification")
    try:
        return InferConfig(similarity_threshold=v.similarity_threshold,
                           label_device=build_device(config),
                           label_learn_v=v.label_learn_v,
                           label_forget_v=v.label_forget_v,
                           label_pulse_s=v.label_pulse_s, dt=v.dt_s)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = read_trace_csv(trace_path)
    result = fit(trace, build_fit_config(config))
    p = result.params
    fragment = serialize_config(replace(
        ExperimentConfig(), device=DeviceSettings(
            r_on_ohm=p.r_on, r_off_ohm=p.r_off, alpha_on=p.alpha_on,
            alpha_off=p.alpha_off, k_on_per_s=p.k_on, k_off_per_s=p.k_off,
            v_on_v=p.v_on, v_off_v=p.v_off, w_on=p.w_on, w_off=p.w_off)))
    device_block = fragment.split("\n\n", 1)[0] + "\n"
    (out / "device_fit.conf").write_text(device_block)
    report = {"converged": result.converged, "iterations": result.iterations,
              "rmse": result.rmse}
    (out / "fit_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "fit", config, {"trace": str(trace_path)},
                    ["device_fit.conf", "fit_report.json"])
    return 0 if result.converged else 2


def cmd_pavlov(config: ExperimentConfig, out_dir: str | Path,
               dt_override: float | None = None) -> int:
    """Run the chain and write trace, metrics, and the plot script."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if dt_override is not None:
        config = replace(config, sim=replace(config.sim, dt_s=dt_override))
    trace = run_chain(build_chain(config))
    write_sim_trace_csv(trace, out / "trace.csv")
    write_metrics_report(metrics(trace), out / "metrics.txt")
    (out / "plot_trace.py").write_text(_PLOT_SCRIPT)
    _write_manifest(out, "pavlov", config, {},
                    ["trace.csv", "metrics.txt", "plot_trace.py"])
    return 0


def _image_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir()
                  if p.suffix.lower() in (".csv", ".pgm"))


def cmd_vision(config: ExperimentConfig, train_dir: str | Path,
               test_dir: str | Path | None, out_dir: str | Path) -> int:
    """Train the array; when a test directory is given, also classify it.

    The teacher image is `teacher.csv`/`teacher.pgm` inside the training
    directory; every other image there is an input paired with it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = Path(train_dir)
    if not train.is_dir():
        raise DataError(f"training directory {train} does not exist")
    allow = config.vision.allow_resize
    teacher_path = next(
        (train / name for name in ("teacher.csv", "teacher.pgm")
         if (train / name).exists()), None)
    if teacher_path is None:
        raise DataError(f"no teacher.csv or teacher.pgm in {train}")
    teacher = load_image(teacher_path, allow_resize=allow)
    inputs = [load_image(p, allow_resize=allow)
              for p in _image_files(train) if p != teacher_path]
    if not inputs:
        raise DataError(f"no training inputs next to {teacher_path.name}")
    array = train_many(new_array(build_device(config)), inputs, teacher,
                       build_train_config(config))
    state = state_grid(array)
    write_state_csv(state, out / "array_state.csv")
    outputs = ["array_state.csv"]
    args: dict[str, Any] = {"train_dir": str(train_dir)}
    command = "vision-train"
    if test_dir is not None:
        command = "vision-classify"
        args["test_dir"] = str(test_dir)
        test = Path(test_dir)
        if not test.is_dir():
            raise DataError(f"test directory {test} does not exist")
        infer = build_infer_config(config)
        lines = ["name,similarity,threshold,label"]
        for path in _image_files(test):
            img = load_image(path, allow_resize=allow)
            res = classify(array, img, infer, config.vision.binarize_threshold)
            lines.append(f"{path.name},{res.score:.10g},"
                         f"{infer.similarity_threshold:.10g},{res.label}")
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
    config = parse_config(manifest["config_text"])
    command, args = manifest["command"], manifest["args"]
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
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers for multi-config sweeps")

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
    return load_config(ns.config[0]) if ns.config else ExperimentConfig()


def _pavlov_job(config_path: str, out_dir: str,
                dt_override: float | None) -> int:
    return cmd_pavlov(load_config(config_path), out_dir, dt_override)


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "fit":
        config = _single_config(ns)
        if ns.dt_override is not None:
            raise ConfigError("--dt-override only applies to simulation runs")
        return cmd_fit(config, ns.trace, ns.out)
    if ns.command == "pavlov":
        if len(ns.config) > 1:
            jobs = []
            for path in ns.config:
                stem = Path(path).stem
                jobs.append((path, str(Path(ns.out) / stem)))
            if len({dst for _, dst in jobs}) != len(jobs):
                raise ConfigError("sweep configs must have distinct file stems")
            if ns.jobs > 1:
                with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
                    codes = list(pool.map(_pavlov_job, *zip(*jobs),
                                          [ns.dt_override] * len(jobs)))
            else:
                codes = [_pavlov_job(src, dst, ns.dt_override)
                         for src, dst in jobs]
            return max(codes)
        return cmd_pavlov(_single_config(ns), ns.out, ns.dt_override)
    config = _single_config(ns)
    if ns.dt_override is not None:
        config = replace(config, vision=replace(config.vision,
                                                dt_s=ns.dt_override))
    if ns.command == "vision-train":
        return cmd_vision(config, ns.train_dir, None, ns.out)
    return cmd_vision(config, ns.train_dir, ns.test_dir, ns.out)


def console_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
