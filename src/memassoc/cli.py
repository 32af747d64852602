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

`_run` runs a command, then writes manifest.json last (tool version, command,
input paths, resolved config snapshot and its hash, output hashes); the CLI
and `replay_manifest` run through it, and a bare `cmd_*` call writes none.
Once its results are computed, a run removes manifest.json and every file a
command writes from --out, nothing else; it refuses an input that is --out
or one of those files.  `replay_manifest` checks a manifest, re-executes the
snapshot and returns the hashes its fresh manifest records, which must
match the recorded ones byte for byte.  The parser, the runs and the
manifests read the commands, inputs and outputs from one table, `_COMMANDS`.

Exit codes: 0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import __version__
from .circuit import (
    FIRST_STAGE,
    SCHEME_LEARNING,
    ChainConfig,
    StageConfig,
    StimulusSchedule,
    metrics,
    run_chain,
    write_metrics_report,
    write_sim_trace_csv,
)
from .device import DeviceParams
from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    InvalidStartError,
    read_input,
    split_lines,
)
from .fit import PARAM_NAMES, FitConfig, fit, read_trace_csv
from .vision import (
    IMAGE_READERS,
    VisionConfig,
    classify,
    load_image,
    new_array,
    train_many,
    write_state_csv,
)

__all__ = [
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
# `<device key>_lo` / `_hi` set one edge of a fitted parameter's box
_FIT_KEYS = {
    "grad_step": "grad_step", "max_iters": "max_iters", "tol": "tol",
    "source_r_ohm": "source_r_ohm",
    **{f"{key}_{end}": f"{name}_{end}" for end in ("lo", "hi")
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


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, each section held as its domain object: [device],
    [stage.K], [schedule] and [sim] together as the chain, [fit] as
    `FitConfig`, [vision] as `VisionConfig`.  Every stage, the fit's start
    and the vision array run on the `[device]` parameters, `chain.device`."""

    chain: ChainConfig = field(default_factory=ChainConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    vision: VisionConfig = field(default_factory=VisionConfig)


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


def _parse_segments(raw: str, ln: int,
                    default_level: float) -> tuple[tuple[float, float, float], ...]:
    """Comma-separated `start:end[:level]` entries, given at line `ln`."""
    where, out = f"line {ln}", []
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
    for ln, raw_line in enumerate(split_lines(text), start=1):
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


def _fields(section: _Section, keys: Mapping[str, str], domain: type) -> dict[str, Any]:
    """The section's entries by the `domain` field each key sets, each read
    as the type of that field's default (a float where there is none)."""
    values = {}
    for key, (raw, ln) in section.entries.items():
        if key not in keys:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{section.name}]")
        value = _convert(raw, getattr(domain, keys[key], 0.0), f"line {ln}")
        if value != value:  # nan fits no range and equals nothing
            raise ConfigError(f"line {ln}: {key}: not a number: {raw!r}")
        values[keys[key]] = value
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
    return _located([(section, _STAGE_KEYS)], replace,
                    FIRST_STAGE if index == 1 else StageConfig(),
                    **_fields(section, _STAGE_KEYS, StageConfig))


def _parse_schedule(section: _Section) -> StimulusSchedule:
    """The schedule; each `<role>_segments` key lists that role's windows,
    a window without a level at the section's `high_level_v`."""
    roles = {key: key[: -len("_segments")] for key in section.entries
             if _ROLE_RE.match(key)}
    scalars = _Section(section.name, section.line, {
        key: entry for key, entry in section.entries.items() if key not in roles})
    values = _fields(scalars, _SCHEDULE_KEYS, StimulusSchedule)
    level = values.get("high_level", StimulusSchedule.high_level)
    # only a custom schedule reads its lists: a preset refuses them unread
    custom = values.get("preset") == "custom"
    segments = tuple((role, _parse_segments(*section.entries[key], level)
                      if custom else ()) for key, role in roles.items())
    return _located([(section, {**_SCHEDULE_KEYS, **roles})], StimulusSchedule,
                    **values, segments=segments)


def parse_config(text: str, *, vision: bool = False) -> ExperimentConfig:
    """Parse a config document; defaults fill every gap.

    Each section is checked by constructing the domain objects it feeds;
    the chain, the training rule and the fit span several sections.  A
    domain error becomes a `ConfigError` at the line of the key whose field
    it names, or at the header of the first of its sections present (for
    the chain: [schedule], [sim], then the last [stage.K]).  With `vision`
    the config drives a vision command, so its training rule must also
    reach the [device] set threshold; with a similarity threshold, the
    label drive and boundary must suit the [device] too.
    """
    sections = _split_sections(text)

    def section(name: str) -> _Section:
        return sections.get(name, _Section(name))

    dev = section("device")
    device = _located([(dev, _DEVICE_KEYS)], DeviceParams,
                      **_fields(dev, _DEVICE_KEYS, DeviceParams))
    stages = tuple(_parse_stage(k, section(f"stage.{k}"))
                   for k in range(1, _stage_count(sections) + 1))
    sched_section, sim_section, fit_section, vision_section = map(
        section, ("schedule", "sim", "fit", "vision"))
    schedule = _parse_schedule(sched_section)
    sim_values = _fields(sim_section, _SIM_KEYS, ChainConfig)
    fit_values = _fields(fit_section, _FIT_KEYS, FitConfig)
    vision_values = _fields(vision_section, _VISION_KEYS, VisionConfig)
    chain = _located([(sched_section, _SCHEDULE_KEYS), (sim_section, _SIM_KEYS),
                      (section(f"stage.{len(stages)}"), {})], ChainConfig,
                     stages=stages, schedule=schedule, device=device, **sim_values)
    at_fit = [(fit_section, _FIT_KEYS)]
    fit_config = _located(at_fit, FitConfig, **fit_values)
    _located(at_fit, fit_config.bounds, device)
    at_vision = [(vision_section, _VISION_KEYS)]
    vision_config = _located(at_vision, VisionConfig, **vision_values)
    if vision:
        _located(at_vision + [(dev, _DEVICE_KEYS)], vision_config.check_reach, device)
    if vision_config.similarity_threshold is not None:
        _located(at_vision, vision_config.check_classify, device)
    return ExperimentConfig(chain=chain, fit=fit_config, vision=vision_config)


def _block(section: str, keys: Mapping[str, str], obj: Any,
           extra: Sequence[tuple[str, Any]] = ()) -> str:
    """One section of `key = value` lines: each key of `keys` with the field
    of `obj` it sets, then the `extra` pairs; None values are left out."""
    lines = [f"[{section}]"]
    for key, value in [*((key, getattr(obj, name)) for key, name in keys.items()),
                       *extra]:
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; `parse_config` reads it back to equality."""
    chain = config.chain
    return "\n".join([
        _block("device", _DEVICE_KEYS, chain.device),
        *(_block(f"stage.{k}", _STAGE_KEYS, stage)
          for k, stage in enumerate(chain.stages, start=1)),
        _block("schedule", _SCHEDULE_KEYS, chain.schedule, [
            (f"{role}_segments", ", ".join(f"{a!r}:{b!r}:{level!r}"
                                           for a, b, level in windows))
            for role, windows in chain.schedule.segments]),
        _block("sim", _SIM_KEYS, chain),
        _block("fit", _FIT_KEYS, config.fit),
        _block("vision", _VISION_KEYS, config.vision)])


def load_config(path: str | Path, *, vision: bool = False) -> ExperimentConfig:
    text = read_input(Path(path), ConfigError)
    try:
        return parse_config(text, vision=vision)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# --- domain-object assembly -------------------------------------------------

def build_device(config: ExperimentConfig) -> DeviceParams:
    return config.chain.device


def build_chain(config: ExperimentConfig) -> ChainConfig:
    return config.chain


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    return config.fit


def build_train_config(config: ExperimentConfig) -> VisionConfig:
    return config.vision


def build_infer_config(config: ExperimentConfig) -> VisionConfig:
    if config.vision.similarity_threshold is None:
        raise ConfigError("[vision] similarity_threshold is required for "
                          "classification")
    return config.vision


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


class _Command(NamedTuple):
    """One subcommand: its help; its positional inputs with their help, the
    paths a manifest's `args` record; the files it writes beside manifest.json,
    whose hashes the manifest records; the `ExperimentConfig` part it runs on
    (only the chain sweeps, a vision config is parsed with `vision`, and
    a part in `_DT_SECTIONS` takes `--dt-override` as its `dt`); and
    `run(config, args, out_dir)`, which calls its `cmd_*` by name, so a
    wrapper set on the module sees it."""

    help: str
    inputs: dict[str, str]
    outputs: tuple[str, ...]
    runs_on: str
    run: Callable[[ExperimentConfig, Mapping[str, Any], str | Path], int]


_DT_SECTIONS = {"chain": "sim", "vision": "vision"}  # part with a dt -> its section

_COMMANDS = {
    "fit": _Command(
        "extract device parameters from an I-V trace",
        {"trace": "CSV trace with t_s,v_v,i_a columns"},
        ("device_fit.conf", "fit_report.json"), "fit",
        lambda config, args, out: cmd_fit(config, args["trace"], out)),
    "pavlov": _Command(
        "simulate the associative chain", {},
        ("metrics.txt", "plot_trace.py", "trace.csv"), "chain",
        lambda config, args, out: cmd_pavlov(config, out)),
    "vision-train": _Command(
        "train the image array",
        {"train_dir": "directory with teacher.* and inputs"},
        ("array_state.csv",), "vision",
        lambda config, args, out: cmd_vision(config, args["train_dir"], None, out)),
    "vision-classify": _Command(
        "train the array, then label a test directory",
        {"train_dir": "directory with teacher.* and inputs",
         "test_dir": "directory of images to label"},
        ("array_state.csv", "report.csv"), "vision",
        lambda config, args, out: cmd_vision(config, args["train_dir"],
                                             args["test_dir"], out)),
}


_REMOVED = ("manifest.json",
            *sorted({name for row in _COMMANDS.values() for name in row.outputs}))


def _fresh_out(out_dir: str | Path) -> Path:
    """`out_dir`, created, without the files `_REMOVED` names, manifest.json
    first; no other file in it is touched."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _REMOVED:
        (out / name).unlink(missing_ok=True)
    return out


def _refuse_inputs_in(out_dir: str | Path, paths: Sequence[str | Path]) -> None:
    """Refuse (`DataError`) an input that is `out_dir`, or a file in it that
    `_fresh_out` removes, before the run reads it: no run removes its input."""
    out = Path(out_dir).resolve()
    for path in map(Path, paths):
        try:  # a path no file system encodes names no file; its read fails
            removed = out == path.resolve() or (path.name in _REMOVED
                                                and out == path.parent.resolve())
        except UnicodeEncodeError:
            continue
        if removed:
            raise DataError(f"input {path} must not be --out {out_dir} or a "
                            "file that runs write there")


def _run(command: str, config: ExperimentConfig, args: Mapping[str, Any],
         out_dir: str | Path) -> tuple[int, dict[str, str]]:
    """Run `command`'s row, then write manifest.json into `out_dir`, last;
    return the row's exit status and the output hashes the manifest records."""
    row = _COMMANDS[command]
    _refuse_inputs_in(out_dir, [args[name] for name in row.inputs])
    status = row.run(config, args, out_dir)
    out, text = Path(out_dir), serialize_config(config)
    hashes = {name: _sha256(out / name) for name in sorted(row.outputs)}
    manifest = {"version": __version__, "command": command,
                "args": {name: str(args[name]) for name in row.inputs},
                "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "config_text": text, "outputs": hashes}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return status, hashes


def cmd_fit(config: ExperimentConfig, trace_path: str | Path,
            out_dir: str | Path) -> int:
    """Fit the device to a trace; exit 0 only on convergence."""
    fit_config = build_fit_config(config)
    trace = read_trace_csv(trace_path)
    result = fit(trace, build_device(config), fit_config)
    out = _fresh_out(out_dir)
    (out / "device_fit.conf").write_text(_block("device", _DEVICE_KEYS, result.params))
    report = {"converged": result.converged, "iterations": result.iterations,
              "rmse": result.rmse}
    (out / "fit_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    if result.at_bounds:
        print(f"warning: {out}: the fit ended with {', '.join(result.at_bounds)} "
              "on an edge of its box", file=sys.stderr)
    if result.converged:
        return 0
    print(f"error: fit did not converge: stopped on {result.stop_reason} after "
          f"{result.iterations} iterations (rmse {result.rmse!r}); "
          "fit_report.json records converged: false", file=sys.stderr)
    return 2


def cmd_pavlov(config: ExperimentConfig, out_dir: str | Path) -> int:
    """Run the chain and write trace, metrics, and the plot script."""
    trace = run_chain(build_chain(config))
    out = _fresh_out(out_dir)
    write_sim_trace_csv(trace, out / "trace.csv")
    write_metrics_report(metrics(trace), out / "metrics.txt")
    (out / "plot_trace.py").write_text(_PLOT_SCRIPT)
    idle = [str(k) for k, stage in enumerate(trace.stages, start=1)
            if not stage.in_scheme(SCHEME_LEARNING).any()]
    if idle:
        print(f"warning: {out}: no learning-scheme row in stage {', '.join(idle)}",
              file=sys.stderr)
    return 0


def _image_files(directory: Path, role: str) -> list[Path]:
    """The images in the `role` directory, sorted by name: every file shares
    the directory, and comparing names skips building each Path's parts."""
    if not directory.is_dir():
        raise DataError(f"{role} directory {directory} does not exist")
    return sorted((p for p in directory.iterdir()
                   if p.suffix.lower() in IMAGE_READERS),
                  key=lambda p: p.name)


def cmd_vision(config: ExperimentConfig, train_dir: str | Path,
               test_dir: str | Path | None, out_dir: str | Path) -> int:
    """Train the array; when a test directory is given, also classify it.

    An image is a file whose suffix `vision.IMAGE_READERS` reads.  The
    training directory holds exactly one image with the stem `teacher`;
    every other image there is an input paired with it.
    """
    train_config = build_train_config(config)
    infer = None if test_dir is None else build_infer_config(config)
    train = Path(train_dir)
    images = _image_files(train, "training")
    teachers = [p for p in images if p.stem == "teacher"]
    if len(teachers) != 1:
        names = " or ".join(f"teacher{suffix}" for suffix in IMAGE_READERS)
        found = ", ".join(p.name for p in teachers) or "none"
        raise DataError(f"{train}: expected one teacher image ({names}), "
                        f"found {found}")
    [teacher_path] = teachers
    probe_paths = [] if test_dir is None else _image_files(Path(test_dir), "test")
    allow = config.vision.allow_resize
    teacher = load_image(teacher_path, allow_resize=allow)
    inputs = [load_image(p, allow_resize=allow)
              for p in images if p is not teacher_path]
    if not inputs:
        raise DataError(f"no training inputs next to {teacher_path.name}")
    probes = [(p.name, load_image(p, allow_resize=allow)) for p in probe_paths]
    # train and classify before touching --out, so a run that fails there
    # leaves it as it was
    fresh = new_array(build_device(config))
    array = train_many(fresh, inputs, teacher, train_config)
    lines = ["name,similarity,threshold,label"]
    for name, img in probes:
        res = classify(array, img, infer)
        lines.append(f"{name},{res.score:.10g},"
                     f"{infer.similarity_threshold:.10g},{res.label}")
    out = _fresh_out(out_dir)
    write_state_csv(array.state, out / "array_state.csv")
    if test_dir is not None:
        (out / "report.csv").write_text("\n".join(lines) + "\n")
    if (array.w == fresh.w).all():
        print(f"warning: {out}: training moved no cell of the array", file=sys.stderr)
    return 0


_MANIFEST_FIELDS = {"command": str, "args": dict, "config_text": str,
                    "config_sha256": str, "outputs": dict}


def _read_manifest(path: Path) -> dict[str, Any]:
    """The manifest at `path`; a malformed one raises `DataError` naming it."""
    def malformed(problem: str) -> DataError:
        return DataError(f"{path}: malformed manifest: {problem}")

    try:
        manifest = json.loads(read_input(path, DataError))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise malformed(f"not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise malformed(f"expected a JSON object, got {type(manifest).__name__}")
    for key, kind in _MANIFEST_FIELDS.items():
        if not isinstance(manifest.get(key), kind):
            raise malformed(f"{key} must be a JSON "
                            f"{'object' if kind is dict else 'string'}")
    command, args = manifest["command"], manifest["args"]
    if command not in _COMMANDS:
        raise malformed(f"unknown command {command!r}")
    inputs, outputs = _COMMANDS[command].inputs, _COMMANDS[command].outputs
    if (set(args) != set(inputs)
            or not all(isinstance(arg, str) for arg in args.values())):
        raise malformed(f"{command} args must be the path strings "
                        f"{sorted(inputs)}, got {args!r}")
    # the command's own plain file names, so none is hashed outside out_dir
    if set(manifest["outputs"]) != set(outputs):
        raise malformed(f"{command} outputs must be the files "
                        f"{sorted(outputs)}, got {sorted(manifest['outputs'])}")
    for name, digest in manifest["outputs"].items():
        if not isinstance(digest, str):
            raise malformed(f"output {name!r} must have a hash string")
    # no run writes a lone surrogate: one fails to match instead of raising
    config_bytes = manifest["config_text"].encode("utf-8", "surrogatepass")
    if hashlib.sha256(config_bytes).hexdigest() != manifest["config_sha256"]:
        raise malformed("config_sha256 does not match config_text")
    return manifest


def replay_manifest(manifest_path: str | Path,
                    out_dir: str | Path) -> dict[str, str]:
    """Re-execute a manifest's run into `out_dir`; return the hashes its new
    manifest records.

    A faithful replay reproduces the recorded `outputs` hashes exactly.  A
    malformed manifest raises `DataError`, and a `config_text` that does
    not parse or that the run refuses (a classification without its
    threshold) `ConfigError`, naming it before anything is written.
    """
    manifest = _read_manifest(Path(manifest_path))
    command = manifest["command"]
    try:
        config = parse_config(manifest["config_text"],
                              vision=_COMMANDS[command].runs_on == "vision")
        return _run(command, config, manifest["args"], out_dir)[1]
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc


# --- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memassoc",
        description="Memristive associative-learning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        add = sub.add_parser(name, help=command.help).add_argument
        sweeps = f" (repeatable for {name} sweeps)" if command.runs_on == "chain" else ""
        add("--config", action="append", default=[], metavar="PATH",
            help=f"config file{sweeps}; defaults apply when omitted")
        add("--out", default="out", metavar="DIR",
            help="output directory (default: ./out)")
        if command.runs_on in _DT_SECTIONS:
            add("--dt-override", type=float, metavar="DT",
                help=f"override [{_DT_SECTIONS[command.runs_on]}] dt_s")
        for arg, arg_help in command.inputs.items():
            add(arg, help=arg_help)
    return parser


def _with_dt_override(config: ExperimentConfig, runs_on: str, dt: float | None,
                      path: str | None) -> ExperimentConfig:
    """The config with `--dt-override` (`dt`) as the `dt` of its `runs_on`
    part, checked by building what the run builds; an error names the
    config's `path` (None: the defaults) and the flag."""
    if dt is None:
        return config
    try:
        return replace(config, **{runs_on: replace(getattr(config, runs_on), dt=dt)})
    except InvalidInputError as exc:
        where = "" if path is None else f"{path}: "
        raise ConfigError(f"{where}--dt-override {dt!r}: {exc}") from exc


def _dispatch(ns: argparse.Namespace) -> int:
    """Parse every config and check it under `--dt-override` before the
    first one runs, then run them in order; a chain sweep writes each run
    under its config's file stem.  A config error a run raises (a
    classification without its threshold) names the config's path."""
    command = _COMMANDS[ns.command]
    if len(ns.config) > 1 and command.runs_on != "chain":
        raise ConfigError(f"{ns.command} accepts a single --config")
    outs = ([str(Path(ns.out) / Path(path).stem) for path in ns.config]
            if len(ns.config) > 1 else [ns.out])
    if len(set(outs)) != len(outs):
        raise ConfigError("sweep configs must have distinct file stems")
    parsed = ([(path, load_config(path, vision=command.runs_on == "vision"))
               for path in ns.config] or [(None, ExperimentConfig())])
    dt = getattr(ns, "dt_override", None)
    configs = [_with_dt_override(config, command.runs_on, dt, path)
               for path, config in parsed]
    for path, out in zip(ns.config, outs):
        _refuse_inputs_in(out, [path])
    status = 0
    for (path, _), config, out in zip(parsed, configs, outs):
        try:
            status = max(status, _run(ns.command, config, vars(ns), out)[0])
        except ConfigError as exc:
            if path is None:
                raise
            raise ConfigError(f"{path}: {exc}") from exc
    return status


def console_main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(ns)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidStartError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
