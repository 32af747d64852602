"""Runner tests: config parsing, serialization round trips, subcommand
behavior, exit codes, manifests, and byte determinism."""

import argparse
import ast
import contextlib
import csv
import errno
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memassoc._fork
import memassoc.circuit
import memassoc.cli
import memassoc.fit
import memassoc.vision
from memassoc import __version__
from memassoc.circuit import FIRST_STAGE, ChainConfig, StageConfig, StimulusSchedule
from memassoc.cli import (
    ExperimentConfig,
    build_chain,
    build_fit_config,
    build_infer_config,
    build_train_config,
    console_main,
    load_config,
    parse_config,
    replay_manifest,
    serialize_config,
)
from memassoc.device import DeviceParams
from memassoc.errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    InvalidStartError,
    split_lines,
)
from memassoc.fit import (
    PARAM_NAMES,
    FitConfig,
    IVTrace,
    simulate_current,
    write_trace_csv,
)
from memassoc.vision import VisionConfig, read_image_csv
from oracle import split_lines as split_lines_by_regex

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.conf"))

CUSTOM_CHAIN = """\
[schedule]
preset = custom
food_segments = 0:0.06
ring1_segments = 0:0.06

[sim]
duration_s = 0.12
"""


def write_grid(path, grid):
    with open(path, "w") as fh:
        for row in np.asarray(grid, dtype=float):
            fh.write(",".join(f"{x:g}" for x in row) + "\n")


def write_vision_dirs(root):
    """Minimal 20x20 training/test layout: teacher plus ten clean inputs."""
    rng = np.random.default_rng(5)
    proto = (rng.random((20, 20)) < 0.7).astype(float)
    train = root / "train"
    train.mkdir()
    write_grid(train / "teacher.csv", proto)
    for k in range(10):
        write_grid(train / f"input_{k:02d}.csv", proto)
    test = root / "test"
    test.mkdir()
    write_grid(test / "hit.csv", proto)
    write_grid(test / "miss.csv", 1.0 - proto)
    return train, test


@pytest.fixture
def vision_dirs(tmp_path):
    return write_vision_dirs(tmp_path)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_empty_device_section_gives_defaults(self):
        cfg = parse_config("[device]\n")
        assert cfg.chain.device == DeviceParams()

    def test_v_on_sign_invariant_named(self):
        with pytest.raises(ConfigError, match="v_on must be positive"):
            parse_config("[device]\nv_on_v = -0.1\n")

    def test_non_contiguous_stages(self):
        text = "[stage.1]\ngain = 1.0\n[stage.3]\ngain = 2.0\n"
        with pytest.raises(ConfigError, match="missing stage 2"):
            parse_config(text)

    def test_huge_stage_index_is_a_gap_not_an_allocation(self, tmp_path):
        # the contiguity check must cost what the sections do, not the
        # index; the child's address-space cap turns an allocation that
        # grows with the index into a MemoryError, not a starved machine
        cfg = tmp_path / "c.conf"
        cfg.write_text("[stage.99999999999]\n")
        capped = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from memassoc.cli import console_main\n"
                  "sys.exit(console_main(sys.argv[1:]))\n")
        run = subprocess.run(
            [sys.executable, "-c", capped, "pavlov", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr == (f"config error: {cfg}: line 1: stage sections must be "
                              "contiguous from 1: missing stage 1\n")

    def test_stage_number_must_be_canonical(self):
        # [stage.01] used to count as stage 1 while its keys were dropped
        for name in ("01", "0", "x", "1.2"):
            with pytest.raises(ConfigError,
                               match=rf"^line 2: bad stage section \[stage\.{name}\]"):
                parse_config(f"[stage.1]\n[stage.{name}]\ngain = 99\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("[device]\nbogus = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[synapse\]"):
            parse_config("[synapse]\nx = 1\n")

    def test_syntax_errors_report_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[device\n")
        with pytest.raises(ConfigError, match="line 1: entry outside"):
            parse_config("x = 1\n")
        with pytest.raises(ConfigError, match="line 2: expected key = value"):
            parse_config("[device]\nnonsense\n")
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config("[device]\nw_on = 0\nw_on = 0.1\n")
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config("[device]\n[sim]\n[device]\n")

    def test_comments_and_blanks_ignored(self):
        text = "# top\n\n[device]\nr_on_ohm = 21e3  # trailing\n"
        assert parse_config(text).chain.device.r_on == 21e3

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: not a number"):
            parse_config("[device]\nr_on_ohm = fast\n")

    def test_learning_v_above_first_stage_round_trips(self):
        # a fixed learning voltage above stage 1 replaces the adjusted one
        # (see test_circuit's stage-arity test), so a config carrying one
        # serializes to text that parses back to it
        cfg = load_config(REPO / "configs" / "pavlov2_lowpower.conf")
        stages = (cfg.chain.stages[0], replace(cfg.chain.stages[1], learning_v=0.3))
        cfg = replace(cfg, chain=replace(cfg.chain, stages=stages))
        text = serialize_config(cfg)
        assert "[stage.2]" in text and text.count("learning_v = ") == 2
        assert parse_config(text) == cfg
        parsed = parse_config("[schedule]\npreset = pavlov2\n[stage.1]\n"
                              "[stage.2]\nlearning_v = 0.3\n")
        assert parsed.chain.stages[1].learning_v == 0.3

    def test_segments_require_custom_preset(self):
        text = "[schedule]\npreset = pavlov1\nfood_segments = 0:0.1\n"
        with pytest.raises(ConfigError, match="preset = custom"):
            parse_config(text)

    def test_segment_grammar(self):
        text = ("[schedule]\npreset = custom\n"
                "food_segments = 0:0.05, 0.1:0.15:0.8\nring1_segments = 0:0.2\n"
                "[sim]\nduration_s = 0.25\n")
        cfg = parse_config(text)
        segs = dict(cfg.chain.schedule.segments)
        assert segs["food"] == ((0.0, 0.05, 1.0), (0.1, 0.15, 0.8))
        with pytest.raises(ConfigError, match="start:end"):
            parse_config("[schedule]\npreset = custom\n"
                         "food_segments = 0.1\n")

    def test_preset_names_checked(self):
        with pytest.raises(ConfigError, match="preset must be one of"):
            parse_config("[schedule]\npreset = pavlov9\n")

    def test_fit_bounds_and_unknown_keys(self):
        cfg = parse_config("[fit]\nr_on_ohm_lo = 5e3\nv_on_v_hi = 0.5\n")
        assert cfg.fit == FitConfig(r_on_lo=5e3, v_on_hi=0.5)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[fit]\nmomentum = 0.9\n")

    def test_vision_choices_validated(self):
        with pytest.raises(ConfigError, match="match_predicate"):
            parse_config("[vision]\nmatch_predicate = fuzzy\n")
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config("[vision]\nallow_resize = maybe\n")
        with pytest.raises(ConfigError, match="similarity_threshold"):
            parse_config("[vision]\nsimilarity_threshold = 1.5\n")


    def test_segments_without_level_use_high_level(self):
        text = ("[schedule]\npreset = custom\n"
                "food_segments = 0:0.1, 0.2:0.3:0.8\nhigh_level_v = 2.5\n"
                "ring1_segments = 0:0.1\n[sim]\nduration_s = 0.3\n")
        segs = dict(parse_config(text).chain.schedule.segments)
        assert segs["food"] == ((0.0, 0.1, 2.5), (0.2, 0.3, 0.8))


DEVICE_KEYS = ["r_on_ohm", "r_off_ohm", "alpha_on", "alpha_off", "k_on_per_s",
               "k_off_per_s", "v_on_v", "v_off_v", "w_on", "w_off"]
STAGE_KEYS = ["r_f_ohm", "gain", "v_learn_max_v", "state_threshold_v",
              "forgetting_v", "natural_forgetting_v"]
# (section header and leading lines, key) for every numeric config key
NUMERIC_KEYS = (
    [("[device]", k) for k in DEVICE_KEYS]
    + [("[stage.1]", k) for k in STAGE_KEYS + ["learning_v"]]
    + [("[stage.1]\n[stage.2]", k) for k in STAGE_KEYS]
    + [("[schedule]", k) for k in
       ("high_level_v", "zigzag_amplitude_v", "zigzag_frequency_hz")]
    + [("[sim]", k) for k in ("dt_s", "duration_s", "logic_threshold_v", "readout_v")]
    + [("[fit]", k) for k in ("grad_step", "tol", "source_r_ohm")]
    + [("[fit]", f"{k}_{end}") for end in ("lo", "hi") for k in DEVICE_KEYS[:8]]
    + [("[vision]", k) for k in ("binarize_threshold", "match_tau", "v_min_v",
                                 "v_max_v", "pulse_dt_s", "dt_s",
                                 "similarity_threshold")]
    + [("[vision]\nsimilarity_threshold = 0.3", k)
       for k in ("label_learn_v", "label_forget_v", "label_pulse_s")])
NON_FINITE = [(f"{head}\n{key} = {value}\n", key)
              for head, key in NUMERIC_KEYS for value in ("inf", "-inf", "nan")]
NON_FINITE += [(f"[schedule]\npreset = custom\n{key} = {value}\n", key)
               for key, value in (("food_segments", "0:inf"),
                                  ("ring1_segments", "nan:0.1"),
                                  ("food_segments", "0:0.1:inf"))]
OUT_OF_RANGE = [
    ("[device]\nr_on_ohm = 200e3\n", "r_on_ohm"),
    ("[device]\nr_on_ohm = 20e3\nr_off_ohm = 10e3\n", "r_off_ohm"),
    # r_off / r_on beyond the float range: R(w) would be inf short of w_off
    ("[device]\nr_on_ohm = 1e-300\nr_off_ohm = 1e300\n", "r_off_ohm"),
    ("[device]\nr_on_ohm = 5e-324\nr_off_ohm = 1000\n", "r_off_ohm"),
    ("[device]\nv_off_v = 0.1\n", "v_off_v"),
    ("[device]\nw_on = 2\n", "w_on"),
    ("[stage.1]\nlearning_v = -0.1\n", "learning_v"),
    ("[stage.1]\n[stage.2]\nforgetting_v = 0.2\n", "forgetting_v"),
    ("[stage.1]\nnatural_forgetting_v = 0\n", "natural_forgetting_v"),
    ("[stage.1]\ngain = 0\n", "gain"),
    ("[schedule]\nzigzag_amplitude_v = 0\nzigzag_frequency_hz = 0\n",
     "zigzag_frequency_hz"),
    ("[schedule]\npreset = custom\nfood_segments = 0:0.1, 0.05:0.2\n",
     "food_segments"),
    ("[schedule]\npreset = custom\nring1_segments = 0.2:0.1\n", "ring1_segments"),
    ("[sim]\nlogic_threshold_v = 0\n", "logic_threshold_v"),
    ("[sim]\nduration_s = 1e-6\n", "duration_s"),
    ("[sim]\ndt_s = 2.0\n", "dt_s"),  # longer than the preset's 1.5 s
    # the row budget: round(duration / dt) + 1 <= 1e7
    ("[sim]\ndt_s = 1e-12\n", "dt_s"),
    ("[sim]\nduration_s = 0.1\ndt_s = 1e-8\n", "dt_s"),
    ("[fit]\nr_on_ohm_lo = 30e3\n", "r_on_ohm_lo"),
    ("[device]\nr_on_ohm = 5e3\n[fit]\nr_on_ohm_hi = 4e3\n", "r_on_ohm_hi"),
    # an edge is blamed at its own key, whatever the parameter's other edge
    ("[fit]\nk_on_per_s_lo = 1.0\nk_on_per_s_hi = inf\n", "k_on_per_s_hi"),
    ("[fit]\nk_on_per_s_lo = 1.0\nk_on_per_s_hi = 2.0\n", "k_on_per_s_hi"),
    ("[fit]\nk_on_per_s_hi = 9.0\nk_on_per_s_lo = 5.0\n", "k_on_per_s_lo"),
    ("[fit]\nsource_r_ohm = -1\n", "source_r_ohm"),
    ("[vision]\ndt_s = 0.1\n", "dt_s"),
    ("[vision]\nv_min_v = 0.5\nv_max_v = 0.4\n", "v_max_v"),
    ("[vision]\nsimilarity_threshold = 0.3\nlabel_learn_v = 0.1\n",
     "label_learn_v"),
    ("[vision]\nsimilarity_threshold = 0.3\nlabel_pulse_s = 4e-5\n",
     "label_pulse_s"),
    ("[vision]\nsimilarity_threshold = 0.3\nlabel_pulse_s = 0.01\ndt_s = 0.02\n",
     "dt_s"),
]


# config key -> the domain field it sets, for every scalar key
SCALAR_FIELDS = {**memassoc.cli._DEVICE_KEYS, **memassoc.cli._STAGE_KEYS,
                 **memassoc.cli._SCHEDULE_KEYS, **memassoc.cli._SIM_KEYS,
                 **memassoc.cli._VISION_KEYS, **memassoc.cli._FIT_KEYS}


class TestErrorsAtKeyLine:
    """Each bad value fails in `parse_config` at the line of its own key."""

    @pytest.mark.parametrize("text,key", NON_FINITE + OUT_OF_RANGE)
    def test_bad_value_names_its_line(self, text, key):
        line = next(n for n, entry in enumerate(text.splitlines(), start=1)
                    if entry.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=rf"^line {line}: {key}: "):
            parse_config(text)

    @pytest.mark.parametrize("text,key", [(text, key) for text, key in NON_FINITE
                                          if key in SCALAR_FIELDS
                                          and text.endswith("inf\n")])
    def test_infinite_scalar_names_its_field_first(self, text, key):
        """Every scalar field, the chain's `dt`, `logic_threshold` and
        `readout_amplitude` included, is checked in the `require` form
        `<field> must ...`.  (A nan never reaches a domain type.)"""
        line = len(text.splitlines())
        with pytest.raises(ConfigError,
                           match=rf"^line {line}: {key}: {SCALAR_FIELDS[key]} must "):
            parse_config(text)

    def test_cross_section_error_names_section_header(self):
        text = "[vision]\nsimilarity_threshold = 0.3\n\n[device]\nr_on_ohm = 60e3\n"
        with pytest.raises(ConfigError, match=r"^line 1: \[vision\]: label_boundary"):
            parse_config(text)

    @pytest.mark.parametrize("text,header", [
        ("[stage.1]\n[stage.2]\n", "[stage.2]"),
        ("[stage.1]\n[sim]\nreadout_v = 0.2\n[stage.2]\n", "[sim]"),
    ])
    def test_chain_error_names_first_header(self, text, header):
        """A chain error that names no key of its own goes to the first
        header present among [schedule], [sim] and the last [stage.K]
        (`TestBuilders` covers [schedule])."""
        line = text.splitlines().index(header) + 1
        with pytest.raises(ConfigError, match=rf"^line {line}: {re.escape(header)}: "):
            parse_config(text)

    @pytest.mark.parametrize("text, message", [
        ("[sim]\ndt_s = 5\n[fit]\ngrad_step = x\n", "line 4: not a number: 'x'"),
        ("[sim]\ndt_s = 5\n[fit]\ngrad_step = -1\n", "line 2: dt_s: duration must"),
        ("[fit]\nbogus = 1\n[sim]\ndt_s = 5\n", "line 2: unknown key 'bogus' in [fit]"),
    ], ids=["fit_read_error_first", "chain_before_fit_range", "fit_unknown_key_first"])
    def test_fit_and_chain_errors_keep_their_order(self, text, message):
        """[fit]'s values are read with every other section's, before the
        chain is built, and checked after it: a read error there comes
        first, a range error there after the chain's."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(text)

    def test_row_budget_boundary(self):
        # 1e7 rows at dt 1e-4 s parse; one more does not (nothing is allocated)
        assert parse_config("[sim]\nduration_s = 999.9999\n").chain.duration == 999.9999
        with pytest.raises(ConfigError, match="^line 2: duration_s: dt must leave "
                                              "at most 10000000 trace rows"):
            parse_config("[sim]\nduration_s = 1000.0\n")

    @pytest.mark.parametrize("key", ["pulse_dt_s", "label_pulse_s"])
    def test_pulse_step_budget_boundary(self, key):
        # 10^7 steps per pulse at dt 1e-4 s parse; one more does not
        # (parse only: no pulse runs)
        text = "[vision]\nsimilarity_threshold = 0.3\ndt_s = 1e-4\n{} = {}\n"
        assert parse_config(text.format(key, 1000.0)).vision.dt == 1e-4
        with pytest.raises(ConfigError, match=r"^line 3: dt_s: dt must lie in .* "
                                              r"and leave at most 10000000 steps"):
            parse_config(text.format(key, 1000.0001))

    @pytest.mark.parametrize("text,key", [
        ("[vision]\nv_max_v = 0.14\n", "v_max_v"),  # at the device's v_on
        ("[device]\nv_on_v = 0.4\n", "v_on_v"),  # above the default v_max
        ("[device]\nv_on_v = 0.4\n[vision]\nv_max_v = 0.3\n", "v_max_v"),
    ])
    def test_training_rule_must_reach_v_on_only_for_vision(self, text, key):
        """The reach rule is the vision commands' own: whether [vision] is
        written changes nothing, and other commands accept the config."""
        assert parse_config(text) == parse_config(serialize_config(parse_config(text)))
        line = next(n for n, entry in enumerate(text.splitlines(), start=1)
                    if entry.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=rf"^line {line}: {key}: v_max must exceed"):
            parse_config(text, vision=True)

    def test_integer_key_rejects_non_finite(self):
        for value in ("inf", "nan"):
            with pytest.raises(ConfigError, match="^line 2: not an integer"):
                parse_config(f"[fit]\nmax_iters = {value}\n")

    @pytest.mark.parametrize("key", ["label_learn_v", "label_forget_v",
                                     "label_pulse_s"])
    def test_label_key_rejects_nan_without_threshold(self, key):
        """Without a similarity threshold the label keys go unchecked, but
        nan is still refused at its line: a config holding it does not
        compare equal to itself, so it could not round-trip."""
        for vision in (False, True):
            with pytest.raises(ConfigError, match=rf"^line 2: {key}: not a number"):
                parse_config(f"[vision]\n{key} = nan\n", vision=vision)


floats = st.floats


@st.composite
def experiment_configs(draw):
    """Valid configs: every section passes its domain checks."""
    device = DeviceParams(
        r_on=draw(floats(1e3, 40e3)), r_off=draw(floats(60e3, 1e6)),
        alpha_on=draw(floats(0.1, 5.0)), alpha_off=draw(floats(0.1, 5.0)),
        k_on=draw(floats(0.1, 100.0)), k_off=-draw(floats(0.1, 100.0)),
        v_on=draw(floats(0.01, 0.3)), v_off=-draw(floats(0.01, 0.3)),
        w_on=draw(floats(-1.0, 0.0)), w_off=draw(floats(0.5, 2.0)))
    positive, negative = floats(0.01, 1.0), floats(-1.0, -0.01)
    # a preset drives as many stages as its order; a custom schedule one
    # ring per stage (ten stages give ring10, which sorts before ring2)
    preset = draw(st.sampled_from(["pavlov1", "pavlov2", "pavlov3", "custom"]))
    n_stages = (draw(st.sampled_from([1, 2, 3, 10])) if preset == "custom"
                else int(preset[-1]))
    stages = tuple(
        StageConfig(learning_v=draw(positive) if k == 0 else None,
                    forgetting_v=draw(negative), natural_forgetting_v=draw(negative),
                    r_f=draw(floats(1e2, 1e5)), gain=draw(floats(0.1, 10.0)),
                    v_learn_max=draw(floats(0.01, 2.0)),
                    state_threshold_v=draw(floats(0.01, 1.0)))
        for k in range(n_stages))
    segments = []
    if preset == "custom":
        for role in sorted(["food"] + [f"ring{k}" for k in range(1, n_stages + 1)]):
            t, windows = 0.0, []
            for _ in range(draw(st.integers(1, 3))):
                start = t + draw(floats(0.0, 0.5))
                t = start + draw(floats(1e-3, 0.5))
                windows.append((start, t, draw(floats(-2.0, 5.0))))
            segments.append((role, tuple(windows)))
    fit_bounds = {}  # each edge set or left at its default
    for end, sign in (("lo", -1.0), ("hi", 1.0)):
        for name in draw(st.lists(st.sampled_from(PARAM_NAMES), unique=True)):
            fit_bounds[f"{name}_{end}"] = (getattr(device, name)
                                           + sign * draw(floats(0.0, 10.0)))
    v_min, pulse_dt = draw(floats(-1.0, 0.5)), draw(floats(1e-3, 0.1))
    return ExperimentConfig(
        chain=ChainConfig(
            device=device, stages=stages,
            schedule=StimulusSchedule(
                preset=preset, high_level=draw(floats(0.01, 5.0)),
                zigzag_amplitude=draw(floats(0.0, 0.5)),
                zigzag_frequency=draw(floats(1.0, 1e3)), segments=tuple(segments)),
            dt=draw(floats(1e-5, 1e-3)),  # at most 1e6 rows
            duration=(draw(floats(1e-3, 10.0)) if preset == "custom"
                      else draw(st.none() | floats(1e-3, 10.0))),
            logic_threshold=draw(floats(0.01, 2.0)),
            readout_amplitude=draw(floats(0.0, 1.0))),
        fit=FitConfig(grad_step=draw(floats(1e-9, 1e-2)),
                      max_iters=draw(st.integers(1, 1000)),
                      tol=draw(floats(0.0, 1e-3)),
                      source_r_ohm=draw(floats(0.0, 1e4)), **fit_bounds),
        vision=VisionConfig(
            binarize_threshold=draw(floats(0.01, 0.99)),
            predicate=draw(st.sampled_from(["equal-binary", "abs-diff"])),
            tau=draw(floats(0.0, 1.0)),
            scope=draw(st.sampled_from(["all-vector", "corresponding"])),
            v_min=v_min, v_max=v_min + draw(floats(0.01, 1.0)),
            pulse_dt=pulse_dt, dt=pulse_dt * draw(floats(0.01, 1.0)),
            similarity_threshold=draw(st.none() | floats(0.01, 0.99)),
            label_learn_v=draw(floats(0.31, 2.0)),
            label_forget_v=draw(floats(-2.0, -0.31)),
            label_pulse_s=draw(floats(0.1, 1.0)),  # at least dt
            allow_resize=draw(st.booleans())))


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(experiment_configs())
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_round_trip(self, path):
        cfg = load_config(path)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_custom_schedule_round_trips(self):
        text = ("[schedule]\npreset = custom\n"
                "food_segments = 0:0.05, 0.1:0.15:0.8\n"
                "ring1_segments = 0:0.2\n[sim]\nduration_s = 0.25\n")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


# SHA-256 of `serialize_config`'s text, which every manifest records as
# `config_text`: the default config, each shipped config (`vision_demo`
# read as a vision config) and one custom schedule
PINNED_CONFIG_TEXTS = {
    "default": "7a83bef3a936e68f563cd80009b19fcd88b88ab891cac705e0ef7ea9ab934be5",
    "fit_sinusoid": "61c30806a556d8a9927c0d3ad976c9a4feed57ed949f7deaa6b0536611df8c94",
    "pavlov2_highgain": "07c32a775353761ac2a491bbbf1148bdea49e06971ab944b9e87781d10fea6e9",
    "pavlov2_lowpower": "5a74934267c4e3ca875e6683e2bd10fd89ba4df702bd9d57e88ceb1e108b451e",
    "pavlov3": "f573cc521d65d3bf3015e341c0642748e2073147b879f90bbf94d38776f7c05f",
    "vision_demo": "be727357c3981744ec6a44d00c1293dde45efeaf5b5d5f693f787bb7349100fe",
    "custom": "680a4b43e08ac17ccc84b4182a618fd87444c1287b62c7da3f10204b365bd14c",
}
# the command README runs each shipped config with
SHIPPED_COMMANDS = {"fit_sinusoid": "fit", "pavlov2_highgain": "pavlov",
                    "pavlov2_lowpower": "pavlov", "pavlov3": "pavlov",
                    "vision_demo": "vision-classify"}
PINNED_CUSTOM_TEXT = (
    "[schedule]\npreset = custom\nhigh_level_v = 1.5\n"
    "food_segments = 0:0.05, 0.1:0.15:0.8\nring1_segments = 0:0.2\n"
    "ring2_segments = 0.1:0.3\n[stage.1]\n[stage.2]\n[sim]\nduration_s = 0.4\n")


@pytest.mark.parametrize("name", PINNED_CONFIG_TEXTS)
def test_written_back_config_text_is_pinned(name):
    if name == "default":
        config = ExperimentConfig()
    elif name == "custom":
        config = parse_config(PINNED_CUSTOM_TEXT)
    else:
        runs_on = memassoc.cli._COMMANDS[SHIPPED_COMMANDS[name]].runs_on
        config = load_config(REPO / "configs" / f"{name}.conf",
                             vision=runs_on == "vision")
    text = serialize_config(config)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CONFIG_TEXTS[name]


# Text-level fuzz: sections from the parser's own tables, keys mostly
# valid for their section, values from edge strings.  Nothing drawn sets
# a size: the row and pulse budgets refuse what would allocate.
FUZZ_KEYS = {
    "device": list(memassoc.cli._DEVICE_KEYS),
    "schedule": [*memassoc.cli._SCHEDULE_KEYS,
                 *(f"{role}_segments" for role in ("food", "ring1", "ring2"))],
    "sim": list(memassoc.cli._SIM_KEYS),
    "fit": list(memassoc.cli._FIT_KEYS),
    "vision": list(memassoc.cli._VISION_KEYS),
    **{f"stage.{k}": list(memassoc.cli._STAGE_KEYS) for k in (1, 2, 3)},
}
ALL_FUZZ_KEYS = sorted({key for keys in FUZZ_KEYS.values() for key in keys})
EDGE_VALUES = [
    "0", "-0", "1", "-1", "0.5", "-0.2", "5e-324", "-5e-324",
    "2.2250738585072014e-308", "1e308", "-1e308", "1.8e308", "nan", "-nan",
    "inf", "-inf", "9" * 400, "-" + "9" * 400, "0x10", "1_000", "", "garbage",
    "true", "pavlov2", "pavlov3", "custom", "abs-diff", "corresponding",
    "0:0.1", "0:0.1:0.8", "0.1:0", "0:inf", "nan:1", "0:1e308",
    "0:0.1, 0.05:0.2", "0:0.1,", "1:2:3:4",
]
# a value each key accepts on its own: the default config's, else one given here
VALID_VALUES = {
    **{key: value for key, value in re.findall(
        r"^(\w+) = (.*)$", serialize_config(ExperimentConfig()), re.M)},
    "duration_s": "0.5", "similarity_threshold": "0.5",
    **{f"{role}_segments": "0:0.1, 0.2:0.3" for role in ("food", "ring1", "ring2")},
}


@st.composite
def config_texts(draw):
    """Stage sections 1..N (N <= 3) and other sections in any order, each
    with distinct keys of its own, and maybe one stray line of any key."""
    names = draw(st.lists(st.sampled_from(memassoc.cli._SECTIONS), max_size=3,
                          unique=True))
    names += [f"stage.{k}" for k in range(1, draw(st.integers(0, 3)) + 1)]
    lines = []
    for name in draw(st.permutations(names)):
        lines.append(f"[{name}]")
        for key in draw(st.lists(st.sampled_from(FUZZ_KEYS[name]), max_size=4,
                                 unique=True)):
            values = st.sampled_from(EDGE_VALUES)
            if key in VALID_VALUES:
                values = st.just(VALID_VALUES[key]) | values
            lines.append(f"{key} = {draw(values)}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     f"{draw(st.sampled_from(ALL_FUZZ_KEYS))} = "
                     f"{draw(st.sampled_from(EDGE_VALUES))}")
    return "\n".join(lines) + "\n"


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(config_texts(), st.booleans())
    def test_fails_at_a_line_or_round_trips(self, text, vision):
        """Any text either fails as a `ConfigError` at a line, or parses to
        a config that serializes and parses back to itself."""
        try:
            config = parse_config(text, vision=vision)
        except ConfigError as exc:
            assert re.match(r"^line \d+: ", str(exc)), str(exc)
            return
        assert parse_config(serialize_config(config), vision=vision) == config


def test_key_tables_name_domain_fields():
    """Each key is read as the type of the domain field its table names and
    located by that name, so a misspelled name would parse as a float and
    never be located."""
    def names(cls):
        return {f.name for f in fields(cls)}

    for table, known in [(memassoc.cli._DEVICE_KEYS, names(DeviceParams)),
                         (memassoc.cli._STAGE_KEYS, names(StageConfig)),
                         (memassoc.cli._SIM_KEYS, names(ChainConfig)),
                         (memassoc.cli._VISION_KEYS, names(VisionConfig)),
                         (memassoc.cli._FIT_KEYS, names(FitConfig)),
                         (memassoc.cli._SCHEDULE_KEYS, names(StimulusSchedule))]:
        assert set(table.values()) <= known, set(table.values()) - known


class TestBuilders:
    def test_preset_chain_dimensions(self):
        cfg = load_config(REPO / "configs" / "pavlov2_lowpower.conf")
        chain = build_chain(cfg)
        assert len(chain.stages) == 2
        assert (chain.duration, chain.run_length) == (None, 1.7)
        assert chain.dt == 1e-4

    def test_preset_stage_count_mismatch(self):
        with pytest.raises(ConfigError, match=r"^line 1: \[schedule\]: schedule roles "
                                              r"\['food', 'ring1', 'ring2', 'ring3'\]"):
            parse_config("[schedule]\npreset = pavlov3\n[stage.1]\n")

    def test_custom_schedule_needs_duration(self):
        with pytest.raises(ConfigError, match=r"^line 1: \[schedule\]: duration must "
                                              "be a number"):
            parse_config("[schedule]\npreset = custom\n"
                         "food_segments = 0:0.1\nring1_segments = 0:0.1\n")

    def test_custom_schedule_role_mismatch(self):
        with pytest.raises(ConfigError, match=r"^line 1: \[schedule\]: schedule roles "
                                              r"\['food', 'ring2'\]"):
            parse_config("[schedule]\npreset = custom\n"
                         "food_segments = 0:0.1\nring2_segments = 0:0.1\n"
                         "[sim]\nduration_s = 0.2\n")

    def test_classification_requires_threshold(self):
        with pytest.raises(ConfigError, match="similarity_threshold"):
            build_infer_config(ExperimentConfig())

    def test_defaults_reach_domain_objects(self):
        cfg = parse_config("")
        chain = build_chain(cfg)
        assert (chain.dt, chain.logic_threshold, chain.readout_amplitude) == (
            ChainConfig.dt, ChainConfig.logic_threshold,
            ChainConfig.readout_amplitude)
        assert chain.stages == (FIRST_STAGE,)
        three = parse_config("[schedule]\npreset = pavlov3\n"
                             "[stage.1]\n[stage.2]\n[stage.3]\n")
        assert build_chain(three).stages == (FIRST_STAGE, StageConfig(), StageConfig())
        assert build_fit_config(cfg) == FitConfig()
        assert build_train_config(cfg) == VisionConfig()
        classify_cfg = parse_config("[vision]\nsimilarity_threshold = 0.6\n")
        assert build_infer_config(classify_cfg) == VisionConfig(
            similarity_threshold=0.6)


class TestCmdFit:
    @pytest.fixture
    def trace_path(self, tmp_path):
        t = np.arange(0.0, 0.06, 5e-4)
        v = 0.5 * np.sin(2 * np.pi * 10 * t)
        trace = simulate_current(DeviceParams(), IVTrace(t, v, np.zeros_like(t)))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        return path

    def test_fit_from_truth_converges(self, trace_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = console_main(["fit", str(trace_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"] is True
        # the CSV round trip perturbs the start, so allow a polish step
        assert report["iterations"] <= 5
        assert report["rmse"] <= 1e-8
        refit = parse_config((out / "device_fit.conf").read_text())
        assert refit.chain.device.r_on == pytest.approx(20e3, rel=1e-3)

    def test_fit_budget_exhaustion_exits_2(self, trace_path, tmp_path):
        cfg = tmp_path / "fit.conf"
        cfg.write_text("[device]\nr_on_ohm = 26e3\nk_on_per_s = 3.7\n"
                       "[fit]\nmax_iters = 1\n")
        code = console_main(["fit", str(trace_path), "--config", str(cfg),
                             "--out", str(tmp_path / "out")])
        assert code == 2
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert report["converged"] is False

    def test_unconverged_fit_exits_2_with_one_error_line(self, tmp_path, capsys):
        text = (REPO / "configs" / "fit_sinusoid.conf").read_text().replace(
            "max_iters = 200", "max_iters = 3")
        cfg = tmp_path / "fit.conf"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = console_main(["fit", str(REPO / "data" / "iv" / "sine_10hz_0v5.csv"),
                             "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "fit_report.json").read_text())
        assert code == 2
        assert report["converged"] is False and report["iterations"] == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: fit did not converge: stopped on max_iters after 3 "
            f"iterations (rmse {report['rmse']!r}); "
            "fit_report.json records converged: false"]

    def test_fit_ending_on_its_box_warns_and_keeps_its_report(self, tmp_path, capsys):
        """Start corner 21 of the benchmark's fit starts: each parameter of
        the device behind the shipped sine trace scaled by 1.3 where bit j
        of 21 is set, else 0.7.  The search stops on `tol` with five
        parameters on its box; the report and exit code are those of any
        converged fit, and one warning names the five."""
        truth = {"r_on_ohm": 20e3, "r_off_ohm": 190e3, "alpha_on": 1.0,
                 "alpha_off": 1.0, "k_on_per_s": 2.82, "k_off_per_s": -18.33,
                 "v_on_v": 0.14, "v_off_v": -0.16}
        device = "".join(f"{key} = {value * (1.3 if 21 >> bit & 1 else 0.7)!r}\n"
                         for bit, (key, value) in enumerate(truth.items()))
        cfg = tmp_path / "fit.conf"
        cfg.write_text(f"[device]\n{device}\n[fit]\ngrad_step = 1e-6\n"
                       "max_iters = 200\ntol = 1e-12\n")
        out = tmp_path / "out"
        assert console_main(["fit", SINE_TRACE, "--config", str(cfg),
                             "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"] is True and report["iterations"] == 66
        assert report["rmse"] == pytest.approx(1.154e-3, abs=1e-6)
        assert capsys.readouterr() == (
            "", f"warning: {out}: the fit ended with alpha_on, k_on, k_off, "
                "v_on, v_off on an edge of its box\n")

    def test_single_sample_trace_rejected(self, tmp_path, capsys):
        bad = tmp_path / "one.csv"
        bad.write_text("t_s,v_v,i_a\n0,0.1,1e-6\n")
        code = console_main(["fit", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "one.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("t_s,v_v,i_a\n0,0.1,x\n1,0.2,1e-6\n", "non-numeric trace sample"),
        ("t_s,v_v,i_a\n0,0.1,1e-6\n1,0.2,1e-6,7\n", "bad.csv:3: expected 3 fields, got 4"),
        ("t_s,v_v,i_a\n0,0.1\n1,0.2,1e-6\n", "bad.csv:2: expected 3 fields, got 2"),
        ("t_s,v_v,i_a\n0,0,1e-6\n1,0,2e-6\n", "trace voltage is zero throughout"),
        ("t_s,v_v,i_a\n0,0.1,0\n1,0.2,0\n", "trace current is zero throughout"),
        ("t_s,v_v,i_a\n-1e308,0.1,1e-6\n1e308,0.2,1e-6\n",
         "trace sample intervals must be finite"),
        ("t_s,v_v,i_a\n0,0.1,nan\n1,0.2,1e-6\n",
         "bad.csv: trace contains non-finite samples"),
        # the csv module's own refusal, past its default field size limit
        ("t_s,v_v,i_a\n" + "0" * 131073 + ",0.1,1e-6\n1,0.2,1e-6\n",
         "bad.csv:2: field larger than field limit (131072)"),
    ], ids=["non_numeric", "four_fields", "two_fields",
            "zero_voltage", "zero_current", "interval_beyond_float_range",
            "non_finite", "field_beyond_csv_limit"])
    def test_bad_trace_exits_2_before_writing(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "out"
        assert console_main(["fit", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and message in err, err
        assert not out.exists()

    def test_start_whose_replay_overflows_exits_2(self, tmp_path, capsys):
        # 0.0079 V, the sine's first sample above v_on, raised to the 400th
        # power of (v / v_on - 1) = 6.9 exceeds the float range
        cfg = tmp_path / "fit.conf"
        cfg.write_text("[device]\nalpha_on = 400.0\nv_on_v = 0.001\n")
        out = tmp_path / "out"
        code = console_main(["fit", str(REPO / "data" / "iv" / "sine_10hz_0v5.csv"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows at the initial" in err, err
        assert not out.exists()

    def test_line_search_without_a_feasible_probe_exits_2(self, tmp_path, capsys):
        # the start and its gradient replay finitely, but every Armijo probe
        # overflows in `_from_vector` and scores as infeasible: a search
        # that scored no probe has not converged
        cfg = tmp_path / "fit.conf"
        cfg.write_text("[device]\nr_on_ohm = 1e-30\nr_off_ohm = 1e-29\n")
        out = tmp_path / "out"
        code = console_main(["fit", SINE_TRACE, "--config", str(cfg),
                             "--out", str(out)])
        report = json.loads((out / "fit_report.json").read_text())
        assert code == 2
        assert report["converged"] is False and report["iterations"] == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: fit did not converge: stopped on line_search after 0 "
            "iterations"), err

    @pytest.mark.parametrize("device", [
        "r_on_ohm = 1e-156\nr_off_ohm = 1e-155",
        "r_on_ohm = 5e-324\nv_off_v = -5e-324\nr_off_ohm = 2.5e-310",
    ])
    def test_replay_beyond_float_range_exits_2_without_a_warning(
            self, tmp_path, capsys, device):
        # the model current, or its squared error, overflows to inf: the
        # start scores non-finite, and numpy's overflow warning, an error
        # in this suite, must not reach the caller
        cfg = tmp_path / "fit.conf"
        cfg.write_text(f"[device]\n{device}\n{FIT_TAIL}")
        out = tmp_path / "out"
        code = console_main(["fit", SINE_TRACE, "--config", str(cfg),
                             "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: objective is non-finite at the initial parameters (inf)"]
        assert not out.exists()

    def test_missing_trace_exits_2(self, tmp_path):
        code = console_main(["fit", str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_fit_report_deterministic(self, trace_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert console_main(["fit", str(trace_path),
                                 "--out", str(out)]) == 0
            outs.append((out / "fit_report.json").read_bytes())
        assert outs[0] == outs[1]


class TestCmdPavlov:
    def test_metrics(self, tmp_path):
        out = tmp_path / "run"
        assert console_main(["pavlov", "--out", str(out)]) == 0
        metrics = dict(line.split("=") for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert float(metrics["stage1.switch_time_s"]) == pytest.approx(
            0.2693, abs=1e-6)

    @pytest.mark.parametrize("stages, idle", [(1, "1"), (2, "1, 2")])
    def test_run_that_learns_nothing_warns_once(self, tmp_path, capsys, stages, idle):
        """No stimulus reaches a 5 V logic threshold, so no row of any stage
        runs the learning scheme: the run still exits 0 with its outputs,
        and one stderr line names the output directory and the stages."""
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"[schedule]\npreset = pavlov{stages}\n[sim]\nlogic_threshold_v = 5\n"
                       + "".join(f"[stage.{k}]\n" for k in range(1, stages + 1)))
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "", f"warning: {out}: no learning-scheme row in stage {idle}\n")
        assert "switch_time_s" not in (out / "metrics.txt").read_text()
        assert {p.name for p in out.iterdir()} == {
            *memassoc.cli._COMMANDS["pavlov"].outputs, "manifest.json"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("device", [
        "alpha_on = 1e308",   # the drift rate overflows in the integrator
        # r_off / r_on is finite, but r_f / r is inf once the stage sets
        "r_on_ohm = 1e-320\nr_off_ohm = 1e-300",
    ])
    def test_chain_beyond_float_range_exits_2(self, tmp_path, capsys, device):
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"[schedule]\npreset = pavlov1\n[device]\n{device}\n")
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage 1: "), err
        assert not out.exists()

    def test_dt_override_shrinks_trace(self, tmp_path):
        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out1)]) == 0
        assert console_main(["pavlov", "--config", str(cfg), "--out", str(out2),
                             "--dt-override", "2e-4"]) == 0
        rows1 = len((out1 / "trace.csv").read_text().splitlines())
        rows2 = len((out2 / "trace.csv").read_text().splitlines())
        assert rows1 == 1202 and rows2 == 602
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert "dt_s = 0.0002" in manifest["config_text"]

    def test_non_finite_readout_exits_1_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN + "readout_v = inf\n")
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out)]) == 1
        assert "readout" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("text", [
        "[schedule]\npreset = pavlov3\n[stage.1]\n",
        "[stage.1]\n[stage.2]\n",
        "[schedule]\npreset = custom\nfood_segments = 0:0.1\nring1_segments = 0:0.1\n",
        "[schedule]\npreset = custom\nfood_segments = 0:0.1\nring2_segments = 0:0.1\n",
        "[sim]\ndt_s = 2.0\n",
        "[sim]\ndt_s = 1e-12\n",
    ])
    def test_invalid_chain_exits_1_at_a_line_before_writing(self, tmp_path, capsys,
                                                            text):
        cfg = tmp_path / "c.conf"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out)]) == 1
        assert re.match(rf"config error: {re.escape(str(cfg))}: line \d+: ",
                        capsys.readouterr().err)
        assert not out.exists()

    def test_empty_key_exits_1_at_its_line_before_writing(self, tmp_path):
        cfg = tmp_path / "e.conf"
        cfg.write_text("[sim]\n = 3\n")
        out = tmp_path / "run"
        assert run_quietly(["pavlov", "--config", str(cfg), "--out", str(out)]) == (
            1, [f"config error: {cfg}: line 2: empty key"], [])
        assert not out.exists()

    def test_fit_rejects_invalid_chain_sections(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("[sim]\ndt_s = 2.0\n")
        out = tmp_path / "run"
        assert console_main(["fit", "trace.csv", "--config", str(cfg),
                             "--out", str(out)]) == 1
        assert f"config error: {cfg}: line 2: dt_s: " in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_dt_override_edits_each_config(self, tmp_path):
        c1, c2 = tmp_path / "one.conf", tmp_path / "two.conf"
        c1.write_text(CUSTOM_CHAIN)
        c2.write_text(CUSTOM_CHAIN.replace("0:0.06", "0:0.05"))
        sweep = tmp_path / "sweep"
        assert console_main(["pavlov", "--config", str(c1), "--config", str(c2),
                             "--out", str(sweep), "--dt-override", "2e-4"]) == 0
        for cfg in (c1, c2):
            alone = tmp_path / f"alone_{cfg.stem}"
            assert console_main(["pavlov", "--config", str(cfg), "--out", str(alone),
                                 "--dt-override", "2e-4"]) == 0
            for name in ("trace.csv", "metrics.txt", "manifest.json"):
                assert ((sweep / cfg.stem / name).read_bytes()
                        == (alone / name).read_bytes()), (cfg.stem, name)
            assert len((alone / "trace.csv").read_text().splitlines()) == 602
            manifest = json.loads((alone / "manifest.json").read_text())
            assert "dt_s = 0.0002" in manifest["config_text"]

    def test_sweep_parses_every_config_before_running_any(self, tmp_path, capsys):
        good, bad = tmp_path / "good.conf", tmp_path / "bad.conf"
        good.write_text(CUSTOM_CHAIN)
        bad.write_text("[sim]\ndt_s = 2.0\n")
        out = tmp_path / "sweep"
        assert console_main(["pavlov", "--config", str(good), "--config", str(bad),
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: line 2: dt_s: ")
        assert not out.exists()

    def test_sweep_checks_dt_override_on_every_config_before_running_any(
            self, tmp_path, capsys):
        # a 2 s step fits the 5 s custom chain but not the 1.5 s pavlov1
        # preset that an empty config runs
        long, empty = tmp_path / "long.conf", tmp_path / "empty.conf"
        long.write_text("[schedule]\npreset = custom\nfood_segments = 0:1\n"
                        "ring1_segments = 0:1\n[sim]\nduration_s = 5.0\n")
        empty.write_text("")
        out = tmp_path / "sweep"
        assert console_main(["pavlov", "--config", str(long), "--config",
                             str(empty), "--out", str(out),
                             "--dt-override", "2.0"]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {empty}: --dt-override 2.0: duration ")
        assert not out.exists()

    def test_sweep_parse_error_names_its_config(self, tmp_path, capsys):
        empty, bad = tmp_path / "empty.conf", tmp_path / "bad.conf"
        empty.write_text("")
        bad.write_text("[sim]\nbogus = 1\n")
        out = tmp_path / "sweep"
        assert console_main(["pavlov", "--config", str(empty), "--config", str(bad),
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {bad}: line 2: unknown key 'bogus' in [sim]\n")
        assert not out.exists()

    def test_dt_override_error_on_the_default_config_names_the_flag(
            self, tmp_path, capsys):
        out = tmp_path / "o"
        assert console_main(["pavlov", "--out", str(out),
                             "--dt-override", "2.0"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: --dt-override 2.0: duration must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("argv, n_configs", [
        (["pavlov", "--jobs", "-3"], 2),
        (["pavlov", "--jobs", "0"], 2),
        (["fit", "trace.csv", "--jobs", "8"], 1),
        (["pavlov", "--jobs", "2"], 1),
        (["pavlov", "--jobs", "2"], 2),
    ])
    def test_jobs_is_usage_error_everywhere(self, tmp_path, capsys, argv, n_configs):
        configs = []
        for stem in ("one", "two")[:n_configs]:
            (tmp_path / f"{stem}.conf").write_text(CUSTOM_CHAIN)
            configs += ["--config", str(tmp_path / f"{stem}.conf")]
        out = tmp_path / "run"
        assert console_main(argv + configs + ["--out", str(out)]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_never_imports_an_executor(self):
        # a fresh interpreter: this process may have imported it for other reasons
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys, memassoc.cli; print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_plot_script_is_valid_python(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN)
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out)]) == 0
        source = (out / "plot_trace.py").read_text()
        compile(source, "plot_trace.py", "exec")
        assert "trace.csv" in source

    def test_sweep_isolates_outputs(self, tmp_path):
        c1, c2 = tmp_path / "one.conf", tmp_path / "two.conf"
        c1.write_text(CUSTOM_CHAIN)
        c2.write_text(CUSTOM_CHAIN.replace("0:0.06", "0:0.05"))
        out = tmp_path / "sweep"
        assert console_main(["pavlov", "--config", str(c1), "--config",
                             str(c2), "--out", str(out)]) == 0
        assert (out / "one" / "trace.csv").exists()
        assert (out / "two" / "trace.csv").exists()

    def test_sweep_rejects_duplicate_stems(self, tmp_path):
        (tmp_path / "x.conf").write_text(CUSTOM_CHAIN)
        code = console_main(["pavlov", "--config", str(tmp_path / "x.conf"),
                             "--config", str(tmp_path / "x.conf"),
                             "--out", str(tmp_path / "out")])
        assert code == 1


class TestCmdVision:
    def test_train_then_classify(self, vision_dirs, tmp_path):
        train, test = vision_dirs
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        out = tmp_path / "out"
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "name,similarity,threshold,label"
        rows = {line.split(",")[0]: line.split(",")[3] for line in report[1:]}
        assert rows == {"hit.csv": "cat", "miss.csv": "non-cat"}
        state = (out / "array_state.csv").read_text().splitlines()
        assert len(state) == 20

    def test_training_that_moves_no_cell_warns_once(self, tmp_path, capsys):
        """Position-wise, a blank input matches no pixel of a full teacher,
        so every cell gets `v_min_v` = 0 V, below the set threshold: the run
        still exits 0 and writes the untouched state, with one warning."""
        train = tmp_path / "train"
        train.mkdir()
        write_grid(train / "teacher.csv", np.ones((20, 20)))
        write_grid(train / "blank.csv", np.zeros((20, 20)))
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nmatch_scope = corresponding\n")
        out = tmp_path / "out"
        assert console_main(["vision-train", str(train), "--config", str(cfg),
                             "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "", f"warning: {out}: training moved no cell of the array\n")
        assert set((out / "array_state.csv").read_text().split()) == {
            ",".join(["1"] * 20)}

    def test_train_only_writes_state(self, vision_dirs, tmp_path):
        train, _ = vision_dirs
        out = tmp_path / "out"
        assert console_main(["vision-train", str(train),
                             "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"array_state.csv", "manifest.json"}

    def test_empty_test_dir_gives_empty_report(self, vision_dirs, tmp_path):
        train, _ = vision_dirs
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        out = tmp_path / "out"
        code = console_main(["vision-classify", str(train), str(empty),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").read_text() == "name,similarity,threshold,label\n"

    def test_missing_teacher_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train"
        train.mkdir()
        code = console_main(["vision-train", str(train),
                             "--out", str(tmp_path / "out")])
        assert code == 2
        assert "teacher" in capsys.readouterr().err

    def test_teacher_without_inputs_exits_2_before_writing(self, tmp_path):
        train = tmp_path / "train"
        train.mkdir()
        (train / "teacher.csv").write_bytes(
            (REPO / "data" / "vision" / "train" / "teacher.csv").read_bytes())
        out = tmp_path / "out"
        assert run_quietly(["vision-train", str(train), "--out", str(out)]) == (
            2, ["error: no training inputs next to teacher.csv"], [])
        assert not out.exists()

    def test_malformed_image_names_file(self, vision_dirs, tmp_path, capsys):
        train, test = vision_dirs
        (test / "broken.csv").write_text("1,2\n3\n")
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "broken.csv" in capsys.readouterr().err

    def test_dimension_error_without_resize(self, vision_dirs, tmp_path, capsys):
        train, test = vision_dirs
        write_grid(test / "big.csv", np.zeros((40, 40)))
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "40x40" in capsys.readouterr().err

    def test_resize_permission_allows_larger(self, vision_dirs, tmp_path):
        train, test = vision_dirs
        proto20 = np.loadtxt(train / "teacher.csv", delimiter=",")
        write_grid(test / "big.csv", np.kron(proto20, np.ones((2, 2))))
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n"
                       "allow_resize = true\n")
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = (out / "report.csv").read_text()
        assert "big.csv" in report

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, vision, pulse", [
        # every probe scores below 0.99 and drives the label device at
        # 0.35 V; v_max below 2 * v_on keeps the training rates finite
        ("vision-classify", "similarity_threshold = 0.99\nv_max_v = 0.25\n",
         "label pulse"),
        # every cell is driven above 2 * v_on
        ("vision-train", "v_min_v = 0.3\nv_max_v = 0.5\n", "training pulse"),
    ], ids=["classify", "train"])
    def test_pulse_beyond_float_range_exits_2(self, vision_dirs, tmp_path, capsys,
                                              command, vision, pulse):
        # (v / v_on - 1) ** 1e308 overflows once v exceeds 2 * v_on
        train, test = vision_dirs
        cfg = tmp_path / "v.conf"
        cfg.write_text(f"[device]\nalpha_on = 1e308\n[vision]\n{vision}")
        out = tmp_path / "o"
        dirs = [str(train)] + ([str(test)] if command == "vision-classify" else [])
        code = console_main([command, *dirs, "--config", str(cfg),
                             "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: {pulse}: the device's drift rate is beyond the "
                       "float range"]
        assert not out.exists()

    def test_classify_without_threshold_exits_1(self, vision_dirs, tmp_path):
        train, test = vision_dirs
        code = console_main(["vision-classify", str(train), str(test),
                             "--out", str(tmp_path / "o")])
        assert code == 1

    def test_classify_without_threshold_names_the_config(self, vision_dirs,
                                                         tmp_path, capsys):
        train, test = vision_dirs
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nmatch_tau = 0.2\n")
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}: [vision] similarity_threshold is required "
            "for classification\n")
        assert not out.exists()


    def test_missing_test_dir_exits_2_before_writing(self, vision_dirs, tmp_path,
                                                     capsys):
        train, _ = vision_dirs
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(train), str(tmp_path / "nope"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "test directory" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_test_image_exits_2_before_writing(self, vision_dirs, tmp_path,
                                                         capsys):
        train, test = vision_dirs
        (test / "broken.csv").write_text("1,2\n3\n")
        cfg = tmp_path / "v.conf"
        cfg.write_text("[vision]\nsimilarity_threshold = 0.3\n")
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(train), str(test),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "broken.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_label_pulse_shorter_than_a_step_exits_1(self, tmp_path, capsys):
        # 4e-5 s at dt 1e-4 s rounds to a zero-step pulse, which used to
        # label every image non-cat and exit 0
        text = (REPO / "configs" / "vision_demo.conf").read_text().replace(
            "label_pulse_s = 0.25", "label_pulse_s = 4e-5")
        cfg = tmp_path / "v.conf"
        cfg.write_text(text)
        line = text.splitlines().index("label_pulse_s = 4e-5") + 1
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(REPO / "data/vision/train"),
                             str(REPO / "data/vision/test"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert f"line {line}: label_pulse_s:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt,pulse", [
        ("1e-12", "pulse_dt=0.05"),        # 5e10 grid steps per training pulse
        ("1e-8", "label_pulse_s=0.25"),    # grid 5e6 steps, label 2.5e7
    ])
    def test_pulse_step_budget_exits_1_before_reading(self, tmp_path, capsys,
                                                      dt, pulse):
        text = ((REPO / "configs" / "vision_demo.conf").read_text().rstrip("\n")
                + f"\ndt_s = {dt}\n")
        cfg = tmp_path / "v.conf"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(REPO / "data/vision/train"),
                             str(REPO / "data/vision/test"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 1
        line = len(text.splitlines())
        assert (f"line {line}: dt_s: dt must lie in (0, {pulse}] and leave at most "
                f"10000000 steps per pulse, got {float(dt)!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_v_max_below_set_threshold_exits_1_before_reading(self, tmp_path,
                                                              capsys):
        # no pulse at 0.1 V moves a cell with v_on = 0.14 V; this used to load
        # every image, then exit 1 with no line and an empty output directory
        text = (REPO / "configs" / "vision_demo.conf").read_text().replace(
            "v_max_v = 0.35", "v_max_v = 0.1")
        cfg = tmp_path / "v.conf"
        cfg.write_text(text)
        line = text.splitlines().index("v_max_v = 0.1") + 1
        out = tmp_path / "o"
        code = console_main(["vision-train", str(REPO / "data/vision/train"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert f"line {line}: v_max_v: v_max must exceed" in capsys.readouterr().err
        assert not out.exists()

    def test_device_beyond_default_v_max_exits_1_before_reading(self, tmp_path,
                                                                capsys):
        cfg = tmp_path / "v.conf"
        cfg.write_text("[device]\nv_on_v = 0.4\n")
        out = tmp_path / "o"
        code = console_main(["vision-train", str(REPO / "data/vision/train"),
                             "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert (f"config error: {cfg}: line 2: v_on_v: v_max must exceed the set "
                "threshold v_on=0.4") in capsys.readouterr().err
        assert not out.exists()

    def test_dt_override_sets_vision_dt(self, vision_dirs, tmp_path):
        train, _ = vision_dirs
        out = tmp_path / "o"
        assert console_main(["vision-train", str(train), "--out", str(out),
                             "--dt-override", "2e-4"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        vision = manifest["config_text"].split("[vision]")[1]
        assert "dt_s = 0.0002" in vision
        assert "dt_s = 0.0001" in manifest["config_text"].split("[vision]")[0]

    def test_dt_override_error_names_config_and_flag(self, tmp_path, capsys):
        cfg = REPO / "configs" / "vision_demo.conf"
        out = tmp_path / "o"
        assert console_main(["vision-train", str(REPO / "data/vision/train"),
                             "--config", str(cfg), "--out", str(out),
                             "--dt-override", "1.0"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}: --dt-override 1.0: dt must lie in "
            "(0, pulse_dt=0.05] and leave at most 10000000 steps per pulse, "
            "got 1.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("dirs", [["train"], ["train", "test"]],
                             ids=["train", "classify"])
    def test_dt_override_beyond_label_budget_exits_1_before_reading(
            self, tmp_path, capsys, monkeypatch, dirs):
        # 2e-8 s leaves the training pulse 2.5e6 steps, the label pulse
        # 1.25e7; a config with a similarity threshold is checked whole, so
        # vision-train refuses it too (its manifest could not be replayed)
        read = []
        monkeypatch.setattr(memassoc.cli, "load_image",
                            lambda path, **kw: read.append(path))
        cfg = REPO / "configs" / "vision_demo.conf"
        out = tmp_path / "o"
        command = "vision-classify" if len(dirs) == 2 else "vision-train"
        assert console_main([command, *(str(REPO / "data/vision" / d) for d in dirs),
                             "--config", str(cfg), "--out", str(out),
                             "--dt-override", "2e-8"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}: --dt-override 2e-08: dt must lie in "
            "(0, label_pulse_s=0.25] and leave at most 10000000 steps per "
            "pulse, got 2e-08\n")
        assert read == []
        assert not out.exists()

    def test_classify_config_error_leaves_no_output(self, vision_dirs, tmp_path):
        train, test = vision_dirs
        out = tmp_path / "o"
        code = console_main(["vision-classify", str(train), str(test),
                             "--out", str(out)])
        assert code == 1
        assert not out.exists() or not any(out.iterdir())


EXTREME_DEVICE_VALUES = ("5e-324", "2.5e-310", "1e308", "1000")


@pytest.fixture(scope="module")
def shared_vision_dirs(tmp_path_factory):
    """`vision_dirs`, written once for every example of a property."""
    return write_vision_dirs(tmp_path_factory.mktemp("vision"))


# the sign each [device] field takes in its valid range; the state bounds
# take either
DEVICE_KEY_SIGNS = {"k_off_per_s": ["-"], "v_off_v": ["-"], "w_on": ["", "-"],
                    "w_off": ["", "-"]}


VISION_TAIL = "[vision]\nsimilarity_threshold = 0.5\n"
# a two-stage chain of 301 rows, one chunk of the trace writer, so that no
# writer process is started
PAVLOV_TAIL = ("[schedule]\npreset = custom\nfood_segments = 0:0.01, 0.02:0.025\n"
               "ring1_segments = 0:0.01\nring2_segments = 0:0.015\n"
               "[stage.1]\n[stage.2]\n[sim]\nduration_s = 0.03\n")
FIT_TAIL = "[fit]\nmax_iters = 2\n"
SINE_TRACE = str(REPO / "data" / "iv" / "sine_10hz_0v5.csv")


@st.composite
def extreme_device_texts(draw, tail):
    """A config with one to three [device] fields at a subnormal, 1e308
    or 1000 of the field's sign, followed by `tail`."""
    keys = draw(st.lists(st.sampled_from(sorted(memassoc.cli._DEVICE_KEYS)),
                         min_size=1, max_size=3, unique=True))
    lines = [f"{key} = {draw(st.sampled_from(DEVICE_KEY_SIGNS.get(key, [''])))}"
             f"{draw(st.sampled_from(EXTREME_DEVICE_VALUES))}" for key in keys]
    return "[device]\n" + "\n".join(lines) + "\n" + tail


@contextlib.contextmanager
def run_in_process(parent, text, argv):
    """Run `memassoc *argv --config C --out O` in this process, C holding
    `text`, in a fresh directory under `parent`; yield the exit code, the
    stderr lines and O."""
    with tempfile.TemporaryDirectory(dir=parent) as scratch:
        cfg, out = Path(scratch) / "c.conf", Path(scratch) / "o"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = console_main([*argv, "--config", str(cfg), "--out", str(out)])
        yield code, err.getvalue().splitlines(), out


# The extreme-device properties run with every warning an error, as the
# whole suite does (pyproject.toml).  A `filterwarnings("error")` mark would
# also drop the one warning the ini ignores, so a failing example would end
# in INTERNALERROR instead of its report (tests/test_tooling.py).


def without_warning(lines, out):
    """The stderr `lines` but the one `warning: <out>: ...` line a run that
    did nothing, or a fit that ended on its box, may print."""
    warned = [line for line in lines if line.startswith(f"warning: {out}: ")]
    assert len(warned) <= 1, lines
    return [line for line in lines if line not in warned]


def assert_one_error_line(code, lines):
    assert code == 2 and len(lines) == 1, (code, lines)
    assert lines[0].startswith("error: ")


class TestVisionExtremeDevice:
    @settings(max_examples=100, deadline=None)
    @given(text=extreme_device_texts(VISION_TAIL))
    # a span w_off - w_on beyond the float range: it parsed, then overflowed
    @example(text="[device]\nw_on = -1e308\nw_off = 1e308\n" + VISION_TAIL)
    def test_parsed_config_exits_0_with_finite_scores_or_2_with_one_line(
            self, shared_vision_dirs, text):
        try:
            parse_config(text, vision=True)
        except ConfigError:
            return
        train, test = shared_vision_dirs
        with run_in_process(train.parent, text, ["vision-classify", str(train),
                                                 str(test)]) as (code, lines, out):
            lines = without_warning(lines, out)
            if code == 0:
                rows = (out / "report.csv").read_text().splitlines()[1:]
                assert len(rows) == 2 and lines == []
                assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
            else:
                assert_one_error_line(code, lines)


class TestChainExtremeDevice:
    @settings(max_examples=50, deadline=None)
    @given(text=extreme_device_texts(PAVLOV_TAIL))
    def test_parsed_config_exits_0_with_finite_cells_or_2_with_one_line(
            self, tmp_path_factory, text):
        try:
            parse_config(text)
        except ConfigError:
            return
        with run_in_process(tmp_path_factory.getbasetemp(), text,
                            ["pavlov"]) as (code, lines, out):
            lines = without_warning(lines, out)
            if code == 0:
                assert lines == []
                with (out / "trace.csv").open(newline="") as fh:
                    header, *rows = csv.reader(fh)
                numeric = [j for j, name in enumerate(header)
                           if not name.startswith("scheme")]
                assert len(rows) == 301
                assert all(math.isfinite(float(row[j]))
                           for row in rows for j in numeric)
            else:
                assert_one_error_line(code, lines)


class TestFitExtremeDevice:
    @settings(max_examples=50, deadline=None)
    @given(text=extreme_device_texts(FIT_TAIL))
    # the model current overflowed to inf with numpy's overflow warning
    @example(text="[device]\nr_on_ohm = 5e-324\nv_off_v = -5e-324\n"
                  "r_off_ohm = 2.5e-310\n" + FIT_TAIL)
    def test_parsed_config_exits_0_or_2_with_one_line(self, tmp_path_factory,
                                                      text):
        try:
            parse_config(text)
        except ConfigError:
            return
        with run_in_process(tmp_path_factory.getbasetemp(), text,
                            ["fit", SINE_TRACE]) as (code, lines, out):
            lines = without_warning(lines, out)
            if code == 0:
                assert lines == []
                report = json.loads((out / "fit_report.json").read_text())
                assert report["converged"] and math.isfinite(report["rmse"])
            else:
                assert_one_error_line(code, lines)


# --- input files that are not what their reader expects ----------------------

NOT_UTF8 = bytes(range(256))  # 0x80 at offset 128 is the first byte UTF-8 refuses


def run_quietly(argv):
    """`console_main(argv)` in this process; its exit code, stderr lines and
    the messages of the warnings it issued, each recorded, not raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = console_main(argv)
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


class TestHostileInputFiles:
    def test_config_that_is_not_utf8_exits_1_naming_path_and_offset(
            self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_bytes(b"[sim]\n\xff\n")
        out = tmp_path / "o"
        assert run_quietly(["pavlov", "--config", str(cfg), "--out", str(out)]) == (
            1, [f"config error: {cfg}: not UTF-8 text: byte 0xff at offset 6"], [])
        assert not out.exists()

    def test_unreadable_config_names_its_path_once(self, tmp_path):
        cfg = tmp_path / "nope.conf"
        assert run_quietly(["pavlov", "--config", str(cfg), "--out",
                            str(tmp_path / "o")]) == (
            1, [f"config error: {cfg}: No such file or directory"], [])

    def test_trace_that_is_not_utf8_exits_2_naming_path_and_offset(self, tmp_path):
        trace = tmp_path / "bin.csv"
        trace.write_bytes(NOT_UTF8)
        out = tmp_path / "o"
        assert run_quietly(["fit", str(trace), "--out", str(out)]) == (
            2, [f"error: {trace}: not UTF-8 text: byte 0x80 at offset 128"], [])
        assert not out.exists()

    def test_trace_whose_energy_overflows_exits_2_at_read(self, tmp_path):
        trace = tmp_path / "big.csv"
        trace.write_text("t_s,v_v,i_a\n0,1e308,1e-6\n1,1e308,1e-6\n2,1e308,1e-6\n")
        assert run_quietly(["fit", str(trace), "--out", str(tmp_path / "o")]) == (
            2, [f"error: {trace}: trace voltage's sum of squares is beyond the "
                "float range"], [])

    @pytest.mark.parametrize("role", ["teacher", "probe"])
    def test_csv_image_that_is_not_utf8_exits_2_naming_path(self, tmp_path, role):
        train, test = write_vision_dirs(tmp_path)
        image = (train / "teacher.csv") if role == "teacher" else (test / "bin.csv")
        image.write_bytes(NOT_UTF8)
        cfg = tmp_path / "v.conf"
        cfg.write_text(VISION_TAIL)
        out = tmp_path / "o"
        assert run_quietly(["vision-classify", str(train), str(test), "--config",
                            str(cfg), "--out", str(out)]) == (
            2, [f"error: {image}: not UTF-8 text: byte 0x80 at offset 128"], [])
        assert not out.exists()

    @pytest.mark.parametrize("sample, message", [
        ("-1", "negative intensity -1"), ("nan", "bad PGM sample"),
        ("1.5", "bad PGM sample")], ids=["negative", "nan", "fraction"])
    def test_pgm_probe_outside_the_intensity_rule_exits_2(self, tmp_path, sample,
                                                          message):
        train, test = write_vision_dirs(tmp_path)
        (test / "odd.pgm").write_text(
            "P2\n20 20\n255\n" + " ".join([sample] * 400) + "\n")
        cfg = tmp_path / "v.conf"
        cfg.write_text(VISION_TAIL)
        out = tmp_path / "o"
        assert run_quietly(["vision-classify", str(train), str(test), "--config",
                            str(cfg), "--out", str(out)]) == (
            2, [f"error: odd.pgm: {message}"], [])
        assert not out.exists()

    def test_two_teachers_exit_2(self, tmp_path):
        train, _ = write_vision_dirs(tmp_path)
        (train / "teacher.pgm").write_text(
            "P2\n20 20\n1\n" + " ".join(["1"] * 400) + "\n")
        out = tmp_path / "o"
        assert run_quietly(["vision-train", str(train), "--out", str(out)]) == (
            2, [f"error: {train}: expected one teacher image (teacher.csv or "
                "teacher.pgm), found teacher.csv, teacher.pgm"], [])
        assert not out.exists()

    def test_teacher_suffix_case_is_ignored_as_for_any_image(self, tmp_path):
        train, _ = write_vision_dirs(tmp_path)
        (train / "teacher.csv").rename(train / "teacher.CSV")
        out = tmp_path / "o"
        assert run_quietly(["vision-train", str(train), "--out", str(out)]) == (
            0, [], [])
        (train / "teacher.csv").write_text((train / "teacher.CSV").read_text())
        assert run_quietly(["vision-train", str(train), "--out", str(out)])[0] == 2


def assert_one_line_unless_exit_0(result):
    code, lines, warned = result
    assert code in (0, 1, 2) and warned == [], result
    assert len(lines) == (code != 0), result
    if lines:
        assert lines[0].startswith("error: " if code == 2 else "config error: ")


@st.composite
def hostile_bytes(draw, blobs):
    """Bytes of at most about 2 KB: bytes drawn from `blobs` with up to three
    of them overwritten by any byte, or any bytes at all."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=2048))
    blob = bytearray(draw(blobs))
    for _ in range(draw(st.integers(0, 3)) if blob else 0):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


TRACE_ODD_CELLS = ["0", "5e-324", "1e200", "1e308", "-1e308", "nan", "inf", "",
                   "x", " 0.2", '"0.1"', '"1\n2"', "1_0", "0,1"]


@st.composite
def trace_texts(draw):
    """A header and up to 12 rows of increasing time and small samples,
    maybe with one cell replaced by an odd one."""
    header = draw(st.sampled_from(["t_s,v_v,i_a", " t_s , v_v , i_a", "t_s,v_v"]))
    samples = st.sampled_from(["0.1", "-0.2", "0.5", "1e-6", "-2e-6"])
    rows = [[f"{k * 1e-3:g}", v, i] for k, (v, i) in enumerate(
        draw(st.lists(st.tuples(samples, samples), max_size=12)))]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = draw(
            st.sampled_from(TRACE_ODD_CELLS))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(
        [header, *map(",".join, rows)]) + "\n"


IMAGE_CELLS = ["0", "1", "0.5", "128", "255", "256", "-1", "-0", "1e308", "nan",
               "inf", "", "x", " 1", "1,0"]


@st.composite
def csv_image_texts(draw):
    """A 20x20 grid of one cell text with up to three cells replaced, maybe
    a line dropped or a blank line added."""
    fill = draw(st.sampled_from(["0", "1", "0.5", "128"]))
    grid = [[fill] * 20 for _ in range(20)]
    for _ in range(draw(st.integers(0, 3))):
        grid[draw(st.integers(0, 19))][draw(st.integers(0, 19))] = draw(
            st.sampled_from(IMAGE_CELLS))
    lines = [",".join(row) for row in grid]
    edit = draw(st.sampled_from(["", "drop", "blank"]))
    if edit == "drop":
        lines.pop()
    elif edit == "blank":
        lines.insert(draw(st.integers(0, 19)), "")
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


@st.composite
def pgm_blobs(draw):
    """A P2 or P5 header of a few fixed shapes and maxvals, then its samples
    of one value with up to three replaced, maybe one short or one over."""
    magic = draw(st.sampled_from(["P2", "P5", "P2", "P5", "P6"]))
    width, height = draw(st.sampled_from([(20, 20), (20, 20), (2, 2), (20, 19),
                                          (0, 20)]))
    maxval = draw(st.sampled_from([255, 1, 15, 255, 1, 15, 0, 256]))
    sep = draw(st.sampled_from([" ", "\n", "\n# comment\n"]))
    samples = [draw(st.sampled_from(["0", "1", "15", "255"]))] * (width * height)
    for _ in range(draw(st.integers(0, 3)) if samples else 0):
        samples[draw(st.integers(0, len(samples) - 1))] = draw(st.sampled_from(
            ["0", "16", "256", "-1", "nan", "1.5", "+1", "9" * 400]))
    samples = samples[:draw(st.sampled_from([None, -1]))]
    samples += draw(st.sampled_from([[], ["0"]]))
    header = sep.join([magic, str(width), str(height), str(maxval)]).encode()
    if magic == "P5":
        return header + b"\n" + bytes(int(x) for x in samples
                                      if x.isdigit() and int(x) < 256)
    return header + f"{sep}{' '.join(samples)}\n".encode()


@pytest.fixture(scope="module")
def one_pair_train_dir(tmp_path_factory):
    """A training directory of a teacher and one input."""
    train = tmp_path_factory.mktemp("one_pair")
    proto = (np.random.default_rng(5).random((20, 20)) < 0.7).astype(float)
    write_grid(train / "teacher.csv", proto)
    write_grid(train / "input.csv", proto)
    return train


# The reader properties draw the bytes of one input file, run the CLI on it
# in this process and expect no warning and exit 0 with no stderr line, or
# exit 1 or 2 with one; an exception escaping `console_main` fails them.

class TestHostileInputProperties:
    @settings(max_examples=100, deadline=None)
    @given(blob=hostile_bytes(trace_texts().map(str.encode)))
    # a fit that stops on max_iters with r_on on its box
    @example(blob=b"t_s,v_v,i_a\n0,0.5,1e-6\n1e200,0.1,1e-6\n")
    def test_trace_csv(self, tmp_path_factory, blob):
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            trace, cfg = Path(tmp) / "trace.csv", Path(tmp) / "c.conf"
            trace.write_bytes(blob)
            cfg.write_text(FIT_TAIL)
            assert_one_line_unless_exit_0(run_quietly(
                ["fit", str(trace), "--config", str(cfg), "--out", f"{tmp}/o"]))

    @settings(max_examples=100, deadline=None)
    @given(blob=hostile_bytes(csv_image_texts().map(str.encode)))
    def test_csv_image(self, one_pair_train_dir, blob):
        self.classify_one_probe(one_pair_train_dir, "probe.csv", blob)

    @settings(max_examples=100, deadline=None)
    @given(blob=hostile_bytes(pgm_blobs()))
    def test_pgm(self, one_pair_train_dir, blob):
        self.classify_one_probe(one_pair_train_dir, "probe.pgm", blob)

    @staticmethod
    def classify_one_probe(train, name, blob):
        with tempfile.TemporaryDirectory(dir=train.parent) as tmp:
            test, cfg = Path(tmp) / "test", Path(tmp) / "c.conf"
            test.mkdir()
            (test / name).write_bytes(blob)
            cfg.write_text(VISION_TAIL)
            assert_one_line_unless_exit_0(run_quietly(
                ["vision-classify", str(train), str(test), "--config", str(cfg),
                 "--out", f"{tmp}/o"]))

    @settings(max_examples=100, deadline=None)
    @given(blob=hostile_bytes(config_texts().map(str.encode)),
           argv=st.sampled_from([["fit", "missing.csv"], ["vision-train", "missing"]]))
    def test_config(self, tmp_path_factory, blob, argv):
        # the run stops at its missing input once the config is read
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            cfg = Path(tmp) / "c.conf"
            cfg.write_bytes(blob)
            result = run_quietly([argv[0], f"{tmp}/{argv[1]}", "--config",
                                  str(cfg), "--out", f"{tmp}/o"])
            assert result[0] != 0
            assert_one_line_unless_exit_0(result)


# Line breaks are CR, LF and CRLF, as the trace reader's csv module counts
# them; the other characters `str.splitlines` breaks at are not.
LINE_BREAKS = ["\n", "\r", "\r\n"]
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029"]


def line_breaks(text):
    return len(re.findall(r"\r\n|\r|\n", text))


def texts_of(pieces):
    """Up to 40 pieces, line breaks and look-alike separators, joined."""
    return st.lists(st.sampled_from(pieces + LINE_BREAKS + NOT_LINE_BREAKS),
                    max_size=40).map("".join)


def image_csv_error(tmp, text):
    """`read_image_csv`'s message for `text` as img.csv, or None."""
    path = Path(tmp) / "img.csv"
    path.write_bytes(text.encode())
    try:
        read_image_csv(path)
    except DataError as exc:
        return str(exc)
    return None


class TestLineNumbers:
    @pytest.mark.parametrize("text, line", [
        ("[sim]\x85dt_s = x", 1),
        ("[sim]\ndt_s = 1e-4\x0cduration_s = x", 2),
        ("# note\u2028[sim]\r\ndt_s = x\r", 2),  # an entry outside any section
    ])
    def test_config_counts_only_real_breaks(self, text, line):
        with pytest.raises(ConfigError, match=rf"^line {line}: "):
            parse_config(text)

    def test_csv_image_counts_only_real_breaks(self, tmp_path):
        message = image_csv_error(tmp_path, "0,1\x0c1,0\n1,x\n")
        assert message.startswith("img.csv:1: "), message
        assert image_csv_error(tmp_path, "0,1\r\n\r1,x\n").startswith("img.csv:3: ")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LINE_BREAKS + NOT_LINE_BREAKS) | st.text(max_size=3),
                    max_size=40).map("".join))
    def test_split_lines_equals_regex_split(self, text):
        assert split_lines(text) == split_lines_by_regex(text)

    @settings(max_examples=200, deadline=None)
    @given(texts_of(["[sim]", "[schedule]", "[device]", "dt_s = ", "duration_s = ",
                     "preset = custom", "food_segments = ", "0:0.1", "r_on_ohm = ",
                     "1e-4", "x", "#", " = ", " "]))
    def test_config_error_line_is_within_the_text(self, text):
        try:
            parse_config(text)
        except ConfigError as exc:
            line = int(re.match(r"^line (\d+): ", str(exc))[1])
            assert line <= line_breaks(text) + 1, (text, str(exc))

    @settings(max_examples=200, deadline=None)
    @given(text=texts_of(["0", "1", "0.5", ",", "x", " ", "256"]))
    def test_csv_image_error_line_is_within_the_text(self, tmp_path_factory, text):
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            message = image_csv_error(tmp, text)
        m = re.match(r"^img\.csv:(\d+): ", message or "")
        if m:
            assert int(m[1]) <= line_breaks(text) + 1, (text, message)


# The parser's text at an 80-column terminal: each usage line, and the help
# of `memassoc` and of each subcommand
USAGE = {
    "memassoc": "usage: memassoc [-h] {fit,pavlov,vision-train,vision-classify} ...\n",
    "fit": "usage: memassoc fit [-h] [--config PATH] [--out DIR] trace\n",
    "pavlov": "usage: memassoc pavlov [-h] [--config PATH] [--out DIR] [--dt-override DT]\n",
    "vision-train": """\
usage: memassoc vision-train [-h] [--config PATH] [--out DIR]
                             [--dt-override DT]
                             train_dir
""",
    "vision-classify": """\
usage: memassoc vision-classify [-h] [--config PATH] [--out DIR]
                                [--dt-override DT]
                                train_dir test_dir
""",
}
VISION_OPTIONS = """
options:
  -h, --help        show this help message and exit
  --config PATH     config file; defaults apply when omitted
  --out DIR         output directory (default: ./out)
  --dt-override DT  override [vision] dt_s
"""
HELP = {
    "memassoc": USAGE["memassoc"] + """
Memristive associative-learning experiment runner

positional arguments:
  {fit,pavlov,vision-train,vision-classify}
    fit                 extract device parameters from an I-V trace
    pavlov              simulate the associative chain
    vision-train        train the image array
    vision-classify     train the array, then label a test directory

options:
  -h, --help            show this help message and exit
""",
    "fit": USAGE["fit"] + """
positional arguments:
  trace          CSV trace with t_s,v_v,i_a columns

options:
  -h, --help     show this help message and exit
  --config PATH  config file; defaults apply when omitted
  --out DIR      output directory (default: ./out)
""",
    "pavlov": USAGE["pavlov"] + """
options:
  -h, --help        show this help message and exit
  --config PATH     config file (repeatable for pavlov sweeps); defaults apply
                    when omitted
  --out DIR         output directory (default: ./out)
  --dt-override DT  override [sim] dt_s
""",
    "vision-train": USAGE["vision-train"] + """
positional arguments:
  train_dir         directory with teacher.* and inputs
""" + VISION_OPTIONS,
    "vision-classify": USAGE["vision-classify"] + """
positional arguments:
  train_dir         directory with teacher.* and inputs
  test_dir          directory of images to label
""" + VISION_OPTIONS,
}


def choice_list(*names):
    """`names` as the running argparse lists them after "choose from": with
    their quotes on the releases that print each choice's repr, bare on
    those that print its str (3.13.13 does), read off a one-choice probe."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    try:
        probe.parse_args(["b"])
    except argparse.ArgumentError as exc:
        quote = "'" if "(choose from 'a')" in str(exc) else ""
    return ", ".join(f"{quote}{name}{quote}" for name in names)


class TestConsoleMain:
    @pytest.mark.parametrize("prog", HELP)
    def test_help_text_is_pinned(self, capsys, monkeypatch, prog):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if prog == "memassoc" else [prog]
        assert console_main([*argv, "--help"]) == 0
        assert capsys.readouterr() == (HELP[prog], "")

    @pytest.mark.parametrize("argv, prog, message", [
        ([], "memassoc", "the following arguments are required: command"),
        (["dance"], "memassoc", "argument command: invalid choice: 'dance' (choose "
                                "from " + choice_list("fit", "pavlov", "vision-train",
                                                      "vision-classify") + ")"),
        (["fit"], "fit", "the following arguments are required: trace"),
        (["vision-classify", "a"], "vision-classify",
         "the following arguments are required: test_dir"),
        # the subparser leaves an option it does not offer to the top level
        (["fit", "trace.csv", "--dt-override", "1e-4"], "memassoc",
         "unrecognized arguments: --dt-override 1e-4"),
    ], ids=["no_arguments", "unknown_subcommand", "fit_without_trace",
            "classify_without_test_dir", "fit_dt_override"])
    def test_usage_error_is_pinned(self, capsys, monkeypatch, argv, prog, message):
        monkeypatch.setenv("COLUMNS", "80")
        assert console_main(argv) == 1
        name = prog if prog == "memassoc" else f"memassoc {prog}"
        assert capsys.readouterr() == ("", f"{USAGE[prog]}{name}: error: {message}\n")

    def test_module_entry_point_exits_with_the_console_code(self):
        """`python -m memassoc.cli` runs `console_main` and exits with its
        code: 0 after the help, 1 on an unknown subcommand."""
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "memassoc.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=REPO, timeout=120)

        helped = run("--help")
        assert (helped.returncode, helped.stdout, helped.stderr) == (
            0, HELP["memassoc"], "")
        unknown = run("dance")
        assert unknown.returncode == 1
        assert "memassoc: error: argument command: invalid choice" in unknown.stderr

    def test_fit_rejects_multiple_configs(self, tmp_path, capsys):
        (tmp_path / "a.conf").write_text("")
        (tmp_path / "b.conf").write_text("")
        code = console_main(["fit", "trace.csv",
                             "--config", str(tmp_path / "a.conf"),
                             "--config", str(tmp_path / "b.conf")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name", memassoc.cli._COMMANDS)
    def test_dt_override_is_offered_where_the_part_has_a_dt(self, capsys,
                                                             monkeypatch, name):
        """A subcommand offers `--dt-override` exactly when the config part
        it runs on has a `dt`, and its help names the section whose `dt_s`
        sets that `dt`."""
        runs_on = memassoc.cli._COMMANDS[name].runs_on
        monkeypatch.setenv("COLUMNS", "80")
        assert console_main([name, "--help"]) == 0
        offered = re.search(r"--dt-override DT +override \[(\w+)\] dt_s\n",
                            capsys.readouterr().out)
        assert (offered is not None) == hasattr(getattr(ExperimentConfig(), runs_on),
                                                "dt")
        if offered:
            config = parse_config(f"[{offered[1]}]\ndt_s = 2e-5\n")
            assert getattr(config, runs_on).dt == 2e-5

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        code = console_main(["pavlov", "--config", str(tmp_path / "nope.conf"),
                             "--out", str(tmp_path / "o")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError, 1, "config error"), (InvalidInputError, 1, "config error"),
        (DataError, 2, "error"), (InvalidStartError, 2, "error"),
        (OSError, 2, "error"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_run_errors_map_to_exit_codes(self, monkeypatch, error, code, prefix):
        def fail(ns):
            raise error("no run")

        monkeypatch.setattr(memassoc.cli, "_dispatch", fail)
        assert run_quietly(["pavlov"]) == (code, [f"{prefix}: no run"], [])


class TestTraceWriterProcesses:
    def test_failed_writer_process_fails_the_run(self, tmp_path, monkeypatch,
                                                 capsys):
        """A writer process that fails raises OSError and the run exits 2;
        every writer process is reaped, and only the partial trace.csv is
        left in --out."""
        parent = os.getpid()
        format_cells = memassoc.circuit._format_cells

        def fail_in_child(values):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return format_cells(values)

        monkeypatch.setattr(memassoc.circuit, "_format_cells", fail_in_child)
        monkeypatch.setattr(memassoc.circuit, "_TRACE_CHUNK_ROWS", 256)
        monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 3)
        trace = memassoc.circuit.run_chain(build_chain(parse_config(CUSTOM_CHAIN)))
        with pytest.raises(OSError, match="trace writer process exited"):
            memassoc.circuit.write_sim_trace_csv(trace, tmp_path / "trace.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN)
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg),
                             "--out", str(out)]) == 2
        assert "trace writer process" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [p.name for p in out.iterdir()] == ["trace.csv"]

    def test_fork_warning_of_python_3_12_is_ignored(self, tmp_path, monkeypatch):
        """From Python 3.12, `os.fork` in a process with several threads
        (numpy's OpenBLAS worker is one) warns in the parent.  The writer
        ignores that one warning, so under warnings as errors the forked
        write passes with the bytes of a write in one process; any other
        warning from the fork still raises."""
        monkeypatch.setattr(memassoc.circuit, "_TRACE_CHUNK_ROWS", 256)
        trace = memassoc.circuit.run_chain(build_chain(parse_config(CUSTOM_CHAIN)))
        monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 1)
        memassoc.circuit.write_sim_trace_csv(trace, tmp_path / "alone.csv")

        fork, forked = os.fork, []

        def fork_that_warns(message):
            def warning_fork():
                pid = fork()
                if pid:  # as CPython does, in the parent once the child runs
                    forked.append(pid)
                    warnings.warn(message.format(pid=os.getpid()),
                                  DeprecationWarning, stacklevel=2)
                return pid
            return warning_fork

        monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork_that_warns(
            "This process (pid={pid}) is multi-threaded, use of fork() may "
            "lead to deadlocks in the child."))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            memassoc.circuit.write_sim_trace_csv(trace, tmp_path / "forked.csv")
        assert len(forked) == 2
        assert ((tmp_path / "forked.csv").read_bytes()
                == (tmp_path / "alone.csv").read_bytes())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        monkeypatch.setattr(os, "fork", fork_that_warns("pid {pid} forked"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="forked"):
                memassoc.circuit.write_sim_trace_csv(trace, tmp_path / "other.csv")
        os.waitpid(forked[-1], 0)  # the writer never learned its pid


def _edit_json(text, change):
    """`text`'s JSON object after `change` edits it in place."""
    manifest = json.loads(text)
    change(manifest)
    return json.dumps(manifest)


class TestManifests:
    def test_manifest_replays_identically(self, tmp_path):
        cfg = parse_config(CUSTOM_CHAIN)
        out = tmp_path / "run"
        assert memassoc.cli._run("pavlov", cfg, {}, out)[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert set(manifest) == {"version", "command", "args",
                                 "config_sha256", "config_text", "outputs"}
        fresh = replay_manifest(out / "manifest.json", tmp_path / "replayed")
        assert fresh == manifest["outputs"]

    def test_pavlov_manifest_of_device_beyond_default_v_max_replays(self, tmp_path):
        """A device whose v_on no default training voltage reaches still runs
        the chain, and the manifest, which carries the default [vision],
        replays."""
        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN + "[device]\nv_on_v = 0.4\n")
        out = tmp_path / "run"
        assert console_main(["pavlov", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "[vision]" in manifest["config_text"]
        fresh = replay_manifest(out / "manifest.json", tmp_path / "replayed")
        assert fresh == manifest["outputs"]

    def test_console_and_replay_call_the_module_commands(self, tmp_path,
                                                         monkeypatch):
        # both look each command up on the module when they run it, so a
        # wrapper set on `memassoc.cli` (as the benchmark's tracer sets one)
        # sees every run
        cfg = tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN)
        calls = []

        def spy(name):
            inner = getattr(memassoc.cli, name)

            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            monkeypatch.setattr(memassoc.cli, name, wrapper)

        spy("cmd_pavlov")
        spy("cmd_fit")
        runs = {"pavlov": ["pavlov", "--config", str(cfg)],
                "fit": ["fit", SINE_TRACE, "--config",
                        str(REPO / "configs" / "fit_sinusoid.conf")]}
        for command, argv in runs.items():
            out = tmp_path / command
            calls.clear()
            console_main([*argv, "--out", str(out)])
            replay_manifest(out / "manifest.json", tmp_path / f"{command}_again")
            assert calls == [f"cmd_{command}"] * 2

    @pytest.mark.parametrize("command", memassoc.cli._COMMANDS)
    def test_run_writes_exactly_its_outputs_and_a_valid_manifest(self, tmp_path,
                                                                  capsys, command):
        """Each command, on a shipped config of the part it runs on and the
        shipped data, writes the files its table entry names, and prints
        nothing: every stage learns, training moves cells, and the fit ends
        inside its box."""
        entry = memassoc.cli._COMMANDS[command]
        config = next(name for name, shipped in SHIPPED_COMMANDS.items()
                      if memassoc.cli._COMMANDS[shipped].runs_on == entry.runs_on)
        inputs = {"trace": SINE_TRACE, "train_dir": str(REPO / "data/vision/train"),
                  "test_dir": str(REPO / "data/vision/test")}
        out = tmp_path / "run"
        assert console_main([command, *(inputs[name] for name in entry.inputs),
                             "--config", str(REPO / "configs" / f"{config}.conf"),
                             "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert {p.name for p in out.iterdir()} == {*entry.outputs, "manifest.json"}
        manifest = memassoc.cli._read_manifest(out / "manifest.json")
        assert manifest["command"] == command
        assert manifest["args"] == {name: inputs[name] for name in entry.inputs}

    def test_config_text_that_does_not_parse_names_the_manifest(self, tmp_path):
        text = "[sim]\nbogus = 1\n"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "pavlov", "args": {}, "config_text": text,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "outputs": {"metrics.txt": "0", "plot_trace.py": "0", "trace.csv": "0"}}))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(manifest))}: line 2: "
                                              r"unknown key 'bogus' in \[sim\]$"):
            replay_manifest(manifest, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_classify_without_threshold_names_the_manifest(self, vision_dirs,
                                                           tmp_path):
        train, test = vision_dirs
        text = serialize_config(ExperimentConfig())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "vision-classify",
            "args": {"train_dir": str(train), "test_dir": str(test)},
            "config_text": text,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "outputs": {"array_state.csv": "0", "report.csv": "0"}}))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(manifest))}: \[vision\] "
                                              "similarity_threshold is required for "
                                              "classification$"):
            replay_manifest(manifest, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_manifest_that_is_not_utf8_names_path_and_offset(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"command": "pavlov", \xff}')
        with pytest.raises(DataError, match=rf"^{re.escape(str(manifest))}: not "
                                            "UTF-8 text: byte 0xff at offset 22$"):
            replay_manifest(manifest, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("edit, problem", [
        (lambda text: text[:-20], "not JSON"),
        (lambda text: "[1, 2]", "expected a JSON object, got list"),
        (lambda text: _edit_json(text, lambda m: m.pop("command")),
         "command must be a JSON string"),
        (lambda text: _edit_json(text, lambda m: m.update(command="fit")),
         "fit args must be the path strings ['trace'], got {}"),
        (lambda text: _edit_json(text, lambda m: m.update(command="replay")),
         "unknown command 'replay'"),
        (lambda text: _edit_json(text, lambda m: m["outputs"].update({"../x": "0"})),
         "pavlov outputs must be the files ['metrics.txt', 'plot_trace.py', "
         "'trace.csv'], got ['../x', 'metrics.txt', 'plot_trace.py', "
         "'trace.csv']"),
        (lambda text: _edit_json(text, lambda m: m["outputs"].update(
            {"trace.csv": None})),
         "output 'trace.csv' must have a hash string"),
        (lambda text: _edit_json(text, lambda m: m["outputs"].update(
            {"extra.csv": "0" * 64})),
         "pavlov outputs must be the files ['metrics.txt', 'plot_trace.py', "
         "'trace.csv'], got ['extra.csv', 'metrics.txt', 'plot_trace.py', "
         "'trace.csv']"),
        (lambda text: _edit_json(text, lambda m: m["outputs"].pop("trace.csv")),
         "pavlov outputs must be the files ['metrics.txt', 'plot_trace.py', "
         "'trace.csv'], got ['metrics.txt', 'plot_trace.py']"),
        (lambda text: _edit_json(text, lambda m: m.update(config_sha256="0" * 64)),
         "config_sha256 does not match config_text"),
        (lambda text: _edit_json(text, lambda m: m.update(
            config_text=m["config_text"] + "\ud800")),
         "config_sha256 does not match config_text"),
    ], ids=["truncated", "list", "no_command", "fit_without_trace",
            "unknown_command", "output_outside_out_dir", "output_without_hash",
            "output_not_written", "output_missing", "wrong_config_hash",
            "lone_surrogate"])
    def test_malformed_manifest_names_path_before_running(self, tmp_path, edit,
                                                          problem):
        out = tmp_path / "run"
        memassoc.cli._run("pavlov", parse_config(CUSTOM_CHAIN), {}, out)
        manifest = out / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(DataError, match=rf"^{re.escape(str(manifest))}: malformed "
                                            rf"manifest: {re.escape(problem)}"):
            replay_manifest(manifest, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_input_path_that_cannot_be_encoded_names_it(self, tmp_path):
        # a manifest's args are JSON strings, so one can hold a lone
        # surrogate, which no file system path encodes
        text = serialize_config(ExperimentConfig())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "fit", "args": {"trace": "\ud800.csv"},
            "config_text": text,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "outputs": {"device_fit.conf": "0", "fit_report.json": "0"}}))
        with pytest.raises(DataError, match=r"^\ud800\.csv: path cannot be "
                                            "encoded: surrogates not allowed$"):
            replay_manifest(manifest, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_replay_hashes_each_output_once(self, tmp_path, monkeypatch):
        out, replayed = tmp_path / "run", tmp_path / "replayed"
        memassoc.cli._run("pavlov", parse_config(CUSTOM_CHAIN), {}, out)
        sha256, hashed = memassoc.cli._sha256, []

        def counted(path):
            hashed.append(path.name)
            return sha256(path)

        monkeypatch.setattr(memassoc.cli, "_sha256", counted)
        fresh = replay_manifest(out / "manifest.json", replayed)
        assert sorted(hashed) == sorted(memassoc.cli._COMMANDS["pavlov"].outputs)
        assert fresh == json.loads((replayed / "manifest.json").read_text())["outputs"]

    def test_double_run_byte_identical(self, tmp_path):
        cfg = parse_config(CUSTOM_CHAIN)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            memassoc.cli._run("pavlov", cfg, {}, out)
            blobs.append((out / "trace.csv").read_bytes()
                         + (out / "metrics.txt").read_bytes()
                         + (out / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]


def _files(directory):
    """Each entry of `directory` by name: a file's bytes, or None for a
    directory."""
    return {p.name: None if p.is_dir() else p.read_bytes()
            for p in directory.iterdir()}


class TestOutputDirectory:
    """A run into an --out that holds an earlier run leaves one run's files
    and their manifest; one whose write fails leaves no manifest; one that
    fails before writing leaves --out as it was.  No run touches a file
    that no command writes."""

    TRAIN, TEST = str(REPO / "data/vision/train"), str(REPO / "data/vision/test")

    def vision(self, out, *inputs):
        command = "vision-classify" if len(inputs) == 2 else "vision-train"
        return console_main([command, *inputs, "--out", str(out), "--config",
                             str(REPO / "configs/vision_demo.conf")])

    def test_train_after_classify_leaves_only_its_own_files(self, tmp_path):
        out = tmp_path / "run"
        assert self.vision(out, self.TRAIN, self.TEST) == 0
        assert self.vision(out, self.TRAIN) == 0
        assert set(_files(out)) == {"array_state.csv", "manifest.json"}
        manifest = memassoc.cli._read_manifest(out / "manifest.json")
        assert manifest["command"] == "vision-train"
        assert manifest["outputs"] == {
            "array_state.csv": memassoc.cli._sha256(out / "array_state.csv")}

    def test_failed_trace_write_leaves_no_manifest(self, tmp_path, monkeypatch,
                                                    capsys):
        out = tmp_path / "run"

        def pavlov(name):
            return console_main(["pavlov", "--config",
                                 str(REPO / "configs" / f"{name}.conf"),
                                 "--out", str(out)])

        assert pavlov("pavlov2_lowpower") == 0
        write_chunks = memassoc.circuit._write_chunks

        def disk_full_after_one_chunk(fh, columns, starts):
            write_chunks(fh, columns, starts[:1])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(memassoc.circuit, "_write_chunks",
                            disk_full_after_one_chunk)
        monkeypatch.setattr(memassoc._fork, "usable_cpus", lambda: 1)
        assert pavlov("pavlov3") == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert set(_files(out)) == {"trace.csv"}

    def test_run_that_fails_before_writing_leaves_out_as_it_was(self, tmp_path,
                                                                 capsys):
        out = tmp_path / "run"
        assert self.vision(out, self.TRAIN, self.TEST) == 0
        before = _files(out)
        assert self.vision(out, self.TRAIN, str(tmp_path / "missing")) == 2
        assert "test directory" in capsys.readouterr().err
        assert _files(out) == before

    def test_run_touches_no_file_that_no_command_writes(self, tmp_path):
        out, cfg = tmp_path / "run", tmp_path / "c.conf"
        cfg.write_text(CUSTOM_CHAIN)
        (out / "keep").mkdir(parents=True)
        (out / "keep" / "trace.csv").write_text("not a run\n")
        (out / "notes.txt").write_text("mine\n")
        assert console_main(["pavlov", "--config", str(cfg), "--out", str(out)]) == 0
        files = _files(out)
        assert set(files) == {*memassoc.cli._COMMANDS["pavlov"].outputs,
                              "manifest.json", "keep", "notes.txt"}
        assert files["notes.txt"] == b"mine\n"
        assert _files(out / "keep") == {"trace.csv": b"not a run\n"}

    def test_run_refuses_an_input_it_would_remove(self, tmp_path, capsys):
        """A trace or config in --out under a name runs write, or an image
        directory that is --out, is refused before anything is written."""
        out = tmp_path / "run"
        out.mkdir()
        for image in Path(self.TRAIN).iterdir():
            (out / image.name).write_bytes(image.read_bytes())
        (out / "trace.csv").write_bytes(Path(SINE_TRACE).read_bytes())
        (out / "device_fit.conf").write_text("[device]\n")
        before = _files(out)
        for argv, path in [(["fit", str(out / "trace.csv")], out / "trace.csv"),
                           (["pavlov", "--config", str(out / "device_fit.conf")],
                            out / "device_fit.conf"),
                           (["vision-train", str(out)], out),
                           (["vision-classify", self.TRAIN, str(out)], out)]:
            assert console_main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: input {path} must not be --out {out} "
                "or a file that runs write there\n")
            assert _files(out) == before

    def test_replay_refuses_an_input_in_its_out(self, tmp_path):
        """A trace kept in --out under a name no run writes stays through a
        run and its replay there; a replay into the directory of a trace
        named like an output is refused and leaves it as it was."""
        run, other = tmp_path / "run", tmp_path / "other"
        run.mkdir()
        other.mkdir()
        (run / "sine.csv").write_bytes(Path(SINE_TRACE).read_bytes())
        (other / "trace.csv").write_bytes(Path(SINE_TRACE).read_bytes())
        config = str(REPO / "configs/fit_sinusoid.conf")
        assert console_main(["fit", str(run / "sine.csv"), "--config", config,
                             "--out", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert replay_manifest(run / "manifest.json", run) == manifest["outputs"]
        assert (run / "sine.csv").read_bytes() == Path(SINE_TRACE).read_bytes()
        assert console_main(["fit", str(other / "trace.csv"), "--config", config,
                             "--out", str(tmp_path / "fitted")]) == 0
        before = _files(other)
        with pytest.raises(DataError, match="must not be --out"):
            replay_manifest(tmp_path / "fitted/manifest.json", other)
        assert _files(other) == before


class TestBenchmarkSurface:
    def test_traced_attributes_exist(self):
        """The benchmark's traced run wraps these functions by module attribute."""
        wrapped = {
            memassoc.cli: ["load_config", "build_device", "build_chain",
                           "build_fit_config", "build_train_config",
                           "build_infer_config", "cmd_fit", "cmd_pavlov",
                           "cmd_vision", "console_main", "run_chain", "metrics",
                           "write_sim_trace_csv", "read_trace_csv", "fit",
                           "load_image", "train_many", "classify",
                           "write_state_csv"],
            memassoc.fit: ["simulate_current", "central_difference_gradient", "rmse"],
            memassoc.vision: ["train_pair"],
        }
        missing = [f"{module.__name__}.{name}" for module, names in wrapped.items()
                   for name in names if not callable(getattr(module, name, None))]
        assert missing == []

    def test_traced_chain_run_counts_rows(self, tmp_path):
        """The traced run reads rows and stage steps from `run_chain`'s
        returned trace, once per run, after the chain is checked at parse,
        and the trace's size from its one `write_sim_trace_csv` call."""
        run = subprocess.run(
            [sys.executable, str(REPO / "perfbench/child.py"), str(REPO / "src"),
             "1", "pavlov", "--config", str(REPO / "configs/pavlov3.conf"),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, cwd=tmp_path, timeout=120)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.splitlines()[-1])
        assert result["exit"] == 0
        chains = [work for name, *_, work in result["spans"]
                  if name == "circuit.run_chain"]
        assert chains == [{"rows": 18001, "stage_steps": 3 * 18001}]
        # the writer's span stats the path it was given, after its worker
        # processes' parts are appended
        writes = [work for name, *_, work in result["spans"]
                  if name == "circuit.write_trace"]
        assert writes == [{"bytes": (tmp_path / "o/trace.csv").stat().st_size}]

    def test_traced_vision_run_counts_pulses(self, tmp_path):
        """The traced run reads a pair's pulse from `train_pair`'s positional
        (array, cfg) and a label pulse from `classify`'s positional cfg."""
        train, test = REPO / "data/vision/train", REPO / "data/vision/test"
        run = subprocess.run(
            [sys.executable, str(REPO / "perfbench/child.py"), str(REPO / "src"),
             "1", "vision-classify", str(train), str(test),
             "--config", str(REPO / "configs/vision_demo.conf"),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, cwd=tmp_path, timeout=120)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.splitlines()[-1])
        assert result["exit"] == 0
        spans = result["spans"]
        pairs = [work for name, *_, work in spans if name == "vision.train_pair"]
        labels = [work for name, *_, work in spans if name == "vision.classify"]
        n_inputs = len([p for p in train.glob("*.csv") if p.name != "teacher.csv"])
        assert len(pairs) == n_inputs
        assert all(work["grid_steps"] == 500 for work in pairs)
        assert len(labels) == len(list(test.glob("*.csv")))
        assert all(work == {"label_steps": 2500} for work in labels)


def readme_config_sections():
    """README's "Config format" bullet of each section, by section name
    (`[stage.K]` as `stage.1`)."""
    reference = (REPO / "README.md").read_text().split("## Config format")[1]
    sections = {}
    for item in reference.split("\n## ")[0].split("\n- ")[1:]:
        item = item.split("\n\n")[0]
        header = re.match(r"`\[(\w+)(\.K)?\]`", item)
        sections["stage.1" if header[2] else header[1]] = item
    return sections


def test_readme_defaults_match_the_default_config():
    """README's config reference is the one prose copy of the defaults:
    each number it gives in parentheses, as `key` (x) or `a`/`b` (x), is
    what the default config serializes under that section."""
    serialized, section = {}, None
    for line in serialize_config(ExperimentConfig()).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, value = line.split(" = ")
            serialized[section, key] = value
    checked, wrong = 0, []
    for section, item in readme_config_sections().items():
        for m in re.finditer(r"`(\w+)`(?:/`(\w+)`)?\s+\(([−\d.e+-]+)\)", item):
            documented = float(m[3].replace("−", "-"))
            for key in filter(None, m.group(1, 2)):
                checked += 1
                value = serialized.get((section, key))
                if value is None or float(value) != documented:
                    wrong.append((section, key, m[3], value))
    assert wrong == []
    assert checked >= 30


def test_readme_names_every_config_key():
    """README's bullet of each section is the one prose copy of its key
    table, so it names each key in backticks.  The `[fit]` box keys,
    `<device key>_lo` and `_hi`, are given there by a pattern and are
    left out."""
    cli = memassoc.cli
    tables = {"device": cli._DEVICE_KEYS, "stage.1": cli._STAGE_KEYS,
              "schedule": cli._SCHEDULE_KEYS, "sim": cli._SIM_KEYS,
              "fit": [key for key in cli._FIT_KEYS if not key.endswith(("_lo", "_hi"))],
              "vision": cli._VISION_KEYS}
    sections = readme_config_sections()
    assert set(sections) == set(tables)
    missing = {section: [key for key in keys
                         if key not in re.findall(r"`(\w+)`", sections[section])]
               for section, keys in tables.items()}
    assert missing == {section: [] for section in tables}
    assert len(tables["fit"]) == 4


def test_prose_lists_of_commands_match_the_table():
    """The `cli` docstring's "Subcommands:" list and README's `memassoc.cli`
    row are the two copies of the command set the table cannot generate."""
    listing = memassoc.cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
    row = next(line for line in (REPO / "README.md").read_text().splitlines()
               if line.startswith("| `memassoc.cli` |"))
    commands = list(memassoc.cli._COMMANDS)
    assert re.findall(r"^  (\S+)", listing, re.M) == commands
    named = row.split("entry point:")[1].split(";")[0]
    assert re.findall(r"`([\w-]+)`", named) == commands


def test_exported_names_are_used_outside_tests():
    """Every name a layer exports is used by the package, the benchmark or
    the scripts; code only tests call belongs in tests/oracle.py.  Uses are
    names read and attributes, so definitions and `__all__` strings do
    not count."""
    used = set()
    for folder in ("src/memassoc", "perfbench", "scripts"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = [f"{module}.{name}" for module in ("device", "circuit", "fit", "vision")
              for name in importlib.import_module(f"memassoc.{module}").__all__
              if name not in used]
    assert unused == []
