"""Acceptance gate: nine numbered criteria, one printed PASS/FAIL line each.

Criteria 5-9 run against the shipped configs through the command-line
entry point, so they validate the exact artifacts a user would produce.
Run with `pytest -s tests/test_acceptance.py` to see the lines on success.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from memassoc.circuit import (
    FIRST_STAGE,
    SCHEME_FORGETTING,
    SCHEME_LEARNING,
    StageConfig,
)
from memassoc.cli import build_device, build_fit_config, console_main, load_config
from memassoc.device import DeviceParams, pulse, trajectory
from memassoc.fit import fit, read_trace_csv
from memassoc.vision import load_image
from oracle import binarize, select

REPO = Path(__file__).resolve().parents[1]
PARAMS = DeviceParams()


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} [{label}] failed: {detail}"


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Each shipped config executed twice through the CLI."""
    root = tmp_path_factory.mktemp("shipped")
    commands = {
        "pavlov2_lowpower": ["pavlov"],
        "pavlov2_highgain": ["pavlov"],
        "pavlov3": ["pavlov"],
        "fit_sinusoid": ["fit", str(REPO / "data" / "iv" / "sine_10hz_0v5.csv")],
        "vision_demo": ["vision-classify",
                        str(REPO / "data" / "vision" / "train"),
                        str(REPO / "data" / "vision" / "test")],
    }
    runs = {}
    for stem, argv in commands.items():
        dirs = []
        for tag in ("a", "b"):
            out = root / f"{stem}_{tag}"
            code = console_main(argv + [
                "--config", str(REPO / "configs" / f"{stem}.conf"),
                "--out", str(out)])
            assert code == 0, f"{stem} run exited {code}"
            dirs.append(out)
        runs[stem] = tuple(dirs)
    return runs


def read_metrics(run_dir: Path) -> dict[str, float]:
    lines = (run_dir / "metrics.txt").read_text().splitlines()
    return {k: float(v) for k, v in (line.split("=") for line in lines)}


def test_acceptance_1_device_switch_oracle():
    dt = 1e-4
    # resistance reaches r_on when the state reaches w_off
    r = np.array(trajectory(PARAMS, [0.35] * 3000, dt, PARAMS.w_on))
    reached = np.nonzero(r == PARAMS.r_on)[0]
    switch = reached[0] * dt if reached.size else None
    expected = 0.23641
    ok_time = switch is not None and abs(switch - expected) <= 0.01 * expected
    w_coarse = pulse(PARAMS, PARAMS.w_on, 0.35, dt, 1500)  # 0.15 s
    w_fine = pulse(PARAMS, PARAMS.w_on, 0.35, dt / 2, 3000)
    ok_refine = abs(w_coarse - w_fine) < 1e-3
    report(1, "device oracle", ok_time and ok_refine,
           f"switch {switch:.5f}s vs {expected}s, dt-halving delta "
           f"{abs(w_coarse - w_fine):.2e}")


def test_acceptance_2_hysteresis_and_pulses():
    dt = 1e-4
    t = np.arange(0.0, 0.2, dt)
    v = 0.5 * np.sin(2 * np.pi * 10.0 * t)
    r = np.array(trajectory(PARAMS, v, dt, PARAMS.w_on)[1:])  # R after each step
    i = v / r
    near_zero = np.abs(v) < 1e-6
    pinched = near_zero.any() and np.all(np.abs(i[near_zero]) < 1e-9)
    confined = r.min() >= 20e3 - 1e-9 and r.max() <= 190e3 + 1e-9

    # eight 20 ms set pulses; quiet gaps leave the state alone
    conductances = (1.0 / np.array(
        trajectory(PARAMS, [0.35] * 1600, dt, PARAMS.w_on)[200::200])).tolist()
    monotone = all(b > a for a, b in zip(conductances, conductances[1:]))
    report(2, "hysteresis/synapse", pinched and confined and monotone,
           f"pinched={pinched}, R in [{r.min():.0f}, {r.max():.0f}], "
           f"pulse-train conductance strictly rising={monotone}")


def test_acceptance_3_fit_self_consistency():
    trace = read_trace_csv(REPO / "data" / "iv" / "sine_10hz_0v5.csv")
    config = load_config(REPO / "configs" / "fit_sinusoid.conf")
    result = fit(trace, build_device(config), build_fit_config(config))
    hist = np.array(result.objective_history)
    monotone = bool(np.all(np.diff(hist) <= 1e-15))
    ok = result.converged and result.rmse <= 1e-3 and monotone
    report(3, "fit self-consistency", ok,
           f"rmse {result.rmse:.3e} after {result.iterations} iterations, "
           f"history monotone={monotone}")


def test_acceptance_4_truth_tables_and_gating(shipped_runs):
    first = FIRST_STAGE
    want_first = {(1, 1): ("learning", 0.35), (0, 1): ("forgetting", -0.175),
                  (0, 0): ("natural_forgetting", -0.165),
                  (1, 0): ("natural_forgetting", -0.165)}
    ok_first = all(select(first, bits) == want for bits, want in want_first.items())
    higher = StageConfig()
    want_higher = {
        (1, 1, 1): ("learning", 0.42), (0, 1, 1): ("natural_forgetting", -0.18),
        (1, 0, 1): ("forgetting", -0.19), (0, 0, 1): ("forgetting", -0.19),
        (1, 1, 0): ("natural_forgetting", -0.18),
        (0, 1, 0): ("natural_forgetting", -0.18),
        (1, 0, 0): ("natural_forgetting", -0.18),
        (0, 0, 0): ("natural_forgetting", -0.18)}
    ok_higher = all(select(higher, bits, 0.42) == want
                    for bits, want in want_higher.items())

    # scheme and resistance columns from the shipped low-power trace
    trace_lines = (shipped_runs["pavlov2_lowpower"][0] / "trace.csv"
                   ).read_text().splitlines()
    header = trace_lines[0].split(",")
    col = {name: j for j, name in enumerate(header)}
    rows = [line.split(",") for line in trace_lines[1:]]
    t = np.array([float(r[col["t_s"]]) for r in rows])
    scheme1 = np.array([r[col["scheme1"]] for r in rows])
    scheme2 = np.array([r[col["scheme2"]] for r in rows])
    r1 = np.array([float(r[col["r1_ohm"]]) for r in rows])

    dt = t[1] - t[0]
    forget_rows = np.nonzero(scheme1 == SCHEME_FORGETTING)[0]
    window_ok = (forget_rows.size == round(0.05 / dt)
                 and np.all(np.diff(forget_rows) == 1)
                 and abs(t[forget_rows[0]] - 0.62) <= dt / 2
                 and t[forget_rows[-1]] <= 0.67 + dt / 2)
    learn2 = np.nonzero(scheme2 == SCHEME_LEARNING)[0]
    gating_ok = learn2.size > 0 and bool(np.all(r1[learn2] < 50e3))
    report(4, "truth tables/gating",
           ok_first and ok_higher and window_ok and gating_ok,
           f"4+8 rows match, forgetting on [{t[forget_rows[0]]:.4f}, "
           f"{t[forget_rows[-1]]:.4f}]s, stage-2 learning only below 50 kOhm")


def test_acceptance_5_learning_efficiency(shipped_runs):
    high = read_metrics(shipped_runs["pavlov2_highgain"][0])
    low = read_metrics(shipped_runs["pavlov2_lowpower"][0])
    s_high = high["chain.speedup_1_2"]
    s_low = low["chain.speedup_1_2"]
    p_low = low["stage2.peak_power_w"]
    ok = (abs(s_high - 2.31) <= 0.231
          and abs(s_low - 1.476) <= 0.1476
          and p_low <= 1.1e-5)
    report(5, "learning efficiency", ok,
           f"high-gain speedup {s_high:.3f} (2.31 +/- 10%), low-power "
           f"speedup {s_low:.3f} (1.476 +/- 10%), peak {p_low:.3e} W <= 1.1e-5")


def test_acceptance_6_transient_reset(shipped_runs):
    low = read_metrics(shipped_runs["pavlov2_lowpower"][0])
    reset = low["stage2.reset_time_s"]
    ok = abs(reset - 0.1777) <= 0.05 * 0.1777
    report(6, "transient reset", ok, f"stage-2 reset {reset:.4f}s vs 0.1777s +/- 5%")


def test_acceptance_7_third_order(shipped_runs):
    m = read_metrics(shipped_runs["pavlov3"][0])
    times = [m[f"stage{k}.switch_time_s"] for k in (1, 2, 3)]
    ok = times[0] > times[1] > times[2]
    report(7, "third order", ok,
           "switch times " + " > ".join(f"{x:.4f}" for x in times))


def test_acceptance_8_vision(shipped_runs):
    run = shipped_runs["vision_demo"][0]
    state = np.array([[float(x) for x in line.split(",")]
                      for line in (run / "array_state.csv").read_text().splitlines()])
    teacher = binarize(load_image(REPO / "data" / "vision" / "train" / "teacher.csv"))
    high_count_ok = bool(state[teacher == 1].max() < 0.2)
    lines = (run / "report.csv").read_text().splitlines()[1:]
    verdicts = [(name, label) for name, _, _, label in
                (line.split(",") for line in lines)]
    correct = sum(label == ("cat" if name.startswith("cat") else "non-cat")
                  for name, label in verdicts)
    ok = high_count_ok and len(verdicts) == 10 and correct == 10
    report(8, "vision", ok,
           f"high-count state max {state[teacher == 1].max():.3f} < 0.2, "
           f"{correct}/10 labels correct")


def test_acceptance_9_determinism(shipped_runs):
    mismatches = []
    for stem, (a, b) in shipped_runs.items():
        for path_a in sorted(a.iterdir()):
            if path_a.read_bytes() != (b / path_a.name).read_bytes():
                mismatches.append(f"{stem}/{path_a.name}")
    names = sum(len(list(a.iterdir())) for a, _ in shipped_runs.values())
    report(9, "determinism", not mismatches,
           f"{names} outputs byte-identical across double runs"
           if not mismatches else "mismatch in " + ", ".join(mismatches))


def test_shipped_outputs_match_golden_hashes(shipped_runs):
    """Every shipped-config output keeps the SHA-256 pinned by the benchmark.

    The pins live in perfbench/golden.json under "shipped"; a change meant
    to move results re-pins them there.
    """
    pins = json.loads((REPO / "perfbench" / "golden.json").read_text())["shipped"]
    assert set(pins) == set(shipped_runs)
    moved = [f"{stem}/{name}"
             for stem, outputs in sorted(pins.items())
             for name, digest in sorted(outputs.items())
             if hashlib.sha256((shipped_runs[stem][0] / name).read_bytes())
             .hexdigest() != digest]
    assert not moved, "outputs differ from the golden hashes: " + ", ".join(moved)
