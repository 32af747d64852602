"""Chain-engine tests.

Covered invariants:
  * segment/schedule validation, half-open sampling, triangle ripple
    bounds, and the engine's sampler equals the oracle's scalar one on
    every row of the reference schedules;
  * the package's one truth table, whose gated half stage 1 reads, and
    the oracle's wildcard copies match the documented rows; stage 1 needs
    a fixed learning voltage, and each stage reads the rows of its place
    in the chain at its own voltages;
  * single-stage chain reproduces the analytic switch time under a
    continuous pairing drive;
  * the reference schedules reproduce frozen switch/reset/speedup values,
    and the shipped pavlov configs' switch, reset and speedup metrics
    converge as dt halves;
  * higher-stage learning only happens while the previous stage's state
    signal is asserted;
  * non-finite levels, stage voltages and initial states are rejected
    before any integration;
  * CSV/metrics serialization is byte-deterministic, and the chunked
    trace writer matches the row-by-row layout byte for byte; pinned to
    one CPU it forks no writer process and writes the same bytes.
"""

import itertools
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memassoc import _fork, circuit
from memassoc.circuit import (
    FIRST_STAGE,
    ChainConfig,
    SCHEME_FORGETTING,
    SCHEME_LEARNING,
    SCHEME_NATURAL,
    SCHEMES,
    StageConfig,
    StimulusSchedule,
    metrics,
    run_chain,
    write_metrics_report,
    write_sim_trace_csv,
)
from memassoc.cli import build_chain, load_config
from memassoc.device import DeviceParams
from memassoc.errors import InvalidInputError
from oracle import sample_signal, select

REPO = Path(__file__).resolve().parents[1]
PARAMS = DeviceParams()


def custom_schedule(zigzag_amplitude=0.0, **windows):
    """A custom schedule of per-role (start, end) windows at level 1 V,
    without ripple unless given one."""
    return StimulusSchedule(
        preset="custom", zigzag_amplitude=zigzag_amplitude,
        segments=tuple((role, tuple((a, b, 1.0) for a, b in role_windows))
                       for role, role_windows in windows.items()))


def single_stage_chain(schedule, duration, dt=1e-4):
    return ChainConfig(stages=(FIRST_STAGE,),
                       schedule=schedule, duration=duration, dt=dt)


class TestSegmentsAndSampling:
    def test_segment_validation(self):
        for bad in ([(-0.1, 0.2)], [(0.2, 0.2)], [(0.0, math.inf)]):
            with pytest.raises(InvalidInputError, match="^signal 'food': segment"):
                custom_schedule(food=bad)
        with pytest.raises(InvalidInputError, match="^zigzag_frequency must"):
            StimulusSchedule(zigzag_frequency=0.0)  # ripple, no frequency
        with pytest.raises(InvalidInputError, match="^preset must be one of"):
            StimulusSchedule(preset="pavlov4")
        with pytest.raises(InvalidInputError, match="^signal 'food': segment lists"):
            StimulusSchedule(segments=(("food", ((0.0, 0.1, 1.0),)),))
        with pytest.raises(InvalidInputError, match="role twice"):
            StimulusSchedule(preset="custom", segments=(("food", ()), ("food", ())))

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError, match="overlap"):
            custom_schedule(food=[(0.0, 0.2), (0.1, 0.3)])

    def test_touching_segments_allowed(self):
        sched = custom_schedule(food=[(0.1, 0.2), (0.0, 0.1)], ring1=[])
        # windows in start order; segments as given, roles sorted
        assert [w[0] for w in sched.windows["food"]] == [0.0, 0.1]
        assert sched == custom_schedule(ring1=[], food=[(0.1, 0.2), (0.0, 0.1)])

    def test_preset_windows_and_reference_lengths(self):
        for n, length in ((1, 1.5), (2, 1.7), (3, 1.8)):
            sched = StimulusSchedule(preset=f"pavlov{n}", high_level=2.0)
            assert list(sched.windows) == ["food"] + [f"ring{k}" for k in range(1, n + 1)]
            assert {w[2] for ws in sched.windows.values() for w in ws} == {2.0}
            assert sched.default_duration == length
            assert ChainConfig(schedule=sched,
                               stages=(FIRST_STAGE,) + (StageConfig(),) * (n - 1)
                               ).run_length == length
        assert custom_schedule().default_duration is None

    def test_half_open_window(self):
        sched = custom_schedule(food=[(0.1, 0.2)], ring1=[(0.1, 0.2)])
        assert sample_signal(sched, "food", 0.1) == 1.0
        assert sample_signal(sched, "food", 0.2 - 1e-12) == 1.0
        assert sample_signal(sched, "food", 0.2) == 0.0
        assert sample_signal(sched, "food", 0.05) == 0.0

    def test_zigzag_bounds_and_phase(self):
        sched = custom_schedule(0.1, ring1=[(0.2, 0.5)], food=[(0.2, 0.5)])
        ts = 0.2 + np.linspace(0.0, 0.3, 4001, endpoint=False)
        levels = np.array([sample_signal(sched, "ring1", float(t)) for t in ts])
        assert levels.min() >= 0.9 - 1e-12
        assert levels.max() <= 1.1 + 1e-12
        # ripple is phase-locked to the segment start
        assert sample_signal(sched, "ring1", 0.2) == pytest.approx(1.0)
        assert sample_signal(sched, "ring1", 0.2 + 0.0025) == pytest.approx(1.1)
        assert sample_signal(sched, "ring1", 0.2 + 0.0075) == pytest.approx(0.9)

    def test_engine_grid_matches_scalar_sampling(self):
        # every row of the reference schedules of order 1 to 3, bit for bit
        for n, dt in itertools.product((1, 2, 3), (1e-4, 3.7e-5)):
            sched = StimulusSchedule(preset=f"pavlov{n}")
            cfg = ChainConfig(
                stages=(FIRST_STAGE,) + (StageConfig(),) * (n - 1),
                schedule=sched, dt=dt)
            trace = run_chain(cfg)
            want = [[sample_signal(sched, name, t) for t in trace.t.tolist()]
                    for name in trace.signal_names]
            assert trace.signal_levels.tolist() == want, (n, dt)


def pattern_index(bits):
    """A logic pattern read as a binary number, first bit most significant."""
    return int("".join(map(str, bits)), 2)


class TestLogicAndRules:
    def test_first_order_table(self):
        """Stage 1 reads the table's gated half, with food as ring 0."""
        expected = {
            (1, 1): (SCHEME_LEARNING, 0.35),
            (0, 1): (SCHEME_FORGETTING, -0.175),
            (0, 0): (SCHEME_NATURAL, -0.165),
            (1, 0): (SCHEME_NATURAL, -0.165),
        }
        for bits, want in expected.items():
            assert select(FIRST_STAGE, bits) == want
            code = circuit._TRUTH_TABLE[pattern_index((1, *bits))]
            assert SCHEMES[code] == want[0], bits

    def test_higher_order_table(self):
        expected = {
            (1, 1, 1): (SCHEME_LEARNING, 0.42),
            (0, 1, 1): (SCHEME_NATURAL, -0.18),
            (1, 0, 1): (SCHEME_FORGETTING, -0.19),
            (0, 0, 1): (SCHEME_FORGETTING, -0.19),
            (1, 1, 0): (SCHEME_NATURAL, -0.18),
            (0, 1, 0): (SCHEME_NATURAL, -0.18),
            (1, 0, 0): (SCHEME_NATURAL, -0.18),
            (0, 0, 0): (SCHEME_NATURAL, -0.18),
        }
        for bits, want in expected.items():
            assert select(StageConfig(), bits, 0.42) == want, bits
            code = circuit._TRUTH_TABLE[pattern_index(bits)]
            assert SCHEMES[code] == want[0], bits
        assert len(circuit._TRUTH_TABLE) == len(expected)

    def test_stage_one_rejects_adjusted_voltage_rule(self):
        # the adjusted learning voltage reads the previous stage, which
        # stage 1 does not have: the chain is refused when it is built
        with pytest.raises(InvalidInputError, match="stage 1 needs a fixed learning_v"):
            ChainConfig(stages=(replace(FIRST_STAGE, learning_v=None),),
                        schedule=custom_schedule(food=[], ring1=[]), duration=0.1)


def learned_pair_chain(gain=1.8, v_learn_max=0.47, readout=0.1):
    """Two stages, stage 1 held fully set (R = r_on = 20 kohm, r_f = 5 kohm)
    by food + ring1 over [0, 5) ms while ring2 fires with them; food stays
    on alone until 10 ms."""
    sched = custom_schedule(food=[(0.0, 0.01)], ring1=[(0.0, 0.005)],
                            ring2=[(0.0, 0.005)])
    cfg = ChainConfig(
        stages=(replace(FIRST_STAGE, r_f=5e3),
                StageConfig(gain=gain, v_learn_max=v_learn_max)),
        schedule=sched, duration=0.01, readout_amplitude=readout)
    trace = run_chain(cfg, initial_states=[PARAMS.w_off, PARAMS.w_on])
    paired = trace.t < 0.005 - 1e-9
    return trace, paired


class TestAnalogHelpers:
    """The analog formulas run_chain writes inline, on a stage held at r_on."""

    def test_synaptic_output_inverts_and_scales(self):
        trace, paired = learned_pair_chain(readout=0.1)
        stage1 = trace.stages[0]
        np.testing.assert_array_equal(stage1.r_ohm[paired], PARAMS.r_on)
        # -readout * r_f / R while ring1 is on, 0 once it is off
        assert stage1.resp_v[paired] == pytest.approx(-0.025)
        np.testing.assert_array_equal(stage1.resp_v[~paired], 0.0)

    def test_state_signal(self):
        trace, paired = learned_pair_chain()
        assert trace.stages[0].s_v[paired] == pytest.approx(0.25)

    def test_adjust_learning_voltage_clamps(self):
        # gain * S of the previous stage, clamped to v_learn_max; a zero
        # clamp is refused when the stage is built
        for gain, want in ((1.8, 0.45), (2.5, 0.47)):
            trace, paired = learned_pair_chain(gain=gain)
            stage2 = trace.stages[1]
            assert stage2.in_scheme(SCHEME_LEARNING)[paired].all()
            assert stage2.mod_v[paired] == pytest.approx(want)
        with pytest.raises(InvalidInputError):
            StageConfig(v_learn_max=0.0)


class TestSingleStageChain:
    def test_continuous_pairing_matches_analytic_switch_time(self):
        # constant 0.35 V learning: time to come within 1% of r_on
        sched = custom_schedule(food=[(0.0, 0.3)], ring1=[(0.0, 0.3)])
        trace = run_chain(single_stage_chain(sched, duration=0.3))
        got = metrics(trace)["stage1.switch_time_s"]
        rate = PARAMS.k_on * (0.35 / PARAMS.v_on - 1.0) ** PARAMS.alpha_on
        w_cross = 1.0 - math.log(1.01) / math.log(PARAMS.r_off / PARAMS.r_on)
        assert got == pytest.approx(w_cross / rate, abs=2e-4)

    def test_quiet_chain_never_switches(self):
        sched = custom_schedule(food=[], ring1=[])
        trace = run_chain(single_stage_chain(sched, duration=0.05))
        report = metrics(trace)
        assert set(report) == {"stage1.peak_power_w"}
        assert float(trace.stages[0].r_ohm[-1]) == pytest.approx(190e3)

    def test_reset_after_training(self):
        # quiet tail: natural forgetting at -0.165 V back past 50 kohm
        sched = custom_schedule(food=[(0.0, 0.3)], ring1=[(0.0, 0.3)])
        trace = run_chain(single_stage_chain(sched, duration=1.1))
        report = metrics(trace)
        rate = abs(PARAMS.k_off) * (0.165 / abs(PARAMS.v_off) - 1.0)
        dw = math.log(50e3 / 20e3) / math.log(190e3 / 20e3)
        assert report["stage1.reset_time_s"] == pytest.approx(dw / rate, rel=2e-3)

    def test_response_tracks_learning(self):
        trace = run_chain(single_stage_chain(StimulusSchedule(preset="pavlov1"), 1.5))
        i_early = int(round(0.125 / trace.dt))   # inside second pairing window
        i_late = int(round(0.93 / trace.dt))     # after switching completes
        assert abs(trace.stages[0].resp_v[i_late]) > 4 * abs(
            trace.stages[0].resp_v[i_early])
        # readout response present only while ring1 is high
        i_gap = int(round(0.57 / trace.dt))
        assert trace.stages[0].resp_v[i_gap] == 0.0

    def test_initial_state_override(self):
        sched = custom_schedule(food=[], ring1=[])
        cfg = single_stage_chain(sched, duration=0.01)
        trace = run_chain(cfg, initial_states=[PARAMS.w_off])
        assert trace.stages[0].r_ohm[0] < 20.5e3
        with pytest.raises(InvalidInputError):
            run_chain(cfg, initial_states=[0.5, 0.5])


@pytest.fixture(scope="module")
def low_power():
    cfg = ChainConfig(
        stages=(FIRST_STAGE,
                StageConfig(gain=1.8, v_learn_max=0.47)),
        schedule=StimulusSchedule(preset="pavlov2"))
    trace = run_chain(cfg)
    return trace, metrics(trace)


@pytest.fixture(scope="module")
def high_gain():
    cfg = ChainConfig(
        stages=(FIRST_STAGE,
                StageConfig(gain=2.5, v_learn_max=0.65)),
        schedule=StimulusSchedule(preset="pavlov2"))
    trace = run_chain(cfg)
    return trace, metrics(trace)


class TestReferenceSchedules:
    def test_first_stage_switch_time(self, low_power):
        _, report = low_power
        assert report["stage1.switch_time_s"] == pytest.approx(0.2693, abs=1e-6)

    def test_forgetting_confined_to_probe_window(self, low_power):
        trace, _ = low_power
        rows = np.nonzero(trace.stages[0].in_scheme(SCHEME_FORGETTING))[0]
        assert rows.size == round(0.05 / trace.dt)
        assert np.all(np.diff(rows) == 1)
        assert trace.t[rows[0]] == pytest.approx(0.62, abs=trace.dt / 2)
        assert trace.t[rows[-1]] == pytest.approx(0.67 - trace.dt, abs=trace.dt / 2)

    def test_second_stage_speedup_low_power(self, low_power):
        _, report = low_power
        assert report["chain.speedup_1_2"] == pytest.approx(1.4386, abs=2e-3)

    def test_second_stage_speedup_high_gain(self, high_gain):
        _, report = high_gain
        assert report["chain.speedup_1_2"] == pytest.approx(2.3664, abs=2e-3)

    def test_low_power_peak(self, low_power):
        _, report = low_power
        # adjusted voltage saturates at 1.8 * 5k/20k = 0.45 V on a set device
        assert report["stage2.peak_power_w"] == pytest.approx(
            0.45 ** 2 / 20e3, rel=1e-9)
        assert report["stage2.peak_power_w"] <= 1.1e-5

    def test_second_stage_reset(self, low_power):
        _, report = low_power
        rate = abs(PARAMS.k_off) * (0.18 / abs(PARAMS.v_off) - 1.0)
        dw = math.log(50e3 / 20e3) / math.log(190e3 / 20e3)
        assert report["stage2.reset_time_s"] == pytest.approx(
            dw / rate, rel=2e-3)

    def test_learning_gated_by_previous_state(self, low_power):
        trace, _ = low_power
        learn_rows = trace.stages[1].in_scheme(SCHEME_LEARNING)
        assert learn_rows.any()
        assert np.all(trace.stages[0].s_v[learn_rows] >= 0.1)

    def test_third_order_strictly_faster(self):
        cfg = ChainConfig(
            stages=(FIRST_STAGE,
                    StageConfig(gain=2.5, v_learn_max=0.65),
                    StageConfig(gain=3.0, v_learn_max=0.8)),
            schedule=StimulusSchedule(preset="pavlov3"))
        report = metrics(run_chain(cfg))
        times = [report[f"stage{k}.switch_time_s"] for k in (1, 2, 3)]
        assert times[0] > times[1] > times[2]
        assert report["chain.speedup_1_2"] > 1.0
        assert report["chain.speedup_2_3"] > 1.0

    def test_ring_levels_rippled_food_plain(self, low_power):
        trace, _ = low_power
        food = trace.signal_levels[0]
        ring1 = trace.signal_levels[1]
        assert set(np.unique(food)) <= {0.0, 1.0}
        high = ring1[ring1 > 0]
        assert high.min() >= 0.9 - 1e-12 and high.max() <= 1.1 + 1e-12
        assert not np.all(high == 1.0)

    @pytest.mark.parametrize("name", ["pavlov2_lowpower", "pavlov2_highgain",
                                      "pavlov3"])
    def test_metrics_converge_as_dt_halves(self, name):
        # Over dt 2e-4 .. 1.25e-5 s the largest move per halving measured
        # 5.6e-4 relative (a reset time, 2e-4 -> 1e-4 s); Euler's error is
        # first order, so finer halvings move the metrics less.  The bound,
        # 0.1% per halving, is about twice the largest measured move.
        config = load_config(REPO / "configs" / f"{name}.conf")
        reports = []
        for dt in (2e-4, 1e-4, 5e-5, 2.5e-5, 1.25e-5):
            chain = replace(build_chain(config), dt=dt)
            reports.append({key: value for key, value in metrics(run_chain(chain)).items()
                            if key.endswith(("switch_time_s", "reset_time_s"))
                            or key.startswith("chain.speedup_")})
        n_stages = len(config.chain.stages)
        assert sorted(reports[0]) == sorted(
            [f"stage{k}.switch_time_s" for k in range(1, n_stages + 1)]
            + [f"stage{k}.reset_time_s" for k in range(2, n_stages + 1)]
            + [f"chain.speedup_{k}_{k + 1}" for k in range(1, n_stages)])
        for coarse, fine in zip(reports, reports[1:]):
            assert fine.keys() == coarse.keys()
            for key, value in coarse.items():
                assert fine[key] == pytest.approx(value, rel=1e-3), key

    def test_unknown_preset_order(self):
        for preset in ("pavlov4", "pavlov0"):
            with pytest.raises(InvalidInputError):
                StimulusSchedule(preset=preset)


class TestGating:
    def test_no_learning_without_prior_association(self):
        # rings pulse together but food never arrives: stage 1 decays or
        # actively forgets, so stage 2 must never enter the learning scheme
        sched = custom_schedule(food=[], ring1=[(0.0, 0.2), (0.3, 0.5)],
                                ring2=[(0.0, 0.2), (0.3, 0.5)])
        cfg = ChainConfig(
            stages=(FIRST_STAGE, StageConfig()),
            schedule=sched, duration=0.6)
        trace = run_chain(cfg)
        assert not np.any(trace.stages[1].in_scheme(SCHEME_LEARNING))
        assert np.all(trace.stages[1].in_scheme(SCHEME_NATURAL))

    def test_new_ring_alone_actively_forgets(self):
        sched = custom_schedule(food=[], ring1=[], ring2=[(0.0, 0.1)])
        cfg = ChainConfig(
            stages=(FIRST_STAGE, StageConfig()),
            schedule=sched, duration=0.2)
        trace = run_chain(cfg)
        assert np.all(trace.stages[1].in_scheme(SCHEME_FORGETTING)[:int(0.1 / cfg.dt)])


class TestConfigValidation:
    def test_roles_must_match_stage_count(self):
        sched = custom_schedule(food=[], ring1=[], ring2=[])
        with pytest.raises(InvalidInputError, match="roles"):
            single_stage_chain(sched, duration=0.1)
        with pytest.raises(InvalidInputError, match="^chain needs at least one stage$"):
            ChainConfig(stages=())

    def test_stage_arity_enforced(self):
        # the rows follow the stage's place in the chain, not its
        # voltages: a stage with a fixed learning_v still learns only on
        # the 3-bit pattern (state, ring1, ring2) = (1, 1, 1) at stage 2,
        # and a higher stage's voltages run the gated half at stage 1
        sched = custom_schedule(food=[(0.0, 0.1)], ring1=[(0.05, 0.3)],
                                ring2=[(0.0, 0.2)])
        fixed = StageConfig(learning_v=0.3)
        cfg = ChainConfig(stages=(StageConfig(learning_v=0.35), fixed),
                          schedule=sched, duration=0.3, dt=1e-3)
        trace = run_chain(cfg, initial_states=[PARAMS.w_off, PARAMS.w_on])
        stage1, stage2 = trace.stages
        t = trace.t
        np.testing.assert_array_equal(stage1.in_scheme(SCHEME_LEARNING),
                                      (t >= 0.05 - 1e-9) & (t < 0.1 - 1e-9))
        np.testing.assert_array_equal(stage1.mod_v[stage1.in_scheme(SCHEME_FORGETTING)],
                                      -0.19)
        learning = stage2.in_scheme(SCHEME_LEARNING)
        want = ((stage1.s_v >= fixed.state_threshold_v)
                & (t >= 0.05 - 1e-9) & (t < 0.2 - 1e-9))
        assert learning.any()
        np.testing.assert_array_equal(learning, want)
        np.testing.assert_array_equal(stage2.mod_v[learning], 0.3)
        # ring2 without ring1 actively forgets at stage 2, whatever stage 1's state
        forgetting = stage2.in_scheme(SCHEME_FORGETTING)
        np.testing.assert_array_equal(forgetting, t < 0.05 - 1e-9)

    def test_bad_timebase(self):
        sched = custom_schedule(food=[], ring1=[])
        with pytest.raises(InvalidInputError):
            single_stage_chain(sched, duration=0.1, dt=0.0)
        with pytest.raises(InvalidInputError):
            single_stage_chain(sched, duration=0.0)

    def test_non_finite_levels_rejected_at_construction(self):
        sched = custom_schedule(food=[], ring1=[])
        stages = (FIRST_STAGE,)
        for bad in (math.inf, math.nan):
            for name in ("dt", "logic_threshold", "readout_amplitude"):
                with pytest.raises(InvalidInputError, match=f"^{name} must"):
                    ChainConfig(stages=stages, schedule=sched, duration=0.1,
                                **{name: bad})
            for name in ("learning_v", "forgetting_v", "natural_forgetting_v"):
                with pytest.raises(InvalidInputError, match=f"^{name} must"):
                    StageConfig(**{name: bad})

    def test_non_finite_initial_state_rejected(self):
        sched = custom_schedule(food=[], ring1=[], ring2=[])
        cfg = ChainConfig(stages=(FIRST_STAGE, StageConfig()),
                          schedule=sched, duration=0.01)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="initial states"):
                run_chain(cfg, initial_states=[0.0, bad])

    def test_out_of_bounds_initial_state_names_its_stage(self):
        sched = custom_schedule(food=[], ring1=[], ring2=[])
        cfg = ChainConfig(stages=(FIRST_STAGE, StageConfig()),
                          schedule=sched, duration=0.01)
        lo, hi = PARAMS.w_on, PARAMS.w_off
        for bad in (5.0, np.nextafter(hi, math.inf), np.nextafter(lo, -math.inf)):
            with pytest.raises(InvalidInputError, match=r"stage 2 starts at"):
                run_chain(cfg, initial_states=[0.5, bad])
            with pytest.raises(InvalidInputError, match=r"stage 1 starts at"):
                run_chain(cfg, initial_states=[bad, 0.5])
        # both bounds themselves are valid start states
        run_chain(cfg, initial_states=[lo, hi])

    def test_stage_config_validation(self):
        with pytest.raises(InvalidInputError):
            StageConfig(r_f=0.0)
        with pytest.raises(InvalidInputError):
            StageConfig(gain=-1.0)
        with pytest.raises(InvalidInputError):
            StageConfig(state_threshold_v=0.0)


class TestSerialization:
    def test_trace_csv_layout_and_determinism(self, tmp_path):
        cfg = ChainConfig(
            stages=(FIRST_STAGE, StageConfig()),
            schedule=StimulusSchedule(preset="pavlov2"), duration=0.3)
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            write_sim_trace_csv(run_chain(cfg), p)
            paths.append(p)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        header = first.decode().splitlines()[0].split(",")
        assert header == [
            "t_s", "food_v", "ring1_v", "ring2_v",
            "mod1_v", "scheme1", "r1_ohm", "s1_v", "resp1_v", "p1_w",
            "mod2_v", "scheme2", "r2_ohm", "s2_v", "resp2_v", "p2_w",
        ]
        assert len(first.decode().splitlines()) == 3001 + 1

    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257])
    def test_trace_csv_matches_row_by_row_writer(self, tmp_path, n_rows):
        # the chunked column-wise writer against the row-by-row writer it
        # replaced, around the chunk boundary
        cfg = ChainConfig(
            stages=(FIRST_STAGE, StageConfig()),
            schedule=StimulusSchedule(preset="pavlov2"), duration=0.97, dt=1e-3)
        full = run_chain(cfg, initial_states=[0.3, 0.9])
        # rows from around 0.6 s cover every scheme and a negative response
        rows = slice(600 - n_rows // 2, 600 - n_rows // 2 + n_rows)
        trace = replace(
            full, t=full.t[rows], signal_levels=full.signal_levels[:, rows],
            stages=tuple(replace(
                st, mod_v=st.mod_v[rows], scheme_code=st.scheme_code[rows],
                r_ohm=st.r_ohm[rows], s_v=st.s_v[rows],
                resp_v=st.resp_v[rows], p_w=st.p_w[rows])
                for st in full.stages))
        path = tmp_path / "trace.csv"
        write_sim_trace_csv(trace, path)

        header = ["t_s"] + [f"{name}_v" for name in trace.signal_names]
        for k in range(1, len(trace.stages) + 1):
            header += [f"mod{k}_v", f"scheme{k}", f"r{k}_ohm",
                       f"s{k}_v", f"resp{k}_v", f"p{k}_w"]
        lines = [",".join(header)]
        for i in range(len(trace.t)):
            cells = [f"{trace.t[i]:.10g}"]
            cells += [f"{trace.signal_levels[j, i]:.10g}"
                      for j in range(len(trace.signal_names))]
            for st in trace.stages:
                cells += [f"{st.mod_v[i]:.10g}", SCHEMES[st.scheme_code[i]],
                          f"{st.r_ohm[i]:.10g}", f"{st.s_v[i]:.10g}",
                          f"{st.resp_v[i]:.10g}", f"{st.p_w[i]:.10g}"]
            lines.append(",".join(cells))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_usable_cpus_without_fork_or_affinity(self, monkeypatch):
        # one process writes where it cannot fork; every CPU counts where
        # the process cannot read its affinity
        with monkeypatch.context() as m:
            m.delattr(os, "fork", raising=False)
            assert _fork.usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _fork.usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_trace_writer_pinned_to_one_cpu_forks_nothing(self, tmp_path,
                                                         monkeypatch):
        cfg = ChainConfig(
            stages=(FIRST_STAGE, StageConfig()),
            schedule=StimulusSchedule(preset="pavlov2"), duration=0.97)
        trace = run_chain(cfg)  # 9701 rows: 5 chunks
        with monkeypatch.context() as m:
            m.setattr(_fork, "usable_cpus", lambda: 3)
            write_sim_trace_csv(trace, tmp_path / "forked.csv")

        def no_fork():
            raise AssertionError("the writer forked while pinned to one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved)})
        try:
            write_sim_trace_csv(trace, tmp_path / "pinned.csv")
        finally:
            os.sched_setaffinity(0, saved)
        assert ((tmp_path / "pinned.csv").read_bytes()
                == (tmp_path / "forked.csv").read_bytes())

    def test_metrics_report_format(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics_report({"stage1.switch_time_s": 0.2693,
                              "chain.speedup_1_2": 1.4386}, path)
        lines = path.read_text().splitlines()
        assert lines == ["stage1.switch_time_s=0.2693",
                         "chain.speedup_1_2=1.4386"]
