"""Array-vision tests.

Covered invariants:
  * CSV/PGM ingestion under one intensity rule (finite, >= 0, at most
    the full scale), integer PGM samples, 8-bit auto-scaling, range
    errors that print plain numbers, undecodable or unreadable files
    named by path, dimension/resize policing;
  * count semantics for both predicates and scopes, including the 2x2
    enumeration case and full/zero-match extremes;
  * vectorized grid stepping is bitwise identical to the oracle's scalar
    step, also for rate exponents other than 1;
  * training monotonicity and saturation; a rate beyond the float range
    fails a training pulse only where a cell can move;
  * the remembered label pulse: configs that differ in one field the
    pulse reads each get their own resistance, and the memo stays bounded;
  * similarity extremes and classification against the shipped demo data
    (clusters separate, 10/10 labels with the frozen threshold);
  * every record that holds arrays (`ArrayState`, and the fit's and the
    chain's traces) compares and hashes by identity without raising.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memassoc.circuit import SimTrace, StageTrace
from memassoc.device import DeviceParams, pulse, trajectory
from memassoc.errors import DataError, InvalidInputError
from memassoc.fit import IVTrace
from memassoc.vision import (
    _label_resistance,
    ArrayState,
    VisionConfig,
    classify,
    load_image,
    match_counts,
    midpoint_threshold,
    modulation_voltages,
    new_array,
    read_image_pgm,
    similarity,
    train_many,
    train_pair,
    write_state_csv,
)
from oracle import binarize, step

DATA = Path(__file__).resolve().parents[1] / "data" / "vision"
THETA = 0.2911  # frozen from the shipped calibration split


def fresh_array(n, params=DeviceParams()):
    """An n x n array with every cell fully reset, as `new_array` builds
    one of `GRID_SIDE` x `GRID_SIDE`."""
    return ArrayState(params, np.full((n, n), params.w_on))


def write_csv(path, grid):
    with open(path, "w") as fh:
        for row in np.asarray(grid, dtype=float):
            fh.write(",".join(f"{x:g}" for x in row) + "\n")
    return path


class TestImageIO:
    def test_csv_unit_range(self, tmp_path):
        img = np.linspace(0, 1, 400).reshape(20, 20)
        path = write_csv(tmp_path / "a.csv", img)
        assert np.allclose(load_image(path), img)

    def test_csv_eight_bit_autoscaled(self, tmp_path):
        img = np.full((20, 20), 128.0)
        path = write_csv(tmp_path / "a.csv", img)
        assert np.allclose(load_image(path), 128.0 / 255.0)

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0\n0,1\n")
        with pytest.raises(DataError, match="ragged"):
            load_image(path)

    def test_csv_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0,oops\n")
        with pytest.raises(DataError, match="bad.csv:2"):
            load_image(path)

    def test_csv_bad_cell_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n\n0,oops\n")
        with pytest.raises(DataError, match=r"^bad.csv:3: could not convert .*'oops'"):
            load_image(path)

    @pytest.mark.parametrize("name, text, message", [
        ("neg.csv", "0,1\n-0.5,1\n", "neg.csv: negative intensity -0.5"),
        ("big.csv", "0,1\n300,1\n", "big.csv: intensity 300.0 exceeds 255"),
    ], ids=["negative", "beyond-255"])
    def test_csv_range_error_prints_plain_float(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataError) as info:
            load_image(path)
        assert str(info.value) == message

    def test_dimension_error_names_sizes(self, tmp_path):
        path = write_csv(tmp_path / "small.csv", np.zeros((4, 4)))
        with pytest.raises(DataError, match="4x4.*expected 20x20"):
            load_image(path)

    def test_resize_requires_permission(self, tmp_path):
        path = write_csv(tmp_path / "big.csv", np.zeros((40, 40)))
        with pytest.raises(DataError, match="resizing not enabled"):
            load_image(path)

    def test_box_resize_recovers_block_upsample(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.random((20, 20)).round(3)
        big = np.kron(img, np.ones((2, 2)))
        path = write_csv(tmp_path / "big.csv", big)
        assert np.allclose(load_image(path, allow_resize=True), img)

    def test_resize_crops_center_first(self, tmp_path):
        img = np.zeros((40, 60))
        img[:, 10:50] = 1.0  # central square is all-ones
        path = write_csv(tmp_path / "wide.csv", img)
        assert np.allclose(load_image(path, allow_resize=True), 1.0)

    def test_upscaling_refused(self, tmp_path):
        path = write_csv(tmp_path / "small.csv", np.zeros((10, 10)))
        with pytest.raises(DataError, match="10x10"):
            load_image(path, allow_resize=True)

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(b"\x89PNG")
        with pytest.raises(DataError, match="unsupported image format"):
            load_image(path)

    def test_pgm_ascii_with_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        img = read_image_pgm(path)
        assert img == pytest.approx(
            np.array([[0.0, 1.0], [128 / 255, 64 / 255]]))

    def test_pgm_binary(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_image_pgm(path)
        assert img == pytest.approx(
            np.array([[0.0, 1.0], [128 / 255, 64 / 255]]))

    def test_pgm_truncated(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(DataError, match="truncated"):
            read_image_pgm(path)

    def test_pgm_bad_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataError, match="P2/P5"):
            read_image_pgm(path)

    @pytest.mark.parametrize("sample, message", [
        ("-1", "img.pgm: negative intensity -1"),
        ("nan", "img.pgm: bad PGM sample"),
        ("1.5", "img.pgm: bad PGM sample"),
        ("9" * 400, "img.pgm: bad PGM sample"),
        ("16", "img.pgm: intensity 16 exceeds 15"),
        ("", "img.pgm: expected 2 samples, got 1"),
    ], ids=["negative", "nan", "fraction", "beyond-float", "beyond-maxval",
            "missing"])
    def test_pgm_ascii_samples_are_integers_in_range(self, tmp_path, sample,
                                                     message):
        path = tmp_path / "img.pgm"
        path.write_text(f"P2\n2 1\n15\n0 {sample}\n")
        with pytest.raises(DataError) as info:
            read_image_pgm(path)
        assert str(info.value) == message

    def test_pgm_binary_sample_beyond_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([0, 200]))
        with pytest.raises(DataError, match="^img.pgm: intensity 200 exceeds 15$"):
            read_image_pgm(path)

    def test_csv_and_pgm_share_the_intensity_rule(self, tmp_path):
        # the same 8-bit image through either reader: the same floats
        # larger than the grid, so both are cropped and box-filtered alike
        grid = np.arange(21 * 22).reshape(21, 22) % 256
        csv = write_csv(tmp_path / "a.csv", grid)
        pgm = tmp_path / "a.pgm"
        pgm.write_text("P2 22 21 255\n" + " ".join(map(str, grid.ravel())) + "\n")
        assert np.array_equal(load_image(csv, allow_resize=True),
                              load_image(pgm, allow_resize=True))
        assert np.array_equal(read_image_pgm(pgm), grid / 255.0)

    def test_suffix_case_is_ignored(self, tmp_path):
        path = write_csv(tmp_path / "a.CSV", np.ones((20, 20)))
        assert np.array_equal(load_image(path), np.ones((20, 20)))

    def test_csv_that_is_not_utf8_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(DataError) as info:
            load_image(path)
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0x80 at offset 128"

    def test_unreadable_image_names_path(self, tmp_path):
        for name in ("gone.csv", "gone.pgm"):
            with pytest.raises(DataError, match=rf"^{re.escape(str(tmp_path / name))}: "
                               "No such file or directory$"):
                load_image(tmp_path / name)


class TestBinarizeAndCounts:
    def test_binarize_extremes(self):
        assert np.all(binarize(np.full((3, 3), 0.9)) == 1.0)
        assert np.all(binarize(np.full((3, 3), 0.1)) == 0.0)
        checker = np.indices((4, 4)).sum(axis=0) % 2 * 0.6 + 0.2
        assert np.array_equal(binarize(checker),
                              np.indices((4, 4)).sum(axis=0) % 2)

    def test_binarize_threshold_range(self):
        # `similarity` binarizes against a bare threshold, so it checks it
        for threshold in (0.0, 1.0):
            with pytest.raises(InvalidInputError,
                               match=r"threshold must lie in \(0,1\)"):
                similarity(np.zeros((2, 2)), np.zeros((2, 2)), threshold)

    def test_all_vector_extremes(self):
        cfg = VisionConfig()
        teacher = np.ones((20, 20))
        counts, n = match_counts(np.ones((20, 20)), teacher, cfg)
        assert n == 400 and np.all(counts == 400)
        counts, _ = match_counts(np.zeros((20, 20)), teacher, cfg)
        assert np.all(counts == 0)

    def test_two_by_two_enumeration(self):
        # each teacher pixel matches exactly 2 of the 4 input entries
        cfg = VisionConfig()
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        inp = np.array([[1.0, 1.0], [0.0, 0.0]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 4
        assert np.all(counts == 2)
        volts = modulation_voltages(counts, n, cfg.v_min, cfg.v_max)
        assert volts == pytest.approx(np.full((2, 2), 0.175))

    def test_corresponding_scope(self):
        cfg = VisionConfig(scope="corresponding")
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        inp = np.array([[1.0, 1.0], [0.0, 0.0]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 1
        assert np.array_equal(counts, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_abs_diff_predicate(self):
        cfg = VisionConfig(predicate="abs-diff", tau=0.1)
        teacher = np.array([[0.5, 0.0]])
        inp = np.array([[0.45, 0.8]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 2
        assert np.array_equal(counts, np.array([[1.0, 0.0]]))
        cfg2 = VisionConfig(predicate="abs-diff", tau=0.1, scope="corresponding")
        counts2, n2 = match_counts(inp, teacher, cfg2)
        assert n2 == 1
        assert np.array_equal(counts2, np.array([[1.0, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="shapes differ"):
            match_counts(np.zeros((2, 2)), np.zeros((3, 3)), VisionConfig())

    def test_voltage_map_validation(self):
        with pytest.raises(InvalidInputError):
            modulation_voltages(np.array([5.0]), 4, 0.0, 0.35)
        with pytest.raises(InvalidInputError):
            modulation_voltages(np.array([1.0]), 0, 0.0, 0.35)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            VisionConfig(predicate="fuzzy")
        with pytest.raises(InvalidInputError):
            VisionConfig(scope="rows")
        with pytest.raises(InvalidInputError):
            VisionConfig(v_min=0.4, v_max=0.3)
        with pytest.raises(InvalidInputError):
            VisionConfig(dt=0.1, pulse_dt=0.05)


class TestGridStepping:
    def test_grid_step_matches_scalar_device(self):
        params = DeviceParams()
        rng = np.random.default_rng(3)
        w = rng.random((5, 5))
        v = rng.uniform(-0.5, 0.5, (5, 5))
        got = pulse(params, w, v, 1e-3, 1)
        want = np.array([[step(params, w[i, j], v[i, j], 1e-3)
                          for j in range(5)] for i in range(5)])
        np.testing.assert_array_equal(got, want)

    def test_grid_step_matches_scalar_device_off_unit_exponent(self):
        # numpy's array pow can differ from scalar pow in the last bit; one
        # cell of this grid did before rates were computed per voltage
        params = DeviceParams(alpha_on=1.7, alpha_off=1.7)
        rng = np.random.default_rng(0)
        w = np.full((20, 20), 0.5)
        v = rng.uniform(-0.6, 0.6, (20, 20))
        got = pulse(params, w, v, 1e-3, 1)
        want = np.array([[step(params, w[i, j], v[i, j], 1e-3)
                          for j in range(20)] for i in range(20)])
        np.testing.assert_array_equal(got, want)

    def test_grid_step_respects_bounds(self):
        params = DeviceParams()
        w = np.array([[params.w_off, params.w_on]])
        v = np.array([[0.35, -0.35]])
        out = pulse(params, w, v, 1.0, 1)
        np.testing.assert_array_equal(out, w)  # saturated cells stay put


class TestTraining:
    def test_higher_count_means_lower_resistance(self):
        # one pulse; the matching cell must move further toward r_on
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        inp = np.array([[1.0, 1.0], [1.0, 0.0]])  # three 1s: count 3 vs 1
        cfg = VisionConfig(v_max=0.6)
        arr = train_pair(fresh_array(2), inp, teacher, cfg)
        n = arr.state
        assert n[0, 0] < n[0, 1]  # count 3 beats count 1

    def test_zero_count_cells_never_move(self):
        teacher = np.ones((2, 2))
        inp = np.zeros((2, 2))
        arr = train_pair(fresh_array(2), inp, teacher, VisionConfig())
        assert np.all(arr.w == arr.params.w_on)

    def test_repeated_training_saturates(self):
        teacher = np.ones((2, 2))
        inp = np.ones((2, 2))
        arr = fresh_array(2)
        previous = arr.state
        for _ in range(12):
            arr = train_pair(arr, inp, teacher, VisionConfig())
            current = arr.state
            assert np.all(current <= previous + 1e-15)
            previous = current
        assert np.all(arr.w == arr.params.w_off)

    def test_train_many_equals_sequential_pairs(self):
        rng = np.random.default_rng(9)
        teacher = binarize(rng.random((4, 4)))
        inputs = [binarize(rng.random((4, 4))) for _ in range(3)]
        cfg = VisionConfig()
        folded = train_many(fresh_array(4), inputs, teacher, cfg)
        manual = fresh_array(4)
        for img in inputs:
            manual = train_pair(manual, img, teacher, cfg)
        np.testing.assert_array_equal(folded.w, manual.w)

    def test_overflowing_rate_fails_only_on_a_cell_that_can_move(self):
        # every cell is driven at 0.5 V > 2 * v_on, where the rate
        # (v / v_on - 1) ** 1e308 overflows
        params = DeviceParams(alpha_on=1e308)
        cfg = VisionConfig(v_min=0.5, v_max=0.6)
        img = np.ones((2, 2))
        full = ArrayState(params, np.full((2, 2), params.w_off))
        np.testing.assert_array_equal(train_pair(full, img, img, cfg).w, full.w)
        with pytest.raises(DataError, match="^training pulse: .*beyond the float"):
            train_pair(fresh_array(2, params), img, img, cfg)

    def test_teacher_of_another_shape_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^teacher shape \(3, 3\) does "
                           r"not match array shape \(2, 2\)$"):
            train_pair(fresh_array(2), np.ones((3, 3)), np.ones((3, 3)),
                       VisionConfig())

    def test_unreachable_threshold_rejected(self):
        cfg = VisionConfig(v_max=0.1)
        with pytest.raises(InvalidInputError, match="v_on"):
            train_pair(fresh_array(2), np.ones((2, 2)), np.ones((2, 2)), cfg)

    def test_voltage_span_beyond_float_range_is_refused(self):
        # v_max - v_min would overflow every voltage to inf or nan; the
        # training pulse skips `pulse`'s checks, so the config refuses it
        with pytest.raises(InvalidInputError, match=r"^v_max must lie within the "
                           r"float range of v_min=-1e\+308, got 1e\+308$"):
            VisionConfig(v_min=-1e308, v_max=1e308)

    def test_array_state_validation(self):
        with pytest.raises(InvalidInputError):
            ArrayState(DeviceParams(), np.array([0.0, 1.0]))  # 1-D
        with pytest.raises(InvalidInputError):
            ArrayState(DeviceParams(), np.full((2, 2), 1.5))  # out of bounds
        with pytest.raises(InvalidInputError,
                           match=r"^cell grid must not be empty, got shape \(0, 3\)$"):
            ArrayState(DeviceParams(), np.zeros((0, 3)))

    def test_array_holds_a_read_only_copy(self):
        # the state grid is computed once per array, so its cells must not
        # change under it; the caller's grid stays writable and its own
        w = np.full((2, 2), 0.5)
        array = ArrayState(DeviceParams(), w)
        w[0, 0] = 0.0
        assert w.flags.writeable and array.w[0, 0] == 0.5
        assert not array.w.flags.writeable
        np.testing.assert_array_equal(array.state, np.full((2, 2), 0.5))


class TestStateAndSimilarity:
    def test_state_extremes(self):
        params = DeviceParams()
        fresh = fresh_array(2, params)
        assert np.all(fresh.state == 1.0)
        set_arr = ArrayState(params, np.full((2, 2), params.w_off))
        assert np.all(set_arr.state == 0.0)
        mid = ArrayState(params, np.full((2, 2), 0.5))
        assert mid.state == pytest.approx(np.full((2, 2), 0.5))

    def test_similarity_extremes(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        perfect = 1.0 - binarize(img)
        assert similarity(perfect, img) == 0.0
        assert similarity(1.0 - perfect, img) == 1.0

    def test_similarity_half_mismatch(self):
        img = np.ones((2, 2))
        state = np.array([[0.0, 0.0], [1.0, 1.0]])  # two cells off by 1
        assert similarity(state, img) == pytest.approx(0.5)

    def test_similarity_symmetry_and_bounds(self):
        rng = np.random.default_rng(21)
        a = binarize(rng.random((6, 6)))
        b = binarize(rng.random((6, 6)))
        assert similarity(1.0 - a, b) == pytest.approx(similarity(1.0 - b, a))
        for _ in range(5):
            state = rng.random((6, 6))
            score = similarity(state, binarize(rng.random((6, 6))))
            assert 0.0 <= score <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            similarity(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_midpoint_threshold(self):
        assert midpoint_threshold([0.1, 0.1], [0.5, 0.5]) == pytest.approx(0.3)
        with pytest.raises(InvalidInputError):
            midpoint_threshold([], [0.5])


class TestClassify:
    def test_infer_config_validation(self):
        with pytest.raises(InvalidInputError):
            VisionConfig(similarity_threshold=0.0)
        # the label drive and boundary are checked against the device
        for name, value in [("label_learn_v", 0.1), ("label_forget_v", -0.1),
                            ("label_boundary_ohm", 10e3)]:
            cfg = VisionConfig(similarity_threshold=0.3, **{name: value})
            with pytest.raises(InvalidInputError, match=f"^{name} must"):
                cfg.check_classify(DeviceParams())

    @pytest.mark.parametrize("cfg", [
        VisionConfig(),
        VisionConfig(similarity_threshold=0.3, label_learn_v=0.1),
    ], ids=["no_threshold", "label_learn_v"])
    def test_classify_checks_config_against_array_device(self, cfg):
        arr = ArrayState(DeviceParams(), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            classify(arr, np.zeros((2, 2)), cfg)

    def test_labels_follow_score(self):
        params = DeviceParams()
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        learned = ArrayState(params, binarize(img) * params.w_off)
        cfg = VisionConfig(similarity_threshold=0.3)
        hit = classify(learned, img, cfg)
        assert hit.label == "cat"
        assert hit.score == 0.0
        assert hit.label_resistance == pytest.approx(params.r_on)
        miss = classify(learned, 1.0 - img, cfg)
        assert miss.label == "non-cat"
        assert miss.label_resistance == pytest.approx(params.r_off)

    def test_classify_deterministic(self):
        params = DeviceParams()
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        arr = ArrayState(params, binarize(img) * 0.7)
        cfg = VisionConfig(similarity_threshold=0.3)
        assert classify(arr, img, cfg) == classify(arr, img, cfg)

    @pytest.mark.parametrize("device,change", [
        (DeviceParams(k_on=5.0), {}),  # the array's, so the label device's
        (DeviceParams(), {"dt": 1.0001e-4}),  # the same 100 steps, each longer
        (DeviceParams(), {"label_pulse_s": 0.02}),
    ], ids=["label_device", "dt", "label_pulse_s"])
    def test_label_memo_keeps_configs_apart(self, device, change):
        # the label pulse is remembered per drive; two runs that differ in
        # one value it reads, called in turn, each read their own pulse
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        # 0.01 s at the learning voltage leaves the label short of w_off
        base_cfg = VisionConfig(similarity_threshold=0.3, label_pulse_s=0.01)
        runs = [(DeviceParams(), base_cfg), (device, replace(base_cfg, **change))]
        wants = []
        for params, cfg in runs:
            n = int(round(cfg.label_pulse_s / cfg.dt))
            wants.append(trajectory(params, [cfg.label_learn_v] * n,
                                    cfg.dt, params.w_on)[-1])
        assert wants[0] != wants[1]
        for (params, cfg), want in list(zip(runs, wants)) * 2:
            learned = ArrayState(params, binarize(img) * params.w_off)
            assert classify(learned, img, cfg).label_resistance == want

    def test_label_memo_is_bounded(self):
        maxsize = _label_resistance.cache_info().maxsize
        assert maxsize is not None
        arr = ArrayState(DeviceParams(), np.zeros((2, 2)))
        for k in range(maxsize + 5):
            cfg = VisionConfig(similarity_threshold=0.3, label_pulse_s=(k + 1) * 1e-4)
            classify(arr, np.zeros((2, 2)), cfg)
        assert _label_resistance.cache_info().currsize <= maxsize


@pytest.fixture(scope="module")
def demo_array():
    teacher = load_image(DATA / "train" / "teacher.csv")
    inputs = [load_image(p)
              for p in sorted((DATA / "train").glob("input_*.csv"))]
    array = train_many(new_array(DeviceParams()), inputs, teacher, VisionConfig())
    return array, teacher


class TestDemoSuite:
    def test_high_count_cells_switch(self, demo_array):
        arr, teacher = demo_array
        n = arr.state
        bits = binarize(teacher)
        assert n[bits == 1].max() < 0.2
        assert np.all(n[bits == 0] == 1.0)  # background never crosses v_on

    def test_calibration_clusters_separate(self, demo_array):
        arr, _ = demo_array
        state = arr.state
        pos = [similarity(state, load_image(p))
               for p in sorted((DATA / "calibration").glob("cat_*.csv"))]
        neg = [similarity(state, load_image(p))
               for p in sorted((DATA / "calibration").glob("other_*.csv"))]
        assert max(pos) < 0.15 < 0.4 < min(neg)
        assert midpoint_threshold(pos, neg) == pytest.approx(THETA, abs=5e-3)

    def test_ten_of_ten_labels(self, demo_array):
        arr, _ = demo_array
        cfg = VisionConfig(similarity_threshold=THETA)
        for path in sorted((DATA / "test").glob("*.csv")):
            want = "cat" if path.name.startswith("cat") else "non-cat"
            assert classify(arr, load_image(path), cfg).label == want, path.name

    def test_state_csv_deterministic(self, demo_array, tmp_path):
        arr, _ = demo_array
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_state_csv(arr.state, a)
        write_state_csv(arr.state, b)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 20


def _stage_trace():
    return StageTrace(mod_v=np.zeros(3), scheme_code=np.zeros(3, np.int8),
                      r_ohm=np.ones(3), s_v=np.zeros(3), resp_v=np.zeros(3),
                      p_w=np.zeros(3), r_on=1.0, reset_r_ohm=1.0)


@pytest.mark.parametrize("make", [
    lambda: new_array(DeviceParams()),
    lambda: IVTrace(np.arange(3.0), np.zeros(3), np.zeros(3)),
    _stage_trace,
    lambda: SimTrace(np.arange(3.0), 1.0, ("food",), np.zeros((1, 3)),
                     (_stage_trace(),)),
], ids=["ArrayState", "IVTrace", "StageTrace", "SimTrace"])
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2
