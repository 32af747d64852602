"""Array-vision tests.

Covered invariants:
  * CSV/PGM ingestion, 8-bit auto-scaling, range errors that print plain
    floats, dimension/resize policing;
  * count semantics for both predicates and scopes, including the 2x2
    enumeration case and full/zero-match extremes;
  * vectorized grid stepping is bitwise identical to the oracle's scalar
    step, also for rate exponents other than 1;
  * training monotonicity and saturation; a rate beyond the float range
    fails a training pulse only where a cell can move;
  * the remembered label pulse: configs that differ in one field the
    pulse reads each get their own resistance, and the memo stays bounded;
  * similarity extremes and classification against the shipped demo data
    (clusters separate, 10/10 labels with the frozen threshold).
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memassoc.device import DeviceParams, pulse, trajectory
from memassoc.errors import DataError, InvalidInputError
from memassoc.vision import (
    _label_resistance,
    ArrayState,
    InferConfig,
    TrainConfig,
    binarize,
    classify,
    load_image,
    match_counts,
    midpoint_threshold,
    modulation_voltages,
    new_array,
    read_image_pgm,
    similarity,
    state_grid,
    train_many,
    train_pair,
    write_state_csv,
)
from oracle import step

DATA = Path(__file__).resolve().parents[1] / "data" / "vision"
THETA = 0.2911  # frozen from the shipped calibration split


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


class TestBinarizeAndCounts:
    def test_binarize_extremes(self):
        assert np.all(binarize(np.full((3, 3), 0.9)) == 1.0)
        assert np.all(binarize(np.full((3, 3), 0.1)) == 0.0)
        checker = np.indices((4, 4)).sum(axis=0) % 2 * 0.6 + 0.2
        assert np.array_equal(binarize(checker),
                              np.indices((4, 4)).sum(axis=0) % 2)

    def test_binarize_threshold_range(self):
        with pytest.raises(InvalidInputError):
            binarize(np.zeros((2, 2)), 0.0)

    def test_all_vector_extremes(self):
        cfg = TrainConfig()
        teacher = np.ones((20, 20))
        counts, n = match_counts(np.ones((20, 20)), teacher, cfg)
        assert n == 400 and np.all(counts == 400)
        counts, _ = match_counts(np.zeros((20, 20)), teacher, cfg)
        assert np.all(counts == 0)

    def test_two_by_two_enumeration(self):
        # each teacher pixel matches exactly 2 of the 4 input entries
        cfg = TrainConfig()
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        inp = np.array([[1.0, 1.0], [0.0, 0.0]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 4
        assert np.all(counts == 2)
        volts = modulation_voltages(counts, n, cfg.v_min, cfg.v_max)
        assert volts == pytest.approx(np.full((2, 2), 0.175))

    def test_corresponding_scope(self):
        cfg = TrainConfig(scope="corresponding")
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        inp = np.array([[1.0, 1.0], [0.0, 0.0]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 1
        assert np.array_equal(counts, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_abs_diff_predicate(self):
        cfg = TrainConfig(predicate="abs-diff", tau=0.1)
        teacher = np.array([[0.5, 0.0]])
        inp = np.array([[0.45, 0.8]])
        counts, n = match_counts(inp, teacher, cfg)
        assert n == 2
        assert np.array_equal(counts, np.array([[1.0, 0.0]]))
        cfg2 = TrainConfig(predicate="abs-diff", tau=0.1, scope="corresponding")
        counts2, n2 = match_counts(inp, teacher, cfg2)
        assert n2 == 1
        assert np.array_equal(counts2, np.array([[1.0, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="shapes differ"):
            match_counts(np.zeros((2, 2)), np.zeros((3, 3)), TrainConfig())

    def test_voltage_map_validation(self):
        with pytest.raises(InvalidInputError):
            modulation_voltages(np.array([5.0]), 4, 0.0, 0.35)
        with pytest.raises(InvalidInputError):
            modulation_voltages(np.array([1.0]), 0, 0.0, 0.35)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(predicate="fuzzy")
        with pytest.raises(InvalidInputError):
            TrainConfig(scope="rows")
        with pytest.raises(InvalidInputError):
            TrainConfig(v_min=0.4, v_max=0.3)
        with pytest.raises(InvalidInputError):
            TrainConfig(dt=0.1, pulse_dt=0.05)


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
        cfg = TrainConfig(v_max=0.6)
        arr = train_pair(new_array(side=2), inp, teacher, cfg)
        n = state_grid(arr)
        assert n[0, 0] < n[0, 1]  # count 3 beats count 1

    def test_zero_count_cells_never_move(self):
        teacher = np.ones((2, 2))
        inp = np.zeros((2, 2))
        arr = train_pair(new_array(side=2), inp, teacher, TrainConfig())
        assert np.all(arr.w == arr.params.w_on)

    def test_repeated_training_saturates(self):
        teacher = np.ones((2, 2))
        inp = np.ones((2, 2))
        arr = new_array(side=2)
        previous = state_grid(arr).copy()
        for _ in range(12):
            arr = train_pair(arr, inp, teacher, TrainConfig())
            current = state_grid(arr)
            assert np.all(current <= previous + 1e-15)
            previous = current
        assert np.all(arr.w == arr.params.w_off)

    def test_train_many_equals_sequential_pairs(self):
        rng = np.random.default_rng(9)
        teacher = binarize(rng.random((4, 4)))
        inputs = [binarize(rng.random((4, 4))) for _ in range(3)]
        cfg = TrainConfig()
        folded = train_many(new_array(side=4), inputs, teacher, cfg)
        manual = new_array(side=4)
        for img in inputs:
            manual = train_pair(manual, img, teacher, cfg)
        np.testing.assert_array_equal(folded.w, manual.w)

    def test_overflowing_rate_fails_only_on_a_cell_that_can_move(self):
        # every cell is driven at 0.5 V > 2 * v_on, where the rate
        # (v / v_on - 1) ** 1e308 overflows
        params = DeviceParams(alpha_on=1e308)
        cfg = TrainConfig(v_min=0.5, v_max=0.6)
        img = np.ones((2, 2))
        full = ArrayState(params, np.full((2, 2), params.w_off))
        np.testing.assert_array_equal(train_pair(full, img, img, cfg).w, full.w)
        with pytest.raises(DataError, match="^training pulse: .*beyond the float"):
            train_pair(new_array(params, side=2), img, img, cfg)

    def test_unreachable_threshold_rejected(self):
        cfg = TrainConfig(v_max=0.1)
        with pytest.raises(InvalidInputError, match="v_on"):
            train_pair(new_array(side=2), np.ones((2, 2)), np.ones((2, 2)), cfg)

    def test_array_state_validation(self):
        with pytest.raises(InvalidInputError):
            ArrayState(DeviceParams(), np.array([0.0, 1.0]))  # 1-D
        with pytest.raises(InvalidInputError):
            ArrayState(DeviceParams(), np.full((2, 2), 1.5))  # out of bounds


class TestStateAndSimilarity:
    def test_state_extremes(self):
        params = DeviceParams()
        fresh = new_array(params, side=2)
        assert np.all(state_grid(fresh) == 1.0)
        set_arr = ArrayState(params, np.full((2, 2), params.w_off))
        assert np.all(state_grid(set_arr) == 0.0)
        mid = ArrayState(params, np.full((2, 2), 0.5))
        assert state_grid(mid) == pytest.approx(np.full((2, 2), 0.5))

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
            InferConfig(similarity_threshold=0.0)
        with pytest.raises(InvalidInputError):
            InferConfig(similarity_threshold=0.3, label_learn_v=0.1)
        with pytest.raises(InvalidInputError):
            InferConfig(similarity_threshold=0.3, label_forget_v=-0.1)
        with pytest.raises(InvalidInputError):
            InferConfig(similarity_threshold=0.3, label_boundary_ohm=10e3)

    def test_labels_follow_score(self):
        params = DeviceParams()
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        learned = ArrayState(params, binarize(img) * params.w_off)
        cfg = InferConfig(similarity_threshold=0.3)
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
        cfg = InferConfig(similarity_threshold=0.3)
        assert classify(arr, img, cfg) == classify(arr, img, cfg)

    @pytest.mark.parametrize("change", [
        {"label_device": DeviceParams(k_on=5.0)},
        {"dt": 1.0001e-4},        # the same 100 steps, each a little longer
        {"label_pulse_s": 0.02},
    ], ids=["label_device", "dt", "label_pulse_s"])
    def test_label_memo_keeps_configs_apart(self, change):
        # the label pulse is remembered per drive; two configs that differ
        # in one field it reads, called in turn, each read their own pulse
        params = DeviceParams()
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        learned = ArrayState(params, binarize(img) * params.w_off)
        # 0.01 s at the learning voltage leaves the label short of w_off
        base = InferConfig(similarity_threshold=0.3, label_pulse_s=0.01)
        other = replace(base, **change)
        wants = []
        for cfg in (base, other):
            n = int(round(cfg.label_pulse_s / cfg.dt))
            wants.append(trajectory(cfg.label_device, [cfg.label_learn_v] * n,
                                    cfg.dt, cfg.label_device.w_on)[-1])
        assert wants[0] != wants[1]
        for cfg, want in [(base, wants[0]), (other, wants[1])] * 2:
            assert classify(learned, img, cfg).label_resistance == want

    def test_label_memo_is_bounded(self):
        maxsize = _label_resistance.cache_info().maxsize
        assert maxsize is not None
        arr = ArrayState(DeviceParams(), np.zeros((2, 2)))
        for k in range(maxsize + 5):
            cfg = InferConfig(similarity_threshold=0.3, label_pulse_s=(k + 1) * 1e-4)
            classify(arr, np.zeros((2, 2)), cfg)
        assert _label_resistance.cache_info().currsize <= maxsize


@pytest.fixture(scope="module")
def demo_array():
    teacher = load_image(DATA / "train" / "teacher.csv")
    inputs = [load_image(p)
              for p in sorted((DATA / "train").glob("input_*.csv"))]
    return train_many(new_array(), inputs, teacher, TrainConfig()), teacher


class TestDemoSuite:
    def test_high_count_cells_switch(self, demo_array):
        arr, teacher = demo_array
        n = state_grid(arr)
        bits = binarize(teacher)
        assert n[bits == 1].max() < 0.2
        assert np.all(n[bits == 0] == 1.0)  # background never crosses v_on

    def test_calibration_clusters_separate(self, demo_array):
        arr, _ = demo_array
        state = state_grid(arr)
        pos = [similarity(state, load_image(p))
               for p in sorted((DATA / "calibration").glob("cat_*.csv"))]
        neg = [similarity(state, load_image(p))
               for p in sorted((DATA / "calibration").glob("other_*.csv"))]
        assert max(pos) < 0.15 < 0.4 < min(neg)
        assert midpoint_threshold(pos, neg) == pytest.approx(THETA, abs=5e-3)

    def test_ten_of_ten_labels(self, demo_array):
        arr, _ = demo_array
        cfg = InferConfig(similarity_threshold=THETA)
        for path in sorted((DATA / "test").glob("*.csv")):
            want = "cat" if path.name.startswith("cat") else "non-cat"
            assert classify(arr, load_image(path), cfg).label == want, path.name

    def test_state_csv_deterministic(self, demo_array, tmp_path):
        arr, _ = demo_array
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_state_csv(state_grid(arr), a)
        write_state_csv(state_grid(arr), b)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 20
