import math
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_sor
from ngridsim.metrics import LabeledScore, roc_auc
from ngridsim.sor import (BoostedModel, FeatureRow, SorTable, Stump,
                          ValidationError, build_sor_table, evaluate,
                          load_feature_rows, load_model, load_sor_table,
                          save_model, save_sor_table, score, train,
                          training_loss_curve)
from scalar_sor import sigmoid


def separable_rows(n=100, seed=0, noise=0.0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x = rng.uniform(0.0, 10.0)
        label = 1 if x > 5.0 else 0
        if noise and rng.random() < noise:
            label = 1 - label
        rows.append(FeatureRow(feeder_id="F1", hour=i % 24,
                               numeric={"x": x}, label=label))
    return rows


class TestTrain:
    def test_separable_reaches_perfect_training_auc(self):
        rows = separable_rows(100, seed=1)
        model = train(rows, n_stumps=50)
        samples = [LabeledScore(r.label, score(model, r)) for r in rows]
        assert roc_auc(samples) == 1.0

    def test_single_class_raises(self):
        rows = [FeatureRow("F1", h, {"x": float(h)}, label=0) for h in range(10)]
        with pytest.raises(ValueError):
            train(rows)

    def test_no_features_raises(self):
        rows = [FeatureRow("F1", h, {}, label=h % 2) for h in range(10)]
        with pytest.raises(ValueError):
            train(rows)

    def test_zero_stumps_scores_class_prior(self):
        rows = separable_rows(40, seed=2)
        prior = sum(r.label for r in rows) / len(rows)
        model = train(rows, n_stumps=0)
        assert not model.stumps
        for r in rows[:5]:
            assert score(model, r) == pytest.approx(prior)

    def test_loss_non_increasing(self):
        rows = separable_rows(120, seed=3, noise=0.15)
        model = train(rows, n_stumps=60)
        curve = training_loss_curve(rows, model)
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_loss_curve_needs_labels(self):
        rows = separable_rows(20, seed=3)
        model = train(rows, n_stumps=5)
        with pytest.raises(ValueError, match="labeled"):
            training_loss_curve(rows + [FeatureRow("F1", 0, {"x": 1.0})], model)

    def test_deterministic_round_trip(self):
        rows = separable_rows(80, seed=4, noise=0.1)
        m1 = train(rows, n_stumps=30)
        m2 = train(rows, n_stumps=30)
        assert m1 == m2
        assert [score(m1, r) for r in rows] == [score(m2, r) for r in rows]

    def test_categorical_split(self):
        rng = random.Random(5)
        rows = []
        for i in range(100):
            season = rng.choice(["winter", "spring", "summer", "fall"])
            label = 1 if season in ("winter", "summer") else 0
            rows.append(FeatureRow("F1", i % 24, {}, {"season": season}, label=label))
        model = train(rows, n_stumps=20)
        samples = [LabeledScore(r.label, score(model, r)) for r in rows]
        assert roc_auc(samples) == 1.0

    def test_sums_add_left_to_right(self):
        """Residual and hessian sums add left to right from 0.0: in row order
        within a categorical level, and in stable sort order along a numeric
        feature. Not pairwise, as ``np.sum`` adds, nor compensated, as Python
        3.12's ``sum`` adds, so leaf values do not depend on the interpreter."""

        def in_order(values):
            total = 0.0
            for v in values:
                total += v
            return total

        def assert_leaf_sums(rows, goes_left, order):
            (stump,) = train(rows, n_stumps=1, min_leaf_count=1).stumps
            prior = sum(r.label for r in rows) / len(rows)
            p = sigmoid(math.log(prior / (1.0 - prior)))
            resid = [r.label - p for r in rows]
            hess = [p * (1.0 - p)] * len(rows)
            left = [i for i in order if goes_left(stump, rows[i])]
            left_r, left_h = in_order(resid[i] for i in left), in_order(hess[i] for i in left)
            assert stump.left_value == left_r / left_h
            assert stump.right_value == (in_order(resid) - left_r) / (in_order(hess) - left_h)
            return left_r, [resid[i] for i in left], [resid[i] for i in sorted(left)]

        rows = [FeatureRow("F1", i % 24, {}, {"c": "ab"[i % 2]}, label=int(i % 3 == 0))
                for i in range(50)]
        assert_leaf_sums(rows, lambda s, r: r.categorical["c"] in s.levels, range(len(rows)))

        # Tied values, so the stable sort order is not row order; here the
        # left sum in sort order differs from both the row-order sum and the
        # pairwise sum of the same residuals.
        rows = [FeatureRow("F1", i % 24, {"x": float(i * 5 % 8)}, label=int(i % 3 == 0))
                for i in range(60)]
        stable = sorted(range(len(rows)), key=lambda i: rows[i].numeric["x"])
        left_r, in_sort, in_rows = assert_leaf_sums(
            rows, lambda s, r: r.numeric["x"] < s.threshold, stable)
        assert len(in_sort) == 37
        assert left_r != in_order(in_rows) and left_r != float(np.sum(in_sort))

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, -0.1, 0.0, -0.0])
    def test_learning_rate_must_be_finite_and_positive(self, learning_rate):
        """A rate that is not finite makes a model no loader accepts; a
        negative one inverts every stump and zero leaves only the prior."""
        rows = [FeatureRow("F1", h, {"x": float(h)}, label=h % 2) for h in range(10)]
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            train(rows, n_stumps=3, learning_rate=learning_rate)

    def test_feature_both_numeric_and_categorical_rejected(self):
        rows = [FeatureRow("F1", h, {"x": float(h)}, {"x": "ab"[h % 2]}, label=h % 2)
                for h in range(10)]
        with pytest.raises(ValueError, match="'x' is both numeric and categorical"):
            train(rows, n_stumps=3)


def model_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


def oracle_rows(numeric, categorical, labels):
    """One row per label, hour = row index; columns as name -> values."""
    return [FeatureRow("F1", i, {k: v[i] for k, v in numeric.items()},
                       {k: v[i] for k, v in categorical.items()}, label=y)
            for i, y in enumerate(labels)]


# Edge cases the oracle test always runs, as (rows, n_stumps, learning_rate,
# min_leaf_count); TestOracle.test_edge_cases_reach_their_branch checks that
# each reaches the branch it is named for.
TWIN_COLUMNS = (oracle_rows({"b": [3.0, 1.0, 2.0, 1.0, 0.5, 4.0] * 3,
                             "a": [3.0, 1.0, 2.0, 1.0, 0.5, 4.0] * 3},
                            {}, [1, 0, 1, 0, 0, 1] * 3), 6, 0.3, 2)
SATURATING = (oracle_rows({"x": [float(i) for i in range(12)]}, {},
                          [int(i >= 6) for i in range(12)]), 40, 1.0, 1)
NO_VALID_SPLIT = (oracle_rows({"x": [-0.0, 0.0, 1.0, 2.0, 1.0, -0.0]},
                              {"k": ["p"] * 6}, [0, 1, 0, 1, 1, 0]), 5, 0.1, 4)
# Levels by mean residual: b (-0.5), a (0.0), c (+0.5). Prefixes {b} and
# {a, b} split the rows 4:8 and 8:4 with equal gain; ("a", "b") < ("b",).
CATEGORICAL_TIE = (oracle_rows({}, {"k": list("bbbbaaaacccc")}, [0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1]),
                   1, 0.1, 1)
NO_STUMPS = (oracle_rows({"x": [1.0, 2.0, 3.0]}, {"k": ["p", "q", "p"]}, [0, 1, 1]), 0, 0.1, 1)

VALUES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0 + 2.0 ** -52, 2.0, -3.5]) | st.floats(-8.0, 8.0)


@st.composite
def boosting_cases(draw):
    """Small mixed datasets: repeated, constant and signed-zero numeric
    values, twin numeric columns, single-level categoricals, and leaf-count
    limits up to the row count."""
    n = draw(st.integers(2, 16))
    numeric = {name: draw(st.lists(VALUES, min_size=n, max_size=n))
               for name in draw(st.sets(st.sampled_from("cde"), max_size=3))}
    if numeric and draw(st.booleans()):
        numeric[draw(st.sampled_from("bf"))] = list(numeric[min(numeric)])
    categorical = {}
    for name in draw(st.sets(st.sampled_from("km"), max_size=2)):
        levels = draw(st.sampled_from(["p", "pq", "pqr"]))
        categorical[name] = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    if not numeric and not categorical:
        numeric["c"] = draw(st.lists(VALUES, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
                  .filter(lambda ys: 0 < sum(ys) < len(ys)))
    return (oracle_rows(numeric, categorical, labels), draw(st.integers(0, 8)),
            draw(st.sampled_from([0.1, 0.3, 1.0])), draw(st.integers(1, n)))


class TestOracle:
    """The columnar booster against the per-row booster in scalar_sor.py."""

    @settings(max_examples=150, deadline=None)
    @given(case=boosting_cases())
    @example(case=TWIN_COLUMNS)
    @example(case=SATURATING)
    @example(case=NO_VALID_SPLIT)
    @example(case=NO_STUMPS)
    @example(case=CATEGORICAL_TIE)
    def test_matches_per_row_booster(self, case):
        rows, n_stumps, learning_rate, min_leaf_count = case
        model = train(rows, n_stumps, learning_rate, min_leaf_count)
        oracle = scalar_sor.train(rows, n_stumps, learning_rate, min_leaf_count)
        assert model == oracle
        assert model_bytes(model) == model_bytes(oracle)
        want = [scalar_sor.score(oracle, r).hex() for r in rows]
        assert [score(model, r).hex() for r in rows] == want
        table = build_sor_table(model, rows)
        assert [table.get(r.feeder_id, r.hour).hex() for r in rows] == want

    def test_edge_cases_reach_their_branch(self):
        model = train(*TWIN_COLUMNS)
        assert model.stumps and {s.feature for s in model.stumps} == {"a"}
        model = train(*SATURATING)
        before_last = BoostedModel(model.base_score, model.learning_rate, model.stumps[:-1])
        raw = [scalar_sor.raw_score(before_last, r) for r in SATURATING[0]]
        assert max(map(abs, raw)) > 28.0  # p * (1 - p) < 1e-12: the hessian floor holds
        assert train(*NO_VALID_SPLIT).stumps == ()
        assert train(*NO_STUMPS).stumps == ()
        (stump,) = train(*CATEGORICAL_TIE).stumps
        assert stump.levels == ("a", "b")


class TestScore:
    def test_empty_model_gives_half(self):
        model = BoostedModel(base_score=0.0, learning_rate=0.1, stumps=())
        assert score(model, FeatureRow("F1", 0, {"x": 1.0})) == 0.5

    def test_single_stump_closed_form(self):
        stump = Stump("x", "numeric", 5.0, None, -2.0, 2.0)
        model = BoostedModel(base_score=0.0, learning_rate=1.0, stumps=(stump,))
        got = score(model, FeatureRow("F1", 0, {"x": 7.0}))
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
        assert got == pytest.approx(0.8808, abs=1e-4)

    def test_scores_strictly_inside_unit_interval(self):
        rows = separable_rows(60, seed=6)
        model = train(rows, n_stumps=100)
        for r in rows:
            assert 0.0 < score(model, r) < 1.0

    def test_missing_numeric_feature_raises(self):
        stump = Stump("x", "numeric", 5.0, None, -1.0, 1.0)
        model = BoostedModel(0.0, 1.0, (stump,))
        with pytest.raises(ValueError):
            score(model, FeatureRow("F1", 0, {"y": 1.0}))

    def test_unseen_categorical_level_routes_right(self):
        stump = Stump("season", "categorical", None, ("winter",), -1.0, 1.0)
        model = BoostedModel(0.0, 1.0, (stump,))
        left = score(model, FeatureRow("F1", 0, {}, {"season": "winter"}))
        unseen = score(model, FeatureRow("F1", 0, {}, {"season": "monsoon"}))
        assert left == pytest.approx(sigmoid(-1.0))
        assert unseen == pytest.approx(sigmoid(1.0))


class TestEvaluate:
    def test_constant_scorer_gets_half_auc(self):
        model = BoostedModel(base_score=0.0, learning_rate=0.1, stumps=())
        rows = [FeatureRow("F1", i, {"x": float(i)}, label=i % 2) for i in range(10)]
        rep = evaluate(model, rows)
        assert rep.roc_auc == pytest.approx(0.5)

    def test_perfect_model_on_held_out(self):
        rows = separable_rows(200, seed=7)
        model = train(rows[:150], n_stumps=60)
        rep = evaluate(model, rows[150:])
        assert rep.fm == pytest.approx(1.0)

    def test_matches_external_metric_computation(self):
        from ngridsim.metrics import metric_report
        rows = separable_rows(100, seed=8, noise=0.2)
        model = train(rows[:70], n_stumps=40)
        held = rows[70:]
        rep = evaluate(model, held)
        external = metric_report([LabeledScore(r.label, score(model, r)) for r in held])
        assert rep == external


class TestSorTable:
    def test_build_from_model(self):
        model = BoostedModel(base_score=0.0, learning_rate=0.1, stumps=())
        rows = [FeatureRow(f"F{f}", h, {"x": 0.0}) for f in range(3) for h in range(24)]
        table = build_sor_table(model, rows)
        assert table.horizon == 24
        assert table.get("F1", 5) == 0.5

    def test_duplicate_row_rejected(self):
        model = BoostedModel(0.0, 0.1, ())
        rows = [FeatureRow("F1", 0, {"x": 0.0}), FeatureRow("F1", 0, {"x": 1.0})]
        with pytest.raises(ValueError, match="duplicate"):
            build_sor_table(model, rows)

    def test_load_all_zero_table(self, tmp_path):
        path = tmp_path / "sor.csv"
        lines = ["feeder_id,hour,probability"]
        lines += [f"F{f},{h},0.0" for f in range(10) for h in range(24)]
        path.write_text("\n".join(lines) + "\n")
        table = load_sor_table(path)
        assert table.probabilities.shape == (10, 24)
        assert (table.probabilities == 0.0).all()

    def test_missing_entry_named(self, tmp_path):
        path = tmp_path / "sor.csv"
        lines = ["feeder_id,hour,probability"]
        lines += [f"F{f},{h},0.1" for f in range(5) for h in range(24)
                  if not (f == 3 and h == 17)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"F3.*17"):
            load_sor_table(path)

    def test_out_of_range_probability(self, tmp_path):
        path = tmp_path / "sor.csv"
        path.write_text("feeder_id,hour,probability\nF1,0,1.3\n")
        with pytest.raises(ValueError, match="1.3"):
            load_sor_table(path)

    def test_save_load_round_trip(self, tmp_path):
        table = SorTable({("F1", h): h / 24.0 for h in range(24)})
        path = tmp_path / "sor.csv"
        save_sor_table(table, path)
        again = load_sor_table(path)
        assert again.feeder_ids == table.feeder_ids
        for got, want in zip(again.probabilities.flat, table.probabilities.flat, strict=True):
            assert got == pytest.approx(want)
        assert b"\r" not in path.read_bytes()
        exact = SorTable({("F1", h): h / 32.0 for h in range(24)})
        save_sor_table(exact, path)
        assert load_sor_table(path) == exact


    def test_one_read_only_array(self):
        entries = {("F2", 0): 0.25, ("F2", 1): 0.0, ("F0", 0): 1.0, ("F0", 1): 0.5}
        table = SorTable(entries)
        assert table.feeder_ids == ("F0", "F2") and table.horizon == 2
        np.testing.assert_array_equal(table.probabilities, [[1.0, 0.5], [0.25, 0.0]])
        assert table.get("F2", 0) == 0.25
        with pytest.raises(ValueError):
            table.probabilities[0, 0] = 0.0
        with pytest.raises(KeyError):
            table.get("F0", -1)
        assert table == SorTable(dict(reversed(entries.items())))
        assert table != SorTable({**entries, ("F2", 1): 0.125})

    @pytest.mark.parametrize("entries, message", [
        ({("F1", 0): 0.1, ("F1", -1): 0.1}, "has entry outside scenario: feeder 'F1' hour -1"),
        ({("F1", 0): 0.1, ("F1", 2): 0.1, ("F2", 0): 0.0, ("F2", 1): 0.0, ("F2", 2): 0.0},
         "missing entry for feeder 'F1' hour 1"),
        ({("F1", 0): 0.1, ("F1", 2): 0.1, ("F1", -2): 0.1}, "missing entry for feeder 'F1' hour 1"),
        ({("F1", 0): 0.1, ("F1", 1): math.nan}, "probability nan out of [0, 1]"),
        ({}, "empty SoR table"),
    ], ids=["negative-hour", "missing", "missing-before-negative", "nan", "empty"])
    def test_validated_on_construction(self, entries, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SorTable(entries)

    @pytest.mark.parametrize("rows, message", [
        ("F1,0,0.1\nF1,1,1.5\n", "probability 1.5 out of [0, 1] for feeder 'F1' hour 1"),
        ("F1,0,0.1\nF1,1,nan\n", "probability nan out of [0, 1] for feeder 'F1' hour 1"),
        ("F1,0,0.1\nF1,2,0.1\n", "SoR table missing entry for feeder 'F1' hour 1"),
        ("F1,0,0.1\nF1,-1,0.1\n", "SoR table has entry outside scenario: feeder 'F1' hour -1"),
        ("", "empty SoR table"),
    ], ids=["above-one", "nan", "missing", "negative-hour", "empty"])
    def test_load_names_file(self, tmp_path, rows, message):
        """Each of the table's problems, read from a CSV, is named after the file."""
        path = tmp_path / "sor.csv"
        path.write_text("feeder_id,hour,probability\n" + rows)
        with pytest.raises(ValidationError) as caught:
            load_sor_table(path)
        assert str(caught.value) == f"{path}: {message}"

class TestModelFile:
    def test_round_trip(self, tmp_path):
        rows = separable_rows(60, seed=9, noise=0.1)
        model = train(rows, n_stumps=20)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again == model

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99, "base_score": 0, "learning_rate": 0.1, "stumps": []}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)


class TestFeatureCsv:
    def test_cat_prefix_marks_categorical(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("feeder_id,hour,label,gust,cat:season\n"
                        "F1,0,1,22.5,winter\n"
                        "F1,1,0,3.0,summer\n")
        rows = load_feature_rows(path, require_label=True)
        assert rows[0].numeric == {"gust": 22.5}
        assert rows[0].categorical == {"season": "winter"}
        assert rows[0].label == 1 and rows[1].label == 0

    def test_feature_named_twice_rejected(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("feeder_id,hour,label,gust,cat:gust\nF1,0,1,22.5,high\n")
        with pytest.raises(ValidationError, match=r"train\.csv: columns 'gust' and 'cat:gust'"):
            load_feature_rows(path, require_label=True)

    def test_label_required_when_asked(self, tmp_path):
        path = tmp_path / "score.csv"
        path.write_text("feeder_id,hour,gust\nF1,0,1.0\n")
        with pytest.raises(ValueError, match="label"):
            load_feature_rows(path, require_label=True)
        rows = load_feature_rows(path)
        assert rows[0].label is None
