"""Hourly per-feeder outage risk ("state of risk") production.

Two routes to an hourly risk table: load it from a CSV, or score tabular
feeder-hour features with a small gradient-boosted decision-stump classifier
trained here under logistic loss. Stumps (depth-1 trees) keep the booster
auditable; numeric splits threshold on midpoints, categorical splits on a
level-membership set chosen by sorted-prefix grouping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .metrics import LabeledScore, MetricReport, metric_report
from .tables import ValidationError, read_table, write_table

MODEL_FORMAT_VERSION = 1
SOR_COLUMNS = ("feeder_id", "hour", "probability")

DEFAULT_N_STUMPS = 200
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_MIN_LEAF_COUNT = 5

_HESS_FLOOR = 1e-12


def _sum_in_order(values) -> float:
    """``values`` added left to right from 0.0: from Python 3.12 the built-in
    ``sum`` compensates rounding, so the model would depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class FeatureRow:
    """One feeder-hour observation: named numeric and categorical features."""

    feeder_id: str
    hour: int
    numeric: dict[str, float] = field(default_factory=dict)
    categorical: dict[str, str] = field(default_factory=dict)
    label: int | None = None


@dataclass(frozen=True)
class Stump:
    """Depth-1 tree. Numeric: value < threshold goes left. Categorical:
    membership in ``levels`` goes left; unseen levels go right."""

    feature: str
    kind: str  # "numeric" | "categorical"
    threshold: float | None
    levels: tuple[str, ...] | None
    left_value: float
    right_value: float

    def output(self, row: FeatureRow) -> float:
        if self.kind == "numeric":
            if self.feature not in row.numeric:
                raise ValueError(f"row missing numeric feature {self.feature!r}")
            return self.left_value if row.numeric[self.feature] < self.threshold else self.right_value
        if self.feature not in row.categorical:
            raise ValueError(f"row missing categorical feature {self.feature!r}")
        return self.left_value if row.categorical[self.feature] in self.levels else self.right_value


@dataclass(frozen=True)
class BoostedModel:
    base_score: float  # log-odds of the class prior
    learning_rate: float
    stumps: tuple[Stump, ...]

    def raw_score(self, row: FeatureRow) -> float:
        total = self.base_score
        for stump in self.stumps:
            total += self.learning_rate * stump.output(row)
        return total


def score(model: BoostedModel, row: FeatureRow) -> float:
    """Predicted outage probability, strictly inside (0, 1)."""
    return sigmoid(model.raw_score(row))


def _split_features(rows: list[FeatureRow]) -> tuple[list[str], list[str]]:
    numeric = sorted(rows[0].numeric)
    categorical = sorted(rows[0].categorical)
    for r in rows:
        if sorted(r.numeric) != numeric or sorted(r.categorical) != categorical:
            raise ValueError("inconsistent feature names across rows")
        for name in numeric:
            if not math.isfinite(r.numeric[name]):
                raise ValueError(f"non-finite value for feature {name!r}")
    return numeric, categorical


def train(rows: list[FeatureRow],
          n_stumps: int = DEFAULT_N_STUMPS,
          learning_rate: float = DEFAULT_LEARNING_RATE,
          min_leaf_count: int = DEFAULT_MIN_LEAF_COUNT) -> BoostedModel:
    """Stage-wise greedy boosting under logistic loss.

    Each stage fits one stump to the current residuals (label minus predicted
    probability), choosing the split with the largest squared-error reduction;
    leaf values are Newton steps (residual sum over hessian sum). Ties among
    equal-gain splits break to the lexicographically lowest feature name, then
    the lowest threshold, so training is deterministic.
    """
    if len(rows) < 2:
        raise ValueError("training needs at least 2 rows")
    labels = [r.label for r in rows]
    if any(lbl not in (0, 1) for lbl in labels):
        raise ValueError("every training row needs a 0/1 label")
    n_pos = sum(labels)
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("training needs both classes present")
    numeric_names, categorical_names = _split_features(rows)
    if not numeric_names and not categorical_names:
        raise ValueError("training needs at least one feature")

    n = len(rows)
    prior = n_pos / n
    base = math.log(prior / (1.0 - prior))
    raw = [base] * n

    # Sort orders and level groupings are label-independent: compute once.
    numeric_order = {
        name: sorted(range(n), key=lambda i: rows[i].numeric[name])
        for name in numeric_names
    }
    level_members: dict[str, dict[str, list[int]]] = {}
    for name in categorical_names:
        groups: dict[str, list[int]] = {}
        for i, r in enumerate(rows):
            groups.setdefault(r.categorical[name], []).append(i)
        level_members[name] = groups

    stumps: list[Stump] = []
    for _ in range(n_stumps):
        p = [sigmoid(v) for v in raw]
        resid = [labels[i] - p[i] for i in range(n)]
        hess = [max(p[i] * (1.0 - p[i]), _HESS_FLOOR) for i in range(n)]
        total_r = _sum_in_order(resid)
        total_h = _sum_in_order(hess)
        base_gain = total_r * total_r / n

        # best = (gain, feature, threshold_key, split description)
        best = None
        for name in numeric_names:
            order = numeric_order[name]
            vals = [rows[i].numeric[name] for i in order]
            sl_r = sl_h = 0.0
            for k in range(n - 1):
                i = order[k]
                sl_r += resid[i]
                sl_h += hess[i]
                if vals[k] == vals[k + 1]:
                    continue
                n_left = k + 1
                n_right = n - n_left
                if n_left < min_leaf_count or n_right < min_leaf_count:
                    continue
                sr_r = total_r - sl_r
                gain = sl_r * sl_r / n_left + sr_r * sr_r / n_right - base_gain
                thr = (vals[k] + vals[k + 1]) / 2.0
                key = (-gain, name, thr)
                if best is None or key < best[0]:
                    sr_h = total_h - sl_h
                    best = (key, Stump(name, "numeric", thr, None,
                                       sl_r / max(sl_h, _HESS_FLOOR),
                                       sr_r / max(sr_h, _HESS_FLOOR)))
        for name in categorical_names:
            groups = level_members[name]
            if len(groups) < 2:
                continue
            stats = []
            for level, members in groups.items():
                s_r = _sum_in_order(resid[i] for i in members)
                s_h = _sum_in_order(hess[i] for i in members)
                stats.append((s_r / len(members), level, s_r, s_h, len(members)))
            stats.sort()  # by mean residual, then level name: deterministic
            sl_r = sl_h = 0.0
            n_left = 0
            left_levels: list[str] = []
            for mean_r, level, s_r, s_h, count in stats[:-1]:
                sl_r += s_r
                sl_h += s_h
                n_left += count
                left_levels.append(level)
                n_right = n - n_left
                if n_left < min_leaf_count or n_right < min_leaf_count:
                    continue
                sr_r = total_r - sl_r
                gain = sl_r * sl_r / n_left + sr_r * sr_r / n_right - base_gain
                levels = tuple(sorted(left_levels))
                key = (-gain, name, levels)
                if best is None or key < best[0]:
                    sr_h = total_h - sl_h
                    best = (key, Stump(name, "categorical", None, levels,
                                       sl_r / max(sl_h, _HESS_FLOOR),
                                       sr_r / max(sr_h, _HESS_FLOOR)))
        if best is None:
            break  # no split satisfies the leaf-count constraint
        stump = best[1]
        stumps.append(stump)
        for i, r in enumerate(rows):
            raw[i] += learning_rate * stump.output(r)

    return BoostedModel(base_score=base, learning_rate=learning_rate, stumps=tuple(stumps))


def training_loss_curve(rows: list[FeatureRow], model: BoostedModel) -> list[float]:
    """Mean logistic loss after each boosting stage (index 0 = prior only)."""
    raw = [model.base_score] * len(rows)
    labels = [r.label for r in rows]

    def mean_loss():
        total = 0.0
        for y, v in zip(labels, raw):
            p = min(max(sigmoid(v), 1e-15), 1.0 - 1e-15)
            total += -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
        return total / len(rows)

    curve = [mean_loss()]
    for stump in model.stumps:
        for i, r in enumerate(rows):
            raw[i] += model.learning_rate * stump.output(r)
        curve.append(mean_loss())
    return curve


def evaluate(model: BoostedModel, rows: list[FeatureRow], threshold: float = 0.5) -> MetricReport:
    """Score labeled rows and compute the full metric report."""
    samples = []
    for r in rows:
        if r.label not in (0, 1):
            raise ValueError("evaluate needs labeled rows")
        samples.append(LabeledScore(label=r.label, score=score(model, r)))
    return metric_report(samples, threshold)


# ---------------------------------------------------------------------------
# SoR table

@dataclass(frozen=True)
class SorTable:
    """Hourly outage probability per feeder: (feeder_id, hour) -> [0, 1]."""

    probabilities: dict[tuple[str, int], float]

    def get(self, feeder_id: str, hour: int) -> float:
        return self.probabilities[(feeder_id, hour)]

    @property
    def feeder_ids(self) -> list[str]:
        return sorted({f for f, _ in self.probabilities})

    @property
    def horizon(self) -> int:
        return 1 + max(h for _, h in self.probabilities)

    def check_complete(self, feeder_ids, horizon: int) -> None:
        for f in feeder_ids:
            for h in range(horizon):
                if (f, h) not in self.probabilities:
                    raise ValueError(f"SoR table missing entry for feeder {f!r} hour {h}")
        extra = set(self.probabilities) - {(f, h) for f in feeder_ids for h in range(horizon)}
        if extra:
            f, h = sorted(extra)[0]
            raise ValueError(f"SoR table has entry outside scenario: feeder {f!r} hour {h}")


def _validate_table(entries: dict[tuple[str, int], float]) -> SorTable:
    for (f, h), p in entries.items():
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p} out of [0, 1] for feeder {f!r} hour {h}")
    table = SorTable(entries)
    table.check_complete(table.feeder_ids, table.horizon)
    return table


def build_sor_table(model: BoostedModel, rows: list[FeatureRow]) -> SorTable:
    """Score one unlabeled row per (feeder, hour) into a complete table."""
    entries: dict[tuple[str, int], float] = {}
    for r in rows:
        key = (r.feeder_id, r.hour)
        if key in entries:
            raise ValueError(f"duplicate row for feeder {r.feeder_id!r} hour {r.hour}")
        entries[key] = score(model, r)
    if not entries:
        raise ValueError("no rows to score")
    return _validate_table(entries)


def load_sor_table(path) -> SorTable:
    """Read a ``feeder_id,hour,probability`` CSV into a validated table."""
    entries: dict[tuple[str, int], float] = {}
    for rec in read_table(path, SOR_COLUMNS, {"hour": int, "probability": float}.get):
        key = (rec["feeder_id"], rec["hour"])
        if key in entries:
            raise ValueError(f"{path}: duplicate entry for feeder {key[0]!r} hour {key[1]}")
        entries[key] = rec["probability"]
    if not entries:
        raise ValueError(f"{path}: empty SoR table")
    return _validate_table(entries)


def save_sor_table(table: SorTable, path) -> None:
    write_table(path, SOR_COLUMNS, ([f, h, table.probabilities[(f, h)]]
                                    for (f, h) in sorted(table.probabilities)))


# ---------------------------------------------------------------------------
# Model file I/O (versioned JSON)

def save_model(model: BoostedModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "stumps": [
            {
                "feature": s.feature,
                "kind": s.kind,
                "threshold": s.threshold,
                "levels": list(s.levels) if s.levels is not None else None,
                "left_value": s.left_value,
                "right_value": s.right_value,
            }
            for s in model.stumps
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> BoostedModel:
    where = "top level"  # the part being read, for error messages

    def bad(name: str, expected: str, value) -> ValidationError:
        return ValidationError(f"{path}: {where}: field {name!r} must be {expected}, "
                               f"got {value!r}")

    def number(obj: dict, name: str):
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise bad(name, "a finite number", value)
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: expected a JSON object at the top level")
        if (version := doc.get("format_version")) != MODEL_FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported model format version {version!r}")
        base_score, learning_rate = number(doc, "base_score"), number(doc, "learning_rate")
        stumps = []
        for i, s in enumerate(doc["stumps"]):
            where = f"stump #{i}"
            kind, threshold, levels = s["kind"], s["threshold"], s["levels"]
            if not isinstance(s["feature"], str):
                raise bad("feature", "a string", s["feature"])
            if kind == "numeric":
                threshold = number(s, "threshold")
            elif kind != "categorical":
                raise bad("kind", "'numeric' or 'categorical'", kind)
            elif not (isinstance(levels, list) and all(isinstance(v, str) for v in levels)):
                raise bad("levels", "a list of strings", levels)
            stumps.append(Stump(feature=s["feature"], kind=kind, threshold=threshold,
                                levels=tuple(levels) if levels is not None else None,
                                left_value=number(s, "left_value"),
                                right_value=number(s, "right_value")))
        return BoostedModel(base_score, learning_rate, tuple(stumps))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        kind = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else "malformed JSON"
        raise ValidationError(f"{path}: {kind}: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{path}: {where}: missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError) as exc:
        raise ValidationError(f"{path}: {where}: {exc}") from None


# ---------------------------------------------------------------------------
# Training/scoring CSV: feeder_id,hour[,label],<features>; "cat:" header
# prefix marks categorical columns.

_KEY_TYPES = {"feeder_id": None, "hour": int, "label": lambda text: int(text) if text else None}


def _feature_type(column: str):
    if column in _KEY_TYPES:
        return _KEY_TYPES[column]
    return None if column.startswith("cat:") else float


def load_feature_rows(path, require_label: bool = False) -> list[FeatureRow]:
    required = ("feeder_id", "hour", "label") if require_label else ("feeder_id", "hour")
    rows: list[FeatureRow] = []
    for rec in read_table(path, required, _feature_type):
        numeric: dict[str, float] = {}
        categorical: dict[str, str] = {}
        for col, value in rec.items():
            if col.startswith("cat:"):
                categorical[col[4:]] = value
            elif col not in _KEY_TYPES:
                numeric[col] = value
        rows.append(FeatureRow(feeder_id=rec["feeder_id"], hour=rec["hour"],
                               numeric=numeric, categorical=categorical,
                               label=rec.get("label")))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows
