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
from dataclasses import asdict, dataclass, field

import numpy as np

from .metrics import LabeledScore, MetricReport, metric_report
from .tables import ValidationError, read_table, write_table

MODEL_FORMAT_VERSION = 1
SOR_COLUMNS = ("feeder_id", "hour", "probability")

DEFAULT_N_STUMPS = 200
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_MIN_LEAF_COUNT = 5

_HESS_FLOOR = 1e-12


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp``, ``math.log``) of each element: numpy's own
    functions differ from the C library's in the last bit."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _sigmoid(raw: np.ndarray) -> np.ndarray:
    e = _libm(math.exp, -np.abs(raw))
    return np.where(raw >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


@dataclass(frozen=True)
class BoostedModel:
    base_score: float  # log-odds of the class prior
    learning_rate: float
    stumps: tuple[Stump, ...]


def _column(rows: list[FeatureRow], name: str, kind: str):
    """Feature ``name`` of every row: a float array or, for a categorical
    feature, integer level codes and the ``{level: code}`` index."""
    try:
        if kind == "numeric":
            return np.array([r.numeric[name] for r in rows], dtype=float)
        index: dict[str, int] = {}
        codes = [index.setdefault(r.categorical[name], len(index)) for r in rows]
        return np.array(codes, dtype=np.intp), index
    except KeyError:
        raise ValueError(f"row missing {kind} feature {name!r}") from None


def _stump_outputs(stump: Stump, column) -> np.ndarray:
    """The stump's leaf value for each row of ``column`` (see ``_column``)."""
    if stump.kind == "numeric":
        left = column < stump.threshold
    else:
        codes, index = column
        left = np.zeros(len(index), dtype=bool)
        left[[index[v] for v in stump.levels if v in index]] = True
        left = left[codes]
    return np.where(left, stump.left_value, stump.right_value)


def _raw_scores(model: BoostedModel, rows: list[FeatureRow]):
    """Yield the raw scores of ``rows`` after the base score and after each
    stump: one array, updated in place between yields."""
    columns = {key: _column(rows, *key)
               for key in dict.fromkeys((s.feature, s.kind) for s in model.stumps)}
    raw = np.full(len(rows), float(model.base_score))
    yield raw
    for s in model.stumps:
        raw += model.learning_rate * _stump_outputs(s, columns[s.feature, s.kind])
        yield raw


def _scores(model: BoostedModel, rows: list[FeatureRow]) -> list[float]:
    *_, raw = _raw_scores(model, rows)
    return _sigmoid(raw).tolist()


def score(model: BoostedModel, row: FeatureRow) -> float:
    """Predicted outage probability, strictly inside (0, 1)."""
    return _scores(model, [row])[0]


def _split_features(rows: list[FeatureRow]) -> tuple[list[str], list[str]]:
    numeric = sorted(rows[0].numeric)
    categorical = sorted(rows[0].categorical)
    if both := sorted(set(numeric) & set(categorical)):
        raise ValueError(f"feature {both[0]!r} is both numeric and categorical")
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
    the lowest threshold or, for a categorical split, the lowest sorted tuple
    of left levels, so training is deterministic.

    Training works on numpy columns; its models are bit-for-bit those of the
    per-row booster in ``tests/scalar_sor.py``, its test oracle, on any
    interpreter: a stable presort; sums left to right (``np.cumsum``, never
    the pairwise ``np.sum``); ``math.exp`` mapped over ``-|x|``, never ``np.exp``.
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
    raw = np.full(n, base)
    y = np.array(labels, dtype=float)

    # Label-independent, so computed once: per numeric feature, the stable
    # sort order, the valid splits k (between sorted rows k and k + 1) and
    # their midpoint thresholds, ascending; per categorical, level members.
    columns = {}
    numeric = []
    n_left = np.arange(1, n)
    for name in numeric_names:
        columns[name] = col = _column(rows, name, "numeric")
        order = np.argsort(col, kind="stable")
        v = col[order]
        k = np.flatnonzero((v[:-1] != v[1:]) & (n_left >= min_leaf_count)
                           & (n - n_left >= min_leaf_count))
        if k.size:
            numeric.append((name, order, k, (v[k] + v[k + 1]) / 2.0))
    categorical = []
    for name in categorical_names:
        columns[name] = codes, index = _column(rows, name, "categorical")
        if len(index) >= 2:
            categorical.append((name, list(index),
                                [np.flatnonzero(codes == c) for c in range(len(index))]))

    stumps: list[Stump] = []
    for _ in range(n_stumps):
        p = _sigmoid(raw)
        resid = y - p
        hess = np.maximum(p * (1.0 - p), _HESS_FLOOR)
        total_r = float(np.cumsum(resid)[-1])
        total_h = float(np.cumsum(hess)[-1])
        base_gain = total_r * total_r / n

        best = None  # (key, stump) with key = (-gain, feature, threshold | levels)
        for name, order, k, thresholds in numeric:
            sl_r = np.cumsum(resid[order])[k]
            sr_r = total_r - sl_r
            gain = sl_r * sl_r / (k + 1) + sr_r * sr_r / (n - k - 1) - base_gain
            j = int(np.argmax(gain))  # the first maximum: the lowest threshold
            key = (-float(gain[j]), name, float(thresholds[j]))
            if best is None or key < best[0]:
                sl_h = float(np.cumsum(hess[order])[k[j]])
                best = (key, Stump(name, "numeric", key[2], None,
                                   float(sl_r[j]) / max(sl_h, _HESS_FLOOR),
                                   float(sr_r[j]) / max(total_h - sl_h, _HESS_FLOOR)))
        for name, levels, members in categorical:
            stats = []
            for level, m in zip(levels, members):
                s_r, s_h = float(np.cumsum(resid[m])[-1]), float(np.cumsum(hess[m])[-1])
                stats.append((s_r / m.size, level, s_r, s_h, m.size))
            stats.sort()  # by mean residual, then level name: deterministic
            sl_r, sl_h, count_left, left_levels = 0.0, 0.0, 0, []
            for _, level, s_r, s_h, count in stats[:-1]:
                sl_r, sl_h, count_left = sl_r + s_r, sl_h + s_h, count_left + count
                left_levels.append(level)
                if min(count_left, n - count_left) < min_leaf_count:
                    continue
                sr_r = total_r - sl_r
                gain = sl_r * sl_r / count_left + sr_r * sr_r / (n - count_left) - base_gain
                key = (-gain, name, tuple(sorted(left_levels)))
                if best is None or key < best[0]:
                    best = (key, Stump(name, "categorical", None, key[2],
                                       sl_r / max(sl_h, _HESS_FLOOR),
                                       sr_r / max(total_h - sl_h, _HESS_FLOOR)))
        if best is None:
            break  # no split satisfies the leaf-count constraint
        stump = best[1]
        stumps.append(stump)
        raw += learning_rate * _stump_outputs(stump, columns[stump.feature])

    return BoostedModel(base_score=base, learning_rate=learning_rate, stumps=tuple(stumps))


def training_loss_curve(rows: list[FeatureRow], model: BoostedModel) -> list[float]:
    """Mean logistic loss after each boosting stage (index 0 = prior only)."""
    if any(r.label not in (0, 1) for r in rows):
        raise ValueError("the loss curve needs labeled rows")
    y = np.array([r.label for r in rows], dtype=float)
    curve = []
    for raw in _raw_scores(model, rows):
        p = np.minimum(np.maximum(_sigmoid(raw), 1e-15), 1.0 - 1e-15)
        loss = -(y * _libm(math.log, p) + (1.0 - y) * _libm(math.log, 1.0 - p))
        curve.append(float(np.cumsum(loss)[-1]) / len(rows))
    return curve


def evaluate(model: BoostedModel, rows: list[FeatureRow], threshold: float = 0.5) -> MetricReport:
    """Score labeled rows and compute the full metric report."""
    if any(r.label not in (0, 1) for r in rows):
        raise ValueError("evaluate needs labeled rows")
    return metric_report([LabeledScore(label=r.label, score=p)
                          for r, p in zip(rows, _scores(model, rows))], threshold)


# ---------------------------------------------------------------------------
# SoR table

class SorTable:
    """Hourly outage probability per feeder: ``probabilities`` is a read-only
    ``(F, H)`` array, one row per feeder in sorted ``feeder_ids`` order, one
    column per hour from 0. Built from a ``(feeder_id, hour) -> p`` mapping,
    which must hold every p in [0, 1] and every feeder at every hour up to
    its largest."""

    def __init__(self, entries: dict[tuple[str, int], float]):
        if not entries:
            raise ValueError("empty SoR table")
        self.feeder_ids = tuple(sorted({f for f, _ in entries}))
        self._row = {f: i for i, f in enumerate(self.feeder_ids)}
        grid = np.full((len(self.feeder_ids), 1 + max(h for _, h in entries)), np.nan)
        for (f, h), p in entries.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} out of [0, 1] for feeder {f!r} hour {h}")
            if h >= 0:
                grid[self._row[f], h] = p
        if (missing := np.argwhere(np.isnan(grid))).size:
            i, h = missing[0]
            raise ValueError(f"SoR table missing entry for feeder {self.feeder_ids[i]!r} "
                             f"hour {h}")
        if negative := sorted(key for key in entries if key[1] < 0):
            f, h = negative[0]
            raise ValueError(f"SoR table has entry outside scenario: feeder {f!r} hour {h}")
        grid.flags.writeable = False
        self.probabilities = grid

    @property
    def horizon(self) -> int:
        return self.probabilities.shape[1]

    def get(self, feeder_id: str, hour: int) -> float:
        if not 0 <= hour < self.horizon:
            raise KeyError((feeder_id, hour))
        return float(self.probabilities[self._row[feeder_id], hour])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SorTable) and self.feeder_ids == other.feeder_ids
                and np.array_equal(self.probabilities, other.probabilities))


def build_sor_table(model: BoostedModel, rows: list[FeatureRow]) -> SorTable:
    """Score one unlabeled row per (feeder, hour) into a complete table."""
    entries: dict[tuple[str, int], float] = {}
    for r, p in zip(rows, _scores(model, rows)):
        if (r.feeder_id, r.hour) in entries:
            raise ValueError(f"duplicate row for feeder {r.feeder_id!r} hour {r.hour}")
        entries[r.feeder_id, r.hour] = p
    if not entries:
        raise ValueError("no rows to score")
    return SorTable(entries)


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
    return SorTable(entries)


def save_sor_table(table: SorTable, path) -> None:
    write_table(path, SOR_COLUMNS, ([f, h, p] for f, row in zip(
        table.feeder_ids, table.probabilities.tolist()) for h, p in enumerate(row)))


# ---------------------------------------------------------------------------
# Model file I/O (versioned JSON)

def save_model(model: BoostedModel, path) -> None:
    doc = {"format_version": MODEL_FORMAT_VERSION, "base_score": model.base_score,
           "learning_rate": model.learning_rate,
           "stumps": [asdict(s) for s in model.stumps]}  # levels: a tuple, written as a list
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
        rows.append(FeatureRow(
            feeder_id=rec["feeder_id"], hour=rec["hour"], label=rec.get("label"),
            numeric={c: v for c, v in rec.items() if c not in _KEY_TYPES and c[:4] != "cat:"},
            categorical={c[4:]: v for c, v in rec.items() if c[:4] == "cat:"}))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if both := sorted(rows[0].numeric.keys() & rows[0].categorical.keys()):
        raise ValidationError(f"{path}: columns {both[0]!r} and 'cat:{both[0]}' "
                              f"name the same feature")
    return rows


def check_columns(model: BoostedModel, rows: list[FeatureRow], path) -> None:
    """Raise ValidationError naming ``path`` and the column when ``rows``, as
    ``load_feature_rows`` read them from ``path``, lack a feature ``model`` uses."""
    for s in model.stumps:
        if s.feature not in (rows[0].numeric if s.kind == "numeric" else rows[0].categorical):
            column = s.feature if s.kind == "numeric" else f"cat:{s.feature}"
            raise ValidationError(f"{path}: no column {column!r}, which the model uses")
