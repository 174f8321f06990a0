"""Per-row boosting: the scalar reading of :func:`ngridsim.sor.train` and the
batch scorer, which work on numpy columns.

The library runs the columnar booster only. These functions walk the rows
one at a time with plain Python floats, in the same order of operations,
and are its byte-for-byte test oracle: they build the library's own
``Stump`` and ``BoostedModel`` values, so models compare with ``==``.
"""

from __future__ import annotations

import math

from ngridsim.sor import (_HESS_FLOOR, DEFAULT_LEARNING_RATE, DEFAULT_MIN_LEAF_COUNT,
                          DEFAULT_N_STUMPS, BoostedModel, FeatureRow, Stump)


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


def stump_output(stump: Stump, row: FeatureRow) -> float:
    """Numeric: value < threshold goes left. Categorical: membership in
    ``levels`` goes left; unseen levels go right."""
    if stump.kind == "numeric":
        if stump.feature not in row.numeric:
            raise ValueError(f"row missing numeric feature {stump.feature!r}")
        return stump.left_value if row.numeric[stump.feature] < stump.threshold \
            else stump.right_value
    if stump.feature not in row.categorical:
        raise ValueError(f"row missing categorical feature {stump.feature!r}")
    return stump.left_value if row.categorical[stump.feature] in stump.levels \
        else stump.right_value


def raw_score(model: BoostedModel, row: FeatureRow) -> float:
    total = model.base_score
    for stump in model.stumps:
        total += model.learning_rate * stump_output(stump, row)
    return total


def score(model: BoostedModel, row: FeatureRow) -> float:
    return sigmoid(raw_score(model, row))


def train(rows: list[FeatureRow],
          n_stumps: int = DEFAULT_N_STUMPS,
          learning_rate: float = DEFAULT_LEARNING_RATE,
          min_leaf_count: int = DEFAULT_MIN_LEAF_COUNT) -> BoostedModel:
    """Stage-wise greedy boosting under logistic loss, one row at a time.
    Takes valid input only: the library's ``train`` validates."""
    labels = [r.label for r in rows]
    numeric_names = sorted(rows[0].numeric)
    categorical_names = sorted(rows[0].categorical)

    n = len(rows)
    prior = sum(labels) / n
    base = math.log(prior / (1.0 - prior))
    raw = [base] * n

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
            raw[i] += learning_rate * stump_output(stump, r)

    return BoostedModel(base_score=base, learning_rate=learning_rate, stumps=tuple(stumps))
