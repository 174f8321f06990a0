"""Scenario assembly, Monte Carlo outage sampling, replication execution,
fleet aggregation, repair-time sweeps, and report emission.

Randomness is fully determined by (master_seed, replication_index,
feeder_id): each feeder draws one uniform per hour from its own PCG64
stream, seeded through ``SeedSequence`` from the seed, the replication and
the CRC-32 of the feeder id, so adding feeders or changing the repair time
never perturbs another feeder's draws. A hit starts an outage only while
none is active. Every repair time of a sweep reads the same draws, so a
longer repair suppresses later hits: the points share their draws, not
their outage starts. A Monte Carlo pass draws each stream once, a block of
replications at a time (:func:`_uniforms` runs ``SeedSequence`` and PCG64
in uint64 array arithmetic, bit for bit ``np.random.default_rng``, whose
oracle is ``feeder_rng`` in ``tests/oracles.py``), and derives every
repair time's outages from it in hour steps over arrays.

A simulation is a sweep of one repair time. A sweep validates once,
computes the no-outage shadow (the whole fleet grid-tied all day, stepped
as one block by :func:`ngridsim.dispatch.step`) once, and runs one Monte
Carlo pass for all its points. A feeder's dispatch depends only on its own
islanded hours, so each distinct (feeder, islanded hours) pattern has one
per-hour change to the fleet series; the pass steps each pattern once, in
batches that close at the pattern that brings their rows (one per n-Grid
on the feeder) to ``ROW_BUDGET``. A pattern's rows are live from its first
outage hour, in the shadow's states, until after its last islanded hour
every row's state equals the shadow's; each hour steps the live rows in at
most two kernel calls, one islanded and one connected. A pattern's change
at a stepped hour is its load, ENS and spill summed over the feeder's
n-Grids in fleet order from 0.0, less the shadow's feeder totals, and at
an islanded hour minus the feeder's ramp.

A repair time's mean series is the shadow's baseline plus, over the
distinct patterns in key order (feeder index, then islanded hours read
from hour 0), each pattern's count x change added left to right from 0.0,
over the replications. A replication's ENS and spill is its patterns' day
totals, added in feeder order from 0.0. A zero count adds 0.0, which keeps
every bit, so a repair time's results do not depend on the other repair
times, the batches or the draw blocks, and equal by bytes a from-hour-0
re-dispatch summed by the same rule. Against the mean of each
replication's series, re-dispatched and summed one by one, only float sums
are reordered: the series agree within 1e-9 relative.

A pass names a feeder by its row in ``sor.feeder_ids``, its feeder index,
from draw to report. Draw and key: per draw block, each repair time gets
its outage rows (replication, feeder, start hour, length), and each
disturbed (repair time, replication, feeder) one fixed-width byte key, the
feeder index as big-endian ``>u4`` and then its islanded hours packed from
hour 0; one ``np.unique`` over the pass's keys gives each its pattern.
Step and weigh: each distinct pattern is stepped once, in ``ROW_BUDGET``
batches, and each batch's count x change is added into one sum per repair
time before the batch is dropped. The pass keeps no replication's series
and no table of the patterns' changes.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .dispatch import FleetArrays, FleetState, _slot_sum, ramp, step
from .fleet import Fleet, validate_fleet
from .sor import SorTable
from .tables import ValidationError, write_table


SOR_LOOKAHEAD_HOURS = 4


@dataclass
class Scenario:
    fleet: Fleet
    sor: SorTable
    horizon: int = 24
    repair_hours: float = 1.0
    replications: int = 1
    master_seed: int = 0
    sr_delivery_hours: float = 1.0
    derate: dict[tuple[str, int], float] | None = None
    precharge: str = "full"


# Placeholders: bench/child.py's tracer looks these two names up here and
# wraps them by identity; they go when the benchmark drops that lookup. The
# per-n-Grid steppers are the kernel's test oracle, in tests/scalar_dispatch.py.
def connected_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def islanded_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def setting_problems(scenario: Scenario) -> list[tuple[str, str]]:
    """(Scenario field, problem) for each scalar setting that breaks its rule."""
    s = scenario
    rules = [("repair_hours", math.isfinite(s.repair_hours) and s.repair_hours > 0,
              "must be finite and > 0"),
             ("replications", s.replications >= 1, "must be >= 1"),
             ("master_seed", s.master_seed >= 0, "must be >= 0"),
             ("sr_delivery_hours", math.isfinite(s.sr_delivery_hours) and s.sr_delivery_hours > 0,
              "must be finite and > 0"),
             ("precharge", s.precharge in ("full", "sor"), "must be 'full' or 'sor'")]
    return [(name, f"{rule}, got {getattr(s, name)!r}") for name, ok, rule in rules if not ok]


def validate_scenario(scenario: Scenario) -> list[str]:
    report = validate_fleet(scenario.fleet, scenario.horizon)
    report += [f"{name} {problem}" for name, problem in setting_problems(scenario)]
    want = {(f, h) for f in scenario.fleet.feeders for h in range(scenario.horizon)}
    have = {(f, h) for f in scenario.sor.feeder_ids for h in range(scenario.sor.horizon)}
    if missing := want - have:
        f, h = min(missing)
        report.append(f"SoR table missing entry for feeder {f!r} hour {h}")
    elif extra := have - want:
        f, h = min(extra)
        report.append(f"SoR table has entry outside scenario: feeder {f!r} hour {h}")
    for (f, h), factor in (scenario.derate or {}).items():
        if (f, h) not in want:
            report.append(f"derate row outside scenario: feeder {f!r} hour {h}")
        if not (0.0 < factor <= 1.0):
            report.append(f"derate factor {factor} out of (0, 1] for feeder {f!r} hour {h}")
    return report


@dataclass(frozen=True)
class OutageEvent:
    feeder_id: str
    start_hour: int
    duration_hours: int


@dataclass
class FleetSeries:
    """Hourly fleet totals; all arrays have length H."""

    load_kw: np.ndarray
    pv_kw: np.ndarray
    ens_kw: np.ndarray
    spilled_kw: np.ndarray
    ru_total_kw: np.ndarray
    ru_avail_kw: np.ndarray
    rd_total_kw: np.ndarray
    rd_avail_kw: np.ndarray


SERIES_FIELDS = tuple(f.name for f in fields(FleetSeries))


@dataclass
class SimulationReport:
    mean_series: FleetSeries
    total_ens_mwh: float
    total_spilled_mwh: float
    max_ru_total_kw: float
    # Replication, feeder id, start hour and duration: outages.csv's columns.
    outages: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    per_rep_ens_mwh: np.ndarray
    per_rep_spilled_mwh: np.ndarray


def _seed_words(n: int) -> list[int]:
    """``n`` as ``SeedSequence`` splits a Python int: its little-endian
    32-bit words, one word for 0."""
    if n < 0:
        raise ValueError(f"seed values must be >= 0, got {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mulhi64(x: np.ndarray, c: int) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``x * c``, by 32-bit halves."""
    x0, x1, c0, c1 = x & _MASK32, x >> 32, c & _MASK32, c >> 32
    p01, p10 = x0 * c1, x1 * c0
    mid = (x0 * c0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return x1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` (mod 2**128) on (high, low) uint64 word pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_doubles(words: np.ndarray, horizon: int) -> np.ndarray:
    """Uniforms ``(horizon, K)``: column k holds the first ``horizon`` draws
    of ``np.random.default_rng(words[:, k])``, for ``(n, K)`` uint32 seed
    words held as uint64. Every step of ``SeedSequence`` and PCG64 runs on
    all K keys at once, in uint64 arithmetic that wraps; the hash constants
    depend only on a step's position, so they are Python ints."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (x * _MIX_L - y * _MIX_R) & _MASK32
        return value ^ value >> 16

    # SeedSequence: hash the words into a pool of four, then mix.
    zero = np.zeros(words.shape[1], dtype=np.uint64)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(words)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    init_hi, init_lo, seq_hi, seq_lo = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    # PCG64's srandom sets the state to its increment, adds the initial state
    # and steps; each draw steps, state = state * multiplier + increment
    # (mod 2**128), and outputs XSL-RR of the new state.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _add128(init_hi, init_lo, inc_hi, inc_lo)
    states = np.empty((2, horizon, words.shape[1]), dtype=np.uint64)
    for d in range(-1, horizon):
        hi, lo = _add128(hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi64(lo, _PCG_MULT_LO),
                         lo * _PCG_MULT_LO, inc_hi, inc_lo)
        if d >= 0:
            states[:, d] = hi, lo
    hi, lo = states
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << ((64 - rot) & 63)
    # numpy's next_double: the top 53 bits over 2**53.
    return (x >> 11) * (1.0 / 9007199254740992.0)


def _uniforms(master_seed: int, indices, feeder_ids, horizon: int) -> np.ndarray:
    """``(R, F, H)`` uniforms: ``[r, f]`` is the first ``horizon`` draws of
    ``np.random.default_rng([master_seed, indices[r], crc32(feeder_ids[f])])``,
    each int split into its 32-bit words as :func:`_seed_words` does.
    Replications whose index takes the same number of words share a block."""
    seed = _seed_words(master_seed)
    tags = np.array([zlib.crc32(f.encode("utf-8")) for f in feeder_ids], dtype=np.uint64)
    reps = [_seed_words(i) for i in indices]
    out = np.empty((len(reps), len(tags), horizon))
    for n in sorted({len(w) for w in reps}):
        rows = [r for r, w in enumerate(reps) if len(w) == n]
        words = np.empty((len(seed) + n + 1, len(rows), len(tags)), dtype=np.uint64)
        words[:len(seed)] = np.array(seed, dtype=np.uint64)[:, None, None]
        words[len(seed):-1] = np.array([reps[r] for r in rows], dtype=np.uint64).T[..., None]
        words[-1] = tags
        out[rows] = _pcg64_doubles(words.reshape(len(words), -1), horizon).reshape(
            horizon, len(rows), len(tags)).transpose(1, 2, 0)
    return out


def _duration(repair_hours: float) -> int:
    """An outage's length in whole hours: the repair time rounded up, at
    least one."""
    return max(1, math.ceil(repair_hours))


def _outages(hits: np.ndarray, durations: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """The outages that ``hits`` ``(R, F, H)`` start at each duration: a hit
    while its feeder's outage is active starts none. Returns one array of
    rows (replication, feeder, start hour, length cut at the horizon) per
    duration, in that order, and the islanded hours ``(P, R, F, H)``."""
    R, F, H = hits.shape
    starts = np.empty((len(durations), R, F, H), dtype=bool)
    islanded = np.empty_like(starts)
    until = np.zeros(starts.shape[:3], dtype=np.intp)  # the hour an outage ends
    ends = np.array(durations, dtype=np.intp)[:, None, None]
    for h in range(H):
        start = starts[..., h] = hits[..., h] & (until <= h)
        until = np.where(start, ends + h, until)
        islanded[..., h] = until > h
    return [np.stack([*at, np.minimum(d, H - at[2])], axis=1)
            for d, at in zip(durations, map(np.nonzero, starts))], islanded


def _events(outages: np.ndarray, feeder_ids) -> list[OutageEvent]:
    """:func:`_outages` rows as events, in row order."""
    return [OutageEvent(feeder_ids[f], h, n) for _, f, h, n in outages.tolist()]


def sample_outages(sor: SorTable, repair_hours: float, horizon: int,
                   rng_for_feeder) -> list[OutageEvent]:
    """Bernoulli draw per feeder-hour, suppressed while an outage is active;
    ``rng_for_feeder`` maps a feeder id to its Generator. One uniform is
    drawn for every hour up front, so the set of potential start hours
    does not depend on the repair duration."""
    u = np.array([rng_for_feeder(f).random(horizon) for f in sor.feeder_ids])
    hits = u < sor.probabilities[:, :horizon]
    return _events(_outages(hits[None], [_duration(repair_hours)])[0][0], sor.feeder_ids)


@dataclass
class _Shadow:
    """The no-outage run, n-Grids in fleet order: arrays, recharge target
    fractions ``(H, N)`` and states before each hour (``states[H]`` after
    the last). Per feeder index (its row in ``sor.feeder_ids``): its
    n-Grids' ``feeder_rows``, in fleet order, and its load, PV, ramp-up and
    ramp-down ``totals`` ``(F, 4, H)``, summed in that order; ``baseline``
    is the fleet series, ``(8, H)`` in ``SERIES_FIELDS`` order, its feeders
    added in ``fleet.feeders`` order."""

    arrays: FleetArrays
    frac: np.ndarray
    states: FleetState
    feeder_rows: list[np.ndarray]
    totals: np.ndarray
    baseline: np.ndarray


# A pass's pattern batches close at the pattern that brings their rows to
# this many, so a kernel call holds fewer than it plus the largest feeder's.
ROW_BUDGET = 32768

# A pass draws its uniforms for this many (replication, feeder) streams at a
# time, at least one replication, so the ``(R, F, H)`` draw stays a few MB.
DRAW_BLOCK = 2048


def compute_shadow(scenario: Scenario) -> _Shadow:
    H = scenario.horizon
    fleet = scenario.fleet
    # Per (feeder, hour), feeders in SoR table order: the recharge target
    # fraction (1 under ``full`` precharge; under ``sor`` the worst risk over
    # the next SOR_LOOKAHEAD_HOURS hours, kept on ties as Python's ``max``
    # keeps its first operand) and the derate factor.
    risk = scenario.sor.probabilities
    if scenario.precharge == "full":
        target = np.ones(risk.shape)
    elif scenario.precharge == "sor":
        target = np.zeros(risk.shape)
        for k in range(1, min(SOR_LOOKAHEAD_HOURS, H) + 1):
            ahead, now = risk[:, k:H], target[:, :H - k]
            now[...] = np.where(ahead > now, ahead, now)
    else:
        raise ValueError(f"unknown precharge mode {scenario.precharge!r}")
    derate = np.ones(risk.shape)
    row_of_feeder = {f: i for i, f in enumerate(scenario.sor.feeder_ids)}
    for (f, h), factor in (scenario.derate or {}).items():
        derate[row_of_feeder[f], h] = factor
    feeder_of_row = np.array([row_of_feeder[ng.feeder_id] for ng in fleet.ngrids], dtype=np.intp)

    arrays = FleetArrays.build(fleet.ngrids, H)
    frac = target[feeder_of_row, :H].T.copy()
    history, flows = [arrays.initial_state()], []
    for h in range(H):
        out, state = step(arrays, history[-1], h, False, frac[h])
        history.append(state)
        flows.append(out)
    states = FleetState(*map(np.stack, zip(*history)))
    ru, rd = ramp(arrays, FleetState(*(a[1:] for a in states)),
                  np.stack([f.bess_kw for f in flows]), np.stack([f.ev_kw for f in flows]),
                  derate[feeder_of_row, :H].T.copy(), scenario.sr_delivery_hours)
    # (4, H, N): each n-Grid's served load, PV, ramp-up and ramp-down.
    rows = np.stack([np.stack([f.served for f in flows]), arrays.pv, ru, rd])

    feeder_rows = [np.flatnonzero(feeder_of_row == k) for k in range(len(row_of_feeder))]
    totals = np.array([_slot_sum(rows[..., r]) for r in feeder_rows])
    load, pv, ru_kw, rd_kw = _slot_sum(
        totals[[row_of_feeder[f] for f in fleet.feeders]].transpose(1, 2, 0))
    baseline = np.array([load, pv, *np.zeros((2, H)), ru_kw, ru_kw, rd_kw, rd_kw])
    return _Shadow(arrays, frac, states, feeder_rows, totals, baseline)


def _step_patterns(shadow: _Shadow, feeders: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The change ``(K, 5, H)`` each pattern, feeder index ``feeders[k]``
    islanded at hours ``masks[k]``, makes to series rows load, ENS, spill,
    ``ru_avail`` and ``rd_avail`` (rows 0, 2, 3, 5 and 7), stepped as the
    module docstring describes, on live rows only."""
    H = len(shadow.frac)
    rows = [shadow.feeder_rows[f] for f in feeders]
    change = np.zeros((len(feeders), 5, H))
    # Islanded n-Grids deliver no ramp-up or ramp-down capacity.
    np.negative(shadow.totals[feeders, 2:], out=change[:, 3:], where=masks[:, None])
    first, last = masks.argmax(axis=1), H - 1 - masks[:, ::-1].argmax(axis=1)
    # The live rows: every started, unfinished pattern's n-Grids, each
    # pattern's together and in fleet order, with their fleet row and pattern.
    idx, pattern = np.empty((2, 0), dtype=np.intp)
    state = FleetState(*(a[0, :0] for a in shadow.states))
    done = np.zeros(len(feeders), dtype=bool)
    for h in range(int(first.min()), H):
        if (starting := np.flatnonzero(first == h)).size:
            joining = np.concatenate([rows[k] for k in starting])
            idx = np.concatenate([idx, joining])
            pattern = np.concatenate([pattern, np.repeat(starting, [len(rows[k]) for k in starting])])
            state = FleetState(*(np.concatenate([a, s[h].take(joining, 0)])
                                 for a, s in zip(state, shadow.states)))
        islanded = masks[pattern, h]
        now = np.empty((3, len(idx)))  # this hour's load, ENS and spill per row
        for mode in (True, False):
            sel = np.flatnonzero(islanded == mode)
            if sel.size:
                flows, new = step(shadow.arrays, FleetState(*(a.take(sel, 0) for a in state)),
                                  h, mode, shadow.frac[h].take(idx[sel]), idx[sel])
                for a, b in zip(state, new):
                    a[sel] = b
                now[:, sel] = flows.served + flows.ens, flows.ens, flows.spilled
        # Each stepped pattern's rows summed from 0.0 in fleet order, less the
        # shadow's feeder load (its ENS and spill are 0).
        stepped = np.flatnonzero((first <= h) & ~done)
        sums = np.array([np.bincount(pattern, w, len(feeders)) for w in now], float)
        sums[0] -= shadow.totals[feeders, 0, h]
        change[stepped, :3, h] = sums[:, stepped].T
        check = np.flatnonzero(last[pattern] < h)
        same = (state.bess[check] == shadow.states.bess[h + 1].take(idx[check])) & (
            (state.ev[check] == shadow.states.ev[h + 1].take(idx[check], 0)).all(axis=1)) & (
            (state.tasks[check] == shadow.states.tasks[h + 1].take(idx[check], 0)).all(axis=1))
        finished = np.zeros(len(feeders), dtype=bool)
        finished[pattern[check]] = True
        finished[pattern[check[~same]]] = False
        if finished.any():
            done |= finished
            keep = ~finished[pattern]
            idx, pattern = idx[keep], pattern[keep]
            state = FleetState(*(a[keep] for a in state))
            if done.all():
                break
    return change


def _monte_carlo(scenario: Scenario, shadow: _Shadow, repair_values: list[float],
                 indices) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per repair time ``repair_values[p]``: the mean ``(P, 8, H)`` of the
    replications' series, ``_Shadow.baseline`` plus the sum over patterns
    of count x change, from 0.0 in key order, over ``len(indices)``;
    replication ``indices[r]``'s ENS and spill over the day, ``(P, R, 2)``;
    and its :func:`_outages` rows, one array per repair time, replications
    counted over the pass. A pass draws and keys its blocks of about
    ``DRAW_BLOCK`` streams, then steps each distinct pattern once, in key
    order, and weighs it by its counts."""
    H = scenario.horizon
    feeder_ids = scenario.sor.feeder_ids
    durations = [_duration(value) for value in repair_values]
    P, R = len(durations), len(indices)
    block = max(1, DRAW_BLOCK // len(feeder_ids))
    # Draw and key: each disturbed (repair time, replication, feeder)'s run
    # p * R + r and its key, the feeder index as big-endian ``>u4`` and then
    # its islanded hours packed from hour 0, so keys sort by feeder, then mask.
    outages, runs, keys = [[] for _ in durations], [], []
    for r0 in range(0, R, block):
        hits = _uniforms(scenario.master_seed, indices[r0:r0 + block], feeder_ids,
                         H) < scenario.sor.probabilities[:, :H]
        rows, islanded = _outages(hits, durations)
        for point, block_rows in zip(outages, rows):
            block_rows[:, 0] += r0
            point.append(block_rows)
        p, r, f = np.nonzero(islanded.any(axis=-1))
        runs.append(p * R + r0 + r)
        keys.append(np.concatenate([f.astype(">u4").view(np.uint8).reshape(-1, 4),
                                    np.packbits(islanded[p, r, f], axis=-1)], axis=1))
    keys = np.concatenate(keys)
    width = keys.shape[1]
    patterns, ids = np.unique(keys.view(f"V{width}").ravel(), return_inverse=True)
    patterns = patterns.view(np.uint8).reshape(-1, width)
    feeders = np.ascontiguousarray(patterns[:, :4]).view(">u4").ravel().astype(np.intp)
    masks = np.unpackbits(patterns[:, 4:], axis=1, count=H).astype(bool)
    runs = np.concatenate(runs)
    K = len(masks)
    counts = np.bincount(runs // R * K + ids, minlength=P * K).reshape(P, K)
    # Step and weigh: a batch closes at the pattern that brings its rows to
    # ROW_BUDGET (``ends[k]`` is patterns 0 to k's rows). Its count x change
    # is added onto the running sums left to right in key order (``np.cumsum``
    # along the batch, the sum put into its first row), each pattern's day
    # ENS and spill kept, and the batch dropped before the next is stepped.
    sums = np.zeros((P, 5, H))
    day = np.empty((K, 2))
    ends = np.cumsum(np.array([len(rows) for rows in shadow.feeder_rows])[feeders])
    first = 0
    while first < K:
        before = ends[first - 1] if first else 0
        stop = min(K, 1 + int(np.searchsorted(ends, before + ROW_BUDGET)))
        change = _step_patterns(shadow, feeders[first:stop], masks[first:stop])
        day[first:stop] = change[:, 1:3].sum(axis=-1)
        weighed = np.empty_like(change)
        for p, weights in enumerate(counts[:, first:stop]):
            np.multiply(weights[:, None, None], change, out=weighed)
            weighed[0] += sums[p]
            sums[p] = np.cumsum(weighed, axis=0, out=weighed)[-1]
        del change, weighed
        first = stop
    mean = np.tile(shadow.baseline, (P, 1, 1))
    mean[:, [0, 2, 3, 5, 7]] += sums / R
    # A replication's ENS and spill: its patterns' days, added from 0.0 in
    # feeder order (the order ``np.nonzero`` gives each run's triples).
    energy = np.stack([np.bincount(runs, w, P * R) for w in day[ids].T], axis=-1)
    return mean, energy.reshape(P, R, 2), [np.concatenate(rows) for rows in outages]


def check_repair_values(repair_values: list[float]) -> None:
    """Raise ValidationError unless the sweep's repair times are a
    non-empty, strictly increasing list."""
    if not repair_values:
        raise ValidationError("repair_values must be non-empty")
    if any(b <= a for a, b in zip(repair_values, repair_values[1:])):
        raise ValidationError("repair_values must be strictly increasing")


def _validate(scenario: Scenario, repair_values: list[float]) -> None:
    """Raise ValidationError unless ``repair_values`` pass
    :func:`check_repair_values` and the scenario is valid at each."""
    check_repair_values(repair_values)
    # Only the repair time differs between the points: validate the first in
    # full and the others' repair times.
    problems = validate_scenario(replace(scenario, repair_hours=repair_values[0]))
    problems += [f"{name} {problem}" for value in repair_values[1:] for name, problem in
                 setting_problems(replace(scenario, repair_hours=value)) if name == "repair_hours"]
    if problems:
        raise ValidationError("; ".join(problems))


def run_replication(scenario: Scenario,
                    replication_index: int) -> tuple[FleetSeries, list[OutageEvent]]:
    """Sample outages, dispatch the disturbed feeders, and return fleet
    totals plus the outage log for one replication: the Monte Carlo pass of
    :func:`sweep_reports` on this replication and repair time alone."""
    _validate(scenario, [scenario.repair_hours])
    means, _, outages = _monte_carlo(scenario, compute_shadow(scenario),
                                     [scenario.repair_hours], [replication_index])
    return FleetSeries(*means[0]), _events(outages[0], scenario.sor.feeder_ids)


def run_simulation(scenario: Scenario, workers: int | None = None) -> SimulationReport:
    """The scenario's report: a sweep of its own repair time alone.
    ``workers`` is accepted for compatibility and ignored: replications run
    serially."""
    return sweep_reports(scenario, [scenario.repair_hours])[0][1]


def sweep_reports(scenario: Scenario,
                  repair_values: list[float]) -> list[tuple[float, SimulationReport]]:
    """One (repair_hours, report) pair per repair time, all from the same
    draws: a longer repair suppresses later hits as well as lengthening
    outages. Every point shares one shadow and one Monte Carlo pass, which
    weighs each distinct pattern's change by how often that point drew it."""
    _validate(scenario, repair_values)
    means, energy, outages = _monte_carlo(scenario, compute_shadow(scenario), repair_values,
                                          range(scenario.replications))
    reports = []
    for p, value in enumerate(repair_values):
        mean = FleetSeries(*means[p])
        rep, f, start, length = outages[p].T
        reports.append((value, SimulationReport(
            mean_series=mean,
            total_ens_mwh=float(mean.ens_kw.sum()) / 1000.0,
            total_spilled_mwh=float(mean.spilled_kw.sum()) / 1000.0,
            max_ru_total_kw=float(mean.ru_total_kw.max()),
            outages=(rep, np.array(scenario.sor.feeder_ids)[f], start, length),
            per_rep_ens_mwh=energy[p, :, 0] / 1000.0,
            per_rep_spilled_mwh=energy[p, :, 1] / 1000.0,
        )))
    return reports


def emit_report(report: SimulationReport,
                sweep: list[tuple[float, float, float]] | None,
                out_dir) -> list[str]:
    """Write fleet_series.csv, summary.csv, outages.csv, and (when a sweep is
    given) sweep.csv. Output is byte-identical for identical inputs."""
    os.makedirs(out_dir, exist_ok=True)
    series = report.mean_series
    tables = [
        ("fleet_series.csv", ("hour",) + SERIES_FIELDS,
         ([h] + [getattr(series, name)[h] for name in SERIES_FIELDS]
          for h in range(len(series.load_kw)))),
        ("summary.csv", ("total_ens_mwh", "total_spilled_mwh", "max_ru_total_kw"),
         [(report.total_ens_mwh, report.total_spilled_mwh, report.max_ru_total_kw)]),
        ("outages.csv", ("replication", "feeder_id", "start_hour", "duration_hours"),
         zip(*report.outages)),
    ]
    if sweep:
        tables.append(("sweep.csv", ("repair_hours", "total_ens_mwh", "total_spilled_mwh"),
                       sweep))
    written = []
    try:
        for name, header, rows in tables:
            written.append(os.path.join(out_dir, name))
            write_table(written[-1], header, rows)
    except OSError as exc:
        raise OSError(f"failed writing report to {out_dir}: {exc}") from exc
    return written
