"""Experiment registry and seeded Monte Carlo driver.

Each experiment writes one CSV table. The random stream of trial t at
grid point index p is np.random.default_rng([seed, p, t]), so results do
not depend on execution order or on how trials are distributed over
worker processes; schemes under comparison share each drop.

Trials run in chunks (run_trials). Each trial of a chunk draws from its
own stream, in the same order as when it runs alone (run_trial); the
chunk then computes the metrics, the selections, the IA solutions and the
rates of all its trials in one stacked call each. A chunk holds at most
_CHUNK_BYTES of channel drops, and at least one trial, so memory stays
bounded at large K. The CSV body therefore does not depend on the chunk
size, nor on --workers.

A run is one list of (grid point, trial range) tasks (_trial_tasks),
each about the same work, costliest first, mapped over one process pool
(or, serially, the builtin map); the rows are regrouped by point,
concatenated in trial order and reduced in grid order.

Within a chunk, the channel draw (grassmann.complex_normal) and the
selection metrics (channel.cell_metrics) work in blocks of a fixed size,
with the same stream and bits as one pass; so a run needs its largest
drop, that drop's (3, K) metric array and a constant that does not grow
with K, which is what it checks against physical memory before it starts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import os
import re
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from itertools import repeat

import numpy as np

from .channel import (ChannelSet, cell_metrics, generate_channels,
                      interference_covariance, postfilter, served_links, user_rate)
from .complexity import (FlopReport, flops_ia_individual, flops_ia_joint,
                         flops_oia_1bit)
from .errors import (ConfigError, DegenerateChannel, IoError, TooFewUsers,
                     UnknownExperiment)
from .grassmann import INV_SQRT2, ManifoldParams, complex_normal
from .ia import closed_form_ia, ia_link_rates, quantized_channel_set
# select_one_bit is not called here; perfbench/layertrace.py patches it in
# this namespace, among the other layer entry points
from .oia import select_conventional, select_one_bit, select_one_bit_rows  # noqa: F401
from .threshold import (optimal_threshold_d1, threshold_asymptotic,
                        threshold_lambert, threshold_numeric)

# the config every experiment starts from; a registry entry lists what differs
_BASE_DEFAULTS = dict(snr_db_grid=tuple(float(s) for s in range(0, 45, 5)),
                      K_rule="ceil_P", d=1, trials=2000, seed=12345)
_ENTRY = object()  # default of the fields a registry entry sets
THRESHOLD_METHODS = ("closed_form_d1", "lambert", "asymptotic", "numeric")
# the designs fig4 compares; a Monte Carlo run designs _optimal_method(d)
_FIG4_METHODS = ("numeric", "lambert", "asymptotic")
_MAX_REDRAWS = 1000
_RVQ_BIT_LIMIT = 24
# the largest even bit budget b with 2^(b/2) codewords a finite double
_MAX_BITS = 2046
_INT_FIELDS = ("d", "trials", "seed")
# the largest d with valid G(2d, d) constants: log c_{2d,d} falls strictly
# with d, -652.8 at d = 18 and -746.5 at d = 19, where c underflows to 0
_MAX_DESIGN_D = 18
# channel bytes the drops of one chunk of trials may hold: 8 fig5 drops
# (K = 100, d = 2) or 3 at K = 1000 and d = 1; from K = 10^4 (d = 1) a
# chunk is one trial and takes the memory of that one drop
_CHUNK_BYTES = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: grids, streams per transmitter d (nr = 2d, nt = d
    and the threshold design follow), trial count, seed, output. A field not
    passed takes its registry entry's default; strings are stripped, and an
    int field's string read as an int. k_values (derived): K per grid point.
    """

    experiment: str
    snr_db_grid: tuple = _ENTRY
    K_rule: str = _ENTRY
    d: int = _ENTRY
    trials: int = _ENTRY
    seed: int = _ENTRY
    output_path: str = ""
    k_values: tuple = dataclasses.field(init=False)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise UnknownExperiment(self.experiment)
        spec = EXPERIMENTS[self.experiment]
        defaults = {**_BASE_DEFAULTS, **spec.defaults}
        for name in _FIELD_NAMES[1:]:
            value = getattr(self, name)
            if value is _ENTRY:
                value = defaults[name]
            elif isinstance(value, str):
                value = value.strip()
            if name in _INT_FIELDS:
                if isinstance(value, str):
                    with contextlib.suppress(ValueError):
                        value = int(value)
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        grid = self.snr_db_grid
        if isinstance(grid, str):
            grid = grid.split(",")
        try:
            grid = tuple(float(s) for s in grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"snr_db_grid must be a list of numbers, "
                              f"got {self.snr_db_grid!r}") from exc
        if not grid:
            raise ConfigError("snr_db_grid must not be empty")
        if len(set(grid)) != len(grid):
            raise ConfigError(f"snr_db_grid values must be distinct, got {grid}")
        object.__setattr__(self, "snr_db_grid", grid)
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        kind, payload = parse_k_rule(self.K_rule)
        if kind == "ceil_P_pow" and payload % self.d:
            raise ConfigError(
                f"ceil_P_pow exponent {payload} is not a multiple of d={self.d}")
        if spec.k_rule != "any" and kind != "fixed":
            raise ConfigError(f"{self.experiment} requires K_rule fixed:...")
        if spec.k_rule == "bits" and any(b % 2 or b > _MAX_BITS for b in payload):
            raise ConfigError(f"{self.experiment} needs even bit budgets of at most "
                              f"{_MAX_BITS}, got {self.K_rule!r}")
        k_values = []
        for snr_db in grid:
            ks = (0,)
            with contextlib.suppress(OverflowError):
                P = 10.0 ** (snr_db / 10.0)
                # K only from a finite P: math.ceil(nan) raises ValueError
                if 0.0 < P < math.inf:
                    ks = payload if kind == "fixed" else (
                        math.ceil(P if kind == "ceil_P" else P**payload),)
            if min(ks) < 1:
                raise ConfigError(f"snr_db {snr_db} gives no finite power P > 0 "
                                  f"with K >= 1 under K_rule {self.K_rule!r}")
            k_values.append(ks)
        object.__setattr__(self, "k_values", tuple(k_values))
        designs = (_optimal_method(self.d),) if spec.designs is None else spec.designs
        for method in designs:
            _check_threshold_method(method, self.d)
        if any(method != "closed_form_d1" for method in designs):
            # a scipy-backed design: load it now, before any pool forks
            import scipy.optimize  # noqa: F401  (brings scipy.special)
        if not self.output_path:
            object.__setattr__(self, "output_path",
                               os.path.join("results", f"{self.experiment}.csv"))


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: one scheme at one grid point."""

    experiment: str
    snr_db: float
    K: int
    scheme: str
    mean_sum_rate: float
    stderr: float
    outage_rate: float
    mean_eligible: float
    threshold_used: float
    trials: int

    def __post_init__(self):
        if self.stderr == self.stderr and self.stderr < 0:
            raise ConfigError("stderr must be nonnegative")
        if self.outage_rate == self.outage_rate and not 0 <= self.outage_rate <= 1:
            raise ConfigError("outage_rate must lie in [0, 1]")


@dataclass(frozen=True)
class TrialRows:
    """Results of one drop (run_trial), a (len(keys), 3) float array, or of
    several (run_trials), a (trials, len(keys), 3) array. Row n of a drop
    is, for the (scheme, K) pair keys[n], the sum rate over the three
    cells, the outage count and the eligible-count sum (NaN for a scheme
    without eligibility). redraws counts the degenerate draws rejected."""

    keys: tuple
    rows: np.ndarray
    redraws: int = 0


def parse_k_rule(rule: str):
    """Split a K_rule string into (kind, payload).

    "ceil_P" couples K to power as K = ceil(P); "ceil_P_pow:E" as
    K = ceil(P^E) with integer E; "fixed:10,50,100" evaluates the listed
    K values (ascending) at every SNR point. For the OIA-vs-IA
    comparison the fixed values double as the per-cell feedback bit
    budgets, with K = n_bits users.
    """
    if not isinstance(rule, str):
        raise ConfigError(f"K_rule must be a string, got {rule!r}")
    parts = rule.split(":", 1)
    kind = parts[0].strip()
    if kind == "ceil_P":
        if len(parts) > 1 and parts[1].strip():
            raise ConfigError("ceil_P takes no argument")
        return "ceil_P", None
    if kind == "ceil_P_pow":
        if len(parts) != 2:
            raise ConfigError("ceil_P_pow requires an exponent, e.g. ceil_P_pow:2")
        try:
            exponent = int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad ceil_P_pow exponent {parts[1]!r}") from exc
        if exponent < 1:
            raise ConfigError("ceil_P_pow exponent must be at least 1")
        return "ceil_P_pow", exponent
    if kind == "fixed":
        if len(parts) != 2:
            raise ConfigError("fixed requires a value list, e.g. fixed:10,50,100")
        try:
            values = tuple(sorted(int(v) for v in parts[1].split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad fixed K list {parts[1]!r}") from exc
        if not values or values[0] < 1:
            raise ConfigError("fixed K values must be positive integers")
        if len(set(values)) != len(values):
            raise ConfigError(f"fixed K values must be distinct, got {parts[1]!r}")
        return "fixed", values
    raise ConfigError(f"unknown K_rule {rule!r}")


def _check_threshold_method(method: str, d: int) -> None:
    if method == "closed_form_d1" and d != 1:
        raise ConfigError("closed_form_d1 threshold requires d=1")
    if d > _MAX_DESIGN_D:
        raise ConfigError(f"d={d} has no valid G(2d, d) constants to design "
                          f"a threshold (d <= {_MAX_DESIGN_D})")


def _optimal_method(d: int) -> str:
    """The optimal threshold's design: closed form at d = 1, numeric above."""
    return "closed_form_d1" if d == 1 else "numeric"


@lru_cache(maxsize=None)
def design_threshold(method: str, K: int, d: int) -> float:
    """The 1-bit threshold that method (one of THRESHOLD_METHODS) designs
    for K candidate users with d streams, on G(2d, d), cached."""
    _check_threshold_method(method, d)
    params = ManifoldParams(2 * d, d)
    if method == "closed_form_d1":
        return optimal_threshold_d1(K)
    if method == "lambert":
        return threshold_lambert(K, params)
    if method == "asymptotic":
        return threshold_asymptotic(K, params)
    return threshold_numeric(K, params)


def _draw_ia_channels(rng: np.random.Generator) -> np.ndarray:
    return complex_normal(rng, (3, 3, 2, 2), INV_SQRT2)


def _count_redraw(redraws: np.ndarray, t: int) -> None:
    redraws[t] += 1
    if redraws[t] > _MAX_REDRAWS:
        raise DegenerateChannel(f"more than {_MAX_REDRAWS} degenerate draws in one trial")


def _oia_drops(d: int, kmax: int, rngs, redraws):
    """One non-degenerate OIA channel drop of kmax users per cell and d
    streams per rng, drawn in place into one ChannelSet of len(rngs) * kmax
    users per cell (trial t's users at t * kmax onwards), with its
    (trials, 3, kmax) metric array, a view of the drop's (3, len(rngs) *
    kmax) metrics. The trials with a degenerate user in any cell are
    redrawn, each from its own rng, which has drawn nothing else yet."""
    T = len(rngs)
    ch = ChannelSet(np.empty((3, 3, T * kmax, 2 * d, d), dtype=complex))
    slots = [ch.h[:, :, t * kmax:(t + 1) * kmax] for t in range(T)]
    for rng, slot in zip(rngs, slots):
        generate_channels(rng, d, kmax, out=slot)
    while True:
        try:
            return ch, cell_metrics(ch).reshape(3, T, kmax).swapaxes(0, 1)
        except DegenerateChannel as exc:
            for t in np.flatnonzero(exc.where.reshape(3, T, kmax).any(axis=(0, 2))):
                _count_redraw(redraws, t)
                generate_channels(rngs[t], d, kmax, out=slots[t])


def _oia_rows(cfg, P, ks, rngs, redraws, include_perfect=False):
    """Rows, (trials, keys, 3), of the 1-bit scheme (after perfect
    feedback, if included) for each K in ks on each trial's shared drop,
    smaller K as prefixes of the largest.

    All selections come first, each trial's in the order that fixes its rng
    stream; the served users' links are then gathered once, and their
    postfilters and rates take one stacked call each.
    """
    kmax = max(ks)
    ch, metrics = _oia_drops(cfg.d, kmax, rngs, redraws)
    thresholds = [design_threshold(_optimal_method(cfg.d), K, cfg.d) for K in ks]
    selected, eligible = select_one_bit_rows(metrics, ks, thresholds, rngs)
    # (trials, K, cell, scheme) arrays of served user, outage and eligible count
    served = [(selected, eligible == 0, eligible)]
    if include_perfect:
        best = np.stack([select_conventional(metrics[..., :K]) for K in ks], axis=1)
        served.insert(0, (best, np.zeros_like(best), np.full(best.shape, np.nan)))
    users, outage, counts = (np.stack(c, axis=-1) for c in zip(*served))
    users += (kmax * np.arange(len(rngs)))[:, None, None, None]
    links = served_links(ch, np.arange(3)[:, None], users)
    U = postfilter(interference_covariance(links))
    rate = user_rate(links, U, P)
    per_cell = np.stack([rate, outage, counts], axis=-1)
    # summed over the cells in cell order, as a scalar running sum would
    rows = per_cell[:, :, 0] + per_cell[:, :, 1] + per_cell[:, :, 2]
    schemes = ("oia_perfect", "oia_1bit") if include_perfect else ("oia_1bit",)
    keys = tuple((s, K) for K in ks for s in schemes)
    return keys, rows.reshape(len(rngs), len(keys), 3)


def _ia_rows(ch2, sol, P) -> np.ndarray:
    """Rows of IA solutions on ch2, one per solution: every cell served,
    none in outage, no eligibility."""
    rates = ia_link_rates(ch2, sol, P)
    rows = np.zeros(rates.shape)
    rows[..., 0] = rates[..., 0] + rates[..., 1] + rates[..., 2]
    rows[..., 2] = np.nan
    return rows


def _trial_fig2(cfg, P, ks, rngs, redraws):
    keys, rows = _oia_rows(cfg, P, ks, rngs, redraws, include_perfect=True)
    ch2 = np.stack([_draw_ia_channels(rng) for rng in rngs])
    while True:
        try:
            sol = closed_form_ia(ch2)
            break
        except DegenerateChannel as exc:
            for t in np.flatnonzero(exc.where):
                _count_redraw(redraws, t)
                ch2[t] = _draw_ia_channels(rngs[t])
    return (keys + (("ia_closed_form", 1),),
            np.concatenate([rows, _ia_rows(ch2, sol, P)[:, None]], axis=1))


def _trial_fig6(cfg, P, bit_values, rngs, redraws):
    """Each trial quantizes every bit budget first, in ascending order; IA
    and its rates then take one stacked call each. Budgets whose solve is
    degenerate are quantized again, after all the others of their trial."""
    keys, rows = _oia_rows(cfg, P, bit_values, rngs, redraws)
    modes = ["rvq" if b <= _RVQ_BIT_LIMIT else "perturbation" for b in bit_values]
    ch2 = np.empty((len(rngs), 3, 3, 2, 2), dtype=complex)
    quantized = np.empty((len(rngs), len(bit_values), 3, 3, 2, 2), dtype=complex)
    for t, rng in enumerate(rngs):
        ch2[t] = _draw_ia_channels(rng)
        for n, (b, mode) in enumerate(zip(bit_values, modes)):
            quantized[t, n] = quantized_channel_set(ch2[t], b, mode, rng)
    while True:
        try:
            sol = closed_form_ia(quantized)
            break
        except DegenerateChannel as exc:
            for t, n in zip(*np.nonzero(exc.where)):
                _count_redraw(redraws, t)
                quantized[t, n] = quantized_channel_set(ch2[t], bit_values[n],
                                                        modes[n], rngs[t])
    return (keys + tuple(("ia_individual", b) for b in bit_values),
            np.concatenate([rows, _ia_rows(ch2[:, None], sol, P)], axis=1))


def run_trials(cfg: ExperimentConfig, snr_db: float, trial_indices) -> TrialRows:
    """Monte Carlo drops trial_indices at one SNR grid point, all schemes
    evaluated; rows has shape (trials, keys, 3).

    Trial t draws from np.random.default_rng([seed, point, t]), in the same
    order, exactly what run_trial(cfg, snr_db, t) draws, so its rows are
    that call's bit for bit. The trials run in chunks holding at most
    _CHUNK_BYTES of channel drops (at least one trial each), and each
    stage of a chunk (metrics, selection, IA, rates) is one stacked call.
    """
    trial = EXPERIMENTS[cfg.experiment].trial
    if trial is None:
        raise UnknownExperiment(f"{cfg.experiment} runs no Monte Carlo trials")
    trial_indices = list(trial_indices)
    if not trial_indices:
        raise ConfigError("run_trials needs at least one trial index")
    if float(snr_db) not in cfg.snr_db_grid:
        raise ConfigError(f"snr_db {snr_db} is not on the grid {cfg.snr_db_grid}")
    point = cfg.snr_db_grid.index(float(snr_db))
    P = 10.0 ** (float(snr_db) / 10.0)
    ks = cfg.k_values[point]
    drop_bytes = np.dtype(complex).itemsize * _drop_entries(cfg, point)
    size = max(1, _CHUNK_BYTES // drop_bytes)
    redraws = np.zeros(len(trial_indices), dtype=int)
    rows = []
    for start in range(0, len(trial_indices), size):
        rngs = [np.random.default_rng([cfg.seed, point, t])
                for t in trial_indices[start:start + size]]
        keys, chunk = trial(cfg, P, ks, rngs, redraws[start:start + size])
        rows.append(chunk)
    return TrialRows(keys, np.concatenate(rows), int(redraws.sum()))


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int) -> TrialRows:
    """One Monte Carlo drop at one SNR grid point, all schemes evaluated;
    the one-trial case of run_trials.

    The rng derives from (seed, grid index of snr_db, trial_index), so the
    same triple always reproduces the same rows. The keys, and their order,
    depend on the experiment and the grid point only.
    """
    out = run_trials(cfg, snr_db, (trial_index,))
    return TrialRows(out.keys, out.rows[0], out.redraws)


def _drop_entries(cfg: ExperimentConfig, point: int) -> int:
    """Channel entries of one drop at grid point index point: 9 links of
    max(K) users with nr x nt = 2d x d antennas each."""
    return 18 * max(cfg.k_values[point]) * cfg.d ** 2


def _trial_tasks(cfg: ExperimentConfig, workers: int) -> list:
    """The run's (grid point, trial range) tasks, costliest first.

    A task costs its trials times the point's drop entries. The point with
    the largest drop is cut into ranges of trials // (8 workers) trials (a
    serial run takes it whole), every other point into ranges of about the
    same cost, so the trials at K = 1 and at K = 10^4 travel in tasks of
    like size. Each trial is in exactly one task.
    """
    entries = [_drop_entries(cfg, point) for point in range(len(cfg.k_values))]
    step = cfg.trials if workers == 1 else max(1, cfg.trials // (workers * 8))
    top = max(entries)
    tasks = []
    for point, n in enumerate(entries):
        span = max(1, step * top // n)
        tasks.extend((point, range(s, min(s + span, cfg.trials)))
                     for s in range(0, cfg.trials, span))
    # ties go to the larger drop
    return sorted(tasks, key=lambda task: (-len(task[1]) * entries[task[0]],
                                           -entries[task[0]]))


def _aggregate_point(cfg, snr_db, keys, trial_rows) -> list:
    """One ResultRow per (scheme, K) key from the (trials, keys, 3) array of
    the point's TrialRows.rows. Outage and eligible totals are exact
    integers, so their means are exact up to the one division."""
    n = len(trial_rows)
    rows = []
    columns = np.ascontiguousarray(trial_rows.transpose(1, 2, 0))
    for (scheme, K), (sums, outages, eligible) in zip(keys, columns):
        rows.append(ResultRow(
            experiment=cfg.experiment,
            snr_db=float(snr_db),
            K=K,
            scheme=scheme,
            mean_sum_rate=float(sums.mean()),
            stderr=float(sums.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            outage_rate=float(outages.sum() / (3 * n)),
            mean_eligible=float(eligible.sum() / (3 * n)),
            threshold_used=(design_threshold(_optimal_method(cfg.d), K, cfg.d)
                            if scheme == "oia_1bit" else float("nan")),
            trials=n,
        ))
    return rows


def _check_drop_fits(cfg: ExperimentConfig) -> None:
    """Refuse a run whose largest channel drop, with its (3, K) metric
    array, exceeds physical memory; the draw and the metrics work in
    blocks whose size does not grow with K."""
    kmax = max(max(ks) for ks in cfg.k_values)
    entries = max(_drop_entries(cfg, point) for point in range(len(cfg.k_values)))
    need = np.dtype(complex).itemsize * entries + np.dtype(float).itemsize * 3 * kmax
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ConfigError(f"one channel drop with K={kmax} needs about {need:.3g} B, "
                          f"more than the {have:.3g} B of physical memory")


def __getattr__(name):
    # the pool and its stack (multiprocessing, socket, subprocess) load
    # with the first pool, so a serial run holds none of them; the name is
    # then a plain attribute, which tests and perfbench/layertrace.py replace
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _run_monte_carlo(cfg: ExperimentConfig, workers: int = 1) -> list:
    _check_drop_fits(cfg)
    tasks = _trial_tasks(cfg, workers)
    left = Counter(point for point, _ in tasks)
    outputs = {}
    with (sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        mapped = (map if pool is None else pool.map)(
            run_trials, repeat(cfg), [cfg.snr_db_grid[point] for point, _ in tasks],
            [trials for _, trials in tasks])
        for (point, trials), out in zip(tasks, mapped):
            outputs[point, trials.start] = out
            left[point] -= 1
            if not left[point]:
                print(f"{cfg.experiment}: point {point + 1}/{len(cfg.snr_db_grid)} "
                      f"(snr {cfg.snr_db_grid[point]:g} dB) done", file=sys.stderr)
    rows = []
    for point, snr_db in enumerate(cfg.snr_db_grid):
        point_outputs = [outputs[key] for key in sorted(outputs) if key[0] == point]
        rows.extend(_aggregate_point(cfg, snr_db, point_outputs[0].keys,
                                     np.concatenate([o.rows for o in point_outputs])))
    redraws = sum(o.redraws for o in outputs.values())
    total = cfg.trials * len(cfg.snr_db_grid)
    if redraws > 0.001 * total:
        print(f"{cfg.experiment}: {redraws} degenerate redraws over "
              f"{total} trials", file=sys.stderr)
    return rows


def _run_fig4(cfg: ExperimentConfig, workers: int = 1) -> list:
    rows = []
    for K in cfg.k_values[0]:
        for method in _FIG4_METHODS:
            try:
                x = design_threshold(method, K, cfg.d)
            except TooFewUsers:
                x = float("nan")
            rows.append(ResultRow(
                experiment=cfg.experiment, snr_db=float("nan"), K=K,
                scheme=method, mean_sum_rate=float("nan"), stderr=float("nan"),
                outage_rate=float("nan"), mean_eligible=float("nan"),
                threshold_used=x, trials=0))
    return rows


def _run_fig7(cfg: ExperimentConfig, workers: int = 1) -> list:
    """OIA counted at nr = 2d, IA at the 2 x 2 links of the IA baseline,
    the only ones oiasim.ia handles."""
    rows = []
    for b in cfg.k_values[0]:
        rows.append(FlopReport("oia_1bit", b, flops_oia_1bit(2 * cfg.d, cfg.d, b)))
        rows.append(FlopReport("ia_joint", b, flops_ia_joint(2, 2, b)))
        rows.append(FlopReport("ia_individual", b, flops_ia_individual(2, 2, b)))
    return rows


@dataclass(frozen=True)
class Experiment:
    """Registry entry, the one definition of an experiment: CLI description,
    config defaults (where they differ from _BASE_DEFAULTS), row producer;
    trial, a Monte Carlo experiment's chunk kernel (cfg, P, ks, rngs,
    redraws) -> (keys, (trials, keys, 3) rows); the threshold designs it
    runs (None: the optimal design at the config's d); and its K rule, "any",
    "fixed" (a fixed: list) or "bits" (even bit budgets up to _MAX_BITS).
    """

    description: str
    defaults: dict = dataclasses.field(default_factory=dict)
    runner: object = _run_monte_carlo
    trial: object = None
    designs: tuple | None = None
    k_rule: str = "any"


EXPERIMENTS = {
    "fig2_sumrate_d1": Experiment(
        description="d=1 sum rate vs SNR, K=ceil(P): 1-bit OIA against "
                    "perfect-feedback OIA and closed-form IA",
        trial=_trial_fig2),
    "fig3_eligible_users": Experiment(
        description="d=1 eligible-user counts vs SNR under the 1-bit "
                    "threshold, K=ceil(P)",
        trial=_oia_rows),
    "fig4_threshold_compare": Experiment(
        description="d=2 threshold design table: numeric vs Lambert vs "
                    "asymptotic over a K grid (no Monte Carlo)",
        defaults=dict(snr_db_grid=(30.0,), K_rule="fixed:100,316,1000,3162,10000",
                      d=2, trials=1),
        runner=_run_fig4, designs=_FIG4_METHODS, k_rule="fixed"),
    "fig5_sumrate_d2": Experiment(
        description="d=2 sum rate vs SNR for K in {10,50,100}, 1-bit "
                    "feedback with the numeric threshold",
        # below 10 dB the noise-limited rates of the three K values
        # coincide, so the grid starts where user scaling matters
        defaults=dict(snr_db_grid=tuple(float(s) for s in range(10, 45, 5)),
                      K_rule="fixed:10,50,100", d=2, trials=500),
        trial=_oia_rows),
    "fig6_oia_vs_ia": Experiment(
        description="1-bit OIA with K=n_bits users against limited-feedback "
                    "IA at the same per-cell bit budget",
        defaults=dict(K_rule="fixed:10,16,24,28,32,36,40", trials=500),
        trial=_trial_fig6, k_rule="bits"),
    "fig7_complexity_table": Experiment(
        description="feedback FLOP counts per cell: 1-bit OIA vs joint and "
                    "individual IA quantization (no Monte Carlo)",
        defaults=dict(snr_db_grid=(0.0,),
                      K_rule="fixed:" + ",".join(str(b) for b in range(2, 42, 2)),
                      trials=1),
        runner=_run_fig7, designs=(), k_rule="bits"),
}

_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.init)


def load_config_file(path: str) -> dict:
    """Parse a flat key=value config file into an override dict.

    Blank lines are ignored, and so is a '#' comment that starts a line or
    follows whitespace (a '#' inside a value is part of it); keys must be
    ExperimentConfig field names, each set at most once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    overrides, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set "
                              f"on line {set_on[key]}")
        overrides[key], set_on[key] = value, lineno
    return overrides


def make_config(experiment: str, overrides: dict | None = None) -> ExperimentConfig:
    """Registry defaults for an experiment with overrides applied on top."""
    values = dict(overrides or {})
    for key, value in values.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "experiment" and value != experiment:
            raise ConfigError(
                f"config file names experiment {value!r}, running {experiment!r}")
    values["experiment"] = experiment
    return ExperimentConfig(**values)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_csv(path: str, rows: list) -> None:
    """Write rows atomically: temp file in the target directory, then rename.

    The first line is a '# generated_at=...' comment; the rest is the
    header (field names of the row type) and one line per row, floats
    with 9 significant digits.
    """
    if not rows:
        raise ConfigError("refusing to write an empty table")
    names = tuple(f.name for f in dataclasses.fields(type(rows[0])))
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, n)) for n in names))
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    content = f"# generated_at={stamp}\n" + "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp_name = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".oiasim-", suffix=".csv")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp_name, path)
        tmp_name = None
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp_name is not None and os.path.exists(tmp_name):
            os.unlink(tmp_name)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Produce all rows of one experiment and write them to cfg.output_path.

    workers must be an integer of at least 1; more than the CPUs this
    process may run on (os.sched_getaffinity where it exists, else
    os.cpu_count()) are capped there.
    """
    if (isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
            or workers < 1):
        raise ConfigError(f"workers must be an integer of at least 1, got {workers!r}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    rows = EXPERIMENTS[cfg.experiment].runner(cfg, min(workers, cpus))
    write_csv(cfg.output_path, rows)
    return rows
