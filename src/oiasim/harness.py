"""Experiment registry and seeded Monte Carlo driver.

Each experiment writes one CSV table. The random stream of trial t at
grid point index p is np.random.default_rng([seed, p, t]), so results do
not depend on execution order or on how trials are distributed over
worker processes; schemes under comparison share each drop.

run_trials runs trials at every grid point, each point in chunks, and
returns plain (keys, rows, redraws). Each trial of a chunk draws from its
own stream, in the same order as when it runs alone (run_trial); the chunk
then computes the metrics, the selections (select_one_bit), the IA pairs
(closed_form_ia) and the rates of all its trials in one stacked call each.
A chunk holds at most _CHUNK_BYTES of the point's channel drops and
Generators, and at least one trial, so memory stays bounded at large K.
The CSV body therefore does not depend on the chunk size, nor on --workers.

A run is one list of equal trial ranges, mapped over one process pool
(or, as one range, by the builtin map); the triples are concatenated in
trial order and each point is reduced in grid order. Memory, then the
output path, are checked first; the CSV gets open()'s mode under the umask.

The draw (grassmann.complex_normal), the metrics (channel.cell_metrics)
and the RVQ codebooks work in blocks of one size, grassmann._BLOCK_SIZE,
with the same stream and bits as one pass; so a run needs its largest
drop with its (3, K) metrics, two copies of its stored rows and a
constant that does not grow with K, which it checks against memory first.
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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from itertools import repeat

import numpy as np

from .channel import (ChannelSet, _drop_shape, cell_metrics, generate_channels,
                      interference_covariance, postfilter, served_links, user_rate)
from .complexity import (FlopReport, flops_ia_individual, flops_ia_joint,
                         flops_oia_1bit)
from .errors import (ConfigError, DegenerateChannel, IoError, TooFewUsers,
                     UnknownExperiment)
from .grassmann import INV_SQRT2, MAX_D, complex_normal
from .ia import (MAX_BITS, closed_form_ia, feedback_mode, ia_link_rates,
                 quantized_channel_set)
from .oia import select_conventional, select_one_bit
# optimal_threshold_d1 goes unused here; perfbench/layertrace.py patches it
from .threshold import (optimal_threshold_d1, threshold_asymptotic,
                        threshold_lambert, threshold_numeric)

# the config every experiment starts from; a registry entry lists what differs
_BASE_DEFAULTS = dict(snr_db_grid=tuple(float(s) for s in range(0, 45, 5)),
                      K_rule="ceil_P", d=1, trials=2000, seed=12345)
_ENTRY = object()  # default of the fields a registry entry sets
# the designs, in fig4's order; a Monte Carlo run designs "numeric"
THRESHOLD_METHODS = ("numeric", "lambert", "asymptotic")
_MAX_REDRAWS = 1000
_INT_FIELDS = ("d", "trials", "seed")
# bytes the drops and Generators of one chunk of trials may hold: 8 fig5
# drops (K = 100, d = 2), 3 at K = 1000 and d = 1, or 672 trials at K = 1;
# from K = 10^4 (d = 1) a chunk is one trial and takes that drop's memory
_CHUNK_BYTES = 1_000_000
_GENERATOR_BYTES = 1_200  # a trial's np.random.Generator, about 0.9-1.2 kB
# a pooled run maps this many trial ranges per worker
_TASKS_PER_WORKER = 4


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
        if spec.k_rule != "any" and kind != "fixed":
            raise ConfigError(f"{self.experiment} requires K_rule fixed:...")
        if spec.k_rule == "bits" and any(b % 2 or b > MAX_BITS for b in payload):
            raise ConfigError(f"{self.experiment} needs even bit budgets of at most "
                              f"{MAX_BITS}, got {self.K_rule!r}")
        k_values = []
        for snr_db in grid:
            ks = (0,)
            with contextlib.suppress(OverflowError):
                P = 10.0 ** (snr_db / 10.0)
                # K only from a finite P: math.ceil(nan) raises ValueError;
                # P^E from the decibels: a rounded P misses powers of ten
                if 0.0 < P < math.inf:
                    ks = payload if kind == "fixed" else (
                        math.ceil(10.0 ** (payload * snr_db / 10.0)),)
            if min(ks) < 1:
                raise ConfigError(f"snr_db {snr_db} gives no finite power P > 0 "
                                  f"with K >= 1 under K_rule {self.K_rule!r}")
            k_values.append(ks)
        object.__setattr__(self, "k_values", tuple(k_values))
        if spec.designs and self.d > MAX_D:
            raise ConfigError(f"d={self.d} has no valid G(2d, d) constants to "
                              f"design a threshold (d <= {MAX_D})")
        if spec.designs and self.d > 1:
            # a scipy-backed design: load it now, before any pool forks
            __import__("scipy.optimize")  # brings scipy.special
        if not self.output_path:
            object.__setattr__(self, "output_path",
                               os.path.join("results", f"{self.experiment}.csv"))
        # os.replace refuses these only after the run
        if (os.path.basename(self.output_path) in ("", ".", "..")
                or "\0" in self.output_path):
            raise ConfigError(f"output_path {self.output_path!r} names no file "
                              f"or holds a NUL byte")


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


def parse_k_rule(rule: str):
    """Split a K_rule string into (kind, payload).

    "ceil_P_pow:E" couples K to power as K = ceil(P^E) = ceil(10^(E snr_db
    / 10)) for an integer E >= 1, "ceil_P" being E = 1 (E = d^2 is the
    paper's regime); "fixed:10,50,100" evaluates the listed K values
    (ascending) at every SNR point. For the OIA-vs-IA comparison the fixed
    values double as the per-cell feedback bit budgets, with K = n_bits users.
    """
    if not isinstance(rule, str):
        raise ConfigError(f"K_rule must be a string, got {rule!r}")
    parts = rule.split(":", 1)
    kind = parts[0].strip()
    if kind == "ceil_P":
        if len(parts) > 1 and parts[1].strip():
            raise ConfigError("ceil_P takes no argument")
        return "ceil_P_pow", 1
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
        if not values or not 1 <= values[0] <= values[-1] <= sys.float_info.max:
            raise ConfigError("fixed K values must be integers in "
                              f"[1, {sys.float_info.max:.4g}]")
        if len(set(values)) != len(values):
            raise ConfigError(f"fixed K values must be distinct, got {parts[1]!r}")
        return "fixed", values
    raise ConfigError(f"unknown K_rule {rule!r}")


@lru_cache(maxsize=None)
def design_threshold(method: str, K: int, d: int) -> float:
    """The 1-bit threshold that method (one of THRESHOLD_METHODS) designs
    for K candidate users with d streams, on G(2d, d), cached; a d outside
    grassmann.ball_volume's range raises its ShapeMismatch."""
    if method == "numeric":
        return threshold_numeric(K, d)
    if method == "lambert":
        return threshold_lambert(K, d)
    if method == "asymptotic":
        return threshold_asymptotic(K, d)
    raise ConfigError(f"unknown threshold method {method!r}")


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
    ch = ChannelSet(np.empty(_drop_shape(T * kmax, d), dtype=complex))
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
    thresholds = [design_threshold("numeric", K, cfg.d) for K in ks]
    selected, eligible = select_one_bit(metrics, ks, thresholds, rngs)
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


def _ia_rows(ch2, csi, redraw, P, redraws) -> np.ndarray:
    """Rows, (trials, ..., 3), of closed-form IA solved on csi, a (trials,
    ..., 3, 3, 2, 2) stack, and rated on the true channels ch2 broadcast
    against it: every cell served, none in outage, no eligibility. Each
    entry closed_form_ia marks degenerate is replaced, in index order, by
    redraw(t, ...) of its index, counted against trial t, until none is."""
    while True:
        try:
            sol = closed_form_ia(csi)
            break
        except DegenerateChannel as exc:
            for index in zip(*np.nonzero(exc.where)):
                _count_redraw(redraws, index[0])
                csi[index] = redraw(*index)
    rates = ia_link_rates(ch2, *sol, P)
    rows = np.zeros(rates.shape)
    rows[..., 0] = rates[..., 0] + rates[..., 1] + rates[..., 2]
    rows[..., 2] = np.nan
    return rows


def _trial_fig2(cfg, P, ks, rngs, redraws):
    """Perfect CSI: IA is solved and rated on the same channels, so a
    degenerate trial draws its IA channels again."""
    keys, rows = _oia_rows(cfg, P, ks, rngs, redraws, include_perfect=True)
    ch2 = np.stack([_draw_ia_channels(rng) for rng in rngs])
    ia = _ia_rows(ch2, ch2, lambda t: _draw_ia_channels(rngs[t]), P, redraws)
    return keys + (("ia_closed_form", 1),), np.concatenate([rows, ia[:, None]], axis=1)


def _trial_fig6(cfg, P, bit_values, rngs, redraws):
    """Every trial draws its IA channels, then each bit budget, ascending,
    quantizes the whole chunk in one call. A degenerate budget is quantized
    again, alone, after the others of its trial."""
    keys, rows = _oia_rows(cfg, P, bit_values, rngs, redraws)
    ch2 = np.stack([_draw_ia_channels(rng) for rng in rngs])
    quantized = np.stack([quantized_channel_set(ch2, b, feedback_mode(b), rngs)
                          for b in bit_values], axis=1)
    ia = _ia_rows(ch2[:, None], quantized, lambda t, n: quantized_channel_set(
        ch2[t], bit_values[n], feedback_mode(bit_values[n]), rngs[t]), P, redraws)
    return (keys + tuple(("ia_individual", b) for b in bit_values),
            np.concatenate([rows, ia], axis=1))


def _checked_trials(cfg: ExperimentConfig, trial_indices):
    """trial_indices, a range kept as one or else as a list, if valid."""
    if EXPERIMENTS[cfg.experiment].trial is None:
        raise UnknownExperiment(f"{cfg.experiment} runs no Monte Carlo trials")
    is_range = isinstance(trial_indices, range)
    trials = trial_indices if is_range else list(trial_indices)
    if not trials:
        raise ConfigError("run_trials needs at least one trial index")
    for t in (trials[0], trials[-1]) if is_range else trials:
        if isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 0:
            raise ConfigError(f"trial indices must be non-negative integers, got {t!r}")
    return trials


def _point_rows(cfg: ExperimentConfig, point: int, trials) -> tuple:
    """(keys, (trials, keys, 3) rows, redraws) of the checked trials at grid
    point index point, in chunks holding at most _CHUNK_BYTES of the point's
    channel drops and their Generators (at least one trial each)."""
    P = 10.0 ** (cfg.snr_db_grid[point] / 10.0)
    drop_bytes = (np.dtype(complex).itemsize
                  * math.prod(_drop_shape(max(cfg.k_values[point]), cfg.d)))
    size = max(1, _CHUNK_BYTES // (drop_bytes + _GENERATOR_BYTES))
    rows, redraws = [], 0
    for start in range(0, len(trials), size):
        rngs = [np.random.default_rng([cfg.seed, point, t])
                for t in trials[start:start + size]]
        counts = np.zeros(len(rngs), dtype=int)
        keys, chunk = EXPERIMENTS[cfg.experiment].trial(
            cfg, P, cfg.k_values[point], rngs, counts)
        rows.append(chunk)
        redraws += int(counts.sum())
    return keys, np.concatenate(rows), redraws


def run_trials(cfg: ExperimentConfig, trial_indices) -> tuple:
    """Monte Carlo drops trial_indices at every SNR grid point, all schemes
    evaluated, as (keys, rows, redraws): keys holds one tuple of (scheme, K)
    keys per point; rows, of shape (points, trials, keys, 3), holds for each
    key the sum rate over the three cells, the outage count and the
    eligible-count sum (NaN for a scheme without eligibility); redraws
    counts the degenerate draws rejected.

    Trial t at grid point index p draws from default_rng([seed, p, t]),
    exactly what run_trial(cfg, snr_db, t) draws, so its rows are that
    call's bit for bit. Each point runs its trials in chunks (_point_rows),
    each stage of a chunk (metrics, selection, IA, rates) one stacked call.
    """
    trials = _checked_trials(cfg, trial_indices)
    keys, rows, redraws = zip(*(_point_rows(cfg, point, trials)
                                for point in range(len(cfg.snr_db_grid))))
    return keys, np.stack(rows), sum(redraws)


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int) -> tuple:
    """One Monte Carlo drop at one SNR grid point, all schemes evaluated:
    run_trials' (keys, rows, redraws) of that trial at that point, with
    rows of shape (keys, 3).

    The rng derives from (seed, grid index of snr_db, trial_index), so the
    same triple always reproduces the same rows. The keys, and their order,
    depend on the experiment and the grid point only.
    """
    trials = _checked_trials(cfg, (trial_index,))
    if not isinstance(snr_db, numbers.Real) or float(snr_db) not in cfg.snr_db_grid:
        raise ConfigError(f"snr_db {snr_db!r} is not on the grid {cfg.snr_db_grid}")
    keys, rows, redraws = _point_rows(cfg, cfg.snr_db_grid.index(float(snr_db)), trials)
    return keys, rows[0], redraws


def _aggregate_point(cfg, snr_db, keys, trial_rows) -> list:
    """One ResultRow per (scheme, K) key from the (trials, keys, 3) rows of
    one grid point. Outage and eligible totals are exact integers, so their
    means are exact up to the one division."""
    n = len(trial_rows)
    columns = trial_rows.transpose(1, 2, 0)  # each key's strided columns, no copy
    return [ResultRow(
        experiment=cfg.experiment,
        snr_db=float(snr_db),
        K=K,
        scheme=scheme,
        mean_sum_rate=float(sums.mean()),
        stderr=float(sums.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        outage_rate=float(outages.sum() / (3 * n)),
        mean_eligible=float(eligible.sum() / (3 * n)),
        threshold_used=(design_threshold("numeric", K, cfg.d)
                        if scheme == "oia_1bit" else float("nan")),
        trials=n,
    ) for (scheme, K), (sums, outages, eligible) in zip(keys, columns)]


def _check_run_fits(cfg: ExperimentConfig) -> None:
    """Refuse a run whose largest channel drop, with its (3, K) metric
    array, and its stored float64 rows (points x trials x keys x 3) exceed
    physical memory; the rows count twice, as the run holds them alongside
    their concatenation, while the draw and the metrics work in blocks
    whose size does not grow with K."""
    kmax = max(max(ks) for ks in cfg.k_values)
    keys = sum(EXPERIMENTS[cfg.experiment].key_count(ks) for ks in cfg.k_values)
    need = (np.dtype(complex).itemsize * math.prod(_drop_shape(kmax, cfg.d))
            + np.dtype(float).itemsize * 3 * (kmax + 2 * cfg.trials * keys))
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ConfigError(f"{cfg.trials} trials with a drop of K={kmax} need about "
                          f"{need:.3g} B, more than the {have:.3g} B of physical memory")


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
    step = (cfg.trials if workers == 1
            else max(1, cfg.trials // (_TASKS_PER_WORKER * workers)))
    tasks = [range(s, min(s + step, cfg.trials)) for s in range(0, cfg.trials, step)]
    workers = min(workers, len(tasks))      # no idle forks
    outputs = []
    with (sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        mapped = (map if pool is None else pool.map)(run_trials, repeat(cfg), tasks)
        for n, (trials, out) in enumerate(zip(tasks, mapped), 1):
            outputs.append(out)
            print(f"{cfg.experiment}: task {n}/{len(tasks)} (trials {trials.start}-"
                  f"{trials.stop - 1}) done", file=sys.stderr)
    keys, trial_rows, redraws = zip(*outputs)
    trial_rows = np.concatenate(trial_rows, axis=1)
    rows = [row for point, snr_db in enumerate(cfg.snr_db_grid) for row in
            _aggregate_point(cfg, snr_db, keys[0][point], trial_rows[point])]
    redraws = sum(redraws)
    total = cfg.trials * len(cfg.snr_db_grid)
    if redraws > 0.001 * total:
        print(f"{cfg.experiment}: {redraws} degenerate redraws over "
              f"{total} trials", file=sys.stderr)
    return rows


def _run_fig4(cfg: ExperimentConfig, workers: int = 1) -> list:
    rows = []
    for K in cfg.k_values[0]:
        for method in THRESHOLD_METHODS:
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
    rows = []
    for b in cfg.k_values[0]:
        rows.append(FlopReport("oia_1bit", b, flops_oia_1bit(cfg.d, b)))
        rows.append(FlopReport("ia_joint", b, flops_ia_joint(b)))
        rows.append(FlopReport("ia_individual", b, flops_ia_individual(b)))
    return rows


@dataclass(frozen=True)
class Experiment:
    """Registry entry, the one definition of an experiment: CLI description,
    config defaults (where they differ from _BASE_DEFAULTS), row producer;
    trial, a Monte Carlo experiment's chunk kernel (cfg, P, ks, rngs,
    redraws) -> (keys, (trials, keys, 3) rows); designs, whether it
    designs a threshold (so d <= grassmann.MAX_D); its K rule, "any",
    "fixed" (a fixed: list) or "bits" (even bit budgets up to ia.MAX_BITS);
    and key_count, the keys its trial gives a point of K values ks.
    """

    description: str
    defaults: dict = dataclasses.field(default_factory=dict)
    runner: object = _run_monte_carlo
    trial: object = None
    designs: bool = True
    k_rule: str = "any"
    key_count: object = len


EXPERIMENTS = {
    "fig2_sumrate_d1": Experiment(
        description="d=1 sum rate vs SNR, K=ceil(P): 1-bit OIA against "
                    "perfect-feedback OIA and closed-form IA",
        trial=_trial_fig2, key_count=lambda ks: 2 * len(ks) + 1),
    "fig3_eligible_users": Experiment(
        description="d=1 eligible-user counts vs SNR under the 1-bit "
                    "threshold, K=ceil(P)",
        trial=_oia_rows),
    "fig4_threshold_compare": Experiment(
        description="d=2 threshold design table: numeric vs Lambert vs "
                    "asymptotic over a K grid (no Monte Carlo)",
        defaults=dict(snr_db_grid=(30.0,), K_rule="fixed:100,316,1000,3162,10000",
                      d=2, trials=1),
        runner=_run_fig4, k_rule="fixed"),
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
        trial=_trial_fig6, k_rule="bits", key_count=lambda ks: 2 * len(ks)),
    "fig7_complexity_table": Experiment(
        description="feedback FLOP counts per cell: 1-bit OIA vs joint and "
                    "individual IA quantization (no Monte Carlo)",
        defaults=dict(snr_db_grid=(0.0,),
                      K_rule="fixed:" + ",".join(str(b) for b in range(2, 42, 2)),
                      trials=1),
        runner=_run_fig7, designs=False, k_rule="bits"),
}

_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.init)


def load_config_file(path: str) -> dict:
    """Parse a flat key=value config file into an override dict.

    Blank lines are ignored, and so is a '#' comment that starts a line or
    follows whitespace (a '#' inside a value is part of it); keys must be
    ExperimentConfig field names, each set at most once.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _temp_file(path: str) -> str:
    """Name of a new empty temp file beside path, its directory made if need be."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, name = tempfile.mkstemp(dir=directory, prefix=".oiasim-", suffix=".csv")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    os.close(fd)
    return name


def write_csv(path: str, rows: list) -> None:
    """Write rows atomically: temp file in the target directory, then rename.

    The first line is a '# generated_at=...' comment; the rest is the
    header (field names of the row type) and one line per row, floats
    with 9 significant digits. The file mode is open()'s under the umask.
    """
    if not rows:
        raise ConfigError("refusing to write an empty table")
    names = tuple(f.name for f in dataclasses.fields(type(rows[0])))
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join("%.9g" % v if isinstance(v, float) else str(v)
                              for v in dataclasses.astuple(row)))
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    content = f"# generated_at={stamp}\n" + "\n".join(lines) + "\n"
    tmp_name = _temp_file(path)
    try:
        with open(tmp_name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.umask(umask := os.umask(0o077))  # reads the umask, leaving it as it was
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Produce all rows of one experiment and write them to cfg.output_path,
    refused before anything runs (after a Monte Carlo run's memory check)
    if it names a directory or a temp file cannot be made beside it.

    workers must be an integer of at least 1; more than the CPUs this
    process may run on (os.sched_getaffinity where it exists, else
    os.cpu_count()) are capped there, and a Monte Carlo run starts no more
    than it has tasks.
    """
    if (isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
            or workers < 1):
        raise ConfigError(f"workers must be an integer of at least 1, got {workers!r}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if EXPERIMENTS[cfg.experiment].trial is not None:
        _check_run_fits(cfg)  # before the probe below makes any directory
    if os.path.isdir(cfg.output_path):
        raise ConfigError(f"output_path {cfg.output_path!r} is a directory")
    os.unlink(_temp_file(cfg.output_path))  # fail now, not in write_csv after the run
    rows = EXPERIMENTS[cfg.experiment].runner(cfg, min(workers, cpus))
    write_csv(cfg.output_path, rows)
    return rows
