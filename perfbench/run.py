"""oiasim benchmark: four Monte Carlo workloads through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2_largeK --seed 12345 \\
        --seconds 25 --trace 0

Each measured run is one make_config + run_experiment call in a fresh
interpreter (perfbench/child.py), so set-up time and peak memory are per
run. With --trace 0 the benchmark repeats untraced runs for --seconds and
reports medians of the end-to-end metrics, with times scaled by the
host's speed as fixed reference work around each run measures it. With
--trace 1 it alternates untraced and traced runs and reports the
per-layer metrics of perfbench/layertrace.py. Every run's CSV body is
checked: all runs of one invocation must agree byte for byte (traced or
not, any worker count), at the default seed they must match the digest
pinned in pins.json, and at every seed they must pass row-level sanity
checks. The last line of
standard output is one JSON object; the exit code is 0 only when every run
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 12345
DEADLINE_S = 170.0
MIN_RUNS = 3
# Times of the reference work around each run (child.reference_work twice,
# child.large_reference_work once where a workload sets large_reference)
# on the reference machine when it is not slowed; end-to-end times are
# scaled to them.
REFERENCE_S = {"light": 0.40, "large": 0.375}

# Trial counts put one untraced run at about 1-2 s on a 2-CPU Xeon, so a
# 25 s measurement holds several fresh-interpreter runs to take medians of.
WORKLOADS = {
    # drop cost grows with K x 9 channel blocks; K = 1e3..1e5 takes one
    # drop from 0.29 MB to 28.8 MB, across the per-core L2. Streaming large
    # arrays slows less than Python-bound work when the host is slowed, so
    # its reference work includes large draws
    "fig2_largeK": dict(
        experiment="fig2_sumrate_d1",
        overrides={"snr_db_grid": "30,40,50", "trials": 16},
        workers=1, schemes=("oia_perfect", "oia_1bit", "ia_closed_form"), n_k=1,
        large_reference=True),
    # ia (RVQ codebooks up to 24 bits, perturbation model above) does the
    # work; K <= 40 so the channel layer is bypassed
    "fig6_feedback": dict(
        experiment="fig6_oia_vs_ia",
        overrides={"snr_db_grid": "20", "trials": 160},
        workers=1, schemes=("oia_1bit", "ia_individual"), n_k=7,
        large_reference=False),
    # the only d > 1 path: batched QR metrics, 4x4 postfilter, 2x2 rates,
    # numeric threshold design, no ia
    "fig5_d2": dict(
        experiment="fig5_sumrate_d2",
        overrides={"trials": 140},
        workers=1, schemes=("oia_1bit",), n_k=3,
        large_reference=False),
    # the only workload on the ProcessPoolExecutor path; 2 workers is nproc
    # on the reference machine, fixed so the workload is the same elsewhere
    "fig3_parallel": dict(
        experiment="fig3_eligible_users",
        overrides={"trials": 160},
        workers=2, schemes=("oia_1bit",), n_k=1,
        large_reference=False),
}

END_TO_END = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


class Bench:
    """Starts measured runs and keeps what the correctness gate needs."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.digests = []       # (label, digest) of every finished run
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def _spawn(self, spec):
        """Run child.py with spec in its own session; return its JSON."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("benchmark deadline reached")
        spec = dict(spec, src=SRC, t0_ns=time.monotonic_ns())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"run exceeded {timeout:.0f} s") from None
        finally:
            # pool workers share the child's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise ChildFailed(f"exit {proc.returncode}: {tail}")
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildFailed(f"unreadable result {out[-200:]!r}") from None

    def probe(self):
        return self._spawn({"mode": "probe"})

    def run(self, mode, workers=None):
        """One measured run; None if it failed (the failure is recorded)."""
        self.attempted += 1
        label = f"{mode} run {self.attempted} (workers={workers or self.spec['workers']})"
        overrides = dict(self.spec["overrides"], seed=self.seed,
                         output_path=os.path.join(self.work_dir, f"{self.attempted}.csv"))
        try:
            result = self._spawn({
                "mode": mode, "experiment": self.spec["experiment"],
                "overrides": overrides, "workers": workers or self.spec["workers"],
                "schemes": list(self.spec["schemes"]), "n_k": self.spec["n_k"],
                "large_reference": self.spec["large_reference"]})
        except ChildFailed as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        if result["problems"]:
            self.failures.append(f"{label}: " + "; ".join(result["problems"][:5]))
            return None
        self.digests.append((label, result["digest"]))
        return result

    def check_digests(self, pin):
        """Count runs whose CSV body differs from the pinned digest, or, with
        no pin, from the digest most runs of this invocation produced."""
        if not self.digests:
            return
        seen = [d for _, d in self.digests]
        reference = pin or max(set(seen), key=seen.count)
        for label, digest in self.digests:
            if digest != reference:
                self.failures.append(f"{label}: CSV body sha256 {digest}, "
                                     f"expected {reference}")


def machine_facts():
    """Read-only facts about the host: CPUs, cache sizes, CPU model."""
    facts = {"nproc": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(field, index=index):
                with open(os.path.join(base, index, field), encoding="utf-8") as fh:
                    return fh.read().strip()
            level = read("level")
            if level in ("2", "3"):
                facts[f"L{level}"] = f"{read('size')} shared by cpus {read('shared_cpu_list')}"
    except OSError:
        pass
    return facts


def load_pin(workload, versions):
    """Pinned digest at the default seed, or None (with the reason) when the
    pin was recorded under other numpy/scipy versions."""
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    recorded = (pins["numpy"], pins["scipy"])
    if recorded != (versions["numpy"], versions["scipy"]):
        return None, (f"pins recorded under numpy {recorded[0]} scipy "
                      f"{recorded[1]}; sanity checks only")
    return pins["digests"][workload], "pinned digest checked"


def measure(bench, seconds):
    """Untraced runs for `seconds`: medians of the end-to-end metrics.

    Times are scaled by the REFERENCE_S times over the run's own reference
    times, so a host that is slower for a while (the phases in NOTES.md)
    slows the reference work and the run alike and the scaled time stays
    put. The unscaled medians are returned too, for the log."""
    start = time.monotonic()
    runs = []
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        result = bench.run("plain")
        if result is None:
            break
        runs.append(result)
    if not runs:
        return {}, {}, 0
    scale = [sum(REFERENCE_S[k] for k in r["ref_s"]) / sum(r["ref_s"].values())
             for r in runs]
    wall = statistics.median(r["wall_s"] * k for r, k in zip(runs, scale))
    unscaled = {
        "unscaled trials_per_s": runs[0]["trial_points"] / statistics.median(
            r["wall_s"] for r in runs),
        "unscaled setup_s": statistics.median(r["setup_s"] for r in runs),
        "host speed (REFERENCE_S / reference time)": statistics.median(scale),
    }
    return {
        "trials_per_s": runs[0]["trial_points"] / wall,
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(runs, scale)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }, unscaled, len(runs)


def trace(bench, seconds):
    """Alternating untraced/traced pairs for `seconds`: per-layer metrics.

    Spans inside pool workers are lost, so the layer split always comes
    from single-worker runs; a parallel workload adds one parent-side run
    at its own worker count for the pool and IPC counts."""
    start = time.monotonic()
    plain, traced = [], []
    pair = 0
    while pair < MIN_RUNS or time.monotonic() - start < seconds:
        order = ("plain", "traced") if pair % 2 == 0 else ("traced", "plain")
        results = {mode: bench.run(mode, workers=1) for mode in order}
        if None in results.values():
            break
        plain.append(results["plain"])
        traced.append(results["traced"])
        pair += 1
    if not traced:
        return {}, 0
    layers = [t["layers"] for t in traced]
    metrics = {}
    for key in list(layertrace.LAYER_METRICS) + ["trace.wall_s", "trace.run_trial_s"]:
        values = [layer.get(key) for layer in layers]
        if all(v is not None for v in values):
            metrics[key] = statistics.median(values)
    counts = [k for k, unit in layertrace.LAYER_METRICS.items()
              if unit == "count" and k in metrics]
    for key in counts:
        if len({layer[key] for layer in layers}) != 1:
            bench.failures.append(f"count {key} differs between traced runs: "
                                  f"{[layer[key] for layer in layers]}")
    workers, wall = 1, metrics["trace.wall_s"]
    if bench.spec["workers"] > 1:
        pooled = bench.run("pool")
        if pooled is not None:
            metrics.update(pooled["layers"])
            workers, wall = bench.spec["workers"], pooled["wall_s"]
    metrics["harness.parallel_efficiency"] = metrics.pop("trace.run_trial_s") / (workers * wall)
    metrics.pop("trace.wall_s")
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return metrics, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oiasim", "harness.py")):
        print(f"error: no oiasim sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        bench = Bench(args.workload, args.seed, work_dir,
                      time.monotonic() + DEADLINE_S)
        try:
            versions = bench.probe()      # also compiles the sources once
        except ChildFailed as exc:
            print(f"error: cannot import oiasim: {exc}", file=sys.stderr)
            return 2
        pin, pin_note = None, "sanity checks only (non-default seed)"
        if args.seed == DEFAULT_SEED:
            pin, pin_note = load_pin(args.workload, versions)
        unscaled = {}
        if args.trace:
            metrics, samples = trace(bench, args.seconds)
            units = layertrace.LAYER_METRICS
        else:
            metrics, unscaled, samples = measure(bench, args.seconds)
            units = END_TO_END
        bench.check_digests(pin)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    spec = bench.spec
    print(f"workload {args.workload}: {spec['experiment']} "
          f"{spec['overrides']} workers={spec['workers']} seed={args.seed} "
          f"trace={args.trace}; {samples} samples, medians")
    print("machine " + json.dumps({**machine_facts(), **versions}))
    print(f"correctness: {pin_note}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for key, unit in units.items():
        if key in metrics:
            print(f"  {key:42s} {metrics[key]:>14.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:>14.6g} ratio")
    for key, value in unscaled.items():
        print(f"  {key:42s} {value:>14.6g}")
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }))
    return 0 if failed == 0 and len(metrics) == len(units) else 1


if __name__ == "__main__":
    sys.exit(main())
