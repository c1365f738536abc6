"""One measured oiasim run in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the experiment, its config overrides, the worker count,
the mode, and the parent's CLOCK_MONOTONIC reading taken just before it
started this process. Modes:

  plain   untraced run_experiment, timed, between two timings of fixed
          reference work (reference_work, on as many processes as the run
          has workers), which give the host's speed; workloads that stream
          large arrays add large_reference_work
  traced  run_experiment with every layer function wrapped in a span
  pool    untraced run with the harness's process pools counted
  probe   import only; reports library versions and where oiasim lives

The child prints one JSON object: set-up time (interpreter start until
import oiasim and make_config are done), run wall time, reference time,
peak RSS of itself and its worker processes, the sha256 of the CSV body
and the sanity problems it found.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time


def csv_body_digest(path):
    """sha256 of a CSV written by write_csv, without its generated_at line."""
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.startswith(b"# generated_at="):
            raise ValueError(f"{path} has no generated_at line")
        return hashlib.sha256(fh.read()).hexdigest()


def sanity_problems(rows, cfg, schemes, n_k):
    """Row-level checks that hold at any seed."""
    problems = []
    expected = len(schemes) * n_k * len(cfg.snr_db_grid)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    found = sorted({r.scheme for r in rows})
    if found != sorted(schemes):
        problems.append(f"schemes {found}, expected {sorted(schemes)}")
    for r in rows:
        where = f"snr {r.snr_db:g} K {r.K} {r.scheme}"
        if not math.isfinite(r.mean_sum_rate):
            problems.append(f"{where}: mean_sum_rate {r.mean_sum_rate}")
        if not 0.0 <= r.outage_rate <= 1.0:
            problems.append(f"{where}: outage_rate {r.outage_rate}")
        if r.trials != cfg.trials:
            problems.append(f"{where}: trials {r.trials} != {cfg.trials}")
    return problems


def peak_rss_mb():
    """ru_maxrss of this process plus that of its largest finished child
    (the pool workers), in MB; Linux reports ru_maxrss in KiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def reference_work():
    """Fixed work that does not touch oiasim, in three parts of about equal
    time: a pure-Python loop, many small batched QR factorizations and many
    4096 x 2 complex normal draws with a product each, the kinds of work the
    workloads mix. It allocates well under 1 MB at a time, so it leaves the
    peak RSS to the run. Its time, taken next to a run, says how fast the
    host is at that moment."""
    import numpy as np
    rng = np.random.default_rng(0)
    acc = 0.0
    for k in range(1_000_000):
        acc += (k % 7) * 0.5
    for _ in range(2500):
        a = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        acc += float(np.abs(np.linalg.qr(a, mode="r")[:, 0, 0]).min())
    for _ in range(250):
        c = rng.standard_normal((4096, 2)) + 1j * rng.standard_normal((4096, 2))
        acc += float(np.abs(c @ c[:2].conj().T).max())
    return acc


def large_reference_work():
    """Fixed memory-bound work: five 32 MB complex normal draws, each summed.
    Its temporaries reach about 64 MB, so it runs only after the run's peak
    RSS has been read."""
    import numpy as np
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(5):
        big = rng.standard_normal((2, 1 << 20)) + 1j * rng.standard_normal((2, 1 << 20))
        acc += float(np.abs(big).sum())
        del big
    return acc


def timed(work):
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def _start_worker(_):
    import numpy  # noqa: F401  (kept out of the timed reference work)
    time.sleep(0.05)
    return os.getpid()


def _reference_task(_):
    reference_work()


class HostReference:
    """Times reference_work on as many processes at once as the run has
    workers, so a parallel run is scaled by the speed of all its cores: in
    this process for one worker, else on a pool of spawned processes that
    is started before the run and shut down after the run's peak RSS has
    been read, so that the pool counts in neither the run's time nor its
    memory."""

    def __init__(self, workers):
        self.workers = workers
        self.pool = None
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self.pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn"))
            pids = set()
            while len(pids) < workers:      # until every worker has started
                pids.update(self.pool.map(_start_worker, range(workers)))

    def time(self):
        if self.pool is None:
            return timed(reference_work)
        start = time.perf_counter()
        list(self.pool.map(_reference_task, range(self.workers)))
        return time.perf_counter() - start

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


def versions():
    import numpy
    import scipy
    import oiasim
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "oiasim": oiasim.__version__}


def main(spec):
    import oiasim
    from oiasim import harness

    expected_root = os.path.join(spec["src"], "oiasim")
    if os.path.dirname(os.path.abspath(oiasim.__file__)) != expected_root:
        raise RuntimeError(f"imported oiasim from {oiasim.__file__}, "
                           f"expected {expected_root}")
    if spec["mode"] == "probe":
        return versions()

    cfg = harness.make_config(spec["experiment"], spec["overrides"])
    setup_s = (time.monotonic_ns() - spec["t0_ns"]) / 1e9

    tracer = pool = None
    if spec["mode"] in ("traced", "pool"):
        import layertrace
        pool = layertrace.PoolCounter()
        pool.install()
        if spec["mode"] == "traced":
            tracer = layertrace.Tracer()
            tracer.install()
    # the host's speed just before and just after the run
    host = HostReference(spec["workers"]) if spec["mode"] == "plain" else None
    try:
        light_s = host.time() if host else None
        try:
            start = time.perf_counter()
            rows = harness.run_experiment(cfg, workers=spec["workers"])
            wall_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
            if pool is not None:
                pool.restore()
        peak_mb = peak_rss_mb()
        ref_s = None
        if host:
            ref_s = {"light": light_s + host.time()}
            if spec["large_reference"]:
                ref_s["large"] = timed(large_reference_work)
    finally:
        if host:
            host.close()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "trial_points": cfg.trials * len(cfg.snr_db_grid),
        "peak_rss_mb": peak_mb,
        "digest": csv_body_digest(cfg.output_path),
        "problems": sanity_problems(rows, cfg, spec["schemes"], spec["n_k"]),
    }
    if tracer is not None:
        out["layers"] = layertrace.summarize(tracer, pool)
    elif pool is not None:
        out["layers"] = {"harness.pool_starts": pool.pool_starts,
                         "harness.ipc_bytes": pool.ipc_bytes}
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
