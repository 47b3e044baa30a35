"""wedgespan benchmark: closed-loop ``wedgespan`` CLI round trips, one workload per run.

Run from the root of a repository checkout:

    python3 bench/run.py --workload solve-mst --seed 1 --seconds 50 --trace 0

One client on one thread runs the workload's pool of jobs in order, in whole
passes, until ``--seconds`` have elapsed: each job is ``cli.main`` for
``solve``, ``convert`` or ``oracle`` and then for ``verify`` (more than
once on some workloads, see ``workloads.VERIFY_RUNS``), on instance files
written at set-up, and the next job starts when the previous ``verify``
returns. Every distinct result is checked by ``check.py`` without relying
on ``verify``.

Each job runs once per pass. On a shared 2-vCPU Xeon virtual machine the
same job ran 20-50% slower for stretches of seconds to minutes, so with
``--trace 0`` short pieces of fixed reference work (``calib.py``) run
between jobs, and each time is scaled to nominal machine speed by the
pieces around it. A job's time in a run is the median over its passes;
medians and percentiles are then taken over the jobs of the pool. The
unscaled median and the reference pieces' median time are in the run
details.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics. With ``--trace 1`` untraced and traced passes alternate, and the
run reports per-function metrics from ``spans.py`` plus the tracing
overhead. The line before the last holds run details: result digests,
skipped seeds, self-test outcomes, load average and versions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5

# Traced functions, `<module>.<function>` in wedgespan, each with the
# workloads that must call it (the nonzero-calls self-test).
ALL = ("solve-mst", "small-mixed")
SMALL = ("small-mixed",)
LAYERS = {
    "graph.euclidean_mst": ALL,
    "graph.hop_distances_from": SMALL,
    "graph.unit_disk_graph": SMALL,
    "graph.induced_graph": ALL,
    "graph.tsp_tour": ALL,
    "graph.cross_edge": ALL,
    "graph.tree_from_edges": ALL,
    "gadget.orient_quadruplet": SMALL,
    "gadget.verify_coverage": SMALL,
    "gadget.orient_triplet": ALL,
    "approx.build_tree": ALL,
    "approx.verify_alpha_tree": ALL,
    "approx.partition_tour": ALL,
    "spanner.build_spanner": SMALL,
    "spanner.greedy_components": SMALL,
    "spanner.orient_components": SMALL,
    "spanner.verify_hop_spanner": SMALL,
    "geom.angular_spread": ALL,
    "geom.check_distinct": ALL,
    "io.parse_instance": ALL,
    "io.emit_result": ALL,
    "io.parse_result": ALL,
    "cli.cmd_solve": ALL,
    "cli.cmd_convert": SMALL,
    "cli.cmd_verify": ALL,
    "cli.cmd_oracle": SMALL,
    "oracle.brute_force_alpha_mst": SMALL,
    "generators.generate": ALL,
}

# Functions that together must hold more self time than any other one;
# otherwise the layer map is wrong.
TOP_SELF = {"solve-mst": ("graph.euclidean_mst",)}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Cli:
    """Runs ``wedgespan`` command lines in-process, capturing what they print."""

    def __init__(self, main):
        self._main = main
        self.out = io.StringIO()
        self.err = io.StringIO()

    def __call__(self, argv: list[str]) -> int:
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            return self._main(argv)


@dataclass
class Sample:
    job: int
    build_s: float
    verify_s: float | None
    ok: bool
    nbytes: int
    piece: int = 0

    @property
    def instance_s(self) -> float:
        return self.build_s + (self.verify_s or 0.0)


def canonical_digest(doc: dict) -> str:
    """sha256 of a result without its ``verification`` report, which holds timings."""
    body = {k: v for k, v in doc.items() if k != "verification"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Times jobs and checks each distinct result once."""

    def __init__(self, cli: Cli, jobs, check, gauge=None, verify_runs=1):
        self.cli = cli
        self.jobs = jobs
        self._check = check
        self._gauge = gauge
        self._verify_runs = verify_runs
        self.verdicts: dict[tuple[int, str], object] = {}
        self.first_digest: dict[int, str] = {}
        self.failures: list[str] = []

    def run_job(self, index: int) -> Sample:
        job = self.jobs[index]
        clock = time.perf_counter
        verify_s = None
        t0 = clock()
        try:
            code = self.cli(job.command())
            build_s = clock() - t0
            if code == 0 and job.verify_command() is not None:
                runs = []
                while code == 0 and len(runs) < self._verify_runs:
                    t2 = clock()
                    code = self.cli(job.verify_command())
                    runs.append(clock() - t2)
                verify_s = statistics.median(runs)
        except Exception as exc:  # noqa: BLE001 - a crashed job counts as failed
            self.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            return Sample(index, clock() - t0, None, False, 0)
        if code != 0:
            self.failures.append(f"job {index}: exit {code}: {self.cli.err.getvalue().strip()}")
            return Sample(index, build_s, verify_s, False, 0)
        data = job.result_path.read_bytes()
        try:
            ok = self._verdict(index, json.loads(data)).ok
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append(f"job {index}: unreadable result: {exc}")
            ok = False
        return Sample(index, build_s, verify_s, ok, len(data))

    def _verdict(self, index: int, doc: dict):
        digest = canonical_digest(doc)
        self.first_digest.setdefault(index, digest)
        key = (index, digest)
        if key not in self.verdicts:
            job = self.jobs[index]
            verdict = self._check(job.kind, job.instance, doc, job.alpha)
            self.verdicts[key] = verdict
            if not verdict.ok:
                self.failures.append(f"job {index}: " + "; ".join(verdict.problems))
        return self.verdicts[key]

    def run_pass(self) -> list[Sample]:
        """Runs every job once; with a gauge, reference pieces run between jobs."""
        samples = []
        for i in range(len(self.jobs)):
            t0 = time.perf_counter()
            sample = self.run_job(i)
            samples.append(sample)
            if self._gauge is not None:
                sample.piece = len(self._gauge.pieces)
                self._gauge.after(time.perf_counter() - t0)
        return samples

    def first_verdicts(self, kind: str) -> list:
        """Verdicts of each job's first result, for the jobs of one kind."""
        return [
            self.verdicts[(j, d)]
            for j, d in sorted(self.first_digest.items())
            if self.jobs[j].kind == kind
        ]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_job(samples: list[Sample], attr: str, gauge=None) -> list[float]:
    """Per job, the median over its samples of their ``attr`` times, in job
    order; with a gauge, each time is first scaled to nominal machine speed."""
    times: dict[int, list[float]] = {}
    for s in samples:
        value = getattr(s, attr)
        if value is not None:
            scale = gauge.scale(s.piece) if gauge is not None else 1.0
            times.setdefault(s.job, []).append(value * scale)
    return [statistics.median(times[j]) for j in sorted(times)]


def tampered_self_test(cli: Cli, workdir: Path, check, Instance) -> dict:
    """A 4-point solve result with edges [[0,1],[0,1],[0,3]] and a matching
    stored weight leaves point 2 isolated; the output check must fail it
    whatever ``wedgespan verify`` says."""
    inst_path = workdir / "tampered.json"
    res_path = workdir / "tampered.out.json"
    gen = ["gen", "--generator", "uniform-square", "--n", "4", "--seed", "2"]
    if cli(gen + ["--out", str(inst_path)]) != 0:
        raise RuntimeError("self-test: gen failed")
    if cli(["solve", "--in", str(inst_path), "--alpha", "180", "--out", str(res_path)]) != 0:
        raise RuntimeError("self-test: solve failed")
    inst = Instance.load(inst_path)
    doc = json.loads(res_path.read_text())
    edges = [[0, 1], [0, 1], [0, 3]]
    if not all(e in doc["edges"] for e in edges):
        raise RuntimeError(f"self-test: solve result {doc['edges']} lacks edges (0,1) and (0,3)")
    doc["edges"] = edges
    doc["summary"]["weight"] = sum(inst.points[u].distance_to(inst.points[v]) for u, v in edges)
    res_path.write_text(json.dumps(doc))
    verify_code = cli(["verify", "--in", str(inst_path), "--result", str(res_path)])
    if check("solve", inst, doc, 180).ok:
        raise RuntimeError("self-test: the output check accepted a tree that isolates point 2")
    return {"tampered_verify_exit": verify_code, "tampered_check_failed": True}


def _context() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _metrics(values: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def end_to_end(samples: list[Sample], setup_s: float, runner: Runner, gauge) -> dict:
    instance = per_job(samples, "instance_s", gauge)
    verify = per_job(samples, "verify_s", gauge)
    ratios = [v.ratio for v in runner.first_verdicts("solve") if v.ratio is not None]
    return _metrics(
        {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (len(instance) / sum(instance), "1/s"),
            "instance_s.p50": (statistics.median(instance), "s"),
            "instance_s.p95": (_quantile(instance, 95), "s"),
            "build_s.p50": (statistics.median(per_job(samples, "build_s", gauge)), "s"),
            "verify_s.p50": (statistics.median(verify) if verify else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ratio.mean": (statistics.fmean(ratios) if ratios else 0.0, "xMST"),
            "ratio.max": (max(ratios, default=0.0), "xMST"),
        }
    )


def per_layer(calls, self_s, gen_calls, gen_self, pool, traced, untraced, runner) -> dict:
    """Per-instance call counts and self times over the traced passes (for
    ``generators.generate``, over set-up), layer counters, and the tracing
    overhead on the jobs' median times."""
    values = {}
    for key in LAYERS:
        if key == "generators.generate":
            c, s, per = gen_calls[key], gen_self[key], len(pool.jobs)
        else:
            c, s, per = calls[key], self_s[key], len(traced)
        values[f"{key}.calls"] = (c / per, "calls/instance")
        values[f"{key}.self_s"] = (s / per, "s/instance")
    quads = calls["gadget.orient_quadruplet"]
    values["gadget.coverage_checks_per_quadruplet"] = (
        calls["gadget.verify_coverage"] / quads if quads else 0.0,
        "ratio",
    )
    convert_jobs = [job for job in runner.jobs if job.kind == "convert"]
    networks = runner.first_verdicts("convert")
    values["spanner.udg_edges"] = (
        statistics.fmean(sum(map(len, job.instance.udg())) / 2 for job in convert_jobs)
        if convert_jobs
        else 0.0,
        "edges/instance",
    )
    values["spanner.graph_edges"] = (
        statistics.fmean(v.edges for v in networks) if networks else 0.0,
        "edges/instance",
    )
    values["hop_stretch.max"] = (max((v.hop_stretch for v in networks), default=0.0), "hops")
    values["io.result_bytes"] = (statistics.fmean(s.nbytes for s in traced), "B/instance")
    traced_s = sum(per_job(traced, "instance_s"))
    untraced_s = sum(per_job(untraced, "instance_s"))
    values["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return _metrics(values)


def layer_self_test(workload: str, calls: dict, gen_calls: dict, missing: list[str]) -> list[str]:
    """Errors for traced names that are gone, or that the workload never reached."""
    errors = [f"{key} is not a function of wedgespan" for key in missing]
    for key, expected in LAYERS.items():
        got = gen_calls[key] if key == "generators.generate" else calls[key]
        if workload in expected and got == 0 and key not in missing:
            errors.append(f"{key} has no calls on {workload}: its callers bypass the span")
    return errors


def top_self(workload: str, self_s: dict) -> dict:
    top = max(self_s, key=self_s.get)
    expected = TOP_SELF.get(workload)
    if expected is None:
        return {"top_self": top}
    others = max(v for k, v in self_s.items() if k not in expected)
    return {"top_self": top, "layer_map_ok": sum(self_s[k] for k in expected) > others}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC_DIR / "wedgespan" / "__init__.py").is_file():
        print(f"bench: no wedgespan package under {SRC_DIR}; run from a checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC_DIR))
    from wedgespan import cli as wcli

    import_s = time.perf_counter() - t_import

    import workloads
    from calib import Gauge
    from check import Instance, check
    from spans import Tracer

    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    cli = Cli(wcli.main)
    pool_specs = workloads.specs(args.workload)
    warm_specs = workloads.warm_up_specs(pool_specs)
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    tracer = Tracer("wedgespan", list(LAYERS))
    gauge = None if args.trace else Gauge(workloads.NUMPY_SHARE[args.workload])
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:

        def make_pool():
            return workloads.make_pool(pool_specs, args.seed, workdir, cli, "job")

        def warm_up():
            warm = workloads.make_pool(warm_specs, args.seed, workdir, cli, "warm")
            warm_runner = Runner(cli, warm.jobs, check)
            if not all(s.ok for s in warm_runner.run_pass()):
                raise RuntimeError("warm-up failed: " + "; ".join(warm_runner.failures))

        if args.trace:
            tracer.install()
            try:
                pool = make_pool()
            finally:
                tracer.uninstall()
            gen_calls, gen_self = tracer.take()
            warm_up()
        else:
            # Each set-up is scaled by the reference pieces around it; the
            # import, which ran first, by the first pieces.
            gauge.tick()
            setup_runs = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                pool = make_pool()
                warm_up()
                setup_runs.append((time.perf_counter() - t0, len(gauge.pieces)))
                gauge.tick()
            setup_s = import_s * gauge.scale(0) + statistics.median(
                t * gauge.scale(piece) for t, piece in setup_runs
            )
            details["raw_setup_s"] = {"import": import_s, "runs": [t for t, _ in setup_runs]}
        details["selftest"] = tampered_self_test(cli, workdir, check, Instance)

        runner = Runner(cli, pool.jobs, check, gauge, workloads.VERIFY_RUNS[args.workload])
        samples: list[Sample] = []
        untraced: list[Sample] = []
        t_loop = time.perf_counter()
        while not samples or time.perf_counter() - t_loop < args.seconds:
            if args.trace:
                untraced += runner.run_pass()
                tracer.install()
            try:
                samples += runner.run_pass()
            finally:
                tracer.uninstall()
        loop_s = time.perf_counter() - t_loop

        if args.trace:
            calls, self_s = tracer.take()
            errors = layer_self_test(args.workload, calls, gen_calls, tracer.missing)
            if errors:
                print("bench: layer self-test failed: " + "; ".join(errors), file=sys.stderr)
                return 1
            details.update(top_self(args.workload, self_s))
            metrics = per_layer(calls, self_s, gen_calls, gen_self, pool, samples, untraced, runner)
        else:
            metrics = end_to_end(samples, setup_s, runner, gauge)
            details["raw_instance_s.p50"] = statistics.median(per_job(samples, "instance_s"))
            details["reference_s.p50"] = [statistics.median(p) for p in zip(*gauge.pieces)]

        samples += untraced
        failed = sum(not s.ok for s in samples)
        digests = "".join(runner.first_digest.get(i, "") for i in range(len(pool.jobs)))
        details.update(
            {
                "pool": len(pool.jobs),
                "passes": len(samples) // len(pool.jobs),
                "loop_s": loop_s,
                "skipped_seeds": pool.skipped_seeds,
                "result_sha256": hashlib.sha256(digests.encode()).hexdigest(),
                "distinct_results": len(runner.verdicts),
                "failures": runner.failures[:10],
                "context": {
                    **_context(),
                    "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg(),
                },
            }
        )
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
