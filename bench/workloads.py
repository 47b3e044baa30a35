"""Workloads: which commands run on which instances, made from the workload seed.

A workload is a pool of jobs. A job is one instance file written at set-up
by ``wedgespan gen`` and one command on it (``solve``, ``convert`` or
``oracle``); ``solve`` and ``convert`` are followed by ``verify``. The timed
loop runs the pool in order, over and over.

Instance seeds are drawn in order from ``seed * 1000``. A ``convert`` job
keeps a drawn instance only if its unit disk graph is connected, so that no
command fails on a valid input; the skipped draws are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from check import Instance, is_connected

WHY = {
    "solve-mst": "solve n=4800 alpha=120: the dense-Prim EMST, run twice per solve, is most of the time",
    "small-mixed": "202 small solve, convert and oracle calls over four generators: per-call overhead and small-n paths",
}
NAMES = tuple(WHY)

# Weight of the numpy part of the reference work (``calib.py``) by which a
# workload's times are scaled: the kind of work its jobs do. The weights were
# those, of 0, 0.25, 0.5, 0.75 and 1, whose scaled times spread least over
# four to six seeds on a 2-vCPU Xeon VM.
NUMPY_SHARE = {"solve-mst": 1.0, "small-mixed": 0.25}

# How many times ``verify`` runs per job; the job's verify time is their
# median. A solve-mst verify is short next to its job, and with one per pass
# its time spread 11% between runs; on small-mixed, three per job left too
# few passes and its other times spread more.
VERIFY_RUNS = {"solve-mst": 3, "small-mixed": 1}


def _side(n: int) -> float:
    """Side of the square that gives a unit disk graph of mean degree ~15."""
    return math.sqrt(n / 5.0)


@dataclass(frozen=True)
class Spec:
    """What to generate and run, before a seed and file names are attached."""

    kind: str
    generator: str
    params: tuple[tuple[str, object], ...]
    alpha: int | None = None

    @property
    def seeded(self) -> bool:
        return self.generator in ("uniform-square", "clustered")


@dataclass
class Job:
    spec: Spec
    instance_path: Path
    result_path: Path
    instance: Instance = field(repr=False)

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def alpha(self) -> int | None:
        return self.spec.alpha

    def command(self) -> list[str]:
        argv = [self.kind, "--in", str(self.instance_path), "--out", str(self.result_path)]
        if self.alpha is not None:
            argv += ["--alpha", str(self.alpha)]
        return argv

    def verify_command(self) -> list[str] | None:
        if self.kind == "oracle":
            return None
        return ["verify", "--in", str(self.instance_path), "--result", str(self.result_path)]


def _spec(kind, generator, alpha=None, **params) -> Spec:
    return Spec(kind, generator, tuple(sorted(params.items())), alpha)


def _small_mixed() -> list[Spec]:
    """202 jobs, so that the 95th percentile has ten instances beyond it."""
    pool = []
    sizes = (8, 12, 16, 24, 32, 40, 48, 64)
    for alpha in (90, 120, 180):
        for n in sizes:
            for _ in range(2):
                pool.append(_spec("solve", "uniform-square", alpha, n=n, side=1.0))
                pool.append(_spec("solve", "clustered", alpha, n=n, side=1.0))
            pool.append(_spec("solve", "collinear", alpha, n=n, gap=1.0))
            # hex-grid has 6 + 4 * (rows - 1) points: 10 to 62 here.
            pool.append(_spec("solve", "hex-grid", alpha, rows=max(2, (n - 2) // 4)))
    for n in range(12, 61, 4):
        for _ in range(4):
            pool.append(_spec("convert", "uniform-square", n=n, side=_side(n)))
    for n in (5, 6, 7):
        for alpha in (90, 180):
            pool.append(_spec("oracle", "uniform-square", alpha, n=n, side=1.0))
    return pool


def specs(workload: str) -> list[Spec]:
    """The pool of one workload, in run order."""
    if workload == "solve-mst":
        return [_spec("solve", "uniform-square", 120, n=4800, side=1.0)]
    if workload == "small-mixed":
        return _small_mixed()
    raise ValueError(f"unknown workload {workload!r}")


def warm_up_specs(pool: list[Spec]) -> list[Spec]:
    """One small instance per distinct command of the pool, to run before timing."""
    warm: dict[tuple[str, int | None], Spec] = {}
    for s in pool:
        if (s.kind, s.alpha) not in warm:
            n = 6 if s.kind == "oracle" else 64
            side = 1.0 if s.kind == "oracle" else _side(n)
            warm[(s.kind, s.alpha)] = _spec(s.kind, "uniform-square", s.alpha, n=n, side=side)
    return list(warm.values())


@dataclass
class Pool:
    jobs: list[Job]
    skipped_seeds: int


def make_pool(pool_specs: list[Spec], seed: int, workdir: Path, run_cli, prefix: str) -> Pool:
    """Write one instance file per spec with ``wedgespan gen``; returns the jobs.

    ``run_cli`` runs one ``wedgespan`` command line in-process and returns its
    exit code.
    """
    next_seed = seed * 1000
    skipped = 0
    jobs = []
    for i, spec in enumerate(pool_specs):
        inst_path = workdir / f"{prefix}{i:04d}.json"
        while True:
            argv = ["gen", "--generator", spec.generator, "--out", str(inst_path)]
            for key, value in spec.params:
                argv += [f"--{key}", str(value)]
            if spec.seeded:
                argv += ["--seed", str(next_seed)]
                next_seed += 1
            code = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"wedgespan {' '.join(argv)} exited {code}")
            inst = Instance.load(inst_path)
            if spec.kind != "convert" or is_connected(inst.udg()):
                break
            skipped += 1
        jobs.append(Job(spec, inst_path, workdir / f"{prefix}{i:04d}.out.json", inst))
    return Pool(jobs, skipped)
