"""Reference work that gauges how fast the machine runs while a run measures.

On a shared virtual machine the same job can run 20-50% slower for minutes
at a time, longer than one run. So the benchmark runs a short piece of fixed
reference work between jobs, about one second of reference for every six
or seven of jobs, and scales each job's time by how fast the pieces around
it ran. Contention that slows the jobs slows the pieces beside them too,
and cancels out.

A piece has two parts, timed apart: a numpy part, the first iterations of a
dense Prim over 4800 fixed points (the same arrays and sizes as
``graph.euclidean_mst`` on ``solve-mst``), and a pure-Python part that
builds, sorts, hashes and serialises point records, as the CLI's parsing,
gadgets and JSON writing do. A workload weighs the two parts by its
``numpy_share``, the kind of work its jobs do, and its times are reported in
seconds at the speed at which the parts take ``NUMPY_S`` and ``PYTHON_S``.
The code here is the benchmark's own, so a change to the program does not
change it.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time

import numpy as np

PRIM_POINTS = 4800
PRIM_STEPS = 400
PY_POINTS = 3000
PY_ROUNDS = 3
# Reference time run per second of job time.
SHARE = 0.15
# Nominal times of the two parts of a piece, near their medians in runs on a
# 2-vCPU Xeon VM.
NUMPY_S = 0.065
PYTHON_S = 0.06
# A job's time is scaled by the median of the WINDOW pieces run before it
# and the WINDOW pieces run after it.
WINDOW = 2


class Reference:
    """The fixed reference work of one piece."""

    def __init__(self):
        rng = np.random.default_rng(20140225)
        xy = rng.random((PRIM_POINTS, 2))
        self._xs = xy[:, 0].copy()
        self._ys = xy[:, 1].copy()
        self._pts = [(float(x), float(y)) for x, y in xy[:PY_POINTS]]

    def _numpy_part(self) -> float:
        xs, ys = self._xs, self._ys
        best = np.hypot(xs - xs[0], ys - ys[0])
        in_tree = np.zeros(len(xs), dtype=bool)
        in_tree[0] = True
        best[0] = np.inf
        total = 0.0
        for _ in range(PRIM_STEPS):
            k = int(np.argmin(best))
            total += float(best[k])
            in_tree[k] = True
            best[k] = np.inf
            dk = np.hypot(xs - xs[k], ys - ys[k])
            upd = (dk < best) & ~in_tree
            best[upd] = dk[upd]
        return total

    def _python_part(self) -> int:
        return sum(self._python_round(self._pts[i:] + self._pts[:i]) for i in range(PY_ROUNDS))

    @staticmethod
    def _python_round(pts) -> int:
        cx, cy = pts[0]
        recs = [
            {"i": i, "x": x, "y": y, "a": math.atan2(y - cy, x - cx), "d": math.hypot(x - cx, y - cy)}
            for i, (x, y) in enumerate(pts)
        ]
        recs.sort(key=lambda r: (r["a"], r["d"]))
        cells: dict[tuple[int, int], list[int]] = {}
        for r in recs:
            cells.setdefault((int(r["x"] * 8), int(r["y"] * 8)), []).append(r["i"])
        text = json.dumps({"points": [[r["x"], r["y"]] for r in recs], "cells": len(cells)})
        return len(json.loads(text)["points"])

    def run(self) -> tuple[float, float]:
        """Times one piece: its numpy part and its Python part, in seconds.

        The garbage collector is off meanwhile: its passes take longer the
        more objects the run holds, which is not the machine's speed.
        """
        clock = time.perf_counter
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            self._numpy_part()
            t1 = clock()
            self._python_part()
            t2 = clock()
        finally:
            if was_enabled:
                gc.enable()
        return t1 - t0, t2 - t1


class Gauge:
    """Reference pieces run so far, and the time scale they give.

    ``numpy_share`` (0 to 1) is the weight of the numpy part.
    """

    def __init__(self, numpy_share: float):
        self._reference = Reference()
        self._numpy_share = numpy_share
        self.pieces: list[tuple[float, float]] = []
        # Per piece, how much slower than nominal the machine ran.
        self._slowdowns: list[float] = []
        self._due = 0.0

    def after(self, job_s: float) -> None:
        """Runs pieces after a job of ``job_s`` seconds, keeping to ``SHARE``."""
        self._due += SHARE * job_s
        while self._due > 0:
            self._due -= self.tick()

    def tick(self) -> float:
        """Runs one piece; returns its time in seconds."""
        numpy_s, python_s = self._reference.run()
        self.pieces.append((numpy_s, python_s))
        w = self._numpy_share
        self._slowdowns.append(w * numpy_s / NUMPY_S + (1.0 - w) * python_s / PYTHON_S)
        return numpy_s + python_s

    def scale(self, piece: int) -> float:
        """Factor to nominal speed for a time measured just before piece ``piece``."""
        window = self._slowdowns[max(0, piece - WINDOW) : piece + WINDOW] or self._slowdowns
        return 1.0 / statistics.median(window)
