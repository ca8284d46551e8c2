#!/usr/bin/env python3
"""Fit benchmark for funskewclust: scenario fits, the 54-cell grid, CLI select-K.

Run from the repository root, one workload per process:

    python3 benchmarks/run.py --workload scenario-fits --seed 0 --seconds 30 --trace 0

One closed-loop client runs the workload's op back to back in this process
for about --seconds (at least twice), checks every output, and prints as the last
line of stdout one JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 each draw runs
untraced and then traced, and the metrics are the per-layer ones, from spans
recorded around the package's public functions (tracer.py).  A full record of
the run goes to benchmarks/out/.  The exit code is 1 if an output check
failed and 2 if the benchmark could not run.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"

MAX_ITER = 200
TOL = 1e-6
ASCENT_SLACK = 1e-8          # relative, as in acceptance criterion 6
MIN_OPS = 2                  # a repeat for the determinism check
SETUP_REPEATS = 7            # fresh-interpreter imports timed for setup_s

SCENARIOS = ("NIG-NIG", "ST-ST", "VG-VG", "NIG-VG")
GRID_FLM = ("AkjBkQkDk", "AkjBQkDk")
GRID_SIGMA_Y = ("VVV", "EEE", "VVI")
GRID_PAIRS = (("NIG", "NIG"), ("VG", "VG"), ("ST", "ST"))

# Input sizes: FULL for measurement, TINY for the smoke check (smoke.py).
FULL = {"scenario_n": 600, "scenario_draws": 14, "grid_n": 600, "grid_K": (1, 2, 3),
        "cli_n": 2400, "cli_K": (1, 2, 3, 4)}
TINY = {"scenario_n": 60, "scenario_draws": 3, "grid_n": 60, "grid_K": (1, 2),
        "cli_n": 40, "cli_K": (1, 2)}

SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import funskewclust, funskewclust.cli; "
                 "print(repr(time.perf_counter() - t))")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (exit code 2, no result line)."""


def _check_checkout() -> None:
    if not (SRC / "funskewclust" / "__init__.py").is_file():
        raise BenchmarkError(f"no funskewclust package under {SRC}; run the "
                             f"benchmark from a full checkout")


def _import_package():
    """Import funskewclust from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import funskewclust
    import funskewclust.cli  # noqa: F401  (pkg.cli and pkg.io for the workloads)
    import funskewclust.io  # noqa: F401
    where = Path(funskewclust.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchmarkError(f"funskewclust imported from {where}, not {SRC}")
    return funskewclust


# ---------------------------------------------------------------------------
# Units and checks
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """One counted unit of work: an op, or a grid cell in grid54-cells."""

    name: str
    error: Optional[str] = None            # exception type if it raised
    fingerprint: object = None             # must repeat exactly across ops
    problems: List[str] = field(default_factory=list)   # failed output checks
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def stop_kind(result, max_iter: int) -> str:
    """How an EM fit stopped, read from its FitResult."""
    if result.converged:
        return "aitken"
    return "max_iter" if result.n_iter >= max_iter else "early"


def ascent_problems(trace, label: str) -> List[str]:
    import numpy as np
    trace = np.asarray(trace, dtype=float)
    drops = np.diff(trace) + ASCENT_SLACK * np.abs(trace[:-1])
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        return [f"{label}: empty or non-finite loglik_trace"]
    if np.any(drops < 0):
        i = int(np.argmax(drops < 0))
        return [f"{label}: loglik decreased at iteration {i + 1}"]
    return []


def fit_fingerprint(result):
    return (result.labels.tobytes(), repr(float(result.bic)))


def fit_info(result) -> dict:
    return {"n_iter": int(result.n_iter), "stop": stop_kind(result, MAX_ITER),
            "bic": float(result.bic)}


def _call_fit(em, data, *args, **kwargs):
    """One em.fit call; a raised exception is the unit's outcome, not a crash."""
    t = time.perf_counter()
    try:
        out = em.fit(data, *args, **kwargs)
    except Exception as exc:  # recorded per unit and counted in fail_frac
        out = exc
    return out, time.perf_counter() - t


def _error_name(exc: BaseException) -> str:
    return type(exc).__name__


# ---------------------------------------------------------------------------
# Workloads.  Each simulates its inputs from the seed in __init__ (untimed) as
# a list of draws, runs one op on a draw in op() (timed) and turns the op's
# raw output into units in assess().
# ---------------------------------------------------------------------------

class ScenarioFits:
    """Four em.fit calls, one per built-in scenario, at the true K and families.

    The fits' iteration counts depend on the data: on some draws VG-VG or
    NIG-VG runs to 100-170 iterations instead of about 30, and the op takes
    up to 80% longer.  So the ops of a run cycle over many draws, data seeds
    draws*seed .. draws*seed + draws - 1, and wall_s is their median.  Each
    fit's EM seed is its draw's data seed.
    """

    name = "scenario-fits"
    expected_spans = ("em.fit", "em.initialize", "em.m_step",
                      "skewdist.unified_log_core", "gig.gig_moments",
                      "special.log_bessel_k")

    def __init__(self, pkg, seed: int, size: dict, trace: bool, out: Path):
        from funskewclust.sim import builtin_scenario, simulate
        self.em = pkg.em
        self.config = pkg.model.ParsimonyConfig()
        n, count = size["scenario_n"], size["scenario_draws"]
        self.seeds = [count * seed + j for j in range(count)]
        self.draws = [[(name, *simulate(builtin_scenario(name, n=n), seed=s))
                       for name in SCENARIOS] for s in self.seeds]
        self.params = {"n": n, "K": 2, "scenarios": list(SCENARIOS),
                       "data_seeds": self.seeds, "max_iter": MAX_ITER, "tol": TOL}

    def op(self, draw: int):
        return [_call_fit(self.em, data, 2, self.config, *name.split("-"),
                          seed=self.seeds[draw], max_iter=MAX_ITER, tol=TOL)[0]
                for name, data, _ in self.draws[draw]]

    def assess(self, draw: int, raw):
        from funskewclust.metrics import ari
        unit = Unit(self.name)
        scores, prints = [], []
        for (name, _, truth), res in zip(self.draws[draw], raw):
            if isinstance(res, Exception):
                unit.error = unit.error or _error_name(res)
                unit.info[name] = {"status": _error_name(res), "message": str(res)}
                scores.append(0.0)
                prints.append(_error_name(res))
                continue
            unit.problems += ascent_problems(res.loglik_trace, name)
            score = ari(truth, res.labels)
            scores.append(score)
            prints.append(fit_fingerprint(res))
            unit.info[name] = dict(fit_info(res), status="ok", ari=score)
        unit.fingerprint = tuple(prints)
        return [unit], sum(scores) / len(scores)

    def recheck(self, draw: int, units: List[Unit]) -> List[int]:
        """Repeat the op on the draw; [0] if it differs."""
        again, _ = self.assess(draw, self.op(draw))
        return [0] if again[0].fingerprint != units[0].fingerprint else []


class Grid54Cells:
    """The 54-cell BIC grid on NIG-NIG data, one em.fit call per cell.

    Cells run in select_model's loop order (K, FLM variant, Sigma_Y family,
    family pair) with select_model's arguments, so the cells that raise today
    are kept and counted, not skipped.

    The grid's time depends strongly on the data: on some draws the VG cells
    lose ascent within about 30 iterations, on others they run to max_iter.
    An untraced run therefore fits the grid once on each of two draws, data
    seeds 2*seed and 2*seed + 1, and checks determinism by refitting the
    first cell, the BIC-best cell and every cell that raised (recheck).  A
    traced run fits the first draw twice, untraced then traced.
    """

    name = "grid54-cells"
    expected_spans = ScenarioFits.expected_spans + (
        "em.solve_concentration", "model.sigma_y_project")

    def __init__(self, pkg, seed: int, size: dict, trace: bool, out: Path):
        from funskewclust.sim import builtin_scenario, simulate
        self.em = pkg.em
        ParsimonyConfig = pkg.model.ParsimonyConfig
        seeds = [2 * seed] if trace else [2 * seed, 2 * seed + 1]
        self.draws = [(s, *simulate(builtin_scenario("NIG-NIG", n=size["grid_n"]), seed=s))
                      for s in seeds]
        self.cells = [(K, ParsimonyConfig(flm_variant=v, sigma_y_family=s), fx, fy)
                      for K in size["grid_K"] for v in GRID_FLM
                      for s in GRID_SIGMA_Y for fx, fy in GRID_PAIRS]
        self.params = {"n": size["grid_n"], "data_seeds": seeds,
                       "K_grid": list(size["grid_K"]), "flm_variants": list(GRID_FLM),
                       "sigma_y_families": list(GRID_SIGMA_Y),
                       "family_pairs": [list(p) for p in GRID_PAIRS],
                       "threshold": 0.2, "cells": len(self.cells),
                       "max_iter": MAX_ITER, "tol": TOL}

    def _fit_cell(self, draw: int, i: int):
        seed, data, _ = self.draws[draw]
        K, cfg, fx, fy = self.cells[i]
        return _call_fit(self.em, data, K, cfg, fx, fy, n_starts=1, seed=seed,
                         threshold=0.2, max_iter=MAX_ITER, tol=TOL, init="kmeans")

    def _unit(self, i: int, res, secs: float) -> Unit:
        K, cfg, fx, fy = self.cells[i]
        label = f"K={K} {cfg.flm_variant} {cfg.sigma_y_family} {fx}-{fy}"
        unit = Unit(label, info={"cell": i, "K": K, "flm_variant": cfg.flm_variant,
                                 "sigma_y_family": cfg.sigma_y_family,
                                 "family_pair": f"{fx}-{fy}", "seconds": secs})
        if isinstance(res, Exception):
            unit.error = unit.fingerprint = _error_name(res)
            unit.info.update(status=unit.error, message=str(res), n_iter=None, stop=None)
        else:
            unit.problems += ascent_problems(res.loglik_trace, "fit")
            unit.fingerprint = fit_fingerprint(res)
            unit.info.update(fit_info(res), status="ok")
        return unit

    def op(self, draw: int):
        return [self._fit_cell(draw, i) for i in range(len(self.cells))]

    def assess(self, draw: int, raw):
        from funskewclust.metrics import ari
        units = [self._unit(i, res, secs) for i, (res, secs) in enumerate(raw)]
        ok = [(res.bic, -i) for i, (res, _) in enumerate(raw)
              if not isinstance(res, Exception)]
        if not ok:
            return units, 0.0
        best = -max(ok)[1]          # first cell with the highest BIC, as select_model
        score = ari(self.draws[draw][2], raw[best][0].labels)
        units[best].info.update(bic_best=True, ari=score)
        return units, score

    def recheck(self, draw: int, units: List[Unit]) -> List[int]:
        """Refit the first, the BIC-best and every raising cell; indices that differ."""
        picks = {0} | {i for i, u in enumerate(units)
                       if u.error or u.info.get("bic_best")}
        return [i for i in sorted(picks)
                if self._unit(i, *self._fit_cell(draw, i)).fingerprint
                != units[i].fingerprint]


class CliSelectK:
    """funskewclust.cli.main fit on a simulated curves.csv, K in 1..4 by BIC."""

    name = "cli-select-k"
    expected_spans = ScenarioFits.expected_spans + (
        "em.select_model", "io.read_curves_csv", "io.write",
        "funbasis.fit_coefficients")

    def __init__(self, pkg, seed: int, size: dict, trace: bool, out: Path):
        self.pkg, self.seed = pkg, seed
        self.dir = out / f"{self.name}-seed{seed}"
        self.out_dir = self.dir / "fit"
        config = {"K_grid": list(size["cli_K"]), "family_pairs": [["NIG", "NIG"]]}
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, err = self._cli(["simulate", "--scenario", "NIG-NIG",
                               "--n", str(size["cli_n"]), "--seed", str(seed),
                               "--out-dir", str(self.dir)])
        if code != 0:
            raise BenchmarkError(f"simulate exited {code}: {err}")
        self.draws = [pkg.io.read_truth_csv(str(self.dir / "truth.csv"))]
        self.params = {"n": size["cli_n"], "data_seeds": [seed], "config": config,
                       "curves_csv_bytes": (self.dir / "curves.csv").stat().st_size}

    def _cli(self, argv):
        """Exit code and stderr of one in-process CLI call; stdout is dropped.

        An exception the CLI lets out is returned in place of the exit code.
        """
        err = _io.StringIO()
        with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = self.pkg.cli.main(argv)
            except Exception as exc:  # recorded per unit and counted in fail_frac
                code = exc
        return code, err.getvalue()

    def op(self, draw: int):
        for name in ("result.json", "labels.csv", "bic_table.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out_dir / name)
        return self._cli(["fit", str(self.dir / "curves.csv"),
                          "--config", str(self.dir / "config.json"),
                          "--out-dir", str(self.out_dir), "--seed", str(self.seed)])

    def assess(self, draw: int, raw):
        import csv
        from funskewclust.io import result_from_json, result_to_json
        from funskewclust.metrics import ari
        code, err = raw
        unit = Unit(self.name)
        if isinstance(code, Exception):
            unit.error = unit.fingerprint = _error_name(code)
            unit.info.update(status=unit.error, message=str(code))
            return [unit], 0.0
        unit.info["exit_code"] = code
        if code != 0:
            unit.problems.append(f"CLI exited {code}: {err.strip()}")
            return [unit], 0.0
        try:
            text = (self.out_dir / "result.json").read_text(encoding="utf-8")
            with open(self.out_dir / "labels.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            unit.problems.append(f"missing output: {exc}")
            return [unit], 0.0
        unit.fingerprint = hashlib.sha256(text.encode()).hexdigest()
        try:
            doc = json.loads(text)
            result, _ = result_from_json(text)
            again = json.loads(result_to_json(result))
        except (KeyError, TypeError, ValueError) as exc:
            unit.problems.append(f"result.json does not round-trip: {exc!r}")
        else:
            if again != {k: v for k, v in doc.items() if k != "dataset"}:
                unit.problems.append("result.json changed on a round trip")
            unit.problems += ascent_problems(result.loglik_trace, "best fit")
            unit.info.update(K=result.model.K, n_iter=result.n_iter,
                             converged=result.converged, bic=result.bic,
                             bic_table=[{k: r[k] for k in ("K", "bic", "status")}
                                        for r in result.bic_table])
        truth = self.draws[draw]
        if sorted(r["curve_id"] for r in rows) != sorted(truth):
            unit.problems.append("labels.csv curve ids differ from the input")
            return [unit], 0.0
        score = ari([truth[r["curve_id"]] for r in rows], [int(r["label"]) for r in rows])
        unit.info["ari"] = score
        return [unit], score


WORKLOADS = {w.name: w for w in (ScenarioFits, Grid54Cells, CliSelectK)}


# ---------------------------------------------------------------------------
# Tracing support: what each traced em.fit and log_bessel_k call records
# ---------------------------------------------------------------------------

def _annotate_fit(args, kwargs, result):
    return {"n_iter": int(result.n_iter),
            "stop": stop_kind(result, kwargs.get("max_iter", MAX_ITER)),
            "ascent_ok": not ascent_problems(result.loglik_trace, "")}


def _annotate_bessel(args, kwargs, result):
    import numpy as np
    return {"elements": int(np.broadcast(*args[:2]).size)}


def layer_metrics(tracer, workload, n_ops: int, overhead: float):
    """Per-layer metrics per traced op, plus the problems the trace shows."""
    from tracer import EXTRA, NAME
    summary = tracer.summary()
    metrics, problems = {}, []
    for name, row in summary.items():
        metrics[f"{name}.s"] = (row["s"] / n_ops, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / n_ops, "s")
        metrics[f"{name}.calls"] = (row["calls"] / n_ops, "count")
        if name in workload.expected_spans and row["calls"] == 0:
            problems.append(f"traced run recorded no {name} calls; the package "
                            f"no longer calls it where benchmarks/tracer.py wraps it")
    fits = [s[EXTRA] or {} for s in tracer.spans if s[NAME] == "em.fit"]
    ok = [f for f in fits if "error" not in f]
    stops = {k: sum(f["stop"] == k for f in ok) for k in ("aitken", "max_iter", "early")}
    iterations = sum(f["n_iter"] for f in ok)
    elements = sum((s[EXTRA] or {}).get("elements", 0)
                   for s in tracer.spans if s[NAME] == "special.log_bessel_k")
    metrics["em.fit.failed"] = ((len(fits) - len(ok)) / n_ops, "count")
    metrics["special.log_bessel_k.elements"] = (elements / n_ops, "count")
    metrics["em.iterations"] = (iterations / n_ops, "count")
    metrics["em.iter_ms"] = (1e3 * summary["em.fit"]["s"] / iterations
                             if iterations else 0.0, "ms")
    for kind, count in stops.items():
        metrics[f"em.stop.{kind}"] = (count / n_ops, "count")
    metrics["em.converged_frac"] = (stops["aitken"] / len(ok) if ok else 0.0, "1")
    metrics["trace_overhead_frac"] = (overhead, "1")
    if any(not f["ascent_ok"] for f in ok):
        problems.append("a traced em.fit lost ascent beyond the 1e-8 slack")
    problems += tracer.check_self_time("em.fit")
    failed_by_type: Dict[str, float] = {}
    for f in fits:
        if "error" in f:
            failed_by_type[f["error"]] = failed_by_type.get(f["error"], 0) + 1 / n_ops
    return metrics, problems, failed_by_type


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def measure_setup() -> List[float]:
    """Seconds to import funskewclust and funskewclust.cli, fresh interpreters.

    The first import, which may compile bytecode, is a warm-up and not kept.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise BenchmarkError(f"importing funskewclust failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def environment(pkg, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"error": repr(exc)}
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "funskewclust").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "package_version": getattr(pkg, "__version__", None),
        "seed": seed,
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit, or None unless the checkout is the top of a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def percentile_summary(times: List[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(times)
    out = {"median": statistics.median(ordered), "count": len(ordered)}
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[min(len(ordered) - 1,
                                       int(round(p / 100 * (len(ordered) - 1))))]
            break
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: dict,
        out: Path):
    warnings.simplefilter("ignore")   # LinAlgWarning and clamp warnings per fit
    _check_checkout()
    setup = None if trace else measure_setup()
    pkg = _import_package()
    workload = WORKLOADS[workload_name](pkg, seed, size, trace, out)
    n_draws = len(workload.draws)

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(annotators={"em.fit": _annotate_fit,
                                    "special.log_bessel_k": _annotate_bessel})
    origin = time.perf_counter()
    ops: List[dict] = []
    op_units: List[List[Unit]] = []
    reference: Dict[int, list] = {}
    # A traced run runs each draw twice in a row, untraced and then traced, so
    # that every traced op has an untraced op on the same input.  Ops run until
    # the next draw would likely end after `seconds`.
    step = 2 if trace else 1
    while (len(ops) < max(MIN_OPS, step * n_draws) or len(ops) % step
           or (time.perf_counter() - origin) * (len(ops) + step) / len(ops) <= seconds):
        i = len(ops)
        draw = (i // step) % n_draws
        traced = trace and i % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.op = i
                stack.enter_context(tracer.installed())
            t0 = time.perf_counter()
            raw = workload.op(draw)
            wall = time.perf_counter() - t0
        units, score = workload.assess(draw, raw)
        prints = [u.fingerprint for u in units]
        if draw not in reference:
            reference[draw] = prints
        else:
            for u, want, got in zip(units, reference[draw], prints):
                if got != want:
                    u.problems.append(f"op {i}{' (traced)' if traced else ''} differs "
                                      f"from the first op on the same input")
        op_units.append(units)
        ops.append({"op": i, "draw": draw, "traced": traced, "wall_s": wall,
                    "score": score})
    for draw in range(n_draws):
        runs = [i for i, o in enumerate(ops) if o["draw"] == draw]
        if len(runs) == 1:
            units = op_units[runs[0]]
            for j in workload.recheck(draw, units):
                units[j].problems.append("refit on the same input differs")

    problems = [f"op {i} {u.name}: {p}" for i, units in enumerate(op_units)
                for u in units for p in u.problems]
    attempted = sum(len(units) for units in op_units)
    failed = sum(u.failed for units in op_units for u in units)
    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    record = {"workload": workload_name, "trace": int(trace),
              "environment": environment(pkg, seed), "params": workload.params,
              "ops": ops, "wall_s": percentile_summary(untraced),
              "units": [{"op": i, "units": [
                  {"name": u.name, "error": u.error, "problems": u.problems, **u.info}
                  for u in units]}
                  for i, units in enumerate(op_units)
                  if ops[i]["op"] < n_draws or any(u.problems for u in units)]}
    if trace:
        # median over op pairs of traced / untraced wall time on the same input
        overhead = statistics.median([ops[i + 1]["wall_s"] / ops[i]["wall_s"]
                                      for i in range(0, len(ops), 2)]) - 1.0
        metrics, trace_problems, failed_by_type = layer_metrics(
            tracer, workload, len(ops) // 2, overhead)
        problems += trace_problems
        record["em.fit.failed_by_type"] = failed_by_type
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"{workload_name}-seed{seed}.spans.jsonl.gz", origin)
    else:
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "ari": (statistics.median([o["score"] for o in ops]), "1"),
            "ok_frac": (1.0 - failed / attempted, "1"),
            "setup_s": (statistics.median(setup), "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["setup_s"] = setup
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, problems=problems)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload_name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check only")
    args = parser.parse_args(argv)
    try:
        result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace),
                               *((TINY, OUT / "tiny") if args.tiny else (FULL, OUT)))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    except Exception:  # no result line: the run itself broke
        traceback.print_exc()
        return 2
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
