#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny inputs; not part of the tests.

Run from the repository root (about a minute):

    python3 benchmarks/smoke.py

It checks that
- every workload runs with --trace 0 and --trace 1, exits 0, reports
  correct=true, and prints exactly the metrics BENCHMARK.json lists for that
  mode, each with its unit;
- in a traced run each traced op directly follows an untraced op on the
  same draw, so tracing is compared on the same input;
- an exception that the CLI lets out fails the cli-select-k unit instead of
  stopping the run;
- the tracer refuses to start when a wrapped attribute is missing, and puts
  every original function back afterwards, also when the traced code raises;
- in a directory holding only BENCHMARK.json and benchmarks/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def check_workloads(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            done = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                sys.exit(f"{label}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                sys.exit(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                sys.exit(f"{label}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(want))}")
            if not (result["correct"] and result["attempted"] >= 1):
                sys.exit(f"{label}: {result}")
            if trace:
                check_pairs(label, HERE / "out" / "tiny" / f"{workload}-seed0-trace1.json")
            print(f"ok  {label}: {result['attempted']} units, {result['failed']} failed")


def check_pairs(label: str, record: Path) -> None:
    ops = json.loads(record.read_text(encoding="utf-8"))["ops"]
    draws = {o["draw"] for o in ops}
    pairs = [(ops[i], ops[i + 1]) for i in range(0, len(ops) - 1, 2)]
    if (len(ops) % 2 or any(u["traced"] or not t["traced"] or u["draw"] != t["draw"]
                            for u, t in pairs)
            or {t["draw"] for _, t in pairs} != draws):
        sys.exit(f"{label}: traced ops are not paired with untraced ops: "
                 f"{[(o['draw'], o['traced']) for o in ops]}")


def check_cli_exception() -> None:
    sys.path.insert(0, str(HERE))
    from types import SimpleNamespace
    import run

    def crash(argv):
        raise IndexError("raised inside the CLI")

    workload = run.CliSelectK.__new__(run.CliSelectK)
    workload.pkg, workload.seed = SimpleNamespace(cli=SimpleNamespace(main=crash)), 0
    workload.dir = workload.out_dir = HERE / "out" / "smoke-cli"
    units, score = workload.assess(0, workload.op(0))
    if not (len(units) == 1 and units[0].error == "IndexError" and units[0].failed
            and score == 0.0):
        sys.exit(f"a raising CLI gave {units}")
    print("ok  a raising CLI fails its unit")


def check_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import funskewclust.em as em
    from tracer import MissingTargetError, Tracer

    original = em.fit
    try:
        with Tracer({"em.fit": [("funskewclust.em", "fit")],
                     "em.gone": [("funskewclust.em", "no_such_function")]}).installed():
            sys.exit("tracer started with a missing target")
    except MissingTargetError:
        pass
    if em.fit is not original:
        sys.exit("tracer patched em.fit although it refused to start")
    tracer = Tracer({"em.fit": [("funskewclust.em", "fit")]})
    try:
        with tracer.installed():
            if em.fit is original:
                sys.exit("tracer did not wrap em.fit")
            em.fit(None, 1, None)
    except AttributeError:
        pass
    if em.fit is not original:
        sys.exit("tracer did not restore em.fit after the traced call raised")
    if [s[2] for s in tracer.spans] != ["em.fit"] or "error" not in tracer.spans[0][6]:
        sys.exit(f"tracer recorded {tracer.spans}")
    print("ok  tracer guard")


def check_bare_directory() -> None:
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmarks")
    done = _run(bare, "scenario-fits", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        sys.exit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  bare directory exits {done.returncode} without a result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_tracer()
    check_cli_exception()
    check_bare_directory()
    check_workloads(spec)
    print("smoke check passed")


if __name__ == "__main__":
    main()
