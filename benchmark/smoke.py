#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size.

Runs every workload of ``run.py`` (the ones in BENCHMARK.json and
``cli_pipeline``) untraced and traced with ``--size tiny`` and checks that
the last stdout line is a result whose metrics are exactly those named in
BENCHMARK.json, each finite and with the declared unit, and that no
operation failed (error_rate 0).  It also checks that the benchmark refuses
to run, without printing a result, when the bayesim sources are absent.

Run from the repository root:  python3 benchmark/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
from run import WORKLOAD_NAMES  # noqa: E402

SEED = 7
SECONDS = "1"


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int, cwd: Path) -> list:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    res = last_json(proc.stdout)
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not a result object"]
    problems = []
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"{where}: correct={res['correct']} failed={res['failed']} "
                        f"attempted={res['attempted']} (error_rate must be 0)\n{proc.stdout}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{where}: {name} value {v!r} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
        if not trace and v == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def check_bare_directory(spec: dict) -> list:
    """Only BENCHMARK.json and the benchmark's paths: must exit non-zero, no result."""
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "gesture_mc",
                               "--seed", str(SEED), "--seconds", SECONDS, "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            found = check_run(spec, name, trace, ROOT)
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for p in problems:
        print("problem:", p)
    print("smoke: PASS" if not problems else f"smoke: FAIL ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
