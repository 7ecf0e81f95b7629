"""Smoke self-test of the benchmark harness (about two minutes).

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the benchmark contract, runs every
workload untraced and traced with ``--seconds 1``, checks the last output
line (keys, metric names and units, no failed operation), and checks that
the harness refuses to run from a directory holding only the benchmark.
Not part of the tier-1 pytest run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT
from spans import OUT_DIR

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_contract(contract: dict) -> None:
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(contract)
    assert 1 <= len(contract["paths"]) <= 16
    for path in contract["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path, path
        assert (ROOT / path).is_dir(), path
    assert len(contract["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in contract["command"])
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}, workload
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def check_run(contract: dict, workload: str, trace: int) -> None:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], (metric, entry)
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, (workload, metric["name"], entry)
    print(f"ok  {workload} --trace {trace}: attempted {result['attempted']}")


def check_bare_directory(contract: dict) -> None:
    bare = ROOT / OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in contract["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        contract["command"] + ["--workload", contract["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done.stdout
    print("ok  refuses to run without the program source")


def main() -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_contract(contract)
    print("ok  BENCHMARK.json")
    check_bare_directory(contract)
    for workload in contract["workloads"]:
        for trace in (0, 1):
            check_run(contract, workload["name"], trace)


if __name__ == "__main__":
    main()
