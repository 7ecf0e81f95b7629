"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-table1 --seed 2003 --seconds 20 --trace 0

Run from the repository root.  The program under test is the source tree
in ``src/``; nothing is installed.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json`` from an untraced run; ``--trace 1`` prints its
per-layer metrics from a run that records spans around calls into each
layer and writes them as NDJSON under ``.perfbench_out/``.  Every line but
the last is a human-readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked against ``fingerprints.json`` (reference-path digests
committed for the default and one held-out seed).  For other seeds the sim
workloads compute the reference path after the measurement, and serve-zipf
always replays its lines through the in-process service.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-table1", "credit-lu64", "serve-zipf")
DEFAULT_SEED = 2003


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--engine",
        default="auto",
        choices=("auto", "scalar"),
        help="sim workloads: force the scalar drain (baseline comparison only)",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/repro; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    os.chdir(ROOT)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    committed = json.loads((BENCH_DIR / "fingerprints.json").read_text(encoding="utf-8"))
    from spans import OUT_DIR

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    if args.workload == "serve-zipf":
        from serve_zipf import run_serve

        attempted, failed, metrics, report, digest = run_serve(
            ROOT, args.seed, args.seconds, bool(args.trace)
        )
        key = f"{args.seed}/{args.seconds:g}"
        expected = committed["serve-zipf"].get(key)
        if expected is not None and expected != digest:
            failed += attempted  # the reference itself moved: no answer is trusted
        report["reference_digest"] = digest
        report["committed_digest"] = expected
    else:
        from sims import reference_fingerprints, run_sim

        runs, failed, metrics, report = run_sim(
            args.workload, args.seed, args.seconds, bool(args.trace), args.engine, out_dir
        )
        expected = committed[args.workload].get(str(args.seed))
        report["reference"] = "committed" if expected is not None else "computed"
        if expected is None:
            expected = reference_fingerprints(args.workload, args.seed)
        attempted = sum(len(fingerprints) for fingerprints in runs)
        wrong = [
            (label, digest)
            for fingerprints in runs
            for label, digest in fingerprints.items()
            if expected.get(label) != digest
        ]
        failed += len(wrong)
        report["mismatches"] = wrong[:5]

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    result = {
        # Layers a workload does not exercise report 0.
        name["name"]: {"value": float(metrics.get(name["name"], 0.0)), "unit": name["unit"]}
        for name in wanted
    }
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, entry in result.items():
        print(f"{args.workload:<13} {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{args.workload:<13} {'failed_ratio':<28} {failed / attempted:>16.6g} (of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
