"""Regenerate ``fingerprints.json`` from the reference paths.

    python3 perfbench/make_fingerprints.py

Sim workloads use the scalar drain over generator rank programs; serve-zipf
uses the in-process ``ServeService.handle_line`` on the session's lines at
the ``run_seconds`` of ``BENCHMARK.json``.  Run it only when a change is
meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os

from run import BENCH_DIR, DEFAULT_SEED, ROOT, import_program

#: The default seed and one held-out seed.
SEEDS = (DEFAULT_SEED, 11)


def main() -> None:
    import_program()
    os.chdir(ROOT)
    from serve_zipf import reference_digest
    from sims import SIM_WORKLOADS, reference_fingerprints

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    table = {name: {} for name in SIM_WORKLOADS}
    for name in SIM_WORKLOADS:
        for seed in SEEDS:
            table[name][str(seed)] = reference_fingerprints(name, seed)
    table["serve-zipf"] = {
        f"{seed}/{seconds:g}": reference_digest(seed, seconds) for seed in SEEDS
    }
    path = BENCH_DIR / "fingerprints.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
