#!/usr/bin/env python3
"""Write pins.json: the sha256 of ``realization.json`` for every DAG in the
pools of the two DAG workloads, as the current ``dagquot realize`` makes it.

    python3 perfbench/make_pins.py

Run it only when a change to the realization bytes is intended; the
benchmark counts every mismatch as a failed operation.
"""

import json
import sys
from pathlib import Path

import inputs
import run

HERE = Path(__file__).resolve().parent


def main() -> int:
    dq = run.import_dagquot()
    pins = {
        cls.name: [
            inputs.sha256(inputs.realization_text(
                dq.dag, dq.realizer, inputs.pool_dag(cls.name, k, cls.edge_prob)).encode())
            for k in range(inputs.POOL_SIZE)
        ]
        for cls in (run.RealizeDense, run.VerifySparse)
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
