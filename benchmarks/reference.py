"""A fixed reference load that measures how fast the host runs right now.

    python3 benchmarks/reference.py

It imports numpy and does a fixed mix of the kinds of work the workloads
do: numpy calls on scalars, whole-array numpy arithmetic, float parsing
from text and JSON encoding.  It uses nothing from noisebudget, so no
change to the package can change its time; the runner times it beside every
repetition and scales the workload's times by it (see run.py).
"""

from __future__ import annotations

import json

import numpy as np


def main() -> None:
    x = np.linspace(-20.0, 20.0, 100_001)
    # numpy calls on scalars, as in a per-point evaluation loop
    acc = 0.0
    for value in x[:20_000]:
        acc += float(np.sqrt(value * value + 1.0))
    # whole-array arithmetic
    for _ in range(20):
        acc += float(np.sum(np.sqrt(np.abs(x)) / (1.0 + x * x)))
    # text: format, parse back and encode as JSON lines
    lines = [f"{value:.17g},{value * acc:.17g}" for value in x[:40_000]]
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    text = "\n".join(json.dumps({"a": a, "b": b}) for a, b in rows)
    if not text:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
