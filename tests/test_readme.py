"""The README's library tour runs as written, block after block.

The tour leaves ``y``, ``X`` and ``sample`` to the reader; they are bound
here to a positive response (the second block fits a gamma model to the
first block's data), a design with an intercept, and a gamma sample with
mean 1.  The tour's numbers are kept as written, so the last block runs its
100,000-replication study with four workers.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"


def tour_blocks() -> list[str]:
    tour = README.read_text().split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, flags=re.S)


def test_library_tour_runs():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    namespace = {"X": np.column_stack([np.ones(30), x]),
                 "y": np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=30),
                 "sample": rng.gamma(2.0, 0.5, size=15)}
    blocks = tour_blocks()
    assert len(blocks) == 3
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.row("fraser_z", 0.95).replications_used + report.failures == 100_000
