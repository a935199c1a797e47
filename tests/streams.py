"""The coverage stream contract (version 2), written out for the oracles.

Replication r of a study draws row r mod S of stream block r // S, where S
is ``coverage._STREAM_BLOCK``: block b is the flat draw
``rng_draws(RngStream(seed, b), law, S * n)`` reshaped to (S, n).  S is read
at call time, so a test may shrink it to cross block edges cheaply; at S = 1
replication r draws ``RngStream(seed, r)``, one stream per replication.
Blocks are always drawn in full here, so an engine whose short last block
were not the leading rows of a full one would disagree with these rows.
"""

import contextlib
import functools
import math

import numpy as np
import pytest

from confdist import coverage
from confdist.numerics import RngStream, rng_draws


@functools.lru_cache(maxsize=16)
def _stream_block(seed: int, block: int, size: int, n: int, law: str, varphi) -> np.ndarray:
    kw = {} if law == "normal" else {"shape": varphi, "scale": 1.0 / varphi}
    rows = rng_draws(RngStream(seed, block), law, size * n, **kw).reshape(size, n)
    rows.flags.writeable = False
    return rows


def replication_draws(sc, r: int) -> np.ndarray:
    """Raw draws of replication ``r`` of ``sc``: standard normal noise, or
    gamma variates of shape varphi and mean 1."""
    size = coverage._STREAM_BLOCK
    law = "normal" if sc.model == "normal_regression" else "gamma"
    return _stream_block(sc.seed, r // size, size, sc.n, law, sc.varphi)[r % size]


def replication_responses(sc, mean, r: int) -> np.ndarray:
    """Responses of replication ``r`` around ``mean`` (X beta, exp(X beta) or None)."""
    draws = replication_draws(sc, r)
    if sc.model == "normal_regression":
        return mean + math.sqrt(sc.phi) * draws
    return draws.copy() if mean is None else mean * draws


@contextlib.contextmanager
def stream_blocks(sc, stream_block: int | None):
    """Stream blocks of ``stream_block`` rows, three to a compute block, so
    a small study crosses both kinds of block edge; None keeps the contract's."""
    with pytest.MonkeyPatch.context() as mp:
        if stream_block is not None:
            mp.setattr(coverage, "_STREAM_BLOCK", stream_block)
            mp.setattr(coverage, "_BLOCK_VALUES", 3 * stream_block * sc.n)
        yield
