"""Deterministic random-stream management.

All randomness in a run flows from one unsigned config seed. Each consumer
gets its own named stream so adding a draw to one component can never shift
the values another component sees. Stream ids are a fixed table, not string
hashes, so the mapping is stable across platforms and releases. Id 4 is
retired: its stream is gone, and the id is never reused. The table fixes each
stream's bit generator: "observations", which draws the fast ticks'
activity a chunk of ticks at a time and is most of a run's random
numbers, uses SFC64, which gives raw 64-bit outputs (a chunk's sign bits)
and uniform doubles (its radii) at least as fast as PCG64; every other
stream uses PCG64. A stream drawn afresh at each coordination cycle,
such as "embedding_error", takes the cycle index as an integer key, so each
cycle's draw is fixed by (seed, stream, cycle) alone. This module holds
only the table and stream_rng; what a consumer makes of its draws, such as
model.unit_rows, lives with the consumer.
"""
from __future__ import annotations

import numpy as np

_STREAMS: dict[str, tuple[int, type[np.random.BitGenerator]]] = {
    "weight_init": (1, np.random.PCG64),
    "observations": (2, np.random.SFC64),
    "encoder": (3, np.random.PCG64),
    "policy_target": (5, np.random.PCG64),
    "probe_states": (6, np.random.PCG64),
    "danger_probes": (7, np.random.PCG64),
    "meta_target": (8, np.random.PCG64),
    "meta_cascade": (9, np.random.PCG64),
    "adaptation": (10, np.random.PCG64),
    "embedding_error": (11, np.random.PCG64),
}


def stream_rng(seed: int, stream: str, key: int | None = None) -> np.random.Generator:
    """Generator for a named stream, fully determined by (seed, stream, key)."""
    if stream not in _STREAMS:
        raise KeyError(f"unknown random stream {stream!r}")
    stream_id, bit_generator = _STREAMS[stream]
    entropy = [int(seed), stream_id]
    if key is not None:
        entropy.append(int(key))
    return np.random.Generator(bit_generator(np.random.SeedSequence(entropy)))

