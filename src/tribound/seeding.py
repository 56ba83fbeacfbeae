"""Deterministic random-stream management.

All randomness in a run flows from one unsigned config seed. Each consumer
gets its own named stream so adding a draw to one component can never shift
the values another component sees. Stream ids are a fixed table, not string
hashes, so the mapping is stable across platforms and releases. A stream
drawn afresh at each coordination cycle, such as "embedding_error", takes
the cycle index as an integer key, so each cycle's draw is fixed by
(seed, stream, cycle) alone.
"""
from __future__ import annotations

import numpy as np

_STREAM_IDS: dict[str, int] = {
    "weight_init": 1,
    "observations": 2,
    "encoder": 3,
    "calibration": 4,
    "policy_target": 5,
    "probe_states": 6,
    "danger_probes": 7,
    "meta_target": 8,
    "meta_cascade": 9,
    "adaptation": 10,
    "embedding_error": 11,
}


def stream_rng(seed: int, stream: str, key: int | None = None) -> np.random.Generator:
    """Generator for a named stream, fully determined by (seed, stream, key)."""
    if stream not in _STREAM_IDS:
        raise KeyError(f"unknown random stream {stream!r}")
    entropy = [int(seed), _STREAM_IDS[stream]]
    if key is not None:
        entropy.append(int(key))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, dim) array of independent uniform unit directions."""
    raw = rng.standard_normal((n, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return raw / norms
