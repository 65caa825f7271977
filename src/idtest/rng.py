"""Deterministic seed-tree helpers.

All randomness in the package flows from numpy SeedSequences built from a
master seed plus a small integer path. Each randomized phase (q-sampling,
uniform probing, per-trial streams, instance generation) gets its own
independent sub-stream, so verdicts are reproducible and phases never share
generator state.
"""
from __future__ import annotations

import numpy as np

# Path tags for the phases that derive their own sub-streams.
TAG_INSTANCE = 11
TAG_Q_STREAM = 12
TAG_PROBE = 13
TAG_TRIAL = 14


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for a master seed and an integer path below it."""
    entropy = (int(master_seed),) + tuple(int(t) for t in path)
    return np.random.SeedSequence(entropy)


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Generator for (master_seed, *path)."""
    return np.random.default_rng(seed_sequence(master_seed, *path))


def fresh_seed() -> int:
    """Entropy-derived seed for CLI runs where the user gave none.

    The caller must record the returned value in its output.
    """
    return int(np.random.SeedSequence().entropy % (2**63))
