"""Deterministic RNG used everywhere randomness is needed.

A single fixed algorithm (PCG64) so that the same seed produces the same
stream on every platform. All modules accept a Generator created here
rather than seeding global state.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Create the project-wide deterministic generator (PCG64) from a
    non-negative integer seed."""
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))
