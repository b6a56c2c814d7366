"""Shared low-level utilities: bit manipulation, counters, LRU, RNG, statistics.

These helpers are deliberately dependency-free so that every hardware model in
the package (predictor tables, caches, queues) builds on the same small,
well-tested vocabulary.
"""

from repro.common.bitops import (
    bit_select,
    fold_bits,
    mask,
    pc_hash_index,
    pc_hash_tag,
    to_signed,
)
from repro.common.counters import SaturatingCounter
from repro.common.env import EnvVarError, env_int
from repro.common.rng import DeterministicRNG
from repro.common.stats import Histogram, RunningStat, geometric_mean

__all__ = [
    "bit_select",
    "fold_bits",
    "mask",
    "pc_hash_index",
    "pc_hash_tag",
    "to_signed",
    "SaturatingCounter",
    "EnvVarError",
    "env_int",
    "DeterministicRNG",
    "Histogram",
    "RunningStat",
    "geometric_mean",
]
