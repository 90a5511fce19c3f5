"""Deterministic seed fan-out for campaign grids.

The historical campaign drivers passed one integer seed to *every* grid
point, which correlates the noise streams of different boards and
voltages (each point rebuilt the same generator).  The fix — and the
property the parallel executor relies on — is to derive one child seed
per grid point from the root seed with ``numpy.random.SeedSequence``:

* **deterministic** — the child list is a pure function of the root
  seed, so serial and parallel runs (any job count, any completion
  order) see exactly the same streams;
* **independent** — spawned ``SeedSequence`` children are designed to
  yield statistically independent generators, so grid points no longer
  share noise;
* **stable** — children depend only on (root, index), never on how many
  other points run in the same process or in which order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.simulation.noise import SeedLike


def spawn_seeds(seed: SeedLike, count: int) -> List[Optional[int]]:
    """Derive ``count`` independent child seeds from a root seed.

    ``None`` roots propagate as ``None`` children (fresh OS entropy per
    point — irreproducible by request).  A ``numpy.random.Generator``
    cannot be fanned out: its stream is stateful, so sharing it across a
    grid is order-dependent by construction, so it raises ``TypeError``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if seed is None:
        return [None] * count
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "cannot derive child seeds from a stateful Generator; "
            "pass an integer root seed to fan a grid out"
        )
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def spawn_seed_subset(
    seed: SeedLike, count: int, indices: Sequence[int]
) -> List[Optional[int]]:
    """The selected children of a ``count``-wide fan-out.

    This is the property sharded execution rests on: a shard always
    derives the seeds of the *whole* grid and then selects its own
    indices, so the seed of grid point ``i`` is a function of
    ``(root, i, count)`` alone — never of how the grid was partitioned.
    Any ``(shard_index, shard_count)`` split therefore reproduces the
    single-host streams exactly.
    """
    children = spawn_seeds(seed, count)
    out: List[Optional[int]] = []
    for index in indices:
        if not 0 <= int(index) < count:
            raise IndexError(
                f"seed index {index} out of range for a fan-out of {count}"
            )
        out.append(children[int(index)])
    return out
