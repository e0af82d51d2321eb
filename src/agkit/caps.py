"""Size guards.

Every potentially explosive computation is bounded by a named cap.  The
AGKIT_CAP environment variable, when set to an integer, replaces the default
of every cap; some call sites also accept an explicit override.
"""

from __future__ import annotations

import os

from .errors import CapExceededError

DEFAULT_CAPS = {
    "product_elements": 10**6,
    "assignments": 10**7,
    "congruence_universe": 64,
    "subalgebra_universe": 64,
    "discriminator_universe": 8,
    "free_elements": 10**5,
}


def cap_value(name: str, override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("AGKIT_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_CAPS[name]


def guard(name: str, requested: int, override: int | None = None) -> None:
    limit = cap_value(name, override)
    if requested > limit:
        raise CapExceededError(name, limit, requested)
