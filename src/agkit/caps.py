"""Size guards.

Every potentially explosive computation is bounded by a named cap.  The
AGKIT_CAP environment variable, when set, must be an integer; it replaces the
default of every cap.
"""

from __future__ import annotations

import os

from .errors import AgkitError, CapExceededError

DEFAULT_CAPS = {
    "product_elements": 10**6,
    "assignments": 10**7,
    "congruence_universe": 256,
    "subalgebra_universe": 64,
    "discriminator_universe": 8,
    "free_elements": 4096,
}


def cap_value(name: str) -> int:
    env = os.environ.get("AGKIT_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise AgkitError(f"AGKIT_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAPS[name]


def guard(name: str, requested: int) -> None:
    limit = cap_value(name)
    if requested > limit:
        raise CapExceededError(name, limit, requested)
