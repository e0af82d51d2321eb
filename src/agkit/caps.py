"""Size guards.

Every potentially explosive computation is bounded by a named cap.  The
AGKIT_CAP environment variable, when set, must be an integer; it replaces the
default of every cap.  One call site overrides a cap explicitly: free_algebra's
max_elements (`agkit free --cap`) replaces the free_elements cap.
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


def cap_value(name: str, override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("AGKIT_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise AgkitError(f"AGKIT_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAPS[name]


def guard(name: str, requested: int, override: int | None = None) -> None:
    limit = cap_value(name, override)
    if requested > limit:
        raise CapExceededError(name, limit, requested)
