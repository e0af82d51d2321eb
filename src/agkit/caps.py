"""Size guards.

Every potentially explosive computation is bounded by a named cap.  The
AGKIT_CAP environment variable, when set, must be an integer; it replaces the
default of every cap, but sets `elements` to at most 256, the most elements a
FiniteAlgebra holds.
"""

from __future__ import annotations

import os

from .errors import AgkitError, CapExceededError

DEFAULT_CAPS = {
    "elements": 256,
    "assignments": 10**7,
    "subalgebra_universe": 64,
    "discriminator_universe": 8,
}


def cap_value(name: str) -> int:
    env = os.environ.get("AGKIT_CAP")
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            raise AgkitError(f"AGKIT_CAP must be an integer, got {env!r}") from None
        return min(limit, 256) if name == "elements" else limit
    return DEFAULT_CAPS[name]


def guard(name: str, requested: int) -> None:
    limit = cap_value(name)
    if requested > limit:
        raise CapExceededError(name, limit, requested)
