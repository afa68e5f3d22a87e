"""Static analyses: link-time emitter pruning (tcc section 5.2) and the
abstract-interpretation dataflow framework behind proof-carrying guard
elision (``lattice``/``dataflow``/``facts``)."""

import os

from repro.analysis.usedops import (
    UsedOpsReport,
    collect_used_ops,
    emitter_size_estimate,
)

#: Environment variable consulted when no explicit ``analysis=`` option
#: is given; elision defaults *off* so modeled cycles stay comparable
#: with earlier runs unless explicitly requested.
ENV_VAR = "REPRO_ANALYSIS"

_TRUTHY = ("1", "on", "true", "yes")


def resolve_analysis(value=None) -> bool:
    """Normalize an ``analysis=`` option; ``None`` defers to
    ``$REPRO_ANALYSIS``, then to off."""
    if value is None:
        value = os.environ.get(ENV_VAR) or "off"
    if isinstance(value, str):
        return value.strip().lower() in _TRUTHY
    return bool(value)


__all__ = [
    "ENV_VAR",
    "UsedOpsReport",
    "collect_used_ops",
    "emitter_size_estimate",
    "resolve_analysis",
]
