"""The public configuration surface: a frozen, validated config object.

Fields and validation are :class:`repro.runtime.config.DeploymentConfig`'s.
Both :func:`repro.connect` and the keyword-argument ``Database(...)``
shim build one, so a bad value fails identically (and early) no matter
which front door was used.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.config import DeploymentConfig


@dataclass(frozen=True)
class DatabaseConfig(DeploymentConfig):
    """Validated, frozen deployment shape for an embedded :class:`Database`."""
