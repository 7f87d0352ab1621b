"""Embedded database API: the easiest way to use the library.

:class:`repro.api.database.Database` assembles a storage cluster, commit
manager, and processing node(s) in one process and drives all protocol
coroutines with :func:`repro.effects.run_direct` (zero simulated
latency).  It is the entry point for the examples and for applications
that want Tell's semantics without the simulation harness.
"""

from repro.api.config import DatabaseConfig


def __getattr__(name):
    # Imported lazily: Database pulls in the SQL layer, which not every
    # user of the config needs.
    if name == "Database":
        from repro.api.database import Database

        return Database
    if name == "connect":
        from repro.api.database import connect

        return connect
    if name == "ClusterAdmin":
        from repro.api.admin import ClusterAdmin

        return ClusterAdmin
    raise AttributeError(name)


__all__ = ["ClusterAdmin", "Database", "DatabaseConfig", "connect"]
