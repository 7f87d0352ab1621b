"""repro: a shared-data distributed database (Tell, SIGMOD 2015).

A reproduction of Loesing, Pilman, Etter, Kossmann: *On the Design and
Scalability of Distributed Shared-Data Databases*, SIGMOD 2015.

Entry points:

* :func:`repro.connect` -- open an embedded database
  (``with repro.connect(storage_nodes=3) as db: ...``);
* :class:`repro.api.Database` -- the embedded database (SQL sessions,
  transactions, elasticity, recovery);
* :class:`repro.workloads.simulated.SimulatedTell` -- a full simulated
  deployment running TPC-C under network/CPU timing;
* ``python -m repro.bench`` -- regenerate the paper's tables and figures;
* ``python -m repro.obs`` -- render and validate metrics snapshots.

See README.md for the architecture overview, DESIGN.md for the system
inventory and per-experiment index, docs/api.md for the public API, and
docs/observability.md for metrics and tracing.
"""

__version__ = "1.0.0"


def connect(config=None, **kwargs):
    """Open an embedded database (the modern front door).

    Accepts either a prebuilt :class:`repro.api.DatabaseConfig` or the
    same fields as keyword arguments::

        with repro.connect(storage_nodes=3, replication_factor=2) as db:
            with db.session() as session:
                ...

    All validation happens in :class:`~repro.api.DatabaseConfig`, so a
    bad parameter raises :class:`repro.errors.InvalidState` here, before
    any component is built.
    """
    # Imported lazily so `import repro` stays cheap for bench/sim users.
    from repro.api.database import Database

    return Database(config, **kwargs)
