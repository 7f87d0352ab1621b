"""The public configuration surface: a frozen, validated config object.

``DatabaseConfig`` is the single place where embedded-database
parameters are validated -- both :func:`repro.connect` and the
keyword-argument ``Database(...)`` shim build one, so a bad value fails
identically (and early) no matter which front door was used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import InvalidState

#: Buffering strategies understood by :func:`repro.core.buffers.make_strategy`.
_BUFFERING_PREFIXES = ("tb", "sb", "sbvs")


@dataclass(frozen=True)
class DatabaseConfig:
    """Validated deployment shape for an embedded :class:`Database`.

    Frozen: a config can be shared, reused, and compared safely.  Use
    :meth:`with_` for modified copies.
    """

    storage_nodes: int = 3
    replication_factor: int = 1
    commit_managers: int = 1
    buffering: str = "tb"
    tid_range_size: int = 256
    interleaved_tids: bool = False
    partitions_per_node: int = 8
    #: Attach a :class:`repro.obs.Observability` hub to the deployment.
    observability: bool = False
    #: Isolation protocol: "si" (snapshot isolation, the paper's default),
    #: "wsi" (write-snapshot isolation) or "ssi" (serializable SI).  See
    #: ``docs/isolation.md`` and :mod:`repro.core.isolation`.
    isolation: str = "si"
    #: Partition placement: "hash" (modulo, the paper's layout) or
    #: "range" (contiguous hash-space slices), optionally with a
    #: virtual-node count ("hash:16" = 16 partitions per node).  See
    #: :class:`repro.elastic.PlacementSpec` and ``docs/elasticity.md``.
    placement: str = "hash"

    def __post_init__(self) -> None:
        if self.commit_managers < 1:
            raise InvalidState("need at least one commit manager")
        if self.isolation not in ("si", "wsi", "ssi"):
            raise InvalidState(
                f"unknown isolation mode {self.isolation!r} "
                f"(expected si, wsi, or ssi)"
            )
        if self.storage_nodes < 1:
            raise InvalidState("need at least one storage node")
        if self.replication_factor < 1:
            raise InvalidState("replication factor must be >= 1")
        if self.replication_factor > self.storage_nodes:
            raise InvalidState(
                f"replication factor {self.replication_factor} exceeds "
                f"the {self.storage_nodes} storage node(s)"
            )
        if self.partitions_per_node < 1:
            raise InvalidState("need at least one partition per node")
        if self.tid_range_size < 1:
            raise InvalidState("tid range size must be >= 1")
        name = str(self.buffering).lower()
        if not name.startswith(_BUFFERING_PREFIXES):
            raise InvalidState(
                f"unknown buffering strategy {self.buffering!r} "
                f"(expected tb, sb, or sbvs<unit>)"
            )
        if name.startswith("sbvs") and len(name) > 4:
            try:
                int(name[4:])
            except ValueError:
                raise InvalidState(
                    f"malformed sbvs unit size in {self.buffering!r}"
                ) from None
        from repro.elastic.topology import PlacementSpec

        PlacementSpec.parse(self.placement)  # raises InvalidState when bad

    def with_(self, **changes: object) -> "DatabaseConfig":
        """A modified copy (validation runs again)."""
        return replace(self, **changes)

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(spec.name for spec in fields(cls))
