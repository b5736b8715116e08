"""The DSLog catalog: tracked arrays, lineage entries and operation records.

The catalog is the normalized relational layer of DSLog: every lineage
relationship between two tracked arrays is one entry holding one ProvRC
table, the backward one (keyed on the output), which answers queries in
both directions and is what the paper counts as long-term storage; every
``register_operation`` call is one operation record linking the per-pair
lineage entries with the operation metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.compressed import CompressedLineage
from ..core.provrc import compress
from ..core.relation import LineageRelation
from ..core.serialize import serialize_compressed, serialize_compressed_gzip

__all__ = [
    "ArrayInfo",
    "LineageEntry",
    "OperationRecord",
    "Catalog",
    "LineageConflictError",
    "AmbiguousLineageError",
]


class LineageConflictError(ValueError):
    """Raised when an ingest would silently replace a stored lineage entry.

    Re-ingesting the same ``(input, output)`` pair is almost always a
    workflow bug (two operations writing the same edge); callers that mean
    it must say so with ``replace=True``, which versions the entry."""


class AmbiguousLineageError(ValueError):
    """Raised when both directions of a pair are stored and a direction-less
    lookup (``entry_between``) cannot tell which entry the caller means."""


def _entry_pair(backward: CompressedLineage) -> Tuple[str, str]:
    """The ``(in_name, out_name)`` pair *backward* is stored under.  A
    relation from an array to itself is refused: no query path could
    name its hop apart from the hop back."""
    if backward.in_name == backward.out_name:
        raise ValueError(
            f"lineage between {backward.in_name!r} and {backward.out_name!r} "
            "is from an array to itself; an entry joins two different arrays"
        )
    return backward.in_name, backward.out_name


@dataclass(frozen=True)
class ArrayInfo:
    """A tracked array: a name plus a declared shape."""

    name: str
    shape: Tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count


@dataclass
class LineageEntry:
    """Stored lineage between one input array and one output array."""

    in_name: str
    out_name: str
    backward: CompressedLineage
    op_name: Optional[str] = None
    reused: bool = False
    # bumped each time the pair is explicitly re-ingested with replace=True,
    # so queries and audits can tell a versioned entry from the original
    version: int = 1
    # the catalog's generation counter as of this entry's install: no other
    # install in the process shares it (``version`` restarts at 1 when a
    # dropped pair is re-ingested), so a cached result that names the tokens
    # of its hops is valid exactly while those installs are the current ones
    token: int = 0

    def is_resident(self) -> bool:
        """In-memory entries hold their tables; stored entries probe the
        table cache (:meth:`StoredLineageEntry.is_resident`)."""
        return True

    def storage_bytes(self, gzip: bool = True) -> int:
        """On-disk footprint of the long-term (backward) representation."""
        if gzip:
            return len(serialize_compressed_gzip(self.backward))
        return len(serialize_compressed(self.backward))


@dataclass
class OperationRecord:
    """Metadata of one ``register_operation`` call."""

    op_name: str
    in_arrs: Tuple[str, ...]
    out_arrs: Tuple[str, ...]
    op_args: dict = field(default_factory=dict)
    reuse_level: Optional[str] = None
    entries: List[Tuple[str, str]] = field(default_factory=list)


class Catalog:
    """In-memory catalog of arrays, lineage entries and operations."""

    def __init__(self) -> None:
        self.arrays: Dict[str, ArrayInfo] = {}
        self._entries: Dict[Tuple[str, str], LineageEntry] = {}
        self.operations: List[OperationRecord] = []
        # the catalog's generation counter: bumped by every mutation (a new
        # array, an installed or dropped entry, an operation record), so the
        # result cache (service/query.py) and the incrementally maintained
        # lineage graph (LineageGraph.refresh) detect staleness with one
        # compare.  Each mutation lands in the dicts first and bumps last:
        # concurrent readers may observe the counter one bump behind the
        # dicts, never ahead — consumers must key derived state on the
        # value read *before* resolving entries, never after.
        self.version = 0

    # ------------------------------------------------------------------
    # arrays
    # ------------------------------------------------------------------
    def define_array(self, name: str, shape: Tuple[int, ...]) -> ArrayInfo:
        info = ArrayInfo(name=name, shape=tuple(int(d) for d in shape))
        existing = self.arrays.get(name)
        if existing is not None and existing.shape != info.shape:
            raise ValueError(
                f"array {name!r} already defined with shape {existing.shape}, "
                f"cannot redefine with {info.shape}"
            )
        if existing is None:
            self.arrays[name] = info
            self.version += 1
        return info

    def array(self, name: str) -> ArrayInfo:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"array {name!r} is not defined in the catalog") from None

    # ------------------------------------------------------------------
    # lineage entries
    # ------------------------------------------------------------------
    def add_relation(
        self,
        relation: LineageRelation,
        op_name: Optional[str] = None,
        reused: bool = False,
        replace: bool = False,
    ) -> LineageEntry:
        """Compress a relation into its backward table and store the entry."""
        return self.add_compressed(
            compress(relation), op_name=op_name, reused=reused, replace=replace
        )

    def add_compressed(
        self,
        backward: CompressedLineage,
        op_name: Optional[str] = None,
        reused: bool = False,
        replace: bool = False,
    ) -> LineageEntry:
        pair = _entry_pair(backward)
        existing = self._entries.get(pair)
        if existing is not None and not replace:
            raise LineageConflictError(
                f"lineage between {pair[0]!r} and {pair[1]!r} already stored "
                f"(op {existing.op_name!r}); pass replace=True to version it"
            )
        entry = LineageEntry(
            in_name=pair[0],
            out_name=pair[1],
            backward=backward,
            op_name=op_name,
            reused=reused,
            version=existing.version + 1 if existing is not None else 1,
            token=self.version + 1,
        )
        self._entries[pair] = entry
        self.version = entry.token
        return entry

    def entry(self, in_name: str, out_name: str) -> LineageEntry:
        try:
            return self._entries[(in_name, out_name)]
        except KeyError:
            raise KeyError(f"no lineage stored between {in_name!r} and {out_name!r}") from None

    def entries(self) -> List[LineageEntry]:
        return list(self._entries.values())

    def entry_pairs(self) -> List[Tuple[str, str]]:
        """Every stored ``(input, output)`` pair, in insertion order."""
        return list(self._entries.keys())

    def entry_between(self, first: str, second: str) -> Tuple[LineageEntry, str]:
        """Find the lineage entry linking two arrays in either direction.

        Returns ``(entry, direction)`` where direction is ``"forward"`` when
        *first* is the entry's input array and ``"backward"`` otherwise.
        When both directions were ingested (a cycle of length two), the
        lookup is ambiguous — picking one would silently answer the query
        with the stale direction — so it raises instead; use
        :meth:`entry` with the explicit ``(in, out)`` pair.
        """
        forward = self._entries.get((first, second))
        backward = self._entries.get((second, first))
        if forward is not None and backward is not None:
            raise AmbiguousLineageError(
                f"lineage stored in both directions between {first!r} and "
                f"{second!r}; resolve with entry(in_name, out_name)"
            )
        if forward is not None:
            return forward, "forward"
        if backward is not None:
            return backward, "backward"
        raise KeyError(f"no lineage stored between {first!r} and {second!r}")

    # ------------------------------------------------------------------
    # the store protocol: one failure domain (the sharded catalog
    # overrides the home shard per pair)
    # ------------------------------------------------------------------
    def entry_shard(self, pair: Tuple[str, str]) -> int:
        """Home shard of an ``(input, output)`` pair."""
        return 0

    def materialize_all(self) -> int:
        """Force-load every entry's table (the eager-open code path);
        returns the number of tables materialized or found cached."""
        entries = self.entries()
        for entry in entries:
            entry.backward
        return len(entries)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def add_operation(self, record: OperationRecord) -> None:
        self.operations.append(record)
        self.version += 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def storage_bytes(self, gzip: bool = True) -> int:
        """Total long-term storage of every lineage entry in the catalog."""
        return sum(entry.storage_bytes(gzip=gzip) for entry in self.entries())

    def __len__(self) -> int:
        return len(self._entries)
