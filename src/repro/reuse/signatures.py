"""Operation signatures and automatic reuse prediction (Section VI).

DSLog associates each ``register_operation`` call with three progressively
more general signatures:

* ``base_sig`` — operation name + the *content* of the input arrays + the
  scalar arguments.  A match lets DSLog reuse lineage verbatim (the Lima
  strategy).
* ``dim_sig`` — operation name + the input array *shapes* + arguments.
  A match reuses lineage whenever only the data values changed.
* ``gen_sig`` — operation name + arguments.  A match reuses lineage for any
  input shape via index reshaping (:mod:`repro.reuse.reshape`).

Reuse is *predicted automatically*: the first call stores temporary
``dim_sig``/``gen_sig`` mappings; they are promoted to permanent after ``m``
subsequent calls whose freshly captured lineage matches the stored mapping
(for ``gen_sig`` the calls must also use different shapes), and marked
non-reusable on the first mismatch.  The paper (and this implementation)
uses ``m = 1``.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..core.compressed import CompressedLineage
from ..core.relation import row_order
from .reshape import GeneralizedTable, generalize

__all__ = [
    "OperationSignature",
    "ReuseDecision",
    "ReuseManager",
    "tables_equal",
    "fingerprint_array",
]

RelationKey = Tuple[str, str]  # (input array name, output array name)


def fingerprint_array(array: np.ndarray) -> str:
    """Content fingerprint of an input array (used by ``base_sig``)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _canonical_args(op_args: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, str], ...]:
    if not op_args:
        return ()
    return tuple(sorted((str(k), repr(v)) for k, v in op_args.items()))


@dataclass(frozen=True)
class OperationSignature:
    """Identity of one ``register_operation`` call."""

    op_name: str
    input_fingerprints: Tuple[str, ...]
    in_shapes: Tuple[Tuple[int, ...], ...]
    out_shapes: Tuple[Tuple[int, ...], ...]
    op_args: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def build(
        cls,
        op_name: str,
        input_arrays: Iterable[np.ndarray],
        output_shapes: Iterable[Tuple[int, ...]],
        op_args: Optional[Mapping[str, Any]] = None,
        fingerprint: bool = True,
    ) -> "OperationSignature":
        arrays = list(input_arrays)
        fingerprints = tuple(
            fingerprint_array(np.asarray(a)) if fingerprint else "" for a in arrays
        )
        return cls(
            op_name=op_name,
            input_fingerprints=fingerprints,
            in_shapes=tuple(tuple(int(d) for d in np.asarray(a).shape) for a in arrays),
            out_shapes=tuple(tuple(int(d) for d in shape) for shape in output_shapes),
            op_args=_canonical_args(op_args),
        )

    @property
    def base_key(self) -> Tuple:
        return (self.op_name, self.input_fingerprints, self.op_args)

    @property
    def dim_key(self) -> Tuple:
        return (self.op_name, self.in_shapes, self.op_args)

    @property
    def gen_key(self) -> Tuple:
        return (self.op_name, self.op_args)


def tables_equal(left: CompressedLineage, right: CompressedLineage) -> bool:
    """Structural equality of two compressed tables (row order insensitive)."""
    if left.out_shape != right.out_shape or left.in_shape != right.in_shape:
        return False
    if len(left) != len(right):
        return False

    def canonical(table: CompressedLineage) -> np.ndarray:
        parts = [
            table.key_lo,
            table.key_hi,
            table.val_kind,
            table.val_ref,
            table.val_lo,
            table.val_hi,
        ]
        matrix = np.concatenate(parts, axis=1) if len(table) else np.empty((0, 0), np.int64)
        order = row_order(list(matrix.T))
        return matrix if order is None else matrix[order]

    return np.array_equal(canonical(left), canonical(right))


@dataclass
class ReuseDecision:
    """Outcome of a reuse lookup for one operation call."""

    level: Optional[str]  # "base", "dim", "gen" or None
    tables: Optional[Dict[RelationKey, CompressedLineage]] = None

    @property
    def reused(self) -> bool:
        return self.level is not None


@dataclass
class _Candidate:
    tables: Dict[RelationKey, CompressedLineage] = field(default_factory=dict)
    generalized: Dict[RelationKey, GeneralizedTable] = field(default_factory=dict)
    shapes_seen: set = field(default_factory=set)
    confirmations: int = 0
    permanent: bool = False
    blocked: bool = False


class ReuseManager:
    """Tracks signature mappings and drives automatic reuse prediction.

    Thread-safe: the concurrent lineage service runs ``lookup``/``observe``
    from several ingest workers at once, and a manifest publish may export
    the state concurrently — every method that touches the signature tables
    holds the manager's reentrant lock.  ``mutation_count`` increases on
    every state change so a sync can skip re-exporting unchanged state.
    """

    def __init__(self, confirmations_required: int = 1):
        self.confirmations_required = int(confirmations_required)
        self._lock = threading.RLock()
        self._base: Dict[Tuple, Dict[RelationKey, CompressedLineage]] = {}
        self._dim: Dict[Tuple, _Candidate] = {}
        self._gen: Dict[Tuple, _Candidate] = {}
        self.mispredictions: int = 0
        self.mutation_count: int = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, signature: OperationSignature) -> ReuseDecision:
        """Return reusable lineage tables for this call, if any."""
        with self._lock:
            base = self._base.get(signature.base_key)
            if base is not None:
                return ReuseDecision(level="base", tables=dict(base))

            dim = self._dim.get(signature.dim_key)
            if dim is not None and dim.permanent and not dim.blocked:
                return ReuseDecision(level="dim", tables=dict(dim.tables))

            gen = self._gen.get(signature.gen_key)
            if gen is not None and gen.permanent and not gen.blocked:
                tables = {}
                try:
                    for key, generalized in gen.generalized.items():
                        out_shape = signature.out_shapes[0] if signature.out_shapes else ()
                        in_shape = signature.in_shapes[0] if signature.in_shapes else ()
                        tables[key] = generalized.instantiate(out_shape, in_shape)
                except ValueError:
                    # The promoted generalized mapping cannot serve this call's
                    # shapes (e.g. numpy.cross changing output arity with the
                    # second dimension): a reuse misprediction, fall back to capture.
                    self.mispredictions += 1
                    self.mutation_count += 1
                    gen.blocked = True
                    return ReuseDecision(level=None)
                return ReuseDecision(level="gen", tables=tables)
            return ReuseDecision(level=None)

    # ------------------------------------------------------------------
    # observation / prediction
    # ------------------------------------------------------------------
    def observe(
        self,
        signature: OperationSignature,
        tables: Mapping[RelationKey, CompressedLineage],
    ) -> None:
        """Record freshly captured lineage and update reuse predictions."""
        tables = dict(tables)
        with self._lock:
            self._base[signature.base_key] = tables
            self._observe_dim(signature, tables)
            self._observe_gen(signature, tables)
            self.mutation_count += 1

    def _observe_dim(self, signature, tables) -> None:
        candidate = self._dim.get(signature.dim_key)
        if candidate is None:
            self._dim[signature.dim_key] = _Candidate(tables=tables)
            return
        if candidate.blocked or candidate.permanent:
            return
        if self._tables_match(candidate.tables, tables):
            candidate.confirmations += 1
            if candidate.confirmations >= self.confirmations_required:
                candidate.permanent = True
        else:
            candidate.blocked = True

    def _observe_gen(self, signature, tables) -> None:
        candidate = self._gen.get(signature.gen_key)
        shape_key = (signature.in_shapes, signature.out_shapes)
        if candidate is None:
            candidate = _Candidate(
                tables=tables,
                generalized={key: generalize(table) for key, table in tables.items()},
            )
            candidate.shapes_seen.add(shape_key)
            self._gen[signature.gen_key] = candidate
            return
        if candidate.blocked or candidate.permanent:
            return
        out_shape = signature.out_shapes[0] if signature.out_shapes else ()
        in_shape = signature.in_shapes[0] if signature.in_shapes else ()
        predicted = {}
        try:
            for key, generalized in candidate.generalized.items():
                predicted[key] = generalized.instantiate(out_shape, in_shape)
        except ValueError:
            candidate.blocked = True
            return
        if self._tables_match(predicted, tables):
            if shape_key not in candidate.shapes_seen:
                candidate.confirmations += 1
                candidate.shapes_seen.add(shape_key)
            if candidate.confirmations >= self.confirmations_required:
                candidate.permanent = True
        else:
            candidate.blocked = True

    @staticmethod
    def _tables_match(left: Mapping[RelationKey, CompressedLineage], right) -> bool:
        if set(left.keys()) != set(right.keys()):
            return False
        return all(tables_equal(left[key], right[key]) for key in left)

    # ------------------------------------------------------------------
    # persistence (the segment store's manifest carries this state)
    # ------------------------------------------------------------------
    def export_state(self, save_table) -> dict:
        """Serialize every signature mapping to a JSON-able dict.

        *save_table* maps a :class:`CompressedLineage` to a JSON-able
        reference (the segment store appends the table and returns its
        record address); tables already persisted are referenced, not
        re-encoded.  Signature keys are nested tuples of strings and ints,
        which round-trip through JSON lists losslessly.
        """

        def encode_tables(tables: Mapping) -> list:
            return [[list(key), save_table(table)] for key, table in tables.items()]

        def encode_candidate(key, candidate: _Candidate) -> dict:
            return {
                "key": key,
                "tables": encode_tables(candidate.tables),
                "shapes_seen": [list(shape) for shape in sorted(candidate.shapes_seen)],
                "confirmations": candidate.confirmations,
                "permanent": candidate.permanent,
                "blocked": candidate.blocked,
            }

        with self._lock:
            return {
                "confirmations_required": self.confirmations_required,
                "mispredictions": self.mispredictions,
                "base": [
                    {"key": key, "tables": encode_tables(tables)}
                    for key, tables in self._base.items()
                ],
                "dim": [encode_candidate(k, c) for k, c in self._dim.items()],
                "gen": [encode_candidate(k, c) for k, c in self._gen.items()],
            }

    def import_state(self, state: Mapping, load_table) -> None:
        """Rebuild the signature mappings exported by :meth:`export_state`.

        *load_table* maps a stored reference back to a table.  Generalized
        tables are re-derived from the concrete tables (``generalize`` is a
        pure function of the table), so only table references need to
        survive on disk.
        """
        from ..storage.manifest import tuplify

        def decode_tables(items) -> Dict:
            return {tuplify(key): load_table(ref) for key, ref in items}

        def decode_candidate(data: Mapping, generalized: bool) -> _Candidate:
            tables = decode_tables(data["tables"])
            candidate = _Candidate(
                tables=tables,
                generalized=(
                    {key: generalize(table) for key, table in tables.items()}
                    if generalized
                    else {}
                ),
                shapes_seen={tuplify(shape) for shape in data.get("shapes_seen", [])},
                confirmations=int(data["confirmations"]),
                permanent=bool(data["permanent"]),
                blocked=bool(data["blocked"]),
            )
            return candidate

        with self._lock:
            self.confirmations_required = int(
                state.get("confirmations_required", self.confirmations_required)
            )
            self.mispredictions = int(state.get("mispredictions", 0))
            self._base = {
                tuplify(item["key"]): decode_tables(item["tables"]) for item in state.get("base", [])
            }
            self._dim = {
                tuplify(item["key"]): decode_candidate(item, generalized=False)
                for item in state.get("dim", [])
            }
            self._gen = {
                tuplify(item["key"]): decode_candidate(item, generalized=True)
                for item in state.get("gen", [])
            }
            self.mutation_count += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def record_misprediction(self) -> None:
        with self._lock:
            self.mispredictions += 1
            self.mutation_count += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "base_entries": len(self._base),
                "dim_entries": sum(1 for c in self._dim.values() if c.permanent),
                "gen_entries": sum(1 for c in self._gen.values() if c.permanent),
                "blocked_dim": sum(1 for c in self._dim.values() if c.blocked),
                "blocked_gen": sum(1 for c in self._gen.values() if c.blocked),
                "mispredictions": self.mispredictions,
            }
