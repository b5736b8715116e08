"""Seeded input generation: catalogs, request streams, the writer schedule.

Everything the benchmark feeds the program derives from ``--seed`` here and
nowhere else.  What the seed varies and what it does not:

* **varies** — the data the random-numpy chains run on (hence every
  value-dependent ``sort``/``argsort`` lineage table), the cells of every
  query, and the rows of every relation ``serve_churn`` writes.
* **fixed** — the *shape* of each workload: which operations each chain
  applies and how large the arrays are, which kind of query sits at which
  position of a stream, which edges a write burst touches.  ``random_numpy_pipeline`` draws its
  operations from the same generator as its data, so two seeds give
  catalogs whose stored size differs 500x (one ``sort`` or none); that would
  make ``stored_bytes_per_raw_byte`` and ``ingest_rows_per_s`` describe the
  seed, not the program.  The chains here use the same operation catalog
  (``pipeline_ops``) with a fixed rotation and exactly one value-dependent
  operation per chain, so every seed measures the same mix of one
  incompressible table among four that compress to a row or two (the
  Fig. 9 shape).

A request is the JSON body both transports accept:
``{"path": [...], "cells": [[...], ...]}`` or ``{"path": [...], "slices":
[[start, stop], ...]}``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.capture.numpy_catalog import pipeline_ops
from repro.core.relation import LineageRelation
from repro.workloads.pipelines import (
    image_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)

Request = Dict[str, object]
Shape = Tuple[int, ...]

CHAIN_OPS = 5
CHURN_SHAPE = (32, 32)
# quadratic row counts (cumsum of n cells has n^2/2 rows) or a collapse to
# one cell: unusable at any chain size worth measuring; and partition, whose
# table size swings 2x with the data (sort and argsort give a uniformly
# random permutation whatever the seed)
_EXCLUDED_OPS = {"cumsum", "cumprod", "inner_const", "partition"}
# seeds the choices that define a workload's shape and never vary with --seed
_STRUCTURE = 0x5EED


class Group(NamedTuple):
    """One connected pipeline of the catalog: arrays in path order and the
    relation between each consecutive pair."""

    name: str
    arrays: List[Tuple[str, Shape]]
    steps: List[LineageRelation]


class CatalogSpec(NamedTuple):
    """The seed-independent shape of a catalog."""

    chains: int
    chain_cells: int
    resnet: Optional[Tuple[int, int]]
    relational: Optional[Tuple[int, int]]
    image: Optional[Tuple[int, int]]
    churn_arrays: int = 0  # length of the 32x32 chain serve_churn rewrites

    def scaled(self, scale: float) -> "CatalogSpec":
        """A proportionally smaller catalog for ``--scale`` (smoke tests)."""
        if scale >= 1.0:
            return self
        return self._replace(
            chains=max(1, self.chains // 4),
            chain_cells=max(256, int(self.chain_cells * scale)),
            resnet=self.resnet and (8, 8),
            relational=self.relational and (60, 40),
            image=self.image and (16, 16),
        )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per purpose, so adding a draw to one input
    never shifts another."""
    return np.random.default_rng([int(seed), *stream])


# ----------------------------------------------------------------------
# catalogs
# ----------------------------------------------------------------------
def _op_pools():
    ops = [op for op in pipeline_ops() if op.name not in _EXCLUDED_OPS]
    return (
        [op for op in ops if not op.value_dependent],
        [op for op in ops if op.value_dependent],
    )


def _chain_group(chain: int, n_cells: int, seed: int) -> Group:
    """Chain number *chain*: a fixed rotation through the regular operations
    with one value-dependent operation at step ``chain % CHAIN_OPS``.  Array
    sizes do not depend on the data, so neither does the operation list."""
    regular, value_dependent = _op_pools()
    prefix = f"c{chain:02d}"
    current = _rng(seed, 1, chain).normal(size=n_cells)
    arrays: List[Tuple[str, Shape]] = [(f"{prefix}.a0", current.shape)]
    steps: List[LineageRelation] = []
    for i in range(CHAIN_OPS):
        if i == chain % CHAIN_OPS:
            op = value_dependent[chain % len(value_dependent)]
        else:
            k = 7 * chain + 11 * i
            op = regular[k % len(regular)]
            # repeat/tile/kron double the array: allow it once per chain
            while op.run(current).size > 2 * n_cells:
                k += 1
                op = regular[k % len(regular)]
        out = op.run(current).reshape(-1)
        relation = op.lineage(current)
        if relation.out_shape != out.shape:  # keep the chain 1-D
            l = relation.out_ndim
            flat = np.ravel_multi_index(
                [relation.rows[:, d] for d in range(l)], relation.out_shape
            )
            rows = np.concatenate([flat[:, None], relation.rows[:, l:]], axis=1)
            relation = LineageRelation(out.shape, relation.in_shape, rows)
        relation.in_name, relation.out_name = f"{prefix}.a{i}", f"{prefix}.a{i + 1}"
        arrays.append((relation.out_name, out.shape))
        steps.append(relation)
        current = out
    return Group(prefix, arrays, steps)


def small_relation(shape: Shape, rng: np.random.Generator, in_name: str, out_name: str) -> LineageRelation:
    """A value-dependent relation over a small 2-D array: each output cell
    reads itself and two cells a random few places away (3 rows per cell
    that ProvRC cannot merge, yet a query's answer stays a handful of
    boxes however many such hops it crosses) — the size at which commit
    cost, not compression, dominates a write."""
    size = int(np.prod(shape))
    cell = np.arange(size)
    near = [np.clip(cell + rng.integers(-3, 4, size), 0, size - 1) for _ in range(2)]
    out_flat = np.repeat(cell, 3)
    in_flat = np.stack([cell, *near], axis=1).reshape(-1)
    rows = np.concatenate(
        [
            np.stack(np.unravel_index(out_flat, shape), axis=1),
            np.stack(np.unravel_index(in_flat, shape), axis=1),
        ],
        axis=1,
    )
    return LineageRelation(shape, shape, rows, in_name=in_name, out_name=out_name)


def _churn_group(n_arrays: int, seed: int) -> Group:
    rng = _rng(seed, 2)
    arrays = [(f"w.a{i}", CHURN_SHAPE) for i in range(n_arrays)]
    steps = [
        small_relation(CHURN_SHAPE, rng, f"w.a{i}", f"w.a{i + 1}") for i in range(n_arrays - 1)
    ]
    return Group("w", arrays, steps)


def build_groups(spec: CatalogSpec, seed: int) -> List[Group]:
    """Every relation of the catalog, captured and ready to ingest."""
    groups: List[Group] = []
    if spec.resnet is not None:
        p = resnet_block_pipeline(*spec.resnet)
        groups.append(Group("resnet", p.arrays, p.steps))
    if spec.relational is not None:
        p = relational_pipeline(*spec.relational)
        groups.append(Group("relational", p.arrays, p.steps))
    if spec.image is not None:
        p = image_pipeline(*spec.image, lime_samples=20)
        groups.append(Group("image", p.arrays, p.steps))
    for chain in range(spec.chains):
        groups.append(_chain_group(chain, spec.chain_cells, seed))
    if spec.churn_arrays:
        groups.append(_churn_group(spec.churn_arrays, seed))
    return groups


def relations(groups: Sequence[Group]) -> List[LineageRelation]:
    return [relation for group in groups for relation in group.steps]


def raw_size(relations: Sequence[LineageRelation]) -> Tuple[int, int]:
    """``(lineage rows, raw bytes)``: rows x columns x 8."""
    return sum(len(r.rows) for r in relations), sum(r.rows.size * 8 for r in relations)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def _random_cells(shape: Shape, count: int, contiguous: bool, rng: np.random.Generator) -> Request:
    """*count* cells of an array as a request fragment: one index box
    (``slices``) or scattered distinct cells (``cells``)."""
    size = int(np.prod(shape))
    count = max(1, min(count, size))
    if contiguous:
        # split the cell budget over the axes, last axis first
        slices, remaining = [], count
        for dim in reversed(shape):
            extent = max(1, min(dim, remaining))
            start = int(rng.integers(0, dim - extent + 1))
            slices.append([start, start + extent])
            remaining = max(1, remaining // extent)
        return {"slices": slices[::-1]}
    flat = rng.choice(size, size=count, replace=False)
    cells = np.stack(np.unravel_index(np.sort(flat), shape), axis=1)
    return {"cells": cells.tolist()}


def query_pool(groups: Sequence[Group], seed: int, size: int, max_cells: int) -> List[Request]:
    """*size* queries: log-uniform cell count in ``[1, max_cells]``, half
    index boxes and half scattered cells, half forward and half backward,
    one in five of the multi-hop ones given as a two-array ``(src, dst)``
    query that ``LineageGraph`` has to plan.

    The *kind* of query number ``k`` (group, hops, direction, cell count,
    box or scattered) is the same for every seed; the seed picks which
    cells.  A Zipf stream gives its first rank a sixth of all requests, so
    were the kinds seeded too, each seed would measure a different query.
    """
    kind = np.random.default_rng([_STRUCTURE, size, max_cells])
    rng = _rng(seed, 3, max_cells)
    pool: List[Request] = []
    for _ in range(size):
        group = groups[int(kind.integers(0, len(groups)))]
        names = [name for name, _ in group.arrays]
        i, j = sorted(kind.choice(len(names), size=2, replace=False).tolist())
        path = names[i : j + 1]
        if kind.random() < 0.5:
            path = path[::-1]  # forward: from the input side to the output side
        if kind.random() < 0.2 and len(path) > 2:
            path = [path[0], path[-1]]  # no direct entry: planned through the graph
        count = int(round(float(np.exp(kind.uniform(0.0, np.log(max_cells))))))
        request: Request = {"path": path}
        request.update(_random_cells(dict(group.arrays)[path[0]], count, bool(kind.random() < 0.5), rng))
        pool.append(request)
    return pool


def zipf_lap(pool_size: int, length: int, exponent: float = 1.1) -> np.ndarray:
    """One lap of *length* pool indices with Zipf(*exponent*) frequencies:
    rank ``k`` appears ``length * p_k`` times (rounded so the counts add
    up), shuffled.  Frequencies and order are part of the workload's shape,
    the same for every seed: which requests share a batch, and which come
    first after a write burst, decide how much work a lap is."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** exponent
    exact = length * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    short = length - int(counts.sum())
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    order = np.random.default_rng([_STRUCTURE, pool_size, length])
    return order.permutation(np.repeat(np.arange(pool_size), counts))


# ----------------------------------------------------------------------
# the serve_churn write bursts
# ----------------------------------------------------------------------
class Write(NamedTuple):
    in_name: str
    out_name: str
    replace: bool
    row_seed: int


def write_burst(spec: CatalogSpec, seed: int, cycle: int, size: int) -> List[Write]:
    """The *size* small-relation writes of burst number *cycle*: 70 %
    replace an edge of the served 32x32 chain (each edge at most once, so
    the outcome does not depend on the order the service applies them in),
    30 % hang a new array off it.  Every burst touches the same edges in
    the same order, so every cycle invalidates the same cached results;
    the seed and the cycle pick the rows."""
    kind = np.random.default_rng([_STRUCTURE, size])
    rng = _rng(seed, 5, cycle)
    replaced = kind.permutation(spec.churn_arrays - 1)[: round(0.7 * size)]
    writes = [Write(f"w.a{k}", f"w.a{k + 1}", True, int(rng.integers(0, 2**31))) for k in replaced]
    for i in range(size - len(writes)):
        k = int(kind.integers(0, spec.churn_arrays))
        writes.append(Write(f"w.a{k}", f"w.n{cycle}.{i}", False, int(rng.integers(0, 2**31))))
    return [writes[i] for i in kind.permutation(len(writes))]


def write_relation(write: Write) -> LineageRelation:
    return small_relation(CHURN_SHAPE, _rng(write.row_seed, 6), write.in_name, write.out_name)


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------
def inputs_digest(groups: Sequence[Group], requests: Sequence[Request], writes: Sequence[Write] = ()) -> str:
    """One hash over every generated input, for the determinism test and
    the result file."""
    h = hashlib.blake2b(digest_size=16)
    for group in groups:
        for name, shape in group.arrays:
            h.update(f"{name}{shape}".encode())
        for relation in group.steps:
            h.update(np.ascontiguousarray(relation.rows).tobytes())
    for request in requests:
        h.update(json.dumps(request, sort_keys=True).encode())
    for write in writes:
        h.update(repr(tuple(write)).encode())
    return h.hexdigest()
