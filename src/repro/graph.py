"""Lineage-graph navigation and query planning (``LineageGraph``).

The catalog stores lineage as individual ``(input array, output array)``
entries; this module turns that edge set into a navigable graph so callers
can ask questions about the lineage *structure* without hand-writing hop
lists — the lineage-tree analytics idiom: resolve the path(s) between two
arrays automatically, compute the transitive impact or dependency closure
of an array, and summarize the whole catalog's shape (fan-in/out, roots,
leaves, depth).

``DSLog.prov_query`` uses :meth:`LineageGraph.shortest_paths` as its query
planner: a two-array path with no directly stored entry is resolved to the
shortest stored path(s) — forward along lineage edges if one exists,
otherwise backward — and when several equally short paths exist (a diamond
DAG) the per-path results are unioned.

A graph instance tracks the catalog *incrementally*: it records the catalog
version it was built from, and :meth:`LineageGraph.refresh` folds in only
the entries and arrays added since — new edges are merged into the existing
adjacency index instead of rebuilding the whole graph, and the memoized path
lists are invalidated.  ``DSLog.graph`` calls ``refresh()`` on every access,
so a planned query after a burst of ingest pays O(new entries), not
O(catalog).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from .storage.catalog import Catalog

__all__ = ["LineageGraph"]


class LineageGraph:
    """Adjacency index plus path planner over a catalog's lineage entries."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.version = catalog.version
        self._lock = threading.RLock()
        self._out: Dict[str, List[str]] = {name: [] for name in catalog.arrays}
        self._in: Dict[str, List[str]] = {name: [] for name in catalog.arrays}
        self._known_pairs: Set[Tuple[str, str]] = set()
        self.refresh_count = 0
        for in_name, out_name in catalog.entry_pairs():
            self._known_pairs.add((in_name, out_name))
            self._out.setdefault(in_name, []).append(out_name)
            self._in.setdefault(out_name, []).append(in_name)
            self._out.setdefault(out_name, [])
            self._in.setdefault(in_name, [])
        # deterministic traversal (and therefore deterministic path order)
        for adjacency in (self._out, self._in):
            for neighbors in adjacency.values():
                neighbors.sort()
        self._path_memo: Dict[Tuple[str, str], List[List[str]]] = {}

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Fold catalog changes since the last refresh into the graph.

        Keyed on the catalog's generation counter, which every mutation
        bumps (a defined array included): when the version is unchanged
        this is a one-comparison no-op, so calling it on every
        ``DSLog.graph`` access is free.  Otherwise only the *new* entries' edges are merged into
        the adjacency index — each touched neighbor list is re-sorted to
        keep traversal deterministic — and the path memo is dropped
        (replaced entries change tables, never edges, so adjacency needs no
        downgrade handling).  Returns whether anything changed.
        """
        catalog = self.catalog
        if self.version == catalog.version:
            return False
        with self._lock:
            # read before the scan: a mutation landing meanwhile must leave
            # the graph behind the catalog, never wrongly current
            version = catalog.version
            if self.version == version:
                return False
            for name in catalog.arrays:
                if name not in self._out:
                    self._out[name] = []
                    self._in[name] = []
            touched_out: Set[str] = set()
            touched_in: Set[str] = set()
            for pair in catalog.entry_pairs():
                if pair in self._known_pairs:
                    continue
                self._known_pairs.add(pair)
                in_name, out_name = pair
                self._out.setdefault(in_name, []).append(out_name)
                self._in.setdefault(out_name, []).append(in_name)
                self._out.setdefault(out_name, [])
                self._in.setdefault(in_name, [])
                touched_out.add(in_name)
                touched_in.add(out_name)
            for name in touched_out:
                self._out[name].sort()
            for name in touched_in:
                self._in[name].sort()
            self._path_memo.clear()
            self.version = version
            self.refresh_count += 1
            return True

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _check(self, name: str) -> None:
        if name not in self._out:
            raise KeyError(f"array {name!r} is not defined in the catalog")

    def edges(self) -> List[Tuple[str, str]]:
        """Every stored lineage edge as a sorted ``(input, output)`` list —
        the full DAG, so remote clients (the HTTP ``/graph/summary``
        endpoint) can reconstruct structure the closures alone cannot."""
        with self._lock:
            return sorted(self._known_pairs)

    # ------------------------------------------------------------------
    # path planning
    # ------------------------------------------------------------------
    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """Every shortest stored path from *src* to *dst*.

        Forward paths (following lineage edges) win over backward paths
        (against the edges); within a direction all paths of minimal hop
        count are returned, each as the full array sequence starting at
        *src*.  Returns ``[]`` when the arrays are not connected.
        """
        self._check(src)
        self._check(dst)
        with self._lock:
            memo = self._path_memo.get((src, dst))
            if memo is not None:
                return [list(path) for path in memo]
            paths = self._bfs_all_shortest(src, dst, self._out)
            if not paths:
                paths = self._bfs_all_shortest(src, dst, self._in)
            self._path_memo[(src, dst)] = [list(path) for path in paths]
            return paths

    @staticmethod
    def _bfs_all_shortest(
        src: str, dst: str, adjacency: Dict[str, List[str]]
    ) -> List[List[str]]:
        if src == dst:
            return [[src]]
        dist: Dict[str, int] = {src: 0}
        parents: Dict[str, List[str]] = {}
        queue = deque([src])
        found: Optional[int] = None
        while queue:
            node = queue.popleft()
            depth = dist[node]
            if found is not None and depth + 1 > found:
                break
            for neighbor in adjacency[node]:
                known = dist.get(neighbor)
                if known is None:
                    dist[neighbor] = depth + 1
                    parents[neighbor] = [node]
                    if neighbor == dst:
                        found = depth + 1
                    else:
                        queue.append(neighbor)
                elif known == depth + 1:
                    parents[neighbor].append(node)
        if found is None:
            return []
        # unwind every parent chain; adjacency is sorted, so the resulting
        # path list is deterministic (lexicographic by hop sequence)
        paths: List[List[str]] = []

        def unwind(node: str, suffix: List[str]) -> None:
            if node == src:
                paths.append([src] + suffix)
                return
            for parent in parents[node]:
                unwind(parent, [node] + suffix)

        unwind(dst, [])
        paths.sort()
        return paths

    # ------------------------------------------------------------------
    # transitive closures
    # ------------------------------------------------------------------
    def impact(self, name: str) -> Dict[str, int]:
        """Every array transitively derived from *name*, mapped to its hop
        distance (the downstream closure: what a change here touches)."""
        return self._closure(name, self._out)

    def dependencies(self, name: str) -> Dict[str, int]:
        """Every array *name* transitively depends on, mapped to its hop
        distance (the upstream closure: what produced this array)."""
        return self._closure(name, self._in)

    def _closure(self, name: str, adjacency: Dict[str, List[str]]) -> Dict[str, int]:
        self._check(name)
        dist: Dict[str, int] = {name: 0}
        queue = deque([name])
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        del dist[name]
        return dist

    # ------------------------------------------------------------------
    # summary analytics
    # ------------------------------------------------------------------
    def lineage_summary(self) -> dict:
        """Aggregate shape of the lineage graph (the lineage-fate summary).

        Counts arrays, entries and operations; classifies arrays into
        roots (sources: produce lineage but have none), leaves (sinks),
        isolated arrays (tracked but unconnected); reports per-array
        fan-in/fan-out, the maximum lineage depth (longest path through the
        DAG; ``None`` when the graph has a cycle), and how many arrays each
        registered operation touched on average.
        """
        roots = sorted(
            name for name in self._out if not self._in[name] and self._out[name]
        )
        leaves = sorted(
            name for name in self._out if not self._out[name] and self._in[name]
        )
        isolated = sorted(
            name for name in self._out if not self._out[name] and not self._in[name]
        )
        operations = self.catalog.operations
        touched = [len(set(op.in_arrs) | set(op.out_arrs)) for op in operations]
        return {
            "arrays": len(self._out),
            "entries": len(self.catalog),
            "operations": len(operations),
            "roots": roots,
            "leaves": leaves,
            "isolated": isolated,
            "fan_in": {name: len(self._in[name]) for name in sorted(self._in)},
            "fan_out": {name: len(self._out[name]) for name in sorted(self._out)},
            "max_depth": self._max_depth(),
            "reused_entries": sum(1 for e in self.catalog.entries() if e.reused),
            "avg_arrays_per_operation": (
                sum(touched) / len(touched) if touched else 0.0
            ),
        }

    def _max_depth(self) -> Optional[int]:
        """Longest path length (in hops) through the lineage DAG, or
        ``None`` when a cycle makes depth undefined."""
        indegree = {name: len(self._in[name]) for name in self._out}
        queue = deque(name for name, degree in indegree.items() if degree == 0)
        depth = {name: 0 for name in queue}
        seen = 0
        longest = 0
        while queue:
            node = queue.popleft()
            seen += 1
            for neighbor in self._out[node]:
                candidate = depth[node] + 1
                if candidate > depth.get(neighbor, -1):
                    depth[neighbor] = candidate
                    longest = max(longest, candidate)
                indegree[neighbor] -= 1
                if indegree[neighbor] == 0:
                    queue.append(neighbor)
        if seen != len(self._out):
            return None  # cycle: some nodes never reached indegree zero
        return longest
