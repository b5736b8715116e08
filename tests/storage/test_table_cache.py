"""``TableCache``: one cache per store root, GreedyDual-Size, hard-bounded.

The heap-with-lazy-deletion implementation is checked against a reference
model that finds each victim by linear scan: same residents, same counters,
same bytes after every step of random ``get`` / ``put`` / ``clear(scope)``
histories.  Then the properties the policy is there for: the budget is a
bound, a table over the whole budget is served but never kept, a stream of
large tables cannot flush the small ones, and a shard's compaction, reset
or close drops that shard's tables only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.core.provrc import compress
from repro.core.relation import LineageRelation
from repro.core.serialize import deserialize_table, serialize_table
from repro.storage import store as store_module
from repro.storage.store import LineageStore, TableCache

BUDGET = 10_000
SCOPES = ("shard-00", "shard-01", "shard-02")
# what query_cold's tables look like next to its budget: a few bytes, a few
# hundred, a few thousand, then around half, all and twice the budget
SIZES = (7, 30, 541, 3880, BUDGET // 2, BUDGET // 2 + 1, BUDGET, BUDGET + 1, 2 * BUDGET)


class Sized:
    """All the cache asks of a table."""

    def __init__(self, nbytes):
        self._nbytes = nbytes

    def nbytes(self):
        return self._nbytes


class ScanModel:
    """GreedyDual-Size with unit cost, the victim found by linear scan."""

    def __init__(self, budget):
        self.budget, self.items, self.floor, self.seq = budget, {}, 0.0, 0
        self.hits = self.misses = self.evictions = 0

    def rank(self, item):
        self.seq += 1
        item[2:] = [self.floor + 1.0 / item[0], self.seq]

    def get(self, key):
        item = self.items.get(key)
        if item is None:
            self.misses += 1
            return False
        if self.floor + 1.0 / item[0] > item[2]:
            self.rank(item)
        self.hits += 1
        return True

    def put(self, key, nbytes, scope):
        if nbytes > self.budget or key in self.items:
            return
        self.rank(self.items.setdefault(key, [nbytes, scope, 0.0, 0]))
        while self.bytes() > self.budget:
            victim = min(self.items, key=lambda k: self.items[k][2:])
            self.floor = self.items.pop(victim)[2]
            self.evictions += 1

    def clear(self, scope):
        self.items = {
            k: v for k, v in self.items.items() if scope is not None and v[1] != scope
        }

    def bytes(self):
        return sum(item[0] for item in self.items.values())


KEYS = [(scope, i) for scope in SCOPES for i in range(6)]
steps = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.sampled_from(KEYS)),
        st.tuples(st.just("load"), st.sampled_from(KEYS)),
        st.tuples(st.just("probe"), st.sampled_from(KEYS)),
        st.tuples(st.just("clear"), st.sampled_from(SCOPES + (None,))),
    ),
    max_size=250,
)


@given(st.lists(st.sampled_from(SIZES), min_size=len(KEYS), max_size=len(KEYS)), steps)
@settings(max_examples=150, deadline=None)
def test_cache_agrees_with_the_scan_model(sizes, history):
    size_of = dict(zip(KEYS, sizes))
    cache, model = TableCache(BUDGET), ScanModel(BUDGET)
    gauge_before = store_module._CACHE_BYTES.value
    for op, arg in history:
        if op == "load":
            # what LineageStore.load_table does with its cache
            table = cache.get(arg)
            assert (table is not None) == model.get(arg)
            if table is None:
                table = Sized(size_of[arg])
                cache.put(arg, table, arg[0])
                model.put(arg, size_of[arg], arg[0])
            assert table.nbytes() == size_of[arg]  # served, kept or not
        elif op == "probe":
            before = cache.stats()
            assert (arg in cache) == (arg in model.items)
            assert cache.stats() == before
        else:
            cache.clear(arg)
            model.clear(arg)
        assert {key for key in KEYS if key in cache} == set(model.items)
        assert cache.current_bytes == model.bytes() <= BUDGET
        assert cache.stats() == {
            "tables": len(model.items), "bytes": model.bytes(), "budget_bytes": BUDGET,
            "hits": model.hits, "misses": model.misses, "evictions": model.evictions,
        }
        assert all(size_of[key] <= BUDGET for key in model.items)
        # lazy deletion stays bounded: stale heap entries never outnumber
        # the live ones by more than the rebuild threshold allows
        assert len(cache._heap) <= 2 * len(cache) + 17
        assert store_module._CACHE_BYTES.value - gauge_before == cache.current_bytes
    cache.clear()
    assert store_module._CACHE_BYTES.value == gauge_before


def test_a_stream_of_large_tables_does_not_flush_the_small_ones():
    cache = TableCache(BUDGET)
    small = [("shard-00", i) for i in range(50)]
    for key in small:
        cache.put(key, Sized(40), key[0])
    for i in range(30):  # sort-like tables, each at least half the budget
        key = ("shard-01", i)
        assert cache.get(key) is None
        cache.put(key, Sized(BUDGET // 2 + 7 * i), key[0])
        assert cache.current_bytes <= BUDGET
    assert cache.stats()["evictions"] >= 28
    assert all(cache.get(key) is not None for key in small)


def test_equal_sizes_age_out_in_order_of_last_use():
    cache = TableCache(3 * 100)
    for i in range(3):
        cache.put(i, Sized(100))
    cache.put(3, Sized(100))  # evicts 0, the floor rises
    assert 0 not in cache
    assert cache.get(1) is not None  # refreshed above 2
    cache.put(4, Sized(100))
    assert 2 not in cache and 1 in cache


def permutation(n, in_name, out_name, seed):
    order = np.random.default_rng(seed).permutation(n)
    pairs = [((int(j),), (i,)) for i, j in enumerate(order)]
    return LineageRelation.from_pairs(pairs, (n,), (n,), in_name=in_name, out_name=out_name)


def test_load_table_serves_what_the_cache_declines(tmp_path):
    table = compress(permutation(64, "a", "b", 0))
    narrow = deserialize_table(serialize_table(table)).nbytes()  # as hydrated
    store = LineageStore(tmp_path / "db", cache=TableCache(narrow - 1))
    ref = store.append_table(table)
    store.sync()
    assert store.cache_key(ref) not in store.cache
    for _ in range(2):
        loaded = store.load_table(ref)
        assert loaded.decompress() == table.decompress()
        assert store.cache_key(ref) not in store.cache and store.cache.current_bytes == 0
    assert store.tables_deserialized == 2
    store.close()


def test_a_shard_drops_only_its_own_tables(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
    names = [f"n{i}" for i in range(9)]
    for name in names:
        log.define_array(name, (16,))
    for i, (a, b) in enumerate(zip(names, names[1:])):
        log.add_lineage(a, b, relation=permutation(16, a, b, i))
    log.sync()
    cache = log.store.cache
    gauge_before = store_module._CACHE_BYTES.value - cache.current_bytes

    def resident(shard):
        return sum(item.scope == f"shard-{shard:02d}" for item in cache._items.values())

    held = [resident(0), resident(1)]
    assert min(held) > 0 and sum(held) == len(cache)
    log.compact(shard=1)
    assert [resident(0), resident(1)] == [held[0], 0]
    log.catalog.materialize_all()
    assert [resident(0), resident(1)] == held
    log.store.shards[0].reset_io()
    assert [resident(0), resident(1)] == [0, held[1]]
    assert store_module._CACHE_BYTES.value - gauge_before == cache.current_bytes > 0
    log.close()
    assert len(cache) == 0 and cache.current_bytes == 0
    assert store_module._CACHE_BYTES.value == gauge_before
