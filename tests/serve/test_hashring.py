"""Hash-ring unit tests: determinism, stability when a shard is removed
(the consistent-hashing contract), and rough balance."""

import pytest

from repro.serve.hashring import HashRing

KEYS = [f"key-{i:04d}" for i in range(2000)]


def test_empty_ring_raises():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.owner("anything")


def test_owner_deterministic_across_instances():
    a = HashRing(["s0", "s1", "s2"])
    b = HashRing(["s2", "s0", "s1"])  # construction order must not matter
    assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]


def test_every_key_lands_on_a_member():
    ring = HashRing(["s0", "s1", "s2"])
    assert set(ring.owner(k) for k in KEYS) <= {"s0", "s1", "s2"}


def test_remove_moves_only_the_dead_shards_keys():
    ring = HashRing(["s0", "s1", "s2"])
    before = {k: ring.owner(k) for k in KEYS}
    ring.remove("s1")
    for k in KEYS:
        if before[k] == "s1":
            assert ring.owner(k) in ("s0", "s2")  # re-homed to survivors
        else:
            assert ring.owner(k) == before[k]  # untouched


def test_membership_ops_idempotent():
    ring = HashRing(["s0", "s1", "s0"])
    assert len(ring) == 2
    once = HashRing(["s0", "s1"])
    assert [ring.owner(k) for k in KEYS] == [once.owner(k) for k in KEYS]
    ring.remove("sX")  # not a member: no-op
    ring.remove("s1")
    ring.remove("s1")
    assert ring.shards() == ["s0"]


def test_distribution_roughly_balanced():
    shards = [f"s{i}" for i in range(4)]
    ring = HashRing(shards)
    counts = {s: 0 for s in shards}
    for k in KEYS:
        counts[ring.owner(k)] += 1
    # 64 vnodes per shard gives a coarse balance; assert no shard is
    # starved or hoards a majority (expected share is 25%).
    for s in shards:
        assert 0.05 * len(KEYS) <= counts[s] <= 0.60 * len(KEYS), counts


def test_owners_walks_distinct_shards():
    ring = HashRing(["s0", "s1", "s2"])
    for k in KEYS[:50]:
        succ = ring.owners(k, 3)
        assert len(succ) == 3
        assert len(set(succ)) == 3
        assert succ[0] == ring.owner(k)
