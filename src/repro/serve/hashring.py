"""Consistent-hash ring for the sharded analysis fleet.

The router (`repro.serve.router`) places every per-procedure task on a
shard by hashing its coalesce key (`repro.core.tasks.coalesce_key`)
onto this ring.  Consistent hashing gives the two properties the fleet
needs:

* **Twin affinity.**  Two identical submissions — same post-elaboration
  AST, same budget knobs — hash to the same point and therefore land on
  the same shard, where the server's in-flight coalescing and hot tier
  deduplicate them.  A plain ``hash(key) % n`` would give the same
  affinity, but…

* **Minimal movement.**  …removing a shard would remap ``(n-1)/n`` of
  the keyspace.  On this ring only the keys owned by the removed shard
  move; every other key keeps its owner.  That is exactly the failover
  contract: when a replica dies, its keyspace is re-hashed over the
  survivors and nothing else shifts — warm hot-tier entries on the
  surviving shards stay valid.

Each shard contributes ``vnodes`` virtual points (SHA-256 of
``"<shard>#<i>"``), which evens out the keyspace split: with 64 vnodes
the largest shard owns within a few percent of ``1/n`` of the ring.
The ring is deterministic — same shard ids, same ownership, on every
host and every run — because routing decisions must be reproducible to
debug.

The structure is a sorted list of ``(point, shard)`` pairs with
``bisect`` lookup: O(log(n·vnodes)) per ``owner`` call.  It is built
once from the fleet's shards and only ever loses members (replica
death).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

#: Virtual points per shard.  64 keeps ownership within a few percent
#: of even while membership changes stay cheap to apply.
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """A deterministic 64-bit ring position."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """See module docstring."""

    def __init__(self, shards: Iterable[str] = (), *,
                 vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._shards: set[str] = set(shards)
        ring = sorted((_point(f"{shard}#{i}"), shard)
                      for shard in self._shards for i in range(vnodes))
        self._points: list[int] = [point for point, _ in ring]
        self._owners: list[str] = [shard for _, shard in ring]

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def remove(self, shard: str) -> None:
        """Remove a shard (idempotent): its keys fall to their next
        clockwise owner; nothing else moves."""
        if shard not in self._shards:
            return
        self._shards.discard(shard)
        keep = [i for i, owner in enumerate(self._owners) if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def shards(self) -> list[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The shard owning ``key`` (first vnode clockwise of the key's
        point).  Raises ``LookupError`` on an empty ring."""
        if not self._points:
            raise LookupError("hash ring is empty (no live shards)")
        idx = bisect.bisect_right(self._points, _point(key))
        if idx == len(self._points):
            idx = 0  # wrap: past the last point means the first owner
        return self._owners[idx]

    def owners(self, key: str, count: int) -> list[str]:
        """Up to ``count`` distinct shards in ring order starting at the
        key's owner — the preference list a caller can walk when the
        primary is unreachable."""
        if not self._points:
            raise LookupError("hash ring is empty (no live shards)")
        out: list[str] = []
        start = bisect.bisect_right(self._points, _point(key))
        n = len(self._points)
        for step in range(n):
            shard = self._owners[(start + step) % n]
            if shard not in out:
                out.append(shard)
                if len(out) >= count:
                    break
        return out
