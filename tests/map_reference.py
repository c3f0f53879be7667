"""Dart-level union-find: the test reference for the connectivity step of
``maps._connected_maps``, which reads connectivity off the vertex graph."""

from typing import List, Sequence


def components(s0: Sequence[int], s1: Sequence[int]) -> List[int]:
    """Union-find component index per dart under <s0, s1>."""
    n = len(s0)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in range(n):
        for e in (s0[d], s1[d]):
            pa, pb = find(d), find(e)
            if pa != pb:
                parent[pa] = pb
    return [find(d) for d in range(n)]
