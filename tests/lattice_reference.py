"""Depth-first lattice-point search: the test reference for
``maps.lattice_series``, which reads the same counts off a generating
function."""

from typing import Dict, Sequence


def lattice_points(
    incidence: Sequence[Dict[int, int]],
    targets: Sequence[int],
    min_value: int = 0,
) -> int:
    """Number of integer edge labelings x_e >= min_value with the prescribed
    per-face sums.

    ``incidence[e]`` maps face index -> multiplicity of edge e in that face.
    Solved by depth-first search with residual-sum pruning.
    """
    residual = list(targets)
    if min_value:
        for e, inc in enumerate(incidence):
            for f, m in inc.items():
                residual[f] -= m * min_value
        if any(r < 0 for r in residual):
            return 0

    def rec(e: int) -> int:
        if e == len(incidence):
            return 1 if all(r == 0 for r in residual) else 0
        inc = incidence[e]
        ub = min(residual[f] // m for f, m in inc.items())
        if ub < 0:
            return 0
        total = 0
        for x in range(ub + 1):
            if x:
                for f, m in inc.items():
                    residual[f] -= m
            if all(r >= 0 for r in residual):
                total += rec(e + 1)
        for f, m in inc.items():
            residual[f] += m * ub
        return total

    return rec(0)
