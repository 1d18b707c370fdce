"""Reference agglomerative clustering the tests check the package against.

`agglomerate_bruteforce` is a deliberately independent reference
implementation: it recomputes every linkage distance from the raw vectors
and cluster memberships at every merge instead of updating a distance
matrix, and serves as the oracle in tests.
"""

from __future__ import annotations

from itertools import combinations
from math import sqrt

import numpy as np

from fedcast.clustering import LINKAGES, _labels_from_members
from fedcast.errors import ValidationError


def _bruteforce_cost(linkage, a: set, b: set, vectors, dist):
    if linkage == "single":
        return min(dist[i][j] for i in a for j in b)
    if linkage == "complete":
        return max(dist[i][j] for i in a for j in b)
    if linkage == "average":
        return sum(dist[i][j] for i in a for j in b) / (len(a) * len(b))
    # ward: sqrt of the squared-distance recurrence's value, recomputed from
    # scratch via centroids: cost^2 = 2*na*nb/(na+nb) * ||ca - cb||^2.
    ca = [sum(vectors[i][d] for i in a) / len(a) for d in range(len(vectors[0]))]
    cb = [sum(vectors[j][d] for j in b) / len(b) for d in range(len(vectors[0]))]
    gap = sum((x - y) ** 2 for x, y in zip(ca, cb))
    return sqrt(2.0 * len(a) * len(b) / (len(a) + len(b)) * gap)


def agglomerate_bruteforce(vectors, linkage: str, threshold: float) -> tuple:
    """Reference partition computed from raw vectors with no recurrences.

    Pure-python O(n^3)+ loop intended for tests on small n; returns labels
    shaped like ClusterAssignment.labels.
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"unknown linkage {linkage!r}")
    vecs = [list(map(float, np.asarray(v).ravel())) for v in vectors]
    n = len(vecs)
    dist = [[sqrt(sum((x - y) ** 2 for x, y in zip(vecs[i], vecs[j])))
             for j in range(n)] for i in range(n)]
    clusters: list[set] = [{i} for i in range(n)]
    while len(clusters) > 1:
        best = None
        for a, b in combinations(range(len(clusters)), 2):
            cost = _bruteforce_cost(linkage, clusters[a], clusters[b], vecs, dist)
            key = (cost, *sorted((min(clusters[a]), min(clusters[b]))))
            if best is None or key < best[0]:
                best = (key, a, b)
        (cost, _, _), a, b = best
        if cost > threshold:
            break
        merged = clusters[a] | clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)] + [merged]
    return _labels_from_members(clusters)


def n_clusters(assignment) -> int:
    """Number of distinct clusters in a ClusterAssignment."""
    return len(set(assignment.labels))
