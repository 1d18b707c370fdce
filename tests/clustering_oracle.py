"""Reference agglomerative clustering the tests check the package against.

`agglomerate_bruteforce` is a deliberately independent reference
implementation: it recomputes every linkage distance from the raw vectors
and cluster memberships at every merge instead of updating a distance
matrix, and serves as the oracle in tests.

`agglomerate_scan` runs the same Lance-Williams recurrence as
`fedcast.clustering.agglomerate`, one scalar at a time, with member sets and
an explicit (cost, lo, hi) tie key: the package's vectorised merge loop must
match it bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from math import sqrt

import numpy as np

from fedcast.clustering import LINKAGES
from fedcast.errors import ValidationError


def _labels_from_members(members: list) -> tuple:
    order = sorted(range(len(members)), key=lambda i: min(members[i]))
    labels = {}
    for cluster_id, slot in enumerate(order):
        for m in members[slot]:
            labels[m] = cluster_id
    return tuple(labels[i] for i in range(sum(len(m) for m in members)))


def agglomerate_scan(dist, linkage: str, threshold: float) -> tuple:
    """(labels, merge_distances) from a pure-python O(n^3) pair scan.

    Every merge scans all live pairs for the smallest key (cost, smallest
    member of one cluster, smallest member of the other) and updates the
    survivor's distances one scalar at a time.
    """
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    work = d ** 2 if linkage == "ward" else d.copy()
    members: list = [{i} for i in range(n)]
    sizes = np.ones(n)
    alive = [True] * n
    merge_distances = []

    while sum(alive) > 1:
        best = None  # (cost, min_left, min_right, i, j)
        idx = [i for i in range(n) if alive[i]]
        for a_pos, i in enumerate(idx):
            for j in idx[a_pos + 1:]:
                cost = sqrt(work[i, j]) if linkage == "ward" else work[i, j]
                lo, hi = min(members[i]), min(members[j])
                if lo > hi:
                    lo, hi = hi, lo
                key = (cost, lo, hi)
                if best is None or key < best[:3]:
                    best = (cost, lo, hi, i, j)
        cost, _, _, i, j = best
        if cost > threshold:
            break
        if min(members[j]) < min(members[i]):
            i, j = j, i
        merge_distances.append(float(cost))
        ni, nj = sizes[i], sizes[j]
        for k in range(n):
            if not alive[k] or k in (i, j):
                continue
            if linkage == "single":
                new = min(work[k, i], work[k, j])
            elif linkage == "complete":
                new = max(work[k, i], work[k, j])
            elif linkage == "average":
                new = (ni * work[k, i] + nj * work[k, j]) / (ni + nj)
            else:  # ward, on squared distances
                nk = sizes[k]
                new = ((ni + nk) * work[k, i] + (nj + nk) * work[k, j]
                       - nk * work[i, j]) / (ni + nj + nk)
            work[i, k] = work[k, i] = new
        members[i] = members[i] | members[j]
        sizes[i] = ni + nj
        alive[j] = False

    final_members = [members[i] for i in range(n) if alive[i]]
    return _labels_from_members(final_members), tuple(merge_distances)


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
