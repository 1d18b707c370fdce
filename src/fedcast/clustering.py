"""Agglomerative clustering of client parameter updates.

Clients are grouped bottom-up: starting from singletons, the pair of
clusters at minimum linkage distance is merged while that distance stays at
or below the threshold.  Ward linkage tracks the Lance-Williams recurrence
on squared Euclidean distances and compares the threshold against the square
root of that cost, so the very first ward merge happens at the plain
Euclidean distance of the two points.

Ties (exactly equal linkage distances) are broken lexicographically by the
pair (smallest member of the left cluster, smallest member of the right
cluster), which keeps the dendrogram deterministic.  A merge keeps the lower
row of the working matrix, so row i always holds the cluster whose smallest
member is i, and that tie order is simply the first minimum in row-major
order over the live pairs i < j: one `np.argmin` per merge.  The
Lance-Williams update is one vector expression over columns i and j that
does, element by element, the IEEE operations of the scalar recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ValidationError

LINKAGES = ("ward", "average", "complete", "single")


def pairwise_euclidean(updates) -> np.ndarray:
    """Symmetric zero-diagonal Euclidean distance matrix for n update vectors."""
    rows = [np.asarray(u, dtype=np.float64).ravel() for u in updates]
    if len(rows) < 1:
        raise ValidationError("need at least one update vector")
    if len({r.shape for r in rows}) > 1:
        raise ValidationError("update vectors must have equal length")
    mat = np.stack(rows)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("update vectors must be finite")
    sq = np.sum(mat * mat, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 0.0)
    return dist


@dataclass(frozen=True)
class ClusterAssignment:
    """Final flat partition plus the linkage distance of each accepted merge.

    Cluster ids are contiguous from 0 and ordered by each cluster's smallest
    member index; `merge_distances` are in merge order.
    """

    labels: tuple
    merge_distances: tuple

    def clusters(self) -> list:
        """Member indices per cluster id, each list ascending."""
        groups: dict[int, list] = {}
        for idx, lab in enumerate(self.labels):
            groups.setdefault(lab, []).append(idx)
        return [groups[c] for c in sorted(groups)]


def agglomerate(dist, linkage: str, threshold: float) -> ClusterAssignment:
    """Merge clusters while the minimum linkage distance is <= threshold."""
    if linkage not in LINKAGES:
        raise ValidationError(f"unknown linkage {linkage!r}; expected one of {LINKAGES}")
    if not (threshold > 0.0):
        raise ValidationError("threshold must be positive")
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise ValidationError("distance matrix must be square and nonempty")
    if not np.all(np.isfinite(d)):
        raise ValidationError("distance matrix must be finite")
    if np.any(d < 0) or np.any(np.abs(np.diagonal(d)) > 0):
        raise ValidationError("distances must be non-negative with a zero diagonal")
    if not np.allclose(d, d.T, rtol=0.0, atol=0.0):
        raise ValidationError("distance matrix must be symmetric")
    n = d.shape[0]
    # Working matrix: squared distances for ward, plain otherwise.  Row i
    # holds the cluster whose smallest member is i.
    work = d ** 2 if linkage == "ward" else d.copy()
    sizes = np.ones(n)
    live = np.ones(n, dtype=bool)
    owner = np.arange(n)  # the row of each point's cluster
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    merge_distances = []

    while live.sum() > 1:
        cost = np.where(upper & live & live[:, None], work, np.inf)
        if linkage == "ward":
            cost = np.sqrt(cost)
        i, j = divmod(int(np.argmin(cost)), n)
        if cost[i, j] > threshold:
            break
        merge_distances.append(float(cost[i, j]))
        ni, nj, nk = sizes[i], sizes[j], sizes[live]
        a, b = work[live, i], work[live, j]
        if linkage == "single":
            new = np.minimum(a, b)
        elif linkage == "complete":
            new = np.maximum(a, b)
        elif linkage == "average":
            new = (ni * a + nj * b) / (ni + nj)
        else:  # ward, on squared distances
            new = ((ni + nk) * a + (nj + nk) * b - nk * work[i, j]) / (ni + nj + nk)
        work[i, live] = work[live, i] = new
        sizes[i] = ni + nj
        live[j] = False
        owner[owner == j] = i

    labels = np.unique(owner, return_inverse=True)[1]
    return ClusterAssignment(tuple(labels.tolist()), tuple(merge_distances))


def cluster_quality(labels_a, labels_b) -> float:
    """Chance-adjusted pair-counting agreement between two partitions.

    1.0 iff the partitions are identical up to relabeling; independent
    partitions score near zero; the value can go slightly negative.
    """
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b) or len(a) < 2:
        raise ValidationError("partitions must label the same >= 2 items")
    pairs = {}
    count_a: dict = {}
    count_b: dict = {}
    for x, y in zip(a, b):
        pairs[(x, y)] = pairs.get((x, y), 0) + 1
        count_a[x] = count_a.get(x, 0) + 1
        count_b[y] = count_b.get(y, 0) + 1
    index = sum(comb(v, 2) for v in pairs.values())
    sum_a = sum(comb(v, 2) for v in count_a.values())
    sum_b = sum(comb(v, 2) for v in count_b.values())
    total = comb(len(a), 2)
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        # Both partitions are all-singletons or all-together on both sides.
        return 1.0 if index == expected else 0.0
    return float((index - expected) / (maximum - expected))
