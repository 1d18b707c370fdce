"""Agglomerative clustering against the from-scratch reference.

The production path works on a distance matrix with linkage recurrences;
the reference recomputes every merge cost directly from the raw vectors.
Agreement between the two is the main correctness argument, exercised again
at larger scale by the acceptance suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.clustering import (
    LINKAGES,
    agglomerate,
    cluster_quality,
    pairwise_euclidean,
)
from fedcast.errors import ValidationError
from clustering_oracle import agglomerate_bruteforce, agglomerate_scan, n_clusters

TWO_GROUPS = [
    [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],   # around the origin
    [5.0, 5.0], [5.1, 5.0], [5.0, 5.1],   # far away
]


def test_pairwise_euclidean_small_case():
    d = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert d.shape == (3, 3)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[0, 2] == pytest.approx(1.0)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_two_well_separated_groups(linkage):
    result = agglomerate(pairwise_euclidean(TWO_GROUPS), linkage, 1.0)
    assert result.labels == (0, 0, 0, 1, 1, 1)
    assert n_clusters(result) == 2


@pytest.mark.parametrize("linkage", LINKAGES)
def test_huge_threshold_gives_one_cluster(linkage):
    result = agglomerate(pairwise_euclidean(TWO_GROUPS), linkage, float("inf"))
    assert n_clusters(result) == 1
    assert len(result.merge_distances) == len(TWO_GROUPS) - 1


@pytest.mark.parametrize("linkage", LINKAGES)
def test_threshold_below_min_distance_gives_singletons(linkage):
    result = agglomerate(pairwise_euclidean(TWO_GROUPS), linkage, 0.01)
    assert result.labels == (0, 1, 2, 3, 4, 5)
    assert result.merge_distances == ()


def test_cluster_ids_are_ordered_by_smallest_member():
    # second group's smallest index is 1, so it must be cluster 1 even
    # though its members merge first
    points = [[0.0, 0.0], [9.0, 9.0], [9.0, 9.01], [0.0, 0.01]]
    result = agglomerate(pairwise_euclidean(points), "single", 1.0)
    assert result.labels == (0, 1, 1, 0)


@pytest.mark.parametrize("linkage", LINKAGES)
@pytest.mark.parametrize("seed", range(6))
def test_matches_bruteforce_reference(linkage, seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 12))
    vectors = gen.normal(0.0, 1.0, size=(n, 4))
    threshold = float(gen.uniform(0.5, 4.0))
    fast = agglomerate(pairwise_euclidean(vectors), linkage, threshold)
    slow = agglomerate_bruteforce(vectors, linkage, threshold)
    assert fast.labels == slow


@pytest.mark.parametrize("linkage", LINKAGES)
@pytest.mark.parametrize("lattice", [False, True], ids=["normal", "lattice"])
def test_matches_the_recurrence_scan_bitwise(linkage, lattice):
    # lattice points share many exactly equal distances, so the tie order
    # (cost, lo, hi) decides most merges
    gen = np.random.default_rng(17 + lattice)
    for n in range(2, 41):
        if lattice:
            vectors = gen.integers(0, 3, size=(n, 2)).astype(np.float64)
        else:
            vectors = gen.normal(0.0, 1.0, size=(n, 4))
        dist = pairwise_euclidean(vectors)
        for threshold in (0.3, 1.0, 2.5, float("inf")):
            fast = agglomerate(dist, linkage, threshold)
            labels, merge_distances = agglomerate_scan(dist, linkage, threshold)
            assert fast.labels == labels
            assert fast.merge_distances == merge_distances


def test_first_ward_merge_happens_at_plain_distance():
    # for singletons the ward cost reduces to the euclidean distance, so a
    # threshold between the two smallest gaps separates them
    points = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]
    result = agglomerate(pairwise_euclidean(points), "ward", 1.5)
    assert result.labels == (0, 0, 1)
    assert result.merge_distances[0] == pytest.approx(1.0)


def test_single_linkage_is_connected_components():
    # chain: consecutive gaps 1.0, far point at 10; threshold 1.0 connects
    # the chain transitively even though its ends are 2.0 apart
    points = [[0.0], [1.0], [2.0], [12.0]]
    result = agglomerate(pairwise_euclidean(points), "single", 1.0)
    assert result.labels == (0, 0, 0, 1)
    # complete linkage refuses the second chain merge at the same threshold
    result = agglomerate(pairwise_euclidean(points), "complete", 1.0)
    assert n_clusters(result) == 3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       linkage=st.sampled_from(LINKAGES))
def test_permuting_inputs_permutes_the_partition(seed, linkage):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 9))
    vectors = gen.normal(size=(n, 3))
    threshold = float(gen.uniform(0.5, 3.0))
    base = agglomerate(pairwise_euclidean(vectors), linkage, threshold)
    perm = gen.permutation(n)
    permuted = agglomerate(pairwise_euclidean(vectors[perm]), linkage, threshold)
    # same grouping of the same points, up to relabeling
    assert cluster_quality([base.labels[i] for i in perm], permuted.labels) == 1.0


def test_validation_rejects_bad_inputs():
    d = pairwise_euclidean(TWO_GROUPS)
    with pytest.raises(ValidationError):
        agglomerate(d, "centroid", 1.0)
    with pytest.raises(ValidationError):
        agglomerate(d, "ward", 0.0)
    with pytest.raises(ValidationError):
        agglomerate(d[:5, :6], "ward", 1.0)
    lopsided = d.copy()
    lopsided[0, 1] += 1e-9  # asymmetric
    with pytest.raises(ValidationError):
        agglomerate(lopsided, "ward", 1.0)


def test_quality_is_one_for_identical_partitions():
    assert cluster_quality([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert cluster_quality(["a", "a", "b"], [5, 5, 7]) == 1.0


def test_quality_hand_computed_fixture():
    # contingency pairs: (0,0)x2, (1,1), (1,2), (2,2); index 1,
    # row/col pair sums 2 and 2, expected 0.4, maximum 2 -> 0.6/1.6
    value = cluster_quality([0, 0, 1, 1, 2], [0, 0, 1, 2, 2])
    assert value == pytest.approx(0.375, abs=1e-15)


def test_quality_of_maximal_disagreement_is_not_positive():
    assert cluster_quality([0, 1, 2, 3], [0, 0, 0, 0]) <= 0.0
    assert cluster_quality([0, 0], [0, 1]) <= 0.0


def test_quality_degenerate_agreement():
    # both all-singletons: no pair statistics at all, defined as full agreement
    assert cluster_quality([0, 1, 2], [2, 1, 0]) == 1.0
    assert cluster_quality([0, 0, 0], [1, 1, 1]) == 1.0
