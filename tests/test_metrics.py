"""Metric unit vectors from hand-counted oracles, plus invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import metrics as M
from phcnet.errors import MetricError, ShapeError


def loop_auc(scores, labels) -> float:
    """AUC with each tie group's average rank found by walking the sorted
    scores, the reference for metrics.auc's vectorized ranks."""
    scores, pos = np.asarray(scores, dtype=np.float64), np.asarray(labels) == 1
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    p, n = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * n))


class TestAuc:
    def test_perfect_separation(self):
        assert M.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_full_tie(self):
        assert M.auc([0.5, 0.5], [1, 0]) == 0.5

    def test_pair_counting_oracle(self):
        # pairs: (0.8,0.7)+, (0.8,0.5)+, (0.6,0.7)-, (0.6,0.5)+ -> 3/4
        assert M.auc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            M.auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_raise(self, bad):
        with pytest.raises(MetricError, match="finite"):
            M.auc([0.2, bad, 0.7, bad], [1, 0, 1, 0])

    def test_matches_brute_force_pair_count(self):
        rng = np.random.default_rng(0)
        scores = np.round(rng.random(60), 1)  # coarse grid forces ties
        labels = (rng.random(60) < 0.4).astype(int)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        concordant = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = concordant / (len(pos) * len(neg))
        assert M.auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_tie_ranks_equal_the_loop_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            size, grid = int(rng.integers(2, 200)), int(rng.integers(1, 8))
            scores = rng.integers(-grid, grid + 1, size) / grid
            scores[rng.random(size) < 0.2] = -0.0  # ties with +0.0
            labels = (rng.random(size) < 0.4).astype(int)
            labels[:2] = 0, 1
            assert M.auc(scores, labels) == loop_auc(scores, labels)

    @given(st.integers(0, 100), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_increasing_transform(self, seed, power):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = np.zeros(30, dtype=int)
        labels[:11] = 1
        rng.shuffle(labels)
        raw = M.auc(scores, labels)
        warped = M.auc(np.exp(power * scores), labels)
        assert raw == pytest.approx(warped, abs=1e-12)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(40) / 40.0  # all distinct
        labels = (rng.random(40) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1  # ensure both classes
        assert M.auc(scores, labels) + M.auc(scores, 1 - labels) == pytest.approx(1.0)


def brute_difference(a, b, labels):
    """The paired DeLong difference and standard error from every
    positive-negative pair: O(P*N), the reference for metrics.auc_difference."""
    pos, neg = labels == 1, labels != 1

    def components(s):
        x, y = s[pos][:, None], s[neg][None, :]
        kernel = (x > y) + 0.5 * (x == y)
        return kernel.mean(axis=1), kernel.mean(axis=0)

    (a10, a01), (b10, b01) = components(a), components(b)
    var = np.var(a10 - b10, ddof=1) / a10.size + np.var(a01 - b01, ddof=1) / a01.size
    return a10.mean() - b10.mean(), np.sqrt(var)


def correlated_scores(rng, size=200, positives=90):
    """Two correlated scorings of the same exams, with ties, ``a`` the sharper."""
    labels = np.zeros(size, dtype=int)
    labels[:positives] = 1
    shared = rng.normal(size=size) + labels
    a = np.round(shared + 0.5 * rng.normal(size=size), 1)
    b = np.round(shared + rng.normal(size=size), 1)
    return a, b, labels


class TestAucDifference:
    def test_difference_is_the_auc_difference_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            size = int(rng.integers(4, 120))
            a, b, labels = correlated_scores(rng, size, int(rng.integers(2, size - 1)))
            assert M.auc_difference(a, b, labels)[0] == M.auc(a, labels) - M.auc(b, labels)

    def test_standard_error_matches_the_pairwise_placements(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            size = int(rng.integers(4, 80))
            a, b, labels = correlated_scores(rng, size, int(rng.integers(2, size - 1)))
            diff, se = M.auc_difference(a, b, labels)
            ref_diff, ref_se = brute_difference(a, b, labels)
            assert diff == pytest.approx(ref_diff, abs=1e-12)
            assert se == pytest.approx(ref_se, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_standard_error_matches_a_paired_bootstrap(self, seed):
        rng = np.random.default_rng(seed)
        a, b, labels = correlated_scores(rng)
        pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        diffs = []
        for _ in range(2000):  # resampled within each class, the same exams for a and b
            idx = np.concatenate([rng.choice(pos, pos.size), rng.choice(neg, neg.size)])
            diffs.append(M.auc(a[idx], labels[idx]) - M.auc(b[idx], labels[idx]))
        se = M.auc_difference(a, b, labels)[1]
        assert abs(np.std(diffs, ddof=1) / se - 1.0) < 0.10

    def test_identical_and_swapped_scorings(self):
        a, b, labels = correlated_scores(np.random.default_rng(5))
        assert M.auc_difference(a, a, labels) == (0.0, 0.0)
        diff, se = M.auc_difference(a, b, labels)
        assert diff != 0.0 and se > 0.0
        assert M.auc_difference(b, a, labels) == (-diff, se)

    @pytest.mark.parametrize("labels", [[1, 0, 0, 0], [1, 1, 1, 0]])
    def test_a_class_of_one_exam_raises(self, labels):
        with pytest.raises(MetricError, match="2 exams of each class"):
            M.auc_difference([0.1, 0.4, 0.3, 0.2], [0.2, 0.1, 0.4, 0.3], labels)

    def test_checks_each_scoring_as_auc_does(self):
        labels = [1, 0, 1, 0]
        with pytest.raises(ShapeError):
            M.auc_difference([0.1, 0.4, 0.3, 0.2], [0.2, 0.1, 0.4], labels)
        with pytest.raises(MetricError, match="finite"):
            M.auc_difference([0.1, 0.4, 0.3, 0.2], [0.2, np.nan, 0.4, 0.3], labels)


class TestAccuracy:
    def test_exact_match(self):
        assert M.accuracy([1.0, 0.0, 1.0], [1, 0, 1]) == 100.0

    def test_tie_rule_classifies_positive(self):
        labels = np.array([1, 0, 1, 0])
        assert M.accuracy([0.5, 0.5, 0.5, 0.5], labels) == 50.0

    def test_hand_decision_count(self):
        assert M.accuracy([0.6, 0.4, 0.7], [1, 1, 0]) == pytest.approx(100.0 / 3.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.random(20)
        labels = (rng.random(20) < 0.5).astype(int)
        perm = rng.permutation(20)
        assert M.accuracy(probs, labels) == M.accuracy(probs[perm], labels[perm])


class TestDice:
    def test_identical_masks(self):
        m = np.zeros((5, 5), dtype=bool)
        m[1:3, 1:4] = True
        assert M.dice(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert M.dice(a, b) == 0.0

    def test_counting_oracle(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[:4] = True            # |P| = 4
        b[2:6] = True           # |T| = 4, overlap = 2
        assert M.dice(a, b) == 0.5

    def test_empty_convention(self):
        z = np.zeros((3, 3), dtype=bool)
        assert M.dice(z, z) == 1.0

    @given(st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((6, 6)) < 0.4
        b = rng.random((6, 6)) < 0.4
        assert M.dice(a, b) == M.dice(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.dice(np.zeros((2, 2)), np.zeros((3, 3)))
