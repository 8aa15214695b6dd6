"""Ridge posteriors, Gaussian scoring, and linear contextual policies."""
import copy
import math
import pickle

import numpy as np
import pytest
import scipy.stats

from clusterbandit import contextual
from clusterbandit.contextual import (
    RESOLVE_EVERY,
    ClusteredLinThompson,
    ClusteredLinUcb,
    LinThompson,
    LinUcb,
    _LinearBank,
    _outer,
)
from clusterbandit.core import BanditInstance, ClusterTree, DisjointClustering, rng_streams
from clusterbandit.instances import gen_contextual
from clusterbandit.policies import make_policy
from clusterbandit.simulate import simulate

CONTEXTUAL_POLICY_KEYS = ("lints", "lintsc", "linucb", "linucbc")


def _path_to(pol, arm):
    """The root-to-leaf path of ``arm`` in a policy's tree: ``(0, a+1)`` on the star, ``(0, c+1, leaf)`` for cluster c."""
    return tuple(reversed(pol.tree.path_to_root(pol.tree.leaf_of_arm(arm))))


def _moved_rows(pol, update):
    """The bank rows ``update()`` credits, in row order."""
    before = pol._bank.counts.copy()
    update()
    return np.flatnonzero(pol._bank.counts != before).tolist()


def _row(pol, arm):
    """The bank row of ``arm``: the slot of its leaf."""
    return int(pol.tree.slot[pol.tree.leaf_of_arm(arm)])


def _update(bank, i, x, reward):
    """One bank update, with the context's outer product formed as ``select`` forms it."""
    bank.update(i, x, _outer(x), reward)


def _e(i, d=3):
    x = np.zeros(d)
    x[i] = 1.0
    return x


# ---------------------------------------------------------------------------
# One posterior: a bank of one entity
# ---------------------------------------------------------------------------

class TestLinSample:
    def test_fresh_belief_standard_normal(self):
        rng = np.random.default_rng(0)
        bank = _LinearBank(1, 3, 1.0)
        x = _e(0)
        draws = np.array([bank.sample(x, _outer(x), rng, 0, 1)[0] for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_zero_context_deterministic(self, rng):
        bank = _LinearBank(1, 3, 1.0)
        x = np.zeros(3)
        assert all(bank.sample(x, _outer(x), rng, 0, 1)[0] == 0.0 for _ in range(10))

    def test_trained_belief_ridge_mean(self):
        # closed-form ridge: after n unit observations of reward 1 on e1,
        # mean score is n / (1 + n) and variance shrinks to 1/(1+n)
        rng = np.random.default_rng(1)
        bank = _LinearBank(1, 3, 1.0)
        n = 10_000
        for _ in range(n):
            _update(bank, 0, _e(0), 1.0)
        x = _e(0)
        draws = np.array([bank.sample(x, _outer(x), rng, 0, 1)[0] for _ in range(10_000)])
        assert abs(draws.mean() - n / (1 + n)) < 0.01

    def test_dimension_mismatch(self, rng):
        inst = _ctx_instance(dim=3)
        for key in CONTEXTUAL_POLICY_KEYS:
            pol = make_policy(key, inst)
            with pytest.raises(ValueError, match="shape"):
                pol.select(1, np.zeros(2), rng)
            with pytest.raises(ValueError, match="shape"):
                pol.update(0, np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="dim"):
            _LinearBank(1, 0, 1.0)

    def test_non_finite_context(self, rng):
        inst = _ctx_instance(dim=2)
        x = np.array([np.nan, 0.0])
        for key in CONTEXTUAL_POLICY_KEYS:
            pol = make_policy(key, inst)
            with pytest.raises(ValueError, match="non-finite"):
                pol.select(1, x, rng)
            with pytest.raises(ValueError, match="non-finite"):
                pol.update(0, x, 1.0)

    def test_gaussian_law_ks(self):
        rng = np.random.default_rng(2)
        bank = _LinearBank(1, 3, 1.0)
        upd_rng = np.random.default_rng(3)
        for _ in range(50):
            _update(bank, 0, upd_rng.random(3), upd_rng.random())
        x = np.array([0.3, 0.9, 0.1])
        mean = bank.Mu[0] @ x
        std = math.sqrt(bank.v * x @ bank.Binv[0] @ x)
        draws = np.array([bank.sample(x, _outer(x), rng, 0, 1)[0] for _ in range(100_000)])
        stat = scipy.stats.kstest(draws, scipy.stats.norm(mean, std).cdf).statistic
        assert stat <= 0.01


class TestLinUpdate:
    def test_hand_linear_algebra(self):
        bank = _LinearBank(1, 3, 1.0)
        _update(bank, 0, _e(0), 1.0)
        np.testing.assert_allclose(bank.B[0], np.diag([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(bank.F[0], _e(0))
        np.testing.assert_allclose(bank.Mu[0], _e(0) / 2)

    def test_zero_reward_keeps_f(self):
        bank = _LinearBank(1, 3, 1.0)
        _update(bank, 0, _e(1), 0.0)
        assert np.all(bank.F[0] == 0.0)
        np.testing.assert_allclose(bank.B[0], np.diag([1.0, 2.0, 1.0]))

    def test_functional_input_unchanged(self):
        base = _LinearBank(1, 2, 1.0)
        out = copy.deepcopy(base)
        _update(out, 0, np.ones(2), 1.0)
        np.testing.assert_array_equal(base.B[0], np.eye(2))
        assert base.counts[0] == 0
        assert out.counts[0] == 1

    def test_sherman_morrison_matches_dense_inverse(self):
        rng = np.random.default_rng(4)
        bank = _LinearBank(1, 5, 1.0)
        for _ in range(100):
            _update(bank, 0, rng.random(5), rng.random())
        dense = np.linalg.inv(bank.B[0])
        assert np.abs(bank.Binv[0] - dense).max() < 1e-8

    def test_mu_matches_dense_solve_after_every_update(self):
        rng = np.random.default_rng(5)
        bank = _LinearBank(1, 4, 1.0)
        for _ in range(200):
            _update(bank, 0, rng.random(4), rng.uniform(-2, 2))
            solved = np.linalg.solve(bank.B[0], bank.F[0])
            assert np.abs(bank.Mu[0] - solved).max() < 1e-8

    def test_positive_definiteness_preserved(self):
        rng = np.random.default_rng(6)
        bank = _LinearBank(1, 6, 1.0)
        for _ in range(300):
            _update(bank, 0, rng.standard_normal(6), rng.standard_normal())
        eigs = np.linalg.eigvalsh(bank.B[0])
        assert eigs.min() >= 1.0 - 1e-9

    def test_long_run_drift_capped_with_periodic_resolve(self):
        rng = np.random.default_rng(7)
        bank = _LinearBank(1, 20, 1.0)
        for i in range(999):
            _update(bank, 0, rng.random(20), rng.random())
        pre = np.abs(bank.Binv[0] - np.linalg.inv(bank.B[0])).max()
        assert pre < 1e-8  # raw rank-one chain, no resolve yet
        _update(bank, 0, rng.random(20), rng.random())
        post = np.abs(bank.Binv[0] - np.linalg.inv(bank.B[0])).max()
        assert post < 1e-12  # dense resolve kicked in at the thousandth update


# ---------------------------------------------------------------------------
# Stacked posteriors
# ---------------------------------------------------------------------------

def _bank_of_equal_posteriors(n, dim, trained, rng):
    """A bank whose n entities hold one bit-equal posterior."""
    one = _LinearBank(1, dim, 1.0)
    for _ in range(3 if trained else 0):
        _update(one, 0, rng.random(dim), rng.uniform(0.5, 2.0))
    bank = _LinearBank(n, dim, 1.0)
    bank.B[:], bank.Binv[:], bank.F[:], bank.Mu[:] = one.B[0], one.Binv[0], one.F[0], one.Mu[0]
    return bank


class TestLinearBankTies:
    """Bit-equal posteriors score bit-equal, wherever they sit in the bank.

    UCB ties between unplayed arms are common and are broken at random, so
    a kernel whose rounding depends on an entity's position (as BLAS
    matrix-vector products do) changes which arms tie, and with that the
    trace.
    """

    @pytest.mark.parametrize("trained", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 5, 20])
    def test_equal_posteriors_give_equal_scores(self, dim, trained):
        rng = np.random.default_rng(100 + dim)
        for n in range(1, 66):
            bank = _bank_of_equal_posteriors(n, dim, trained, rng)
            x = rng.random(dim)
            lo = int(rng.integers(n))
            hi = int(rng.integers(lo + 1, n + 1))
            for rows in ((0, n), (lo, hi), (n - 1, n)):
                quad = bank._quad(_outer(x), *rows)
                ucb = bank.ucb(x, _outer(x), 2.0, *rows)
                assert np.all(quad == quad[0]), (n, rows)
                assert np.all(ucb == ucb[0]), (n, rows)
                assert quad[0] == bank._quad(_outer(x), 0, n)[0]
                assert ucb[0] == bank.ucb(x, _outer(x), 2.0, 0, n)[0]


class TestLinearBank:
    def test_quad_matches_the_definition(self):
        rng = np.random.default_rng(7)
        bank = _LinearBank(6, 4, 1.0)
        for _ in range(40):
            _update(bank, int(rng.integers(6)), rng.random(4), rng.random())
        x = rng.random(4)
        want = np.array([x @ bank.Binv[i] @ x for i in range(6)])
        np.testing.assert_allclose(bank._quad(_outer(x), 0, 6), want, rtol=1e-12)
        np.testing.assert_allclose(bank._mean(x, 0, 6), bank.Mu @ x, rtol=1e-12)
        assert bank._quad(_outer(x), 2, 5).tobytes() == bank._quad(_outer(x), 0, 6)[2:5].tobytes()
        assert bank._mean(x, 2, 5).tobytes() == bank._mean(x, 0, 6)[2:5].tobytes()

    def test_split_gaussian_draw_is_rng_normal(self):
        for case in range(200):
            rng = np.random.default_rng(case)
            n = int(rng.integers(1, 901))
            mean = rng.standard_normal(n) * 3.0
            scale = rng.random(n) * 2.0
            scale[rng.random(n) < 0.1] = 0.0
            split, whole = np.random.default_rng([case, 1]), np.random.default_rng([case, 1])
            got = mean + scale * split.standard_normal(n)
            want = whole.normal(mean, scale)
            assert got.tobytes() == want.tobytes()
            assert split.bit_generator.state == whole.bit_generator.state

    def test_bank_sample_is_rng_normal_of_mean_and_width(self):
        rng = np.random.default_rng(8)
        bank = _LinearBank(50, 5, 0.7)
        for _ in range(300):
            _update(bank, int(rng.integers(50)), rng.random(5), rng.random())
        x = rng.random(5)
        for rows in ((0, 50), (3, 42)):
            mean, quad = bank._mean(x, *rows), bank._quad(_outer(x), *rows)
            split, whole = np.random.default_rng(9), np.random.default_rng(9)
            got = bank.sample(x, _outer(x), split, *rows)
            assert got.tobytes() == whole.normal(mean, np.sqrt(0.7 * quad)).tobytes()
            assert split.bit_generator.state == whole.bit_generator.state

    def test_deep_copied_policy_continues_identically(self):
        inst = _ctx_instance(seed=12, n_arms=12, n_clusters=3, dim=4)
        pol = ClusteredLinUcb(inst.clustering, inst.dim)
        rng = np.random.default_rng(13)
        for t in range(1, 51):
            x = rng.random(4)
            arm = pol.select(t, x, rng)
            pol.update(arm, x, inst.draw_reward(arm, inst.expected_rewards(x), rng))
        twin = copy.deepcopy(pol)
        for t in range(51, 101):
            x = rng.random(4)
            arm = pol.select(t, x, rng)
            reward = inst.draw_reward(arm, inst.expected_rewards(x), rng)
            pol.update(arm, x, reward)
            twin.update(arm, x, reward)
            xx = _outer(x)
            assert pol._bank.ucb(x, xx, 2.0, 0, 15).tobytes() == twin._bank.ucb(x, xx, 2.0, 0, 15).tobytes()  # 3 cluster rows, 12 arm rows
        a = _row(pol, arm)
        bank = copy.deepcopy(pol._bank)
        _update(bank, a, x, 1.0)
        assert bank.counts[a] == pol._bank.counts[a] + 1
        assert not np.array_equal(bank.B[a], pol._bank.B[a])

    def test_single_belief_is_a_bank_of_one(self):
        # one posterior alone evolves and scores as the same entity of a larger bank
        rng = np.random.default_rng(10)
        one, bank = _LinearBank(1, 4, 0.5), _LinearBank(5, 4, 0.5)
        for _ in range(RESOLVE_EVERY + 5):
            x, r = rng.random(4), rng.random()
            _update(one, 0, x, r)
            _update(bank, 2, x, r)
        assert one.counts[0] == bank.counts[2] == RESOLVE_EVERY + 5
        assert one.Binv[0].tobytes() == bank.Binv[2].tobytes()
        assert one.Mu[0].tobytes() == bank.Mu[2].tobytes()
        x = rng.random(4)
        xx = _outer(x)
        assert one.ucb(x, xx, 1.5, 0, 1)[0] == bank.ucb(x, xx, 1.5, 0, 5)[2] == bank.ucb(x, xx, 1.5, 2, 3)[0]
        assert one.sample(x, xx, np.random.default_rng(11), 0, 1)[0] == bank.sample(x, xx, np.random.default_rng(11), 2, 3)[0]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _ctx_instance(seed=0, n_arms=8, n_clusters=3, dim=4, epsilon=0.3):
    return gen_contextual(n_arms, n_clusters, epsilon, rng_streams(seed).instance, dim=dim)


class TestLinThompsonPolicies:
    def test_single_cluster_reduces_to_flat(self):
        clustering = DisjointClustering([0, 0, 0, 0])
        x = np.array([0.5, 0.2])
        rng = np.random.default_rng(8)
        freq = np.zeros(4)
        for _ in range(10_000):
            freq[ClusteredLinThompson(clustering, 2).select(1, x, rng)] += 1
        freq /= 10_000
        rng = np.random.default_rng(9)
        freq_flat = np.zeros(4)
        for _ in range(10_000):
            freq_flat[LinThompson(4, 2).select(1, x, rng)] += 1
        freq_flat /= 10_000
        assert np.all(np.abs(freq - freq_flat) < 0.02)

    def test_trained_cluster_dominates(self):
        clustering = DisjointClustering([0, 0, 1, 1])
        x = np.array([1.0, 0.0])
        pol = ClusteredLinThompson(clustering, 2)
        for _ in range(10_000):  # cluster c is row c
            _update(pol._bank, 0, x, 1.0)
            _update(pol._bank, 1, x, 0.0)
        rng = np.random.default_rng(10)
        hits = sum(clustering.label_of(pol.select(1, x, rng)) == 0 for _ in range(2_000))
        assert hits / 2_000 >= 0.99

    def test_containment(self):
        # the update credits the arm's own cluster row and leaf row, and no other
        inst = _ctx_instance()
        pol = ClusteredLinThompson(inst.clustering, inst.dim)
        rng = np.random.default_rng(11)
        for t in range(1, 201):
            x = rng.random(inst.dim)
            arm = pol.select(t, x, rng)
            assert _path_to(pol, arm) == (0, inst.clustering.label_of(arm) + 1, pol.tree.leaf_of_arm(arm))
            moved = _moved_rows(pol, lambda: pol.update(arm, x, inst.draw_reward(arm, inst.expected_rewards(x), rng)))
            assert moved == sorted(pol.tree.slot[v] for v in _path_to(pol, arm)[1:])

    def test_update_touches_exactly_two_beliefs(self):
        clustering = DisjointClustering([0, 0, 1])
        pol = ClusteredLinThompson(clustering, 2)
        x = np.array([0.4, 0.7])
        pol.update(2, x, 1.0)
        changed_arms = [a for a in range(3) if not np.array_equal(pol._bank.B[_row(pol, a)], np.eye(2))]
        changed_clusters = [c for c in range(2) if not np.array_equal(pol._bank.B[c], np.eye(2))]
        assert changed_arms == [2] and changed_clusters == [1]
        assert pol._bank.counts.tolist() == [0, 1, 0, 0, 1]  # rows: clusters 0 and 1, then arms 0, 1, 2

    def test_cluster_matrix_replay(self):
        inst = _ctx_instance(seed=1)
        pol = ClusteredLinThompson(inst.clustering, inst.dim)
        rng = np.random.default_rng(12)
        seen: list[tuple[int, np.ndarray]] = []
        for t in range(1, 101):
            x = rng.random(inst.dim)
            arm = pol.select(t, x, rng)
            pol.update(arm, x, inst.draw_reward(arm, inst.expected_rewards(x), rng))
            seen.append((inst.clustering.label_of(arm), x))
        for c in range(inst.clustering.n_clusters):
            expected = np.eye(inst.dim)
            for cluster, x in seen:
                if cluster == c:
                    expected += np.outer(x, x)
            np.testing.assert_allclose(pol._bank.B[c], expected, atol=1e-12)

    def test_zero_context_changes_nothing_numerically(self):
        pol = ClusteredLinThompson(DisjointClustering([0, 1]), 3)
        pol.update(0, np.zeros(3), 1.0)
        np.testing.assert_array_equal(pol._bank.B[_row(pol, 0)], np.eye(3))
        np.testing.assert_array_equal(pol._bank.F[_row(pol, 0)], np.zeros(3))


class TestLinUcbPolicies:
    def test_fresh_uniform_tie_break(self):
        rng = np.random.default_rng(13)
        x = np.array([0.5, 0.5])
        freq = np.zeros(3)
        for _ in range(10_000):
            freq[LinUcb(3, 2, alpha=2.0).select(1, x, rng)] += 1
        freq /= 10_000
        assert np.all(np.abs(freq - 1 / 3) < 0.02)

    def test_trained_entity_wins_after_bonus_shrinks(self):
        x = np.array([1.0, 0.0])
        pol = LinUcb(2, 2, alpha=2.0)
        for _ in range(400):  # arm a is row a on the star
            _update(pol._bank, 0, x, 1.0)
        # index oracle: trained arm ~ 400/401 + 2*sqrt(1/401), fresh arm 0 + 2*1
        trained = pol._bank.ucb(x, _outer(x), 2.0, 0, 2)[0]
        fresh = pol._bank.ucb(x, _outer(x), 2.0, 0, 2)[1]
        assert trained < fresh  # bonus still dominates at alpha=2 with one fresh arm
        for _ in range(2000):
            _update(pol._bank, 0, x, 1.0)
        idx = pol._bank.ucb(x, _outer(x), 2.0, 0, 2)
        assert idx[0] < idx[1]  # a never-pulled arm keeps the bigger upper bound
        greedy = LinUcb(2, 2, alpha=0.0)
        for _ in range(10):
            _update(greedy._bank, 0, x, 1.0)
        assert greedy.select(1, x, np.random.default_rng(0)) == 0

    def test_alpha_zero_greedy(self):
        x = np.array([0.0, 1.0])
        pol = LinUcb(2, 2, alpha=0.0)
        _update(pol._bank, 1, x, 1.0)
        assert pol.select(1, x, np.random.default_rng(1)) == 1

    def test_clustered_containment(self):
        inst = _ctx_instance(seed=2)
        pol = ClusteredLinUcb(inst.clustering, inst.dim, alpha=2.0)
        rng = np.random.default_rng(14)
        for t in range(1, 201):
            x = rng.random(inst.dim)
            arm = pol.select(t, x, rng)
            assert _path_to(pol, arm) == (0, inst.clustering.label_of(arm) + 1, pol.tree.leaf_of_arm(arm))
            moved = _moved_rows(pol, lambda: pol.update(arm, x, inst.draw_reward(arm, inst.expected_rewards(x), rng)))
            assert moved == sorted(pol.tree.slot[v] for v in _path_to(pol, arm)[1:])


class TestSimulateContextual:
    def test_byte_identical_replay(self):
        inst = _ctx_instance(seed=3)

        def run():
            streams = rng_streams(50)
            pol = make_policy("lintsc", inst, {"v": 1.0})
            contexts = streams.context.random((150, inst.dim))
            return simulate(
                inst, pol, 150, streams.simulation, contexts=contexts, seed=50
            )

        a, b = run(), run()
        assert np.array_equal(a.arms, b.arms)
        assert np.array_equal(a.cum_regret, b.cum_regret)

    @pytest.mark.parametrize("key", CONTEXTUAL_POLICY_KEYS)
    def test_regret_accounting_against_oracle(self, key):
        inst = _ctx_instance(seed=4)
        streams = rng_streams(51)
        contexts = streams.context.random((100, inst.dim))
        pol = make_policy(key, inst)
        trace = simulate(inst, pol, 100, streams.simulation, contexts=contexts)
        running, creg = [], 0.0
        for a, x in zip(trace.arms, contexts):
            expected = inst.expected_rewards(x)
            creg += float(expected.max() - expected[a])
            running.append(creg)
        assert trace.cum_regret.tobytes() == np.array(running).tobytes()

    def test_context_shape_validation(self):
        inst = _ctx_instance(seed=5)
        pol = make_policy("lints", inst)
        with pytest.raises(ValueError):
            simulate(
                inst, pol, 10, rng_streams(0).simulation, contexts=np.zeros((5, inst.dim))
            )
        # contexts go with a contextual instance and only with one
        flat = BanditInstance([0.5, 0.4])
        for instance, policy, contexts in ((inst, pol, None), (flat, make_policy("ts", flat), np.zeros((10, 2)))):
            with pytest.raises(ValueError, match="^contexts are given for a contextual instance, and only for one$"):
                simulate(instance, policy, 10, rng_streams(0).simulation, contexts=contexts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_contexts_fail_before_any_step(self, bad):
        inst = _ctx_instance(seed=5)
        pol = make_policy("lintsc", inst)
        contexts = np.ones((10, inst.dim))
        contexts[9, 1] = bad
        rng = rng_streams(0).simulation
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="contexts have non-finite entries"):
            simulate(inst, pol, 10, rng, contexts=contexts)
        assert rng.bit_generator.state == state
        assert pol._bank.counts.sum() == 0


class TestDrawReward:
    """``draw_reward`` is ``Generator.uniform`` on the reward interval, drawn as one scalar ``random()``."""

    @staticmethod
    def _uniform(expected, arm, rng):
        m = float(expected[arm])
        lo, hi = (0.0, 2.0 * m) if m >= 0.0 else (2.0 * m, 0.0)
        return float(rng.uniform(lo, hi))

    def test_same_bytes_and_generator_state_as_uniform(self):
        # 12 arms of mixed sign and two zero arms, under signed contexts
        theta = np.random.default_rng(30).standard_normal((14, 3))
        theta[[5, 11]] = 0.0
        inst = contextual.ContextualInstance(theta, DisjointClustering(np.arange(14) % 2))
        pairs = np.random.default_rng(31)
        got_rng, want_rng = np.random.default_rng(32), np.random.default_rng(32)
        got, want, signs = [], [], set()
        for _ in range(12_000):
            arm, x = int(pairs.integers(14)), pairs.standard_normal(3)
            expected = inst.expected_rewards(x)
            signs.add(np.sign(expected[arm]))
            got.append(inst.draw_reward(arm, expected, got_rng))
            want.append(self._uniform(expected, arm, want_rng))
            assert type(got[-1]) is float
        assert signs == {-1.0, 0.0, 1.0}
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize(
        "row, x",
        [
            ([1e308, 0.0], [1.0, 0.0]),  # a finite mean whose interval 2m overflows
            ([-1e308, 0.0], [1.0, 0.0]),
            ([1e308, 1e308], [1.0, 1.0]),  # an infinite mean
            ([1e308, -1e308], [2.0, 2.0]),  # inf - inf: a NaN mean
        ],
    )
    def test_non_finite_range_raises_before_any_draw(self, row, x):
        inst = contextual.ContextualInstance(np.array([row]), DisjointClustering([0]))
        x = np.array(x)
        rng = np.random.default_rng(33)
        state = rng.bit_generator.state
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                self._uniform(inst.expected_rewards(x), 0, rng)  # what the rule mirrors
            with pytest.raises(OverflowError):
                inst.draw_reward(0, inst.expected_rewards(x), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("arm", [-1, 2])
    def test_unknown_arm_raises_before_any_draw(self, arm):
        # the expected-reward vector would take -1 as its last entry
        inst = contextual.ContextualInstance(np.ones((2, 3)), DisjointClustering([0, 1]))
        rng = np.random.default_rng(34)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^unknown arm id {arm}$"):
            inst.draw_reward(arm, inst.expected_rewards(np.ones(3)), rng)
        assert rng.bit_generator.state == state


def _bank_bytes(pol):
    return {field: getattr(pol._bank, field).tobytes() for field in ("B", "Binv", "F", "Mu", "counts")}


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("key", CONTEXTUAL_POLICY_KEYS)
def test_copies_between_and_within_steps_continue_byte_identically(key, clone):
    inst = _ctx_instance(seed=19, n_arms=12, n_clusters=3, dim=4)
    contexts = np.random.default_rng(20).standard_normal((90, 4))

    def steps(pol, rng, start, stop):
        out = []
        for t in range(start, stop):
            x = contexts[t]
            arm = pol.select(t + 1, x, rng)
            reward = inst.draw_reward(arm, inst.expected_rewards(x), rng)
            pol.update(arm, x, reward)
            out.append((arm, reward))
        return out

    pol, rng = make_policy(key, inst), np.random.default_rng(21)
    steps(pol, rng, 0, 30)
    # between steps: the copy shares nothing with the original and continues alike
    twin, twin_rng = clone((pol, rng))
    assert twin._bank.B is not pol._bank.B
    assert steps(twin, twin_rng, 30, 60) == steps(pol, rng, 30, 60)
    assert _bank_bytes(twin) == _bank_bytes(pol)
    # within a step, after select: a copy taken with the seen context reuses its own copy of the
    # outer product, and a copy of the policy alone checks the original's context and forms it anew
    x = contexts[60]
    arm = pol.select(60, x, rng)
    together, together_x, together_rng = clone((pol, x, rng))
    alone = clone(pol)
    assert together_x is together._seen and x is not alone._seen
    reward = inst.draw_reward(arm, inst.expected_rewards(x), rng)
    assert inst.draw_reward(arm, inst.expected_rewards(together_x), together_rng) == reward
    pol.update(arm, x, reward)
    together.update(arm, together_x, reward)
    alone.update(arm, x, reward)
    alone_rng = copy.deepcopy(rng)
    want = steps(pol, rng, 61, 90)
    assert steps(together, together_rng, 61, 90) == want
    assert steps(alone, alone_rng, 61, 90) == want
    assert _bank_bytes(together) == _bank_bytes(alone) == _bank_bytes(pol)


@pytest.fixture
def checks(monkeypatch):
    """Every context check the contextual policies make."""
    calls = []
    context = contextual._check_context
    monkeypatch.setattr(contextual, "_check_context", lambda x, d: calls.append("x") or context(x, d))
    return calls


@pytest.mark.parametrize("key", CONTEXTUAL_POLICY_KEYS)
def test_update_checks_every_context_but_the_seen_one(key, checks):
    inst = _ctx_instance(seed=14, n_arms=12, n_clusters=3, dim=4)
    pol = make_policy(key, inst)
    rng = np.random.default_rng(15)
    x = rng.random(4)
    arm = pol.select(1, x, rng)
    assert checks == ["x"]  # select checks its context
    pol.update(arm, x, 0.5)
    assert checks == ["x"]  # the context select saw: no check
    pol.update((arm + 1) % inst.n_arms, x, 0.5)  # another arm with the seen context: still none
    assert checks == ["x"]
    pol.update(arm, x.copy(), 0.5)  # an equal context that select did not see
    assert checks == ["x", "x"]
    state = _bank_bytes(pol)
    with pytest.raises(ValueError, match="non-finite"):
        pol.update(arm, np.array([np.nan, 0.0, 0.0, 0.0]), 0.5)
    with pytest.raises(ValueError, match="shape"):
        pol.update(arm, x[:3], 0.5)
    assert _bank_bytes(pol) == state  # a rejected context moves no row
    del checks[:]
    listed = list(x)
    arm = pol.select(2, listed, rng)
    pol.update(arm, listed, 0.5)  # select checked the list into a new array: update checks again
    assert checks == ["x", "x"]


@pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", CONTEXTUAL_POLICY_KEYS)
def test_a_non_finite_reward_moves_no_row(key, reward):
    inst = _ctx_instance(seed=24, n_arms=12, n_clusters=3, dim=4)
    pol = make_policy(key, inst)
    rng = np.random.default_rng(25)
    x = rng.random(4)
    pol.update(pol.select(1, x, rng), x, 0.5)
    x = rng.random(4)
    arm = pol.select(2, x, rng)
    state = _bank_bytes(pol)
    with pytest.raises(ValueError, match=f"^non-finite reward {reward}$"):
        pol.update(arm, x, reward)
    assert _bank_bytes(pol) == state


@pytest.mark.parametrize("key", CONTEXTUAL_POLICY_KEYS)
def test_an_unseen_context_gets_its_own_outer_product(key):
    inst = _ctx_instance(seed=22, n_arms=12, n_clusters=3, dim=4)
    pol, fresh = make_policy(key, inst), make_policy(key, inst)
    rng = np.random.default_rng(23)
    arm = pol.select(1, rng.random(4), rng)
    y = rng.standard_normal(4)
    pol.update(arm, y, 0.5)  # the played arm with a context select did not see
    fresh.update(arm, y, 0.5)
    assert _bank_bytes(pol) == _bank_bytes(fresh)
    for v in _path_to(pol, arm)[1:]:
        np.testing.assert_array_equal(pol._bank.B[pol.tree.slot[v]], np.eye(4) + np.outer(y, y))


@pytest.mark.parametrize("key", ["lints", "linucb"])
def test_flat_policies_take_the_star_path(key):
    inst = _ctx_instance(seed=16, n_arms=6, n_clusters=2, dim=3)
    pol = make_policy(key, inst)
    assert pol.tree == ClusterTree.star(6) and pol.flat
    rng = np.random.default_rng(17)
    for t in range(1, 51):
        x = rng.random(3)
        arm = pol.select(t, x, rng)
        assert _path_to(pol, arm) == (0, arm + 1)
        assert _moved_rows(pol, lambda: pol.update(arm, x, 0.5)) == [arm]  # arm a is row a


@pytest.mark.parametrize("key", ["lintsc", "linucbc"])
def test_two_level_bank_rows_follow_the_tree_slots(key):
    inst = _ctx_instance(seed=18, n_arms=12, n_clusters=4, dim=3)
    pol = make_policy(key, inst)
    k, clustering = inst.clustering.n_clusters, inst.clustering
    assert pol._bank.n == len(pol.tree.kids) == k + inst.n_arms
    for position, arm in enumerate(clustering._arms.tolist()):
        assert _row(pol, arm) == k + position
    x = np.array([0.2, 0.5, 0.9])
    for arm in range(inst.n_arms):
        pol.update(arm, x, 1.0)
        assert pol._bank.counts[k + clustering._arms.tolist().index(arm)] == 1
    assert pol._bank.counts[:k].tolist() == np.bincount(clustering.labels, minlength=k).tolist()


class TestRegistry:
    def test_defaults(self):
        inst = _ctx_instance(seed=6)
        assert make_policy("lints", inst).v == 1.0
        assert make_policy("lintsc", inst).v == 1.0
        assert make_policy("linucb", inst).alpha == 2.0
        assert make_policy("linucbc", inst).alpha == 2.0

    def test_param_overrides(self):
        inst = _ctx_instance(seed=7)
        assert make_policy("lints", inst, {"v": 0.5}).v == 0.5
        assert make_policy("linucb", inst, {"alpha": 1.0}).alpha == 1.0

    def test_dim_is_not_a_parameter(self):
        # the dimension comes from the instance, so no d is accepted, not even the instance's own
        inst = _ctx_instance(seed=8)
        for d in (inst.dim, inst.dim + 1):
            with pytest.raises(ValueError, match=r"^policy 'lints' does not accept parameters \['d'\]$"):
                make_policy("lints", inst, {"d": d})

    def test_unknown_key_and_params(self):
        inst = _ctx_instance(seed=9)
        with pytest.raises(ValueError, match="unknown policy key 'bogus'"):
            make_policy("bogus", inst)
        with pytest.raises(ValueError, match="'ts' needs a bernoulli instance"):
            make_policy("ts", inst)
        with pytest.raises(ValueError, match="alpha"):
            make_policy("lints", inst, {"alpha": 2.0})


class TestHyperparameterValidation:
    BAD_V = [0.0, -1.0, math.nan, math.inf, -math.inf]
    BAD_ALPHA = [-1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("v", BAD_V)
    def test_thompson_policies_reject_bad_v(self, v):
        clustering = DisjointClustering([0, 0, 1])
        with pytest.raises(ValueError, match="v: "):
            LinThompson(3, 2, v=v)
        with pytest.raises(ValueError, match="v: "):
            ClusteredLinThompson(clustering, 2, v=v)
        with pytest.raises(ValueError, match="v: "):
            _LinearBank(1, 2, v)
        with pytest.raises(ValueError, match="v: "):
            make_policy("lints", _ctx_instance(seed=10), {"v": v})

    @pytest.mark.parametrize("alpha", BAD_ALPHA)
    def test_ucb_policies_reject_bad_alpha(self, alpha):
        clustering = DisjointClustering([0, 0, 1])
        with pytest.raises(ValueError, match="alpha: "):
            LinUcb(3, 2, alpha=alpha)
        with pytest.raises(ValueError, match="alpha: "):
            ClusteredLinUcb(clustering, 2, alpha=alpha)
        with pytest.raises(ValueError, match="alpha: "):
            make_policy("linucbc", _ctx_instance(seed=10), {"alpha": alpha})

    def test_boundary_values_accepted(self):
        clustering = DisjointClustering([0, 0, 1])
        assert LinThompson(3, 2, v=1e-12).v == 1e-12
        assert ClusteredLinUcb(clustering, 2, alpha=0.0).alpha == 0.0
        assert LinUcb(3, 2, alpha=0.0).alpha == 0.0
