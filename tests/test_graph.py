import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import Network, is_irreducible, load_network, neighbors, save_network
from netepi.graph import NetworkError, _components

from conftest import brute_force_strongly_connected


class TestLoadNetwork:
    def test_two_node_cycle(self):
        net = load_network("0,1,1.0\n1,0,1.0", 2)
        assert np.array_equal(net.adjacency, [[0, 1], [1, 0]])

    def test_empty_records(self):
        net = load_network("", 3)
        assert np.array_equal(net.adjacency, np.zeros((3, 3)))

    def test_comments_and_blanks_skipped(self):
        net = load_network("# header\n\n0,0,2.5\n", 1)
        assert net.adjacency[0, 0] == 2.5

    def test_index_out_of_range(self):
        with pytest.raises(NetworkError, match="out of range"):
            load_network("0,5,1.0", 2)

    def test_nonpositive_weight(self):
        with pytest.raises(NetworkError, match="positive"):
            load_network("0,1,0.0", 2)
        with pytest.raises(NetworkError, match="positive"):
            load_network("0,1,-1.0", 2)
        with pytest.raises(NetworkError, match="positive"):
            load_network("0,1,nan", 2)

    def test_duplicate_edge(self):
        with pytest.raises(NetworkError, match="duplicate"):
            load_network("0,1,1.0\n0,1,2.0", 2)

    def test_malformed_record(self):
        with pytest.raises(NetworkError):
            load_network("0;1;1.0", 2)
        with pytest.raises(NetworkError):
            load_network("0,1", 2)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        a = np.where(rng.random((5, 5)) < 0.4, rng.random((5, 5)), 0.0)
        net = Network(a)
        again = load_network(save_network(net), 5)
        assert np.array_equal(again.adjacency, net.adjacency)


class TestNetworkType:
    def test_rejects_negative(self):
        with pytest.raises(NetworkError):
            Network(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NetworkError):
            Network(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_rejects_layer_shape_mismatch(self):
        with pytest.raises(NetworkError):
            Network(np.zeros((2, 2)), layers=(np.zeros((3, 3)),))

    def test_adjacency_immutable(self):
        net = Network(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            net.adjacency[0, 0] = 1.0


class TestNeighbors:
    def test_read_off_row(self):
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert neighbors(net, 0) == {1}

    def test_self_loop(self):
        net = Network(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert neighbors(net, 0) == {0}

    def test_isolated(self):
        net = Network(np.zeros((2, 2)))
        assert neighbors(net, 0) == set()

    def test_out_of_range(self):
        net = Network(np.zeros((2, 2)))
        with pytest.raises(NetworkError):
            neighbors(net, 2)

    def test_matches_positive_entries_exactly(self):
        rng = np.random.default_rng(3)
        a = np.where(rng.random((6, 6)) < 0.5, rng.random((6, 6)), 0.0)
        net = Network(a)
        for i in range(6):
            assert neighbors(net, i) == {j for j in range(6) if a[i, j] > 0}


class TestIsIrreducible:
    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_one_way_edge(self):
        assert not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_complete(self):
        assert is_irreducible(np.ones((2, 2)))

    def test_rejects_nonsquare(self):
        with pytest.raises(NetworkError):
            is_irreducible(np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(NetworkError):
            is_irreducible(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        m = np.where(rng.random((n, n)) < 0.35, rng.random((n, n)), 0.0)
        assert is_irreducible(m) == brute_force_strongly_connected(m)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31))
    def test_labels_are_mutual_reachability(self, n, seed):
        rng = np.random.default_rng(seed)
        pattern = rng.random((n, n)) < rng.uniform(0.05, 0.5)
        labels = _components(n, *np.nonzero(pattern))
        reach = np.eye(n, dtype=bool)
        for _ in range(n):
            reach |= (reach.astype(int) @ pattern.astype(int)) > 0
        assert np.array_equal(labels[:, None] == labels[None, :], reach & reach.T)
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))

    def test_long_path_without_recursion(self):
        # a 5000-node chain is 5000 singleton components; a 5000-node ring is one
        n = 5000
        chain = np.arange(n - 1)
        assert np.unique(_components(n, chain, chain + 1)).size == n
        ring = np.arange(n)
        assert np.all(_components(n, ring, (ring + 1) % n) == 0)
