import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import Network, is_irreducible, load_network, neighbors, save_network
from netepi.graph import NetworkError, _components

from conftest import (brute_force_strongly_connected, load_network_oracle, mutated_text,
                      read_int_fields_through_float)


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

    def test_loaded_adjacency_read_only_and_as_parsed(self):
        text = "0,1,0.5\n2,0,1.5\n1,1,2.0\n"
        net = load_network(text, 3)
        assert np.array_equal(net.adjacency, load_network_oracle(text, 3).adjacency)
        assert net.adjacency.dtype == float and net.layers == ()
        with pytest.raises(ValueError):
            net.adjacency[0, 0] = 1.0
        with pytest.raises(ValueError):
            load_network("", 2).adjacency[0, 0] = 1.0

    def test_save_row_major_repr(self):
        a = np.zeros((3, 3))
        a[2, 0], a[0, 2], a[0, 1] = 0.1 + 0.2, 1.0, 5e-324
        assert save_network(Network(a)) == "0,1,5e-324\n0,2,1.0\n2,0,0.30000000000000004\n"
        assert save_network(Network(np.zeros((2, 2)))) == ""
        # the same bytes as a row-major scan of every entry
        rng = np.random.default_rng(3)
        for n in (1, 4, 9):
            a = np.where(rng.random((n, n)) < 0.4, rng.random((n, n)), 0.0)
            lines = [f"{i},{j},{float(a[i, j])!r}" for i in range(n) for j in range(n)
                     if a[i, j] != 0.0]
            assert save_network(Network(a)) == "".join(line + "\n" for line in lines)

    def test_save_refuses_layers(self):
        a = np.eye(2)
        with pytest.raises(NetworkError, match="transport layers"):
            save_network(Network(a, layers=(a,)))


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

    def test_copies_its_arrays(self):
        a, layer = np.zeros((2, 2)), np.ones((2, 2))
        net = Network(a, layers=(layer,))
        a[0, 1] = layer[0, 1] = 5.0
        assert net.adjacency[0, 1] == 0.0 and net.layers[0][0, 1] == 1.0
        assert a.flags.writeable and layer.flags.writeable


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


def _without_comments(text):
    return "\n".join(line.partition("#")[0] for line in text.split("\n"))


@st.composite
def edge_lists(draw):
    """A mutated edge list over n nodes, with a comment line and a blank line."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    a = np.where(rng.random((n, n)) < 0.5, rng.random((n, n)), 0.0)
    text = "# i,j,weight\n\n" + save_network(Network(a))
    return draw(mutated_text(text)), n


class TestLoaderAgainstPerLineReader:
    """np.loadtxt against the per-line reader it replaced (the oracle)."""

    @settings(max_examples=400, deadline=None)
    @given(edge_lists())
    def test_mutated_edge_lists(self, case):
        text, n = case
        try:
            want = load_network_oracle(text, n)
        except NetworkError:
            # the one deliberate difference here: text after a '#' is a comment
            try:
                want = load_network_oracle(_without_comments(text), n)
            except NetworkError:
                with pytest.raises(NetworkError):
                    load_network(text, n)
                return
        assert load_network(text, n).adjacency.tobytes() == want.adjacency.tobytes()

    def test_trailing_comment_accepted(self):
        # the per-line reader refused this record as malformed
        with pytest.raises(NetworkError, match="malformed"):
            load_network_oracle("0,1,2.5 # weight\n", 2)
        assert load_network("0,1,2.5 # weight\n", 2).adjacency[0, 1] == 2.5

    @pytest.mark.parametrize("record", ["1_0,1,1.0", "0,1,1_0", "0,1,1_0.5", "\u0661,1,1.0"])
    def test_python_only_literals_refused(self, record):
        # int() and float() accept digit-group underscores and non-ASCII
        # digits; numpy does not
        load_network_oracle(record, 20)
        with pytest.raises(NetworkError, match="line 1: malformed record"):
            load_network(record, 20)

    def test_id_beyond_int64_malformed(self):
        with pytest.raises(NetworkError, match="line 1: index out of range"):
            load_network_oracle("99999999999999999999,0,1.0", 2)
        with pytest.raises(NetworkError, match="line 1: malformed record"):
            load_network("99999999999999999999,0,1.0", 2)

    @pytest.mark.parametrize("ident", ["1e3", "1.5", "1.0", "0x1", ""])
    def test_non_integer_ids_refused(self, ident):
        with pytest.raises(NetworkError, match="line 2: malformed record"):
            load_network(f"0,1,1.0\n{ident},1,1.0", 2000)
        with pytest.raises(NetworkError, match="line 2: malformed record"):
            load_network(f"0,1,1.0\n1,{ident},1.0", 2000)

    @pytest.mark.parametrize("through_float", [False, True])
    @pytest.mark.parametrize("ident", ["1e3", "1.5", "1.0"])
    def test_non_integer_ids_refused_whatever_the_warning_filters(
            self, monkeypatch, ident, through_float):
        # numpy releases from 1.23 may read such an id through float and only
        # warn; outside the test suite DeprecationWarning is ignored by default
        if through_float:
            read_int_fields_through_float(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NetworkError, match="line 2: malformed record"):
                load_network(f"0,1,1.0\n{ident},0,1.0", 2000)

    def test_whitespace_lines_and_line_sources(self, tmp_path):
        text = "  # indented comment\n \t\n 0 , 1 , 0.5 \n1,0,2\n"
        want = load_network_oracle(text, 2).adjacency
        assert np.array_equal(load_network(text, 2).adjacency, want)
        (tmp_path / "net.csv").write_text(text)
        with open(tmp_path / "net.csv") as fh:
            assert np.array_equal(load_network(fh, 2).adjacency, want)
        assert np.array_equal(load_network(text.splitlines(), 2).adjacency, want)

    def test_failure_names_the_first_bad_line(self):
        text = "# c\n0,1,1.0\n\n1,0,2.0\n0,1,3.0\n1,1,-1\n"
        with pytest.raises(NetworkError, match=r"^line 5: duplicate edge \(0,1\)$"):
            load_network(text, 2)
        with pytest.raises(NetworkError, match="line 3: expected 'i,j,weight'"):
            load_network("0,1,1\n1,0,1\n1,1\n", 2)

    def test_empty_edge_list_does_not_warn(self, recwarn):
        for text in ("", "\n\n", "# only a comment\n", "  # indented\n \n"):
            assert not load_network(text, 2).adjacency.any()
        assert not recwarn.list


class TestFloatExtremes:
    VALUES = [5e-324, 2.2250738585072014e-308, 1 - 2**-53, 0.1 + 0.2, 1.7976931348623157e308]

    def test_edge_list_round_trip(self):
        a = np.zeros((3, 3))
        a[[0, 0, 1, 1, 2], [1, 2, 0, 2, 0]] = self.VALUES
        again = load_network(save_network(Network(a)), 3).adjacency
        assert again.tobytes() == a.tobytes()
