import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import Network, graph, is_irreducible, load_network
from netepi.graph import NetworkError, _components

from conftest import (brute_force_strongly_connected, load_network_oracle, mutated_text,
                      read_int_fields_through_float, save_network)


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
        # apart in the records, neighbours once sorted: the error names the
        # second one's line
        with pytest.raises(NetworkError, match=r"^line 4: duplicate edge \(1,0\)$"):
            load_network("1,0,1.0\n0,1,1.0\n1,1,1.0\n1,0,2.0\n", 2)

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

    def test_edge_table_sorted_from_records(self):
        # the records, in any order, give the table a row-major scan of the
        # adjacency gives, without that scan
        rng = np.random.default_rng(11)
        cases = [np.zeros((3, 3)), np.ones((1, 1)), np.zeros((1, 1))]
        for n in (2, 5, 9, 30):
            a = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
            a[n // 2] = 0.0  # an empty row
            cases.append(a)
        for a in cases:
            scanned = Network(a).edges
            lines = save_network(Network(a)).splitlines()
            for order in (lines, rng.permutation(lines).tolist()):
                net = load_network("\n".join(order), len(a))
                assert "edges" in vars(net)
                assert net.adjacency.tobytes() == a.tobytes()
                for mine, theirs in zip(net.edges, scanned, strict=True):
                    for x, y in zip(mine, theirs, strict=True):
                        assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_too_many_nodes_for_int64_keys_refused(self):
        # the keys i*n + j of the records must fit in int64: refused before
        # any work of order n
        with pytest.raises(NetworkError, match=r"^n=4294967296 is too large"):
            load_network("0,1,1.0\n", 2**32)

    def test_edge_table_of_layers(self):
        a, layer = np.array([[0.0, 2.0], [3.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 4.0]])
        (rows, cols, w, starts), (lrows, lcols, lw, lstarts) = Network(a, layers=(layer,)).edges
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0] and w.tolist() == [2.0, 3.0]
        assert starts.tolist() == [0, 1]
        assert lrows.tolist() == [1, 1] and lcols.tolist() == [0, 1] and lw.tolist() == [0.5, 4.0]
        assert lstarts.tolist() == [0]


class TestLoadedMatrices:
    """A loaded network holds its edge tables alone and builds each matrix
    from its table on first read."""

    @staticmethod
    def _loaded(rng, n, count):
        """A network of ``n`` nodes and its edge tables' eager scatters."""
        tables, eager = [], []
        for _ in range(count):
            a = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
            a[n // 2] = 0.0  # an empty row
            i, j = np.nonzero(a)
            tables.append(graph._edge_table(i, j, a[i, j]))
            scattered = np.zeros((n, n))
            scattered[i, j] = a[i, j]
            eager.append(scattered)
        return graph._loaded(n, tuple(tables)), eager

    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_built_once_as_the_eager_scatter(self, monkeypatch, layers):
        rng = np.random.default_rng(12 + layers)
        net, eager = self._loaded(rng, 9, 1 + layers)
        assert net.n == 9 and not {"adjacency", "layers"} & set(vars(net))
        built, dense = [], graph._dense
        monkeypatch.setattr(graph, "_dense", lambda *args: built.append(1) or dense(*args))
        for _ in range(2):
            mats = (net.adjacency, *net.layers)
            assert len(built) == 1 + layers
        for got, want in zip(mats, eager, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 1.0
        assert net.adjacency is mats[0] and net.layers == tuple(mats[1:])

    def test_matrices_built_one_read_at_a_time(self, monkeypatch):
        net, eager = self._loaded(np.random.default_rng(15), 6, 2)
        built, dense = [], graph._dense
        monkeypatch.setattr(graph, "_dense", lambda *args: built.append(1) or dense(*args))
        assert net.layers[0].tobytes() == eager[1].tobytes() and built == [1]
        assert "adjacency" not in vars(net)
        assert net.adjacency.tobytes() == eager[0].tobytes() and built == [1, 1]

    def test_immutable(self):
        net = load_network("0,1,1.0\n", 2)
        with pytest.raises(AttributeError):
            net.adjacency = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            del net.n
        with pytest.raises(AttributeError):
            net.other  # noqa: B018


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


class TestIsIrreducible:
    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_one_way_edge(self):
        assert not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_complete(self):
        assert is_irreducible(np.ones((2, 2)))

    @pytest.mark.parametrize("entry,expected", [(0.0, False), (0.5, True)])
    def test_one_node(self, entry, expected):
        assert is_irreducible(np.array([[entry]])) is expected

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
        # a 5000-node chain is 5000 singleton components; a 5000-node ring is
        # one, deeper than the one-block check's passes, so Tarjan labels it
        n = 5000
        chain = np.arange(n - 1)
        assert np.unique(_components(n, chain, chain + 1)).size == n
        ring = np.arange(n)
        assert np.all(_components(n, ring, (ring + 1) % n) == 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31))
    def test_one_block_check_agrees_with_tarjan(self, n, seed):
        # the check labels a digraph all 0 without Tarjan exactly where
        # Tarjan finds one component (a depth below 9 is within its passes)
        rng = np.random.default_rng(seed)
        pattern = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        rows, cols = np.nonzero(pattern)
        want = graph._tarjan(n, rows, cols)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_tarjan", lambda *args: calls.append(args) or want)
            labels = _components(n, rows, cols)
        assert np.array_equal(labels, want)
        assert (not calls) == (want.max() == 0)

    def test_reducible_pattern_falls_through_to_tarjan(self, monkeypatch):
        # node 0 reaches every node of the chain 0 -> 1 -> 2 -> 3, and the
        # backward search from it reaches none
        calls, tarjan = [], graph._tarjan
        monkeypatch.setattr(graph, "_tarjan", lambda *args: calls.append(args) or tarjan(*args))
        chain = np.arange(3)
        assert graph._reaches_all(4, chain, chain + 1)
        assert sorted(_components(4, chain, chain + 1)) == [0, 1, 2, 3]
        assert len(calls) == 1

    def test_is_irreducible_runs_tarjan_alone(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_irreducible ran the one-block check")

        monkeypatch.setattr(graph, "_reaches_all", refuse)
        ring = np.roll(np.eye(6), 1, axis=1)
        assert is_irreducible(ring)
        assert not is_irreducible(np.triu(np.ones((6, 6))))


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


class TestWriteFile:
    """graph._write_file, under every file netepi writes: the old file is
    overwritten in place and cut to the new length."""

    def test_shorter_bytes_leave_exactly_them(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"x" * 10_000)
        inode = path.stat().st_ino
        graph._write_file(path, [b"ab", np.frombuffer(b"cd", np.uint8), memoryview(b"e")])
        assert path.read_bytes() == b"abcde" and path.stat().st_ino == inode
        graph._write_file(path, [])
        assert path.read_bytes() == b""

    def test_longer_bytes_over_a_shorter_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old")
        graph._write_file(path, [b"new ", b"bytes"])
        assert path.read_bytes() == b"new bytes"

    def test_hard_link_keeps_its_inode(self, tmp_path):
        path, other = tmp_path / "out.csv", tmp_path / "link.csv"
        path.write_bytes(b"a longer old text\n")
        os.link(path, other)
        inode = path.stat().st_ino
        graph._write_file(path, [b"new\n"])
        assert path.stat().st_ino == other.stat().st_ino == inode
        assert path.read_bytes() == other.read_bytes() == b"new\n"
        assert path.stat().st_nlink == 2

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "out.csv"
        target.write_bytes(b"a longer old text\n")
        link.symlink_to(target)
        graph._write_file(link, [b"new\n"])
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    def test_device_is_written_without_a_cut(self):
        # /dev/null cannot be truncated: open(path, "wb") ignores O_TRUNC on
        # it, and the writer leaves out the cut
        graph._write_file("/dev/null", [b"discarded"])

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_that_of_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            graph._write_file(tmp_path / "written", [b"x"])
            with open(tmp_path / "opened", "wb") as f:
                f.write(b"x")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("written", "opened")]
        assert modes[0] == modes[1] == 0o666 & ~umask
