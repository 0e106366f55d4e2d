"""Artifact IO tests: the CSV text of every value type, tables written in
row blocks, and files that land together or not at all."""

import numpy as np
import pytest

from contragp.artifacts import _fmt, atomic_files, csv_rows, write_csv


def test_csv_text_of_each_value_type(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0, 0.1, np.float64(1.0 / 3.0), None],
            [np.int64(2), 1e-300, np.float64(-0.0), 1e16],
            [np.float32(0.1), True, "label", np.array([0.25, 2.0])[1]],
            np.array([[1.5, -2.5e-7, 3.0, 1e22]]).tolist()[0]]
    write_csv(path, ["a", "b", "c", "d"], [list(col) for col in zip(*rows)])
    assert path.read_bytes() == (
        b"a,b,c,d\n"
        b"0,0.1,0.3333333333333333,\n"
        b"2,1e-300,-0.0,1e+16\n"
        b"0.10000000149011612,True,label,2.0\n"
        b"1.5,-2.5e-07,3.0,1e+22\n")


def _row_wise_text(header, rows):
    """The text of the row-wise writer: one ``_fmt`` call per cell."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_trajectory_columns_match_row_wise_text(tmp_path):
    """A trajectory table: integer steps, float states with values of every
    magnitude and sign, and one input fewer than states, so the last
    input cell is empty."""
    rng = np.random.default_rng(5)
    K = 40
    states = rng.normal(size=(K + 1, 2)) * 10.0 ** rng.integers(-20, 20,
                                                                 (K + 1, 2))
    states[3] = [-0.0, 1e16]
    states[4] = [np.inf, np.nan]
    inputs = rng.normal(size=K) * 1e-7
    header = ["k", "x_1", "x_2", "u"]
    rows = [[k, *x, u] for k, x, u in zip(range(K + 1), states.tolist(),
                                          inputs.tolist() + [None])]
    path = tmp_path / "traj.csv"
    write_csv(path, header, [np.arange(K + 1), *states.T, inputs])
    text = path.read_bytes()
    assert text == _row_wise_text(header, rows).encode()
    assert text.splitlines()[-1] == b"40,%r,%r," % (float(states[K, 0]),
                                                  float(states[K, 1]))


def test_empty_table_is_the_header_line(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [np.zeros(0), []])
    assert path.read_bytes() == b"a,b\n"


def _zip_join_text(header, columns):
    """The text of the row-joining writer: cells zipped into rows (empty
    past a short column's end), one ``",".join`` per row, then the lines
    joined."""
    from itertools import zip_longest
    from contragp.artifacts import _column_text
    rows = zip_longest(*map(_column_text, columns), fillvalue="")
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


@pytest.mark.parametrize("header, columns", [
    pytest.param(["k", "x", "u"],
                 [np.arange(4), np.array([0.5, -0.0, 1e300, 1e-7]),
                  np.array([1.0, 2.0])], id="ragged"),
    pytest.param(["a", "b"], [[1, None, 3], ["x", None]], id="none-cells"),
    pytest.param(["s", "b"], [["label", "two words", ""], [True, False]],
                 id="string-bool"),
    pytest.param(["i", "j"], [np.array([1, -2, 3]), [np.int64(4), 5, 6]],
                 id="int"),
    pytest.param(["f", "g"], [np.array([np.nan, np.inf, -np.inf]),
                              [float("nan"), np.float64(np.inf), 1.0]],
                 id="nan-inf"),
    pytest.param(["b", "f"], [np.array([True, False]),
                              np.array([0.1, 0.2], dtype=np.float32)],
                 id="bool-float32-arrays"),
    pytest.param(["a", "b", "c"], [np.zeros(0), [], ()], id="zero-rows"),
    pytest.param(["a"], [], id="zero-columns"),
    pytest.param([], [], id="no-header"),
    pytest.param(["m"], np.array([[1.5, 2.5]]), id="matrix-rows"),
])
def test_single_join_matches_row_joins(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _zip_join_text(header, columns).encode()


@pytest.mark.parametrize("bounds", [[0, 41], [0, 7, 14, 41], [0, 1, 40, 41]])
def test_row_blocks_match_one_table(tmp_path, bounds):
    """A trajectory table appended in blocks of rows, the last block one
    input short, has the bytes of the table written at once."""
    rng = np.random.default_rng(6)
    states = rng.normal(size=(41, 2)) * 10.0 ** rng.integers(-9, 9, (41, 2))
    inputs = rng.normal(size=40)
    header = ["k", "x_1", "x_2", "u"]
    write_csv(tmp_path / "whole.csv", header,
              [np.arange(41), *states.T, inputs])
    with atomic_files([tmp_path / "blocks.csv"]) as (fh,):
        fh.write(",".join(header) + "\n")
        for a, b in zip(bounds, bounds[1:]):
            fh.write(csv_rows([np.arange(a, b), *states[a:b].T,
                               inputs[a:b]]))
    assert ((tmp_path / "blocks.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())


def test_atomic_files_land_together_or_not_at_all(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "sub" / "b.csv"]
    paths[0].write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_files(paths) as files:
            for fh in files:
                fh.write("new\n")
            raise RuntimeError("a failed run")
    # the old file is untouched, the new one absent, no temporary is left
    assert paths[0].read_text() == "old\n" and not paths[1].exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "sub"]
    with atomic_files(paths) as files:
        for fh, text in zip(files, ["one\n", "two\n"]):
            fh.write(text)
    assert [p.read_text() for p in paths] == ["one\n", "two\n"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "a.csv", "b.csv", "sub"]
