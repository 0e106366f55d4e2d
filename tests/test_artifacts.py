"""Artifact IO tests: the CSV text of every value type."""

import numpy as np

from contragp.artifacts import write_csv


def test_csv_text_of_each_value_type(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0, 0.1, np.float64(1.0 / 3.0), None],
            [np.int64(2), 1e-300, np.float64(-0.0), 1e16],
            [np.float32(0.1), True, "label", np.array([0.25, 2.0])[1]],
            np.array([[1.5, -2.5e-7, 3.0, 1e22]]).tolist()[0]]
    write_csv(path, ["a", "b", "c", "d"], rows)
    assert path.read_bytes() == (
        b"a,b,c,d\n"
        b"0,0.1,0.3333333333333333,\n"
        b"2,1e-300,-0.0,1e+16\n"
        b"0.10000000149011612,True,label,2.0\n"
        b"1.5,-2.5e-07,3.0,1e+22\n")
