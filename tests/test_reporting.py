"""Lossless CSV: the writer's bytes and their round trip."""

import numpy as np

from hybridlab.reporting import format_number, read_csv, write_csv


def _per_cell_join(header, columns) -> bytes:
    """The writer's reference spelling: each cell through format_number."""
    lines = [",".join(header)]
    lines += [",".join(format_number(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def test_csv_bytes_equal_per_cell_format(tmp_path):
    rng = np.random.default_rng(20)
    magnitudes = rng.standard_normal((3, 200)) * 10.0 ** rng.uniform(-8, 8, (3, 200))
    special = np.array([-0.0, 0.0, 1e-05, 5e-324, 1e308, -1e308, 0.1, 1.0, -2.5, 1e16])
    columns = [np.concatenate([m, np.roll(special, i)]) for i, m in enumerate(magnitudes)]
    header = ["t", "q2", "K"]
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    data = path.read_bytes()
    assert data == _per_cell_join(header, columns)
    for spelling in (b"1.0000000000000001e-05", b"-0,", b"4.9406564584124654e-324", b"1e+308"):
        assert spelling in data
    read_header, read = read_csv(path)
    assert read_header == header
    for name, col in zip(header, columns):
        assert np.array_equal(read[name], col)
        assert np.array_equal(np.signbit(read[name]), np.signbit(col))


def test_csv_with_no_rows_is_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "q"], [np.zeros(0), np.zeros(0)])
    assert path.read_bytes() == b"t,q\n"
