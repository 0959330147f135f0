"""The writers' one value-to-text rule: a CSV column is formatted by its
dtype, and JSON numpy values go through ``json.dump``."""

import hashlib

import numpy as np

from settlekit.fileio import write_csv, write_json


def csv_rows(tmp_path, header, columns) -> list:
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    return path.read_text().splitlines()


def test_uint64_column_is_written_exactly(tmp_path):
    seeds = np.array([0, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    assert csv_rows(tmp_path, ["seed"], [seeds]) == \
        ["seed", "0", "9223372036854775809", "18446744073709551615"]


def test_floats_keep_17_digits_and_nan_is_an_empty_cell(tmp_path):
    times = np.array([1.408, np.nan, -0.0, np.inf, 5e-324])
    assert csv_rows(tmp_path, ["i", "t"], [np.arange(5), times]) == \
        ["i,t", "0,1.4079999999999999", "1,", "2,-0", "3,inf",
         "4,4.9406564584124654e-324"]


def test_booleans_and_integers(tmp_path):
    flags = np.array([True, False])
    ints = np.array([-3, 2**62 + 1], dtype=np.int64)
    assert csv_rows(tmp_path, ["ok", "n"], [flags, ints]) == \
        ["ok,n", "true,-3", "false,4611686018427387905"]


def test_json_of_numpy_values_keeps_its_bytes(tmp_path):
    # digest of the bytes written when write_json copied the document into
    # plain Python values before dumping it
    obj = {"f": np.float64(0.1), "i": np.int64(-7), "b": np.bool_(True),
           "a": np.array([1.5, -0.0, 1e300]), "t": (1, 2.5, "x"),
           "nested": {"u": np.uint64(2**63 + 1), "ai": np.arange(3)}}
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c8fa6ed575cdcbc362083ce7e98f2fb1764811de6d13aa88db471e4a02a0d507"
