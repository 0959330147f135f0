"""Deterministic CSV/JSON writers: same data in, same bytes out.

This module is the one place that turns a value into text, and
``write_outputs`` is the one place that writes a command's files.  A CSV
column is formatted as a whole, by the kind of its numpy dtype: booleans
as ``true``/``false``, floats with 17 significant digits (a lossless round
trip) and NaN as an empty cell, anything else, integers included, by
``str``, so a uint64 seed is written exactly.  JSON goes through
``json.dump``; numpy arrays and scalars reach it through ``.tolist()``.

Each CLI command returns the tuple ``(outputs, ok, line)``.  Its
``outputs`` map a file name to its data, in write order: a ``.json`` name
maps to a dict, any other name to a CSV ``(header, columns)`` pair.
``write_outputs`` writes them all, after the command's computation is done.
"""

import contextlib
import json
import os

import numpy as np

from .errors import ConfigError


def fmt(x) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _column_text(column) -> list:
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "b":
        return np.where(values, "true", "false").tolist()
    if kind == "f":
        return ["" if v != v else format(v, ".17g") for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def write_csv(file_path, header, columns) -> None:
    """Write equal-length columns as CSV, each formatted by its dtype."""
    with open(file_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*map(_column_text, columns)):
            fh.write(",".join(row) + "\n")


def _tolist(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(file_path, obj) -> None:
    with open(file_path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")


def write_outputs(out_dir, outputs: dict) -> list:
    """Create ``out_dir`` and write each of ``outputs`` (file name -> data)
    into it, in order: a ``.json`` name's dict by ``write_json``, any other
    name's ``(header, columns)`` pair by ``write_csv``.  Returns the paths.

    A directory or file that cannot be written is a configuration error
    that names it, and the files this call opened are removed: those
    written before it and, when a write fails after its ``open``, the
    truncated file itself.
    """
    paths, path = [], out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, data in outputs.items():
            path = os.path.join(out_dir, name)
            if name.endswith(".json"):
                write_json(path, data)
            else:
                write_csv(path, *data)
            paths.append(path)
    except OSError as e:
        if e.filename is None:      # raised by a write, not by open or mkdir
            paths.append(path)
        for written in paths:
            with contextlib.suppress(OSError):
                os.remove(written)
        raise ConfigError(f"cannot write {path!r}: {e}")
    return paths
