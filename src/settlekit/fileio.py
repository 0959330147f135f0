"""Deterministic CSV/JSON writers: same data in, same bytes out."""

import json
import os

import numpy as np

from .errors import ConfigError


def fmt(x) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    if isinstance(v, (str, np.str_)):
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    return fmt(v)


def write_csv(file_path, header, columns) -> None:
    """Write equal-length columns as CSV; floats at full precision."""
    # tolist() turns numeric columns into Python scalars; object columns
    # keep their elements, which may be numpy scalars
    cells = [[_cell(v) for v in np.asarray(c).tolist()] for c in columns]
    with open(file_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cells):
            fh.write(",".join(row) + "\n")


def _plain(obj):
    """Convert numpy scalars/arrays to plain python for json.dump."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(file_path, obj) -> None:
    with open(file_path, "w") as fh:
        json.dump(_plain(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path) -> None:
    """Create the output directory; a path that cannot be one is a
    configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path!r}: {e}")
