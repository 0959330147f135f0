"""Deterministic CSV/JSON writers: same data in, same bytes out."""

import json
import os

import numpy as np

from .errors import ConfigError


def fmt(x) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def write_csv(file_path, header, columns) -> None:
    """Write equal-length columns as CSV; floats at full precision."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    with open(file_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(n):
            cells = []
            for c in columns:
                v = c[k]
                if isinstance(v, (str, np.str_)):
                    cells.append(str(v))
                elif isinstance(v, (bool, np.bool_)):
                    cells.append("true" if v else "false")
                elif v is None:
                    cells.append("")
                else:
                    cells.append(fmt(v))
            fh.write(",".join(cells) + "\n")


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
