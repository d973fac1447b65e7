"""The model checkpoint: one float64 member per named parameter in an
``.npz`` archive, in name order, so the same parameters always give the
same bytes. A damaged member fails its CRC check, and a NaN or an infinity,
which training never stores, is refused.
"""

from __future__ import annotations

import numpy as np

from .artifacts import _NpzArrays, _save_npz


def save_checkpoint(path, params: dict) -> None:
    """``params`` maps names to arrays or Tensors (anything with ``values``)."""
    _save_npz(path, **{name: np.asarray(getattr(params[name], "values", params[name]),
                                        dtype=np.float64) for name in sorted(params)})


def load_checkpoint(path) -> dict:
    with _NpzArrays(path) as z:
        stored = z.arrays()
    for name, values in stored.items():
        if values.dtype != np.float64:
            raise z.error(f"parameter {name} is of dtype {values.dtype}, not float64")
        if not np.all(np.isfinite(values)):
            raise z.error(f"parameter {name} holds a non-finite value")
    return stored
