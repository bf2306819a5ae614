"""The warehouse codec: pickled object graphs with ``.npz`` arrays.

Layer values (:class:`~repro.datasets.scenarios.ResidenceStudy`, the
census, the observatory, a whatif sweep) are arbitrary dataclass graphs
whose *weight* is almost entirely NumPy -- the flow monitors' column
logs, the columnar frames and their interning tables.  Persisting them
as one opaque pickle would bury those columns inside an unauditable
byte stream; persisting only the columns would lose the graph.  This
codec splits the difference:

* every non-object-dtype :class:`numpy.ndarray` reachable from the
  value is **externalized** into a single ``.npz`` member (named
  ``arr_0``, ``arr_1``, ... in first-appearance order), loadable with
  ``allow_pickle=False`` -- no code execution hides in the array file;
* the remaining graph is pickled with each externalized array replaced
  by a persistent-id reference, so the pickle stays small and the two
  files round-trip to the original object (shared arrays stay shared:
  one id, one ``.npz`` member, one loaded object).

Object-dtype arrays (none exist in the layer values today) stay inline
in the pickle: ``np.savez`` would need ``allow_pickle=True`` for them,
which would defeat the point of the split.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

import numpy as np

#: Filenames a serialized payload may consist of.
PAYLOAD_FILE = "payload.pkl"
ARRAYS_FILE = "arrays.npz"


class _ExternalizingPickler(pickle.Pickler):
    """Pickler that swaps ndarrays for persistent ids into an npz dict."""

    def __init__(self, buffer: io.BytesIO, arrays: dict[str, np.ndarray]) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays
        self._ids: dict[int, str] = {}

    def persistent_id(self, obj: Any) -> str | None:
        # ``persistent_id`` runs before the pickle memo, so shared
        # arrays must be deduplicated here or they would be stored (and
        # loaded) once per reference instead of once per object.
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            name = self._ids.get(id(obj))
            if name is None:
                name = f"arr_{len(self._arrays)}"
                self._ids[id(obj)] = name
                self._arrays[name] = obj
            return name
        return None


class _ExternalizedUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids from the loaded npz arrays."""

    def __init__(self, buffer: io.BytesIO, arrays: dict[str, np.ndarray]) -> None:
        super().__init__(buffer)
        self._arrays = arrays

    def persistent_load(self, pid: str) -> np.ndarray:
        try:
            return self._arrays[pid]
        except KeyError:
            raise pickle.UnpicklingError(
                f"payload references array {pid!r} missing from {ARRAYS_FILE}"
            ) from None


def dump_value(value: Any) -> dict[str, bytes]:
    """Serialize ``value`` into its payload files.

    Returns ``{"payload.pkl": ..., "arrays.npz": ...}``; the npz entry
    is omitted when the graph holds no externalizable arrays (cheap
    layers like the dependency analysis).
    """
    arrays: dict[str, np.ndarray] = {}
    buffer = io.BytesIO()
    _ExternalizingPickler(buffer, arrays).dump(value)
    files = {PAYLOAD_FILE: buffer.getvalue()}
    if arrays:
        npz = io.BytesIO()
        np.savez(npz, **arrays)
        files[ARRAYS_FILE] = npz.getvalue()
    return files


def load_value(files: dict[str, bytes]) -> Any:
    """Reassemble a value from :func:`dump_value`'s files."""
    arrays: dict[str, np.ndarray] = {}
    blob = files.get(ARRAYS_FILE)
    if blob is not None:
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    return _ExternalizedUnpickler(io.BytesIO(files[PAYLOAD_FILE]), arrays).load()
