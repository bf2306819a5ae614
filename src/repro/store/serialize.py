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
* the remaining graph is pickled with each externalized array reduced
  to a ``_stored_array(name)`` call, so the pickle stays small and the
  two files round-trip to the original object (shared arrays stay
  shared: the pickle memo writes one call, one ``.npz`` member, and
  loads one object).

The encode is the pickler's ``dispatch_table``: it maps ``np.ndarray``
to the reducer, so the pickler makes a Python call only for arrays, not
for every object it visits.  The decode resolves ``_stored_array`` to a
lookup in the loaded npz members (``find_class``); called any other way,
``_stored_array`` raises.  It runs with the cyclic garbage collector
paused: the unpickler allocates the whole graph and frees almost
nothing, so a collection it triggers finds no garbage, only cost (over
half of a census load, with the collector on).

Neither side may hold itself in a reference cycle: the reducer and the
decode's lookup are closures over the arrays dict, never bound methods.
A bound method in the pickler's own dispatch table would keep the
pickler and its memo -- as large as the graph -- alive until the next
collection.

Object-dtype arrays (none exist in the layer values today) keep their
own reduction and stay inline in the pickle: ``np.savez`` would need
``allow_pickle=True`` for them, which would defeat the point of the
split.
"""

from __future__ import annotations

import copyreg
import gc
import io
import pickle
from typing import Any

import numpy as np

#: Filenames a serialized payload may consist of.
PAYLOAD_FILE = "payload.pkl"
ARRAYS_FILE = "arrays.npz"


def _stored_array(name: str) -> np.ndarray:
    """The global a payload names for each externalized array; only
    :func:`load_value` resolves it (to the npz member ``name``)."""
    raise pickle.UnpicklingError(
        f"array {name!r} lives in {ARRAYS_FILE}: load payloads with load_value"
    )


class _ExternalizingPickler(pickle.Pickler):
    """Pickler that reduces ndarrays to :func:`_stored_array` calls,
    collecting each array into ``arrays`` under its npz member name."""

    def __init__(self, buffer: io.BytesIO, arrays: dict[str, np.ndarray]) -> None:
        def reduce_array(array: np.ndarray) -> tuple:
            if array.dtype.hasobject:
                return array.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            name = f"arr_{len(arrays)}"
            arrays[name] = array
            return _stored_array, (name,)

        # Read by the base initializer, so it is set first.
        self.dispatch_table = {**copyreg.dispatch_table, np.ndarray: reduce_array}
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)


class _ExternalizedUnpickler(pickle.Unpickler):
    """Unpickler resolving :func:`_stored_array` to the loaded npz arrays."""

    def __init__(self, buffer: io.BytesIO, arrays: dict[str, np.ndarray]) -> None:
        super().__init__(buffer)

        def stored_array(name: str) -> np.ndarray:
            try:
                return arrays[name]
            except KeyError:
                raise pickle.UnpicklingError(
                    f"payload references array {name!r} missing from {ARRAYS_FILE}"
                ) from None

        self._stored_array = stored_array

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_stored_array":
            return self._stored_array
        return super().find_class(module, name)


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
    unpickler = _ExternalizedUnpickler(io.BytesIO(files[PAYLOAD_FILE]), arrays)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return unpickler.load()
    finally:
        if enabled:
            gc.enable()
