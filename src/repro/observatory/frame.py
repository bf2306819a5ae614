"""ProbeFrame: a columnar (NumPy structured-array) view of probe rounds.

Mirrors :class:`repro.flowmon.frame.FlowFrame`: every probe lands as one
row of a structured array with interned vantage / country / target ids,
so the per-country availability tables, the takeoff series, and the
three-way contrast are ``np.bincount`` group-bys over integer codes
instead of Python loops over result objects.

Rows are in **canonical order** -- round-major, then vantage points in
fleet order, then targets in rank order -- which is the order the
sequential round runner emits and the order the parallel runner
reassembles, so the two are bit-identical for a fixed seed (pinned by
``tests/observatory``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.net.addr import Family
from repro.observatory.probe import ProbeVerdict

#: The columnar layout.  ``vantage`` / ``country`` / ``target`` index the
#: frame's interning tables; ``client_family`` is 4/6 or 0 (no winner);
#: ``connect_ms`` is the v6 race's connect time (NaN when it never won).
PROBE_DTYPE = np.dtype(
    [
        ("round", np.int16),
        ("day", np.int32),
        ("vantage", np.int16),
        ("country", np.int16),
        ("target", np.int32),
        ("rank", np.int32),
        ("verdict", np.int8),
        ("aaaa", np.int8),
        ("synth", np.int8),
        ("client_family", np.int8),
        ("connect_ms", np.float64),
    ]
)


@dataclass
class ProbeFrame:
    """All probe rounds of one observatory run, as parallel columns.

    Attributes:
        data: the structured array (:data:`PROBE_DTYPE`), one row per
            probe, in canonical round/vantage/target order.
        vantages: interned vantage names, in fleet order.
        countries: interned country codes, in fleet first-appearance
            order; row ``country`` values index into this tuple.
        targets: interned target eTLD+1 strings, in rank order.
    """

    data: np.ndarray
    vantages: tuple[str, ...] = ()
    countries: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()

    # -- construction -----------------------------------------------------

    @classmethod
    def assemble(
        cls,
        vantage_names: tuple[str, ...],
        countries: tuple[str, ...],
        target_names: tuple[str, ...],
        blocks: Iterable[np.ndarray],
    ) -> "ProbeFrame":
        """Concatenate per-(round, vantage) blocks in canonical order.

        The caller guarantees ``blocks`` is already round-major then
        fleet-ordered, and that the ``vantage``/``country``/``target``
        codes inside the blocks index the naming tables passed here
        (:func:`repro.observatory.rounds.fleet_country_codes` is the one
        place the country interning is computed); this just glues.
        """
        parts = list(blocks)
        data = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=PROBE_DTYPE)
        )
        return cls(
            data=data,
            vantages=vantage_names,
            countries=countries,
            targets=target_names,
        )

    # -- basic shape -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def round(self) -> np.ndarray:
        return self.data["round"]

    @property
    def day(self) -> np.ndarray:
        return self.data["day"]

    @property
    def vantage(self) -> np.ndarray:
        return self.data["vantage"]

    @property
    def country(self) -> np.ndarray:
        return self.data["country"]

    @property
    def target(self) -> np.ndarray:
        return self.data["target"]

    @property
    def rank(self) -> np.ndarray:
        return self.data["rank"]

    @property
    def verdict(self) -> np.ndarray:
        return self.data["verdict"]

    @property
    def available(self) -> np.ndarray:
        """The binary "IPv6 available" bit per probe."""
        return self.data["verdict"] == ProbeVerdict.V6_OK.value

    @property
    def aaaa(self) -> np.ndarray:
        return self.data["aaaa"] == 1

    @property
    def synthesized(self) -> np.ndarray:
        return self.data["synth"] == 1

    @property
    def client_used_v6(self) -> np.ndarray:
        return self.data["client_family"] == Family.V6.value

    @property
    def connect_ms(self) -> np.ndarray:
        return self.data["connect_ms"]

    @property
    def num_rounds(self) -> int:
        return int(self.data["round"].max()) + 1 if self.data.size else 0

    # -- selection ---------------------------------------------------------

    def select(
        self,
        round_index: int | None = None,
        country: str | None = None,
        vantage: str | None = None,
    ) -> "ProbeFrame":
        """A filtered view sharing this frame's interning tables."""
        mask = np.ones(self.data.size, dtype=bool)
        if round_index is not None:
            mask &= self.data["round"] == round_index
        if country is not None:
            mask &= self.data["country"] == self.countries.index(country)
        if vantage is not None:
            mask &= self.data["vantage"] == self.vantages.index(vantage)
        return ProbeFrame(
            data=self.data[mask],
            vantages=self.vantages,
            countries=self.countries,
            targets=self.targets,
        )

    def mask(self, mask: np.ndarray) -> "ProbeFrame":
        """A boolean-mask view sharing this frame's interning tables."""
        return ProbeFrame(
            data=self.data[mask],
            vantages=self.vantages,
            countries=self.countries,
            targets=self.targets,
        )
