"""The AS registry and AS-to-Organization mapping.

The paper attributes traffic and hosted domains to autonomous systems and
then maps AS numbers to organizations using CAIDA's as2org dataset.  This
module plays both roles for the synthetic universe:

* :class:`AsRegistry` records every AS with its name, organization, and a
  functional category (the manual grouping behind the paper's Figure 4).
* The registry deliberately supports *multiple ASes per organization*
  (Amazon's AMAZON-02 and AMAZON-AES; Akamai's AS20940 and AS16625) and
  *split-brand organizations* (the Bunnyway/Datacamp partnership in
  section 5.1) so the attribution pitfalls the paper discusses are
  reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AsCategory(enum.Enum):
    """Functional AS grouping used in the paper's Figure 4."""

    HOSTING_CLOUD = "Hosting and Cloud Provider"
    SOFTWARE = "Software Development"
    ISP = "ISP"
    WEB_SOCIAL = "Web and Social Media"
    OTHER = "Other"


@dataclass(frozen=True)
class Organization:
    """An organization owning one or more ASes (as2org's unit)."""

    org_id: str
    name: str


@dataclass(frozen=True)
class AsInfo:
    """A single autonomous system."""

    asn: int
    name: str
    organization: Organization
    category: AsCategory = AsCategory.OTHER

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"AS number must be positive, got {self.asn}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name} (AS{self.asn})"


@dataclass
class AsRegistry:
    """Registry of ASes with organization lookup.

    This is the synthetic stand-in for CAIDA's AS-to-Organization dataset:
    given an origin AS from the routing table, analyses resolve the owning
    organization here.
    """

    _by_asn: dict[int, AsInfo] = field(default_factory=dict)
    _orgs: dict[str, Organization] = field(default_factory=dict)

    def register_org(self, org_id: str, name: str) -> Organization:
        """Create (or return the existing) organization ``org_id``."""
        existing = self._orgs.get(org_id)
        if existing is not None:
            if existing.name != name:
                raise ValueError(
                    f"organization {org_id!r} already registered as {existing.name!r}"
                )
            return existing
        org = Organization(org_id=org_id, name=name)
        self._orgs[org_id] = org
        return org

    def register(
        self,
        asn: int,
        name: str,
        org_id: str,
        org_name: str | None = None,
        category: AsCategory = AsCategory.OTHER,
    ) -> AsInfo:
        """Register an AS under an organization.

        Args:
            asn: the AS number (positive).
            name: the AS name as it appears in whois (e.g. ``AMAZON-02``).
            org_id: organization key; multiple ASes may share it.
            org_name: display name for the organization; defaults to the
                AS name when the organization is first created.
            category: functional grouping for Figure 4.
        """
        if asn in self._by_asn:
            raise ValueError(f"AS{asn} already registered")
        existing = self._orgs.get(org_id)
        if existing is not None and org_name is None:
            org = existing  # joining an org registered by an earlier AS
        else:
            org = self.register_org(org_id, org_name if org_name is not None else name)
        info = AsInfo(asn=asn, name=name, organization=org, category=category)
        self._by_asn[asn] = info
        return info

    def lookup(self, asn: int) -> AsInfo | None:
        return self._by_asn.get(asn)

    def organization_of(self, asn: int) -> Organization | None:
        info = self._by_asn.get(asn)
        return info.organization if info else None

    def ases_of_org(self, org_id: str) -> list[AsInfo]:
        return [info for info in self._by_asn.values() if info.organization.org_id == org_id]

    def all_ases(self) -> list[AsInfo]:
        return sorted(self._by_asn.values(), key=lambda info: info.asn)

    def __len__(self) -> int:
        return len(self._by_asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn
