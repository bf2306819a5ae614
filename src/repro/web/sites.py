"""The website model: pages, embedded resources, links, redirects.

A :class:`Website` is what the crawler visits: a main page plus further
same-site pages reachable by links, each embedding first-party resources
(subdomains of the site) and third-party resources (shared services).
Scripts can pull in further resources, so dependency resolution is
recursive -- the "arbitrary depth" page loads the paper performs with a
real browser (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.web.resources import ResourceType


@dataclass(frozen=True)
class EmbeddedResource:
    """One resource reference on a page: where it lives and what it is."""

    fqdn: str
    resource_type: ResourceType

    def __post_init__(self) -> None:
        if not self.fqdn or "." not in self.fqdn:
            raise ValueError(f"implausible resource FQDN {self.fqdn!r}")


@dataclass
class Page:
    """One page of a website."""

    path: str
    resources: list[EmbeddedResource] = field(default_factory=list)
    internal_links: list[str] = field(default_factory=list)  # other paths

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError("page paths start with '/'")


@dataclass
class Website:
    """A crawlable website.

    Attributes:
        etld1: the registrable domain from the top list.
        rank: Tranco-style popularity rank (1 = most popular).
        main_host: FQDN serving the main page (usually ``www.etld1``).
        pages: path -> Page; ``/`` is the main page.
        redirects: FQDN-level redirects (e.g. apex -> www); the crawler
            follows chains through this map.
    """

    etld1: str
    rank: int
    main_host: str
    pages: dict[str, Page] = field(default_factory=dict)
    redirects: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank is 1-based")

    @property
    def main_page(self) -> Page:
        try:
            return self.pages["/"]
        except KeyError:
            raise KeyError(f"website {self.etld1} has no main page") from None

    def page(self, path: str) -> Page | None:
        return self.pages.get(path)
