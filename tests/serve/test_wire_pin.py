"""One digest over every byte a warmed service answers a fixed matrix with.

The matrix covers what the serve tier derives or encodes per request:
``/v1/events`` filters (several ``since`` days x every contrast country,
the ``*`` scope and no country x every severity), every contrast row and
the hot artifacts.  Each target is asked as identity, as gzip and as
``HEAD`` (rotating which comes first, so each variant meets a miss
somewhere), then revalidated with ``If-None-Match``.  The digest folds in
the method, target, request headers, status, response headers and a
SHA-256 of the body, so any changed byte, header or status moves it.
"""

import hashlib

import pytest

from repro.api import StudyConfig, clear_caches
from repro.sentinel.config import SEVERITIES
from repro.serve import ArtifactService
from repro.store import set_store

CONFIG = StudyConfig(days=14, sites=200, probe_targets=100, parallel=False)

#: The artifacts the matrix's service warms and serves whole.
HOT = ("contrast", "obs_availability", "table1", "sentinel_events")

#: The feed's events fall on days 3, 10 and 12 at this config.
SINCE = (0, 4, 11, 13)

PINNED = "88e725d670008a323ccc0071e5acbcffe5aa4add9554384a71c7be3e29139d87"

VARIANTS = (("GET", {}), ("GET", {"Accept-Encoding": "gzip"}), ("HEAD", {}))


@pytest.fixture(autouse=True)
def _no_ambient_store():
    set_store(None)
    yield
    set_store(None)


def targets(service: ArtifactService) -> list[str]:
    countries = (*service.countries, "*", None)
    events = [
        f"/v1/events?since={since}&min_severity={severity}"
        + (f"&country={country}" if country is not None else "")
        for since in SINCE
        for country in countries
        for severity in SEVERITIES
    ]
    contrast = [f"/v1/contrast/{country}" for country in service.countries]
    return [*events, *contrast, *(f"/v1/artifact/{name}" for name in HOT)]


def matrix_digest(service: ArtifactService) -> str:
    digest = hashlib.sha256()

    def ask(method: str, target: str, headers: dict[str, str]):
        response = service.handle(method, target, headers)
        record = (method, target, sorted(headers.items()), response.status, response.headers)
        digest.update(repr(record).encode("utf-8"))
        digest.update(hashlib.sha256(response.body).digest())
        return response

    for index, target in enumerate(targets(service)):
        turn = index % len(VARIANTS)
        responses = [
            ask(method, target, headers)
            for method, headers in (*VARIANTS[turn:], *VARIANTS[:turn])
        ]
        etag = responses[0].header("ETag")
        assert etag is not None and all(r.header("ETag") == etag for r in responses)
        assert ask("GET", target, {"If-None-Match": etag}).status == 304
    return digest.hexdigest()


def test_the_served_matrix_is_pinned():
    clear_caches()
    service = ArtifactService(CONFIG, store=None)
    assert service.warm(HOT) == len(HOT)
    assert matrix_digest(service) == PINNED
