"""The request grammar, pinned: every route with valid and invalid targets.

Each row is one ``GET`` target, the status it answers, and the fields of
its JSON body that describe the grammar to a client: the ``error`` text,
and the ``known``, ``did_you_mean``, ``countries`` and ``endpoints``
lists.  A field the body lacks must stay absent.  Seeded property tests
then fuzz the one query parser and the routes that build nothing.
"""

from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import StudyConfig
from repro.serve import ArtifactService, ServiceError
from repro.serve.service import ROUTES, parse_query
from repro.store import set_store

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)

FIELDS = ("error", "known", "did_you_mean", "countries", "endpoints")

ENDPOINTS = [
    "/healthz", "/metrics", "/v1/artifacts", "/v1/artifact/<name>",
    "/v1/contrast/<country>", "/v1/events", "/v1/profile", "/v1/trace",
]
CONFIG_KNOWN = [
    "scale", "days", "sites", "seed", "link_clicks", "probe_targets",
    "probe_interval_days",
]
COUNTRIES = ["AU", "BR", "CN", "DE", "FR", "IN", "JP", "NL", "US", "ZA"]


def unknown_path(path):
    return {"error": f"unknown path {path!r}", "endpoints": ENDPOINTS}


def bad_artifact_path(name):
    return {"error": f"bad artifact path {name!r}", "endpoints": ENDPOINTS}


def unknown_parameter(name, known, *close):
    fields = {"error": f"unknown parameter {name!r}", "known": known}
    if close:
        fields["did_you_mean"] = list(close)
    return fields


def repeated(name):
    return {"error": f"parameter {name!r} is repeated"}


def unknown_country(country, *close):
    fields = {"error": f"unknown country {country!r}", "countries": COUNTRIES}
    if close:
        fields["did_you_mean"] = list(close)
    return fields


CORPUS = [
    # /healthz
    ("/healthz", 200, {}),
    ("/healthz/", 200, {}),
    ("/health", 404, unknown_path("/health")),
    ("/healthz?x=1", 400, unknown_parameter("x", [])),
    # /metrics
    ("/metrics", 200, {}),
    ("/metrics/", 200, {}),
    ("/metrics?x=1", 400, unknown_parameter("x", [])),
    ("/metrics?format=json", 400, unknown_parameter("format", [])),
    # /v1/artifacts
    ("/v1/artifacts", 200, {"endpoints": ENDPOINTS}),
    ("/v1/artifacts/", 200, {"endpoints": ENDPOINTS}),
    ("/v1/artifacts?x=1", 400, unknown_parameter("x", [])),
    # /v1/artifact/<name>
    ("/v1/artifact/table1", 200, {}),
    ("/v1/artifact/table1/", 200, {}),
    ("/v1/artifact/tabel1", 404, {
        "error": "unknown artifact 'tabel1'",
        "did_you_mean": ["table1", "table3", "table2"],
    }),
    ("/v1/artifact/", 404, bad_artifact_path("")),
    ("/v1/artifact/a/b", 404, bad_artifact_path("a/b")),
    ("/v1/artifact/table1?dayz=3", 400, {
        "error": "unknown parameter 'dayz'",
        "known": CONFIG_KNOWN,
        "did_you_mean": ["days"],
    }),
    ("/v1/artifact/table1?days=soon", 400, {
        "error": "parameter 'days' needs an integer, got 'soon'",
    }),
    ("/v1/artifact/table1?days=0", 400, {"error": "days must be >= 1"}),
    ("/v1/artifact/table1?scale=galactic", 400, {
        "error": "unknown scale 'galactic'", "known": ["bench", "cli", "paper"],
    }),
    ("/v1/artifact/table1?days=4&days=4", 400, repeated("days")),
    ("/v1/artifact/table1?days=3&days=5", 400, repeated("days")),
    ("/v1/artifact/tabel1?sitez=9", 400,
     unknown_parameter("sitez", CONFIG_KNOWN, "sites")),
    # /v1/contrast/<country>
    ("/v1/contrast/DE", 200, {}),
    ("/v1/contrast/de", 200, {}),
    ("/v1/contrast/DE/", 200, {}),
    ("/v1/contrast/XX", 404, unknown_country("XX")),
    ("/v1/contrast/D", 404, unknown_country("D", "DE")),
    ("/v1/contrast/", 404, unknown_country("")),
    ("/v1/contrast/XX?dayz=1", 400, {
        "error": "unknown parameter 'dayz'",
        "known": CONFIG_KNOWN,
        "did_you_mean": ["days"],
    }),
    ("/v1/contrast/DE?days=4&days=4", 400, repeated("days")),
    # /v1/events
    ("/v1/events", 200, {}),
    ("/v1/events/", 200, {}),
    ("/v1/events?since=2&country=de&min_severity=elevated", 200, {}),
    ("/v1/events?country=XX", 200, {}),
    ("/v1/events?since=nope", 400, {
        "error": "parameter 'since' needs an integer, got 'nope'",
    }),
    ("/v1/events?since=-1", 400, {"error": "'since' must be >= 0"}),
    ("/v1/events?min_severity=bogus", 400, {
        "error": "unknown severity 'bogus'",
        "known": ["watch", "elevated", "critical"],
    }),
    ("/v1/events?country=", 400, {
        "error": "parameter 'country' must not be empty",
    }),
    ("/v1/events?country=%20", 400, {
        "error": "parameter 'country' must not be empty",
    }),
    ("/v1/events?sinse=3", 400, unknown_parameter(
        "sinse", ["since", "country", "min_severity", *CONFIG_KNOWN],
        "since", "sites",
    )),
    ("/v1/events?since=1&since=2", 400, repeated("since")),
    ("/v1/events?scale=galactic", 400, {
        "error": "unknown scale 'galactic'", "known": ["bench", "cli", "paper"],
    }),
    # /v1/profile
    ("/v1/profile", 200, {}),
    ("/v1/profile/", 200, {}),
    ("/v1/profile?span=serve:request&format=tree&last=3", 200, {}),
    ("/v1/profile?span=", 400, {"error": "parameter 'span' must not be empty"}),
    ("/v1/profile?span=%20", 400, {
        "error": "parameter 'span' must not be empty",
    }),
    ("/v1/profile?format=nope", 400, {
        "error": "unknown format 'nope'", "known": ["tree", "speedscope"],
    }),
    ("/v1/profile?last=-1", 400, {"error": "'last' must be >= 0"}),
    ("/v1/profile?spans=x", 400,
     unknown_parameter("spans", ["span", "format", "last"], "span")),
    ("/v1/profile?last=1&last=2", 400, repeated("last")),
    # /v1/trace
    ("/v1/trace", 200, {}),
    ("/v1/trace/", 200, {}),
    ("/v1/trace?last=5", 200, {}),
    ("/v1/trace?last=soon", 400, {
        "error": "parameter 'last' needs an integer, got 'soon'",
    }),
    ("/v1/trace?page=2", 400, {
        "error": "unknown parameter 'page'", "known": ["last"],
    }),
    ("/v1/trace?lst=2", 400, unknown_parameter("lst", ["last"], "last")),
    ("/v1/trace?last=1&last=2", 400, repeated("last")),
    # no route
    ("/v2/nope", 404, unknown_path("/v2/nope")),
    ("/", 404, unknown_path("/")),
    ("/v1/artifactz", 404, unknown_path("/v1/artifactz")),
]


@pytest.fixture(autouse=True)
def _no_ambient_store():
    set_store(None)
    yield
    set_store(None)


@pytest.fixture(scope="module")
def service():
    return ArtifactService(CONFIG, store=None)


def grammar_fields(response) -> dict:
    """The corpus fields of a response's JSON body (none for text bodies)."""
    if not response.header("Content-Type").startswith("application/json"):
        return {}
    body = response.json()
    return {key: body[key] for key in FIELDS if key in body}


@pytest.mark.parametrize(
    ("target", "status", "fields"), CORPUS, ids=[row[0] for row in CORPUS]
)
def test_corpus(service, target, status, fields):
    response = service.handle("GET", target)
    assert (response.status, grammar_fields(response)) == (status, fields)


# -- fuzzing ------------------------------------------------------------------

NAMES = sorted({name for route in ROUTES for name in route.declared})


def queries():
    """Query strings: pairs of (mostly declared) names and raw values,
    encoded or not, and arbitrary text."""
    name = st.one_of(st.sampled_from(NAMES), st.text(max_size=6))
    value = st.one_of(
        st.integers(-3, 10**6).map(str),
        st.sampled_from(["", " ", "tree", "speedscope", "watch", "critical",
                         "cli", "paper", "de", "serve:request", "1.5", "0x10"]),
        st.text(max_size=8),
    )
    pairs = st.lists(st.tuples(name, value), max_size=5)
    return st.one_of(
        pairs.map(urlencode),
        pairs.map(lambda items: "&".join(f"{k}={v}" for k, v in items)),
        st.text(max_size=40),
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(route=st.sampled_from(ROUTES), query=queries())
def test_parser_returns_typed_arguments_or_a_400(route, query):
    try:
        arguments, config = parse_query(route, query, CONFIG)
    except ServiceError as error:
        assert error.status == 400 and error.payload["error"]
        return
    assert list(arguments) == [param.name for param in route.params]
    for param in route.params:
        value = arguments[param.name]
        if value == param.default:
            continue
        if param.kind == "count":
            assert isinstance(value, int) and value >= 0
        elif param.kind == "text":
            assert isinstance(value, str) and value.strip()
        else:
            assert value in param.kind
    assert isinstance(config, StudyConfig)
    assert route.config or config is CONFIG


@settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    route=st.sampled_from([route for route in ROUTES if not route.config]),
    slash=st.booleans(),
    query=queries(),
)
def test_routes_that_build_nothing_answer_below_500(service, route, slash, query):
    target = route.path + ("/" if slash else "") + (f"?{query}" if query else "")
    assert service.handle("GET", target).status < 500
