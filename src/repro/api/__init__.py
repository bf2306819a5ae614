"""The supported public surface of the reproduction.

One session object, :class:`Study`, owns scale and seed and lazily
builds each expensive layer exactly once; a registry of named artifacts
covers every figure and table of the paper and renders each to text or
JSON from a single analysis pass::

    from repro.api import Study

    study = Study(days=28, sites=1500, seed=42)
    print(study.artifact("table1").to_text())
    print(study.artifact("fig5").to_json())

    from repro.api import registry
    registry.names()        # every artifact the CLI can produce

New analyses register themselves with :func:`repro.api.registry.artifact`
and immediately appear in ``python -m repro list``.
"""

from repro.api.registry import ArtifactResult, ArtifactSpec, artifact, jsonify
from repro.api.session import Study, StudyConfig, clear_caches, prime_caches

__all__ = [
    "ArtifactResult",
    "ArtifactSpec",
    "Study",
    "StudyConfig",
    "artifact",
    "clear_caches",
    "jsonify",
    "prime_caches",
]
