"""Reproduction of "Towards a Non-Binary View of IPv6 Adoption" (IMC 2025).

The paper asks *how much* IPv6 is actually used -- by households, by
websites, by cloud tenants -- instead of the binary "is IPv6 possible?".
This package implements the full measurement stack over a synthetic
Internet: the substrates (addresses, BGP, DNS, PSL, Happy Eyeballs, a
conntrack flow monitor, a residential traffic model, a web
ecosystem with cloud tenancy, an OpenWPM-style crawler) and the paper's
analyses (Table 1 household statistics, MSTL decomposition, graded website
readiness, dependency span/contribution, cloud/service adoption and the
multi-cloud Wilcoxon comparison).

The supported entry point is :class:`repro.api.Study` -- a lazy, memoized
session over the three measurement perspectives -- plus the artifact
registry behind ``python -m repro``::

    from repro.api import Study

    study = Study(days=28, sites=1500)
    print(study.artifact("table1").to_text())   # or .to_json()
    print(study.artifact("fig5").to_text())

    python -m repro list                        # every registered artifact
    python -m repro all --days 14 --sites 800 --format json

Importing analysis functions straight from :mod:`repro.core` (for example
``from repro.core import compute_residence_stats``) still works and is the
right layer for new *analyses*, but callers composing artifacts should go
through :class:`repro.api.Study`: direct ``core`` wiring bypasses the
session's build memoization and the registry's text/JSON rendering, and
the ad-hoc build-then-render pattern it encouraged is deprecated.
"""

__version__ = "1.5.0"
