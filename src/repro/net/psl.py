"""The Public Suffix List algorithm and eTLD+1 extraction.

The paper bounds same-site link clicks and classifies first- versus
third-party resources by eTLD+1: "a domain name consisting of one label and
a public suffix as defined by the Public Suffix List" (section 4.1).  This
module implements the PSL matching algorithm in full -- normal rules,
wildcard rules (``*.ck``), and exception rules (``!www.ck``) -- over an
embedded snapshot of the suffixes the synthetic universe uses.

Matching follows https://publicsuffix.org/list/:

1. among rules matching the domain, exception rules beat normal rules;
2. otherwise the longest (most labels) matching rule wins;
3. if nothing matches, the implicit rule ``*`` applies (the last label is
   the public suffix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The suffix snapshot shipped with the repo.  A miniature of the real PSL:
#: generic TLDs, the ccTLDs and second-level registries our universe uses,
#: one wildcard family and its exception (the classic ``ck`` example), and
#: private-section entries for cloud platform suffixes (which make each
#: tenant of e.g. S3 its own "site", exactly as the real PSL does).
DEFAULT_SUFFIX_RULES = (
    # Generic TLDs.
    "com", "net", "org", "io", "dev", "app", "info", "biz", "edu", "gov",
    "mil", "cloud", "online", "site", "store", "tech", "tv", "cc", "ws",
    "me", "co", "ai", "us",
    # Country codes with registrations at the second level.
    "uk", "co.uk", "org.uk", "ac.uk", "gov.uk",
    "jp", "co.jp", "ne.jp", "or.jp",
    "au", "com.au", "net.au", "org.au",
    "br", "com.br", "net.br",
    "in", "co.in", "net.in",
    "cn", "com.cn", "net.cn",
    "de", "fr", "nl", "es", "it", "pl", "ro", "gr", "pt", "hu", "be",
    "at", "se", "no", "fi", "ca", "mx", "il", "tr", "id", "vn",
    # Wildcard + exception, per the PSL spec's canonical example.
    "ck", "*.ck", "!www.ck",
    # Private-section cloud suffixes: every tenant label is its own site.
    "s3.amazonaws.example", "cloudfront.example-cdn.net",
    "github-pages.example-host.io",
)


@dataclass(frozen=True)
class _Rule:
    labels: tuple[str, ...]
    is_exception: bool
    is_wildcard: bool

    @property
    def num_labels(self) -> int:
        return len(self.labels)


def _parse_rule(text: str) -> _Rule:
    text = text.strip().lower()
    is_exception = text.startswith("!")
    if is_exception:
        text = text[1:]
    labels = tuple(text.split("."))
    if not all(labels):
        raise ValueError(f"malformed PSL rule {text!r}")
    return _Rule(labels=labels, is_exception=is_exception, is_wildcard="*" in labels)


def _rule_matches(rule: _Rule, labels: tuple[str, ...]) -> bool:
    """PSL matching: compare right-to-left; ``*`` matches any one label."""
    if len(labels) < rule.num_labels:
        return False
    for rule_label, domain_label in zip(reversed(rule.labels), reversed(labels)):
        if rule_label != "*" and rule_label != domain_label:
            return False
    return True


@dataclass
class PublicSuffixList:
    """A PSL engine over a set of rules.

    Lookups are memoized per input string: rule matching is pure in the
    rule set, and the census/crawler paths resolve the same domains many
    thousands of times.  :meth:`add_rule` invalidates the caches.
    """

    rules: list[_Rule] = field(default_factory=list)
    _suffix_cache: dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )
    _etld_cache: dict[str, str | None] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_rules(cls, rules: tuple[str, ...] | list[str]) -> "PublicSuffixList":
        return cls(rules=[_parse_rule(rule) for rule in rules])

    def __getstate__(self) -> dict:
        # The rules only: the caches memoize this process's lookups.
        return {"rules": self.rules}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def add_rule(self, rule: str) -> None:
        self.rules.append(_parse_rule(rule))
        self._suffix_cache.clear()
        self._etld_cache.clear()

    def public_suffix(self, domain: str) -> str:
        """The public suffix of ``domain`` per the PSL algorithm."""
        cached = self._suffix_cache.get(domain)
        if cached is not None:
            return cached
        labels = tuple(domain.strip().rstrip(".").lower().split("."))
        if not all(labels):
            raise ValueError(f"malformed domain {domain!r}")
        best: _Rule | None = None
        exception: _Rule | None = None
        for rule in self.rules:
            if not _rule_matches(rule, labels):
                continue
            if rule.is_exception:
                if exception is None or rule.num_labels > exception.num_labels:
                    exception = rule
            elif best is None or rule.num_labels > best.num_labels:
                best = rule
        if exception is not None:
            # The exception's suffix is the rule minus its leftmost label.
            suffix_len = exception.num_labels - 1
        elif best is not None:
            suffix_len = best.num_labels
        else:
            suffix_len = 1  # implicit "*" rule
        suffix_len = min(suffix_len, len(labels))
        suffix = ".".join(labels[-suffix_len:])
        self._suffix_cache[domain] = suffix
        return suffix

    def etld_plus_one(self, domain: str) -> str | None:
        """The registrable domain (eTLD+1), or ``None`` when ``domain``
        is itself a public suffix (nothing is registrable)."""
        if domain in self._etld_cache:
            return self._etld_cache[domain]
        labels = tuple(domain.strip().rstrip(".").lower().split("."))
        suffix = self.public_suffix(domain)
        suffix_len = len(suffix.split("."))
        if len(labels) <= suffix_len:
            result = None
        else:
            result = ".".join(labels[-(suffix_len + 1):])
        self._etld_cache[domain] = result
        return result

    def same_site(self, domain_a: str, domain_b: str) -> bool:
        """True when both names share an eTLD+1 (the paper's same-site test
        for link clicks and first-party classification)."""
        a = self.etld_plus_one(domain_a)
        b = self.etld_plus_one(domain_b)
        return a is not None and a == b


_DEFAULT: PublicSuffixList | None = None


def default_psl() -> PublicSuffixList:
    """The shared PSL snapshot (module-level singleton)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList.from_rules(DEFAULT_SUFFIX_RULES)
    return _DEFAULT
