"""OpenMetrics text exposition of the metrics registry (+ a checker).

:func:`render` turns the process-wide
:data:`~repro.telemetry.metrics.REGISTRY` into the OpenMetrics text
format a fleet scraper (Prometheus et al.) ingests:

* ``Counter`` -> a ``counter`` family with one ``_total`` sample;
* ``LabeledCounter`` -> a ``counter`` family with one ``_total`` sample
  per label (label name ``key``);
* ``Histogram`` -> a ``histogram`` family: *cumulative* ``_bucket``
  samples (``le="…"`` up to ``le="+Inf"``) plus ``_sum``/``_count``,
  with per-bucket **exemplars** (`` # {trace_id="…"} value``) carrying
  the request correlation ids captured via
  :func:`repro.telemetry.metrics.exemplar_context`;
* ``EventLog`` -> two counter families, ``…_total`` (exact total) and
  ``…_dropped_total`` (events no longer retained) — retention loss is
  never silent in an export.

The per-path compile-latency histograms (``compile.latency.hit`` /
``patched`` / ``cold`` / ``degrade`` / …) are folded into **one**
``compile_latency_cycles`` family with a ``path`` label, so the compile
path is a first-class dimension, not six unrelated metric names.

:func:`parse` is a deliberately small reader of the same format and
:func:`validate` checks the invariants the exporter must uphold
(monotone cumulative buckets, ``+Inf`` == ``_count``, well-formed
exemplars inside their bucket's range, one ``# EOF``).  Tests round-trip
every scrape through it; it is a format checker, not a general client.
"""

from __future__ import annotations

import re

from repro.telemetry.metrics import (
    COMPILE_PATHS,
    REGISTRY,
    Counter,
    EventLog,
    Histogram,
    LabeledCounter,
)

#: The content type a compliant scraper expects from ``/metrics``.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LATENCY_PREFIX = "compile.latency."


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value) -> str:
    if value is None:
        return "0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _exemplar_suffix(exemplar) -> str:
    if not exemplar:
        return ""
    value, trace_id = exemplar
    return f' # {{trace_id="{_escape(trace_id)}"}} {_fmt(value)}'


def _histogram_lines(family: str, series) -> list:
    """``series`` is ``[(labels_dict, snapshot), ...]`` sharing bounds."""
    lines = [f"# TYPE {family} histogram"]
    for labels, snap in series:
        prefix = "".join(f'{k}="{_escape(v)}",'
                         for k, v in sorted(labels.items()))
        cumulative = 0
        exemplars = snap.get("exemplars", {})
        bounds = list(snap["bounds"]) + ["+Inf"]
        for index, bound in enumerate(bounds):
            cumulative += snap["buckets"][index]
            le = _fmt(bound) if bound != "+Inf" else "+Inf"
            line = (f'{family}_bucket{{{prefix}le="{le}"}} {cumulative}'
                    f'{_exemplar_suffix(exemplars.get(index))}')
            lines.append(line)
        labelstr = f"{{{prefix[:-1]}}}" if prefix else ""
        lines.append(f"{family}_sum{labelstr} {_fmt(snap['sum'])}")
        lines.append(f"{family}_count{labelstr} {snap['count']}")
    return lines


def render() -> str:
    """The whole registry in OpenMetrics text exposition format."""
    lines: list = []
    latency_series = []
    for name, metric in REGISTRY.items():
        if (isinstance(metric, Histogram)
                and name.startswith(_LATENCY_PREFIX)
                and name[len(_LATENCY_PREFIX):] in COMPILE_PATHS):
            latency_series.append((name[len(_LATENCY_PREFIX):],
                                   metric.snapshot()))
            continue
        san = _sanitize(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {san} counter")
            lines.append(f"{san}_total {_fmt(metric.snapshot())}")
        elif isinstance(metric, LabeledCounter):
            lines.append(f"# TYPE {san} counter")
            for label, value in sorted(metric.snapshot().items()):
                lines.append(
                    f'{san}_total{{key="{_escape(label)}"}} {_fmt(value)}')
        elif isinstance(metric, Histogram):
            lines.extend(_histogram_lines(san, [({}, metric.snapshot())]))
        elif isinstance(metric, EventLog):
            snap = metric.snapshot()
            lines.append(f"# TYPE {san} counter")
            lines.append(f"{san}_total {snap['total']}")
            lines.append(f"# TYPE {san}_dropped counter")
            lines.append(f"{san}_dropped_total {snap['dropped']}")
    if latency_series:
        lines.extend(_histogram_lines(
            "compile_latency_cycles",
            [({"path": path}, snap)
             for path, snap in sorted(latency_series)]))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- the parser / checker ------------------------------------------------------

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)'
    r'(?:\s+#\s+\{(?P<exlabels>[^}]*)\}\s+(?P<exvalue>\S+)'
    r'(?:\s+(?P<exts>\S+))?)?\s*$'
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class Sample:
    """One parsed sample line."""

    __slots__ = ("name", "labels", "value", "exemplar")

    def __init__(self, name, labels, value, exemplar=None):
        self.name = name
        self.labels = labels
        self.value = value
        self.exemplar = exemplar   # (labels_dict, value) or None

    def __repr__(self) -> str:
        return f"<Sample {self.name}{self.labels} {self.value}>"


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _parse_labels(text: str) -> dict:
    return {m.group(1): _unescape(m.group(2))
            for m in _LABEL_RE.finditer(text or "")}


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    return float(text)


def parse(text: str) -> dict:
    """Parse an exposition into ``{family: {"type": t, "samples": [...]}}``.

    Raises ``ValueError`` on an unparsable line, a sample before its
    family's ``# TYPE``, or a missing/misplaced ``# EOF`` terminator.
    """
    families: dict = {}
    types: dict = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, name, mtype = line.split(" ", 3)
            except ValueError:
                raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
            types[name] = mtype
            families.setdefault(name, {"type": mtype, "samples": []})
            continue
        if line.startswith("#"):
            continue                     # HELP/UNIT/comments: tolerated
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        name = m.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} before its # TYPE")
        exemplar = None
        if m.group("exvalue") is not None:
            exemplar = (_parse_labels(m.group("exlabels")),
                        _parse_value(m.group("exvalue")))
        families[family]["samples"].append(
            Sample(name, _parse_labels(m.group("labels")),
                   _parse_value(m.group("value")), exemplar))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


def validate(families: dict) -> list:
    """Check exporter invariants; returns a list of problem strings
    (empty = clean).  Histograms: per series, bucket counts are
    cumulative (non-decreasing), the last bucket is ``le="+Inf"`` and
    equals ``_count``; every exemplar is inside its bucket's range and
    carries a non-empty ``trace_id``."""
    problems = []
    for family, info in sorted(families.items()):
        if info["type"] != "histogram":
            for sample in info["samples"]:
                if info["type"] == "counter" and sample.value < 0:
                    problems.append(f"{family}: negative counter")
            continue
        series: dict = {}
        for sample in info["samples"]:
            key = tuple(sorted((k, v) for k, v in sample.labels.items()
                               if k != "le"))
            series.setdefault(key, []).append(sample)
        for key, samples in sorted(series.items()):
            buckets = [s for s in samples if s.name.endswith("_bucket")]
            counts = [s for s in samples if s.name.endswith("_count")]
            if not buckets:
                problems.append(f"{family}{dict(key)}: no buckets")
                continue
            previous_le = float("-inf")
            previous_count = 0.0
            for b in buckets:
                le = _parse_value(b.labels.get("le", "nan"))
                if le <= previous_le:
                    problems.append(
                        f"{family}{dict(key)}: le={le} out of order")
                if b.value < previous_count:
                    problems.append(
                        f"{family}{dict(key)}: bucket le={le} count "
                        f"{b.value} < previous {previous_count}")
                if b.exemplar is not None:
                    exlabels, exvalue = b.exemplar
                    if not exlabels.get("trace_id"):
                        problems.append(
                            f"{family}{dict(key)}: exemplar without a "
                            f"trace_id at le={le}")
                    if exvalue > le:
                        problems.append(
                            f"{family}{dict(key)}: exemplar {exvalue} "
                            f"above its bucket bound {le}")
                    if exvalue <= previous_le:
                        problems.append(
                            f"{family}{dict(key)}: exemplar {exvalue} "
                            f"below its bucket range (> {previous_le})")
                previous_le = le
                previous_count = b.value
            if previous_le != float("inf"):
                problems.append(f"{family}{dict(key)}: missing le=+Inf")
            if counts and counts[0].value != previous_count:
                problems.append(
                    f"{family}{dict(key)}: +Inf bucket {previous_count} "
                    f"!= _count {counts[0].value}")
    return problems
