"""Schema registry: one table from schema id to validator/loader.

Every machine-readable artifact the project emits carries a ``schema``
tag (JSON documents) or a tagged start record (JSONL streams).  This
module is the single place those ids are declared: each entry names the
loader that validates a file of that schema, the producing CLI, and the
container kind (``json`` document vs ``jsonl`` stream), so tools can
dispatch on the tag instead of hard-coding filenames.

Use :func:`check_schema` at the top of a loader to reject a wrong or
missing schema tag with the uniform message every loader shares::

    unsupported <kind> schema 'got' (expected 'repro-x/1')

and :func:`load_document` to sniff a file's schema and dispatch to the
registered loader.

Every ``jsonl`` schema shares one *segmented* grammar, written by
:class:`SegmentLog` and validated by :func:`read_segments`.  A stream
is one or more consecutive segments, each

- a ``{"ev": "<stem>.start", "schema": <id>, ...}`` record carrying
  the segment's metadata;
- zero or more body records, each tagged with one of the entry's
  ``events``;
- a ``{"ev": "<stem>.finish", ...}`` record carrying its summary.

The grammar rules are shared; only the per-record checks that differ
between schemas (window order, decision totals...) come from the
entry's ``check``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SchemaEntry:
    """One registered schema: id, loader, and provenance metadata."""

    schema: str
    #: Human label used in wrong-schema errors ("benchmark", "steady log"...).
    kind: str
    #: ``"json"`` for one-document files, ``"jsonl"`` for line streams.
    container: str
    #: Dotted path of a ``json`` document's loader/validator function
    #: (resolved lazily so registering a schema never imports its module).
    loader: str = ""
    #: CLI invocation that produces documents of this schema.
    producer: str = ""
    #: Older schema ids the loader still accepts.
    compat: tuple = field(default_factory=tuple)
    #: ``jsonl`` only: the ``ev`` tags a body record may carry.
    events: tuple = field(default_factory=tuple)
    #: ``jsonl`` only: dotted path of ``check(record, segment)``, run on
    #: every body and finish record; raises ``ValueError`` on a
    #: violation.
    check: str = ""

    @property
    def stem(self):
        """``jsonl``: the tag stem, ``"steady"`` for ``repro-steady/1``.

        Segments open with ``<stem>.start`` and close with
        ``<stem>.finish``.
        """
        return self.schema.split("/")[0].removeprefix("repro-")

    def load(self, path):
        """Validate and load ``path`` with this schema's loader."""
        if self.container == "jsonl":
            return read_segments(path, self.schema)
        return _resolve(self.loader)(path)


def _resolve(dotted):
    """Import ``module.attr`` lazily and return the attribute."""
    import importlib

    mod_name, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(mod_name), name)


#: schema id -> :class:`SchemaEntry`; populated below and via
#: :func:`register_schema`.
REGISTRY = {}


def register_schema(schema, *, kind, container, loader="", producer="",
                    compat=(), events=(), check=""):
    """Register (or replace) a schema entry; returns the entry."""
    entry = SchemaEntry(schema=schema, kind=kind, container=container,
                        loader=loader, producer=producer,
                        compat=tuple(compat), events=tuple(events),
                        check=check)
    REGISTRY[schema] = entry
    return entry


def schema_ids():
    """All registered schema ids, sorted."""
    return sorted(REGISTRY)


def check_schema(got, expected, kind, where=None):
    """Raise the uniform wrong-schema ``ValueError`` unless ``got`` matches.

    ``expected`` is one schema id or a tuple of acceptable ids (newest
    first); ``kind`` is the human label ("benchmark", "steady log"...);
    ``where`` optionally prefixes the message with a location (a path or
    ``"line N"``).  Returns ``got`` on success so callers can chain.
    """
    accepted = (expected,) if isinstance(expected, str) else tuple(expected)
    if got in accepted:
        return got
    if len(accepted) == 1:
        want = repr(accepted[0])
    else:
        want = f"one of {accepted!r}"
    msg = f"unsupported {kind} schema {got!r} (expected {want})"
    if where:
        msg = f"{where}: {msg}"
    raise ValueError(msg)


def sniff_schema(path):
    """Read just enough of ``path`` to return its schema id (or None).

    JSON documents carry a top-level ``"schema"`` key; JSONL streams
    carry it on the first line's start record.  Returns ``None`` when
    the file is unreadable, not JSON, or untagged.
    """
    try:
        with open(path) as fh:
            head = fh.readline()
            if not head.strip():
                return None
            try:
                record = json.loads(head)
            except ValueError:
                # Pretty-printed JSON document: load the whole file.
                fh.seek(0)
                record = json.load(fh)
    except (OSError, ValueError):
        return None
    if isinstance(record, dict):
        return record.get("schema")
    return None


def load_document(path):
    """Sniff ``path``'s schema and dispatch to the registered loader.

    Returns ``(schema_id, loaded)``.  Raises ``ValueError`` when the
    schema is missing or unregistered.
    """
    schema = sniff_schema(path)
    if schema is None:
        raise ValueError(f"{path}: no schema tag found")
    entry = REGISTRY.get(schema)
    if entry is None:
        # A compat id of a registered entry still dispatches.
        for cand in REGISTRY.values():
            if schema in cand.compat:
                entry = cand
                break
    if entry is None:
        check_schema(schema, tuple(schema_ids()), "document", where=path)
    return schema, entry.load(path)


# ---------------------------------------------------------------------------
# Segmented JSONL streams
# ---------------------------------------------------------------------------

class SegmentLog:
    """Write a segmented JSONL stream of one registered ``jsonl`` schema.

    ``target`` is a path or an open text stream.  Every line is flushed
    as written, so a long run can be tailed live.  One log may hold
    several consecutive segments (one per sweep, cell or run); the
    stream stays open until :meth:`close`, which closes only a file the
    log opened itself.
    """

    def __init__(self, target, schema):
        self.schema = schema
        self._stem = REGISTRY[schema].stem
        if hasattr(target, "write"):
            self._fh = target
            self._owns = False
        else:
            self._fh = open(target, "w", encoding="utf-8")
            self._owns = True

    def write(self, record):
        """Write one record (a body record carries its own ``ev`` tag)."""
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def start(self, meta):
        """Open a segment: the schema tag plus ``meta``."""
        self.write({"ev": f"{self._stem}.start", "schema": self.schema,
                    **meta})

    def finish(self, summary):
        """Close the segment with ``summary``."""
        self.write({"ev": f"{self._stem}.finish", **summary})

    def close(self):
        if self._owns and not self._fh.closed:
            self._fh.close()


def read_segments(source, schema):
    """Parse and validate a segmented JSONL stream of ``schema``.

    ``source`` is a path or an iterable of lines.  Returns one
    ``{"meta": start, "records": [body...], "finish": finish}`` dict per
    segment, each record as written.  Raises ``ValueError``, prefixed
    ``<kind> line N:`` where a line is at fault, when the stream is
    empty, a line is not a JSON object with an ``ev`` tag, a segment
    does not open with a ``<stem>.start`` of a supported schema, a
    record falls outside a segment or carries an unexpected tag, the
    entry's ``check`` rejects a record, or the stream ends mid-segment.
    """
    entry = REGISTRY[schema]
    kind, stem = entry.kind, entry.stem
    check = _resolve(entry.check) if entry.check else None
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    # Every line must parse before the grammar is checked, so a corrupt
    # line is reported as such wherever it sits.
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{kind} line {lineno}: not JSON "
                             f"({exc})") from None
        if not isinstance(record, dict) or "ev" not in record:
            raise ValueError(f"{kind} line {lineno}: missing 'ev' tag")
        records.append((lineno, record))
    if not records:
        raise ValueError(f"{kind} is empty")
    segments = []
    current = None
    for lineno, record in records:
        ev = record["ev"]
        try:
            if current is None:
                if ev != f"{stem}.start":
                    raise ValueError(f"expected {stem}.start, got {ev!r}")
                check_schema(record.get("schema"),
                             (schema, *entry.compat), kind)
                current = {"meta": record, "records": [], "finish": None}
                continue
            if ev not in entry.events and ev != f"{stem}.finish":
                raise ValueError(
                    f"unexpected event {ev!r} inside a segment")
            if check is not None:
                check(record, current)
        except ValueError as exc:
            raise ValueError(f"{kind} line {lineno}: {exc}") from None
        if ev in entry.events:
            current["records"].append(record)
        else:
            current["finish"] = record
            segments.append(current)
            current = None
    if current is not None:
        raise ValueError(f"{kind} ends mid-segment (no {stem}.finish)")
    return segments


# ---------------------------------------------------------------------------
# Built-in schemas.  Loaders are dotted paths, resolved lazily.
# ---------------------------------------------------------------------------

register_schema(
    "repro-bench/2", kind="benchmark", container="json",
    loader="repro.experiments.bench_json.load_bench",
    producer="benchmarks/bench_trajectory.py --out BENCH_<date>.json",
    compat=("repro-bench/1",),
)
register_schema(
    "repro-metrics/1", kind="metrics", container="json",
    loader="repro.obs.schemas._load_metrics",
    producer="repro-experiments --figure <n> --metrics-out",
)
register_schema(
    "repro-profile/1", kind="attribution", container="json",
    loader="repro.obs.schemas._load_attrib",
    producer="repro-experiments profile --attrib-out",
)
register_schema(
    "repro-diff/1", kind="diff", container="json",
    loader="repro.obs.schemas._load_diff",
    producer="repro-experiments diff <baseline> <candidate> --json-out",
)
register_schema(
    "repro-steady/1", kind="steady log", container="jsonl",
    producer="repro-experiments steady --steady-out",
    events=("window",),
    check="repro.obs.streaming._check_steady_record",
)
register_schema(
    "repro-sweep/1", kind="sweep log", container="jsonl",
    producer="repro-experiments --figure <n> --sweep-log",
    events=("cell.finish", "cell.retry", "cell.error"),
)
register_schema(
    "repro-kernelprof/1", kind="kernelprof", container="json",
    loader="repro.obs.kernelprof.load_kernelprof",
    producer="repro-experiments hotspots --kernelprof-out",
)
register_schema(
    "repro-decisions/1", kind="decisions log", container="jsonl",
    producer="repro-experiments decisions --decisions-out",
    events=("decision",),
    check="repro.obs.decisions._check_decisions_record",
)


# -- thin loaders for documents whose producers are CLI-side ----------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_metrics(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-metrics/1", "metrics", where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: metrics document has no cells list")
    return doc


def _load_attrib(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-profile/1", "attribution",
                 where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: attribution document has no cells list")
    return doc


def _load_diff(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-diff/1", "diff", where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: diff document has no cells list")
    return doc
