"""Tests for the shared schema registry: uniform wrong-schema errors,
document sniffing, and the registry-routed loaders."""

import json

import pytest

from repro.obs.schemas import (
    REGISTRY,
    SchemaEntry,
    check_schema,
    load_document,
    register_schema,
    schema_ids,
    sniff_schema,
)


EXPECTED_IDS = {
    "repro-bench/2",
    "repro-metrics/1",
    "repro-profile/1",
    "repro-diff/1",
    "repro-steady/1",
    "repro-sweep/1",
    "repro-kernelprof/1",
    "repro-decisions/1",
}


def test_registry_covers_every_document_family():
    assert EXPECTED_IDS <= set(schema_ids())
    for sid in EXPECTED_IDS:
        entry = REGISTRY[sid]
        assert isinstance(entry, SchemaEntry)
        assert entry.schema == sid
        assert entry.kind and entry.container in ("json", "jsonl")
        assert entry.producer  # every schema documents its producer CLI


def test_check_schema_accepts_and_message_format():
    check_schema("repro-steady/1", "repro-steady/1", "steady log")
    check_schema("repro-bench/1", ("repro-bench/2", "repro-bench/1"),
                 "benchmark")
    with pytest.raises(ValueError) as one:
        check_schema("bogus/9", "repro-steady/1", "steady log")
    assert str(one.value) == (
        "unsupported steady log schema 'bogus/9' "
        "(expected 'repro-steady/1')")
    with pytest.raises(ValueError, match="one of"):
        check_schema("bogus/9", ("repro-bench/2", "repro-bench/1"),
                     "benchmark")
    with pytest.raises(ValueError, match=r"^f\.json: unsupported"):
        check_schema("bogus/9", "repro-steady/1", "steady log",
                     where="f.json")


def test_loaders_reject_wrong_schema_uniformly(tmp_path):
    """Every rerouted loader now speaks the registry's message."""
    cases = [
        ("repro-metrics/1", {"schema": "bogus/1", "cells": []}),
        ("repro-profile/1", {"schema": "bogus/1", "cells": []}),
        ("repro-diff/1", {"schema": "bogus/1"}),
        ("repro-kernelprof/1", {"schema": "bogus/1"}),
    ]
    for sid, doc in cases:
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported .* schema"):
            REGISTRY[sid].load(p)


def test_sniff_and_load_document_roundtrip(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"schema": "repro-metrics/1", "cells": []},
                            indent=1))
    assert sniff_schema(p) == "repro-metrics/1"
    sid, doc = load_document(p)
    assert sid == "repro-metrics/1"
    assert doc["cells"] == []


def test_load_document_jsonl_stream(tmp_path):
    p = tmp_path / "d.jsonl"
    lines = [
        {"ev": "decisions.start", "schema": "repro-decisions/1",
         "label": "x"},
        {"ev": "decisions.finish", "decisions": 0, "deferrals": 0,
         "dropped": 0, "counts": []},
    ]
    p.write_text("".join(json.dumps(r) + "\n" for r in lines))
    sid, segments = load_document(p)
    assert sid == "repro-decisions/1"
    assert len(segments) == 1 and segments[0]["meta"]["label"] == "x"


def test_load_document_rejects_unregistered(tmp_path):
    p = tmp_path / "u.json"
    p.write_text(json.dumps({"schema": "nobody/7"}))
    with pytest.raises(ValueError, match="unsupported document schema"):
        load_document(p)
    q = tmp_path / "n.json"
    q.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="no schema tag"):
        load_document(q)


def test_register_schema_adds_and_replaces():
    try:
        entry = register_schema(
            "repro-test/1", kind="test doc", container="json",
            loader="json.load", producer="nobody",
        )
        assert REGISTRY["repro-test/1"] is entry
        replaced = register_schema(
            "repro-test/1", kind="test doc v2", container="json",
            loader="json.load",
        )
        assert REGISTRY["repro-test/1"].kind == "test doc v2"
        assert replaced is REGISTRY["repro-test/1"]
    finally:
        REGISTRY.pop("repro-test/1", None)


def test_compat_ids_route_to_current_entry(tmp_path):
    """repro-bench/1 documents load through the repro-bench/2 entry."""
    entry = REGISTRY["repro-bench/2"]
    assert "repro-bench/1" in entry.compat
    assert REGISTRY.get("repro-bench/1") is None  # only current ids listed


def test_producers_name_real_cli_commands_and_flags():
    """Every ``repro-experiments …`` producer is a runnable invocation:
    its words are a command the parser accepts, ``--flags`` it defines,
    or ``<placeholders>``."""
    from repro.experiments.cli import _build_parser

    parser = _build_parser()
    commands = next(a.choices for a in parser._actions
                    if a.dest == "command")
    flags = set(parser._option_string_actions)
    checked = 0
    for entry in REGISTRY.values():
        prog, *words = entry.producer.split()
        if prog != "repro-experiments":
            continue
        checked += 1
        for word in words:
            if word.startswith("<"):
                continue
            known = flags if word.startswith("--") else commands
            assert word in known, (entry.schema, word)
    assert checked >= 6
