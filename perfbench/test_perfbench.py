"""Tests of the benchmark itself: layer map, metric names, attribution.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from layers import LAYERS, Split, layer_of, repro_modules
from run import END_TO_END, PER_LAYER
from workloads import HERE, ROOT, SRC

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_repro_module_has_a_layer():
    modules = repro_modules(SRC)
    assert "repro.sim.environment" in modules
    unmapped = [m for m in modules if layer_of(m) is None]
    assert unmapped == []


def test_unknown_top_level_package_has_no_layer():
    assert layer_of("repro.newpackage.module") is None
    assert layer_of("repro.obs.streaming") == "obs.streaming"
    assert layer_of("repro.obs.metrics") == "obs"
    assert layer_of("repro.transputer.link") == "transputer.link"


def test_metric_tables_match_benchmark_json():
    doc = _benchmark_json()
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in doc["per_layer"]]
    assert e2e == list(END_TO_END)
    assert per_layer == list(PER_LAYER)
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [n for n, _, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    for name, unit, better in e2e + per_layer:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    for layer in LAYERS:
        assert f"{layer}.self_s" in names
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


class _Code:
    def __init__(self, filename, name):
        self.co_filename = filename
        self.co_name = name


class _Entry:
    def __init__(self, code, callcount, inlinetime, calls=()):
        self.code = code
        self.callcount = callcount
        self.inlinetime = inlinetime
        self.totaltime = inlinetime + sum(c.totaltime for c in calls)
        self.calls = list(calls)


def test_split_charges_builtins_and_libraries_to_the_calling_layer():
    run = _Code(os.path.join(SRC, "repro", "sim", "environment.py"), "run")
    execute = _Code(os.path.join(SRC, "repro", "transputer", "cpu.py"),
                    "execute")
    helper = _Code(os.path.join(os.sep, "lib", "python", "helper.py"), "f")
    builtin = "<built-in method builtins.len>"

    helper_call = _Entry(helper, 4, 0.25)
    execute_call = _Entry(execute, 3, 2.0, [helper_call])
    len_call = _Entry(builtin, 10, 0.5)
    entries = [
        _Entry(run, 1, 1.0, [len_call, execute_call]),
        _Entry(execute, 3, 2.0, [helper_call]),
        _Entry(helper, 4, 0.25),
        _Entry(builtin, 10, 0.5),
    ]
    split = Split(entries, SRC)
    assert split.self_s["sim"] == pytest.approx(1.5)
    assert split.self_s["transputer.cpu"] == pytest.approx(2.25)
    assert split.unattributed_s == 0.0
    assert split.calls_in["transputer.cpu"] == 3
    assert split.calls_in["sim"] == 0
    assert split.calls("repro.transputer.cpu", "execute") == 3


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-matmul",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
