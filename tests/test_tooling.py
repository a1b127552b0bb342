"""The test tooling itself: the suite's warning filters under hypothesis,
the names the benchmark's tracer wraps and the claim ids of its
reference."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SAMPLE = textwrap.dedent("""\
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(n):
        assert n < 0


    def test_passes():
        pass
""")


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # every warning is an error in this suite; the hypothesis plugin's
    # failure report must still not abort the session, so the next test
    # runs and the summary is printed
    (tmp_path / "test_sample.py").write_text(_SAMPLE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(_REPO, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert " 1 failed, 1 passed in " in out.stdout.splitlines()[-1]


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # a renamed function would otherwise surface only in the benchmark
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(_REPO, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module, cls, method, _ in tracing.METHOD_TARGETS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(vars(owner).get(method)), (module, cls, method)


def test_each_prove_program_registers_the_claim_ids_of_the_benchmark_reference():
    # the benchmark compares each run's claim ids with bench/reference.json,
    # so a claim id enters that file before it enters a program
    from varcomp.programs import PROGRAMS

    with open(os.path.join(_REPO, "bench", "reference.json")) as fh:
        reference = json.load(fh)
    for d1, program in PROGRAMS.items():
        key = json.dumps({"command": "prove", "d1": d1, "d2_max": 400},
                         sort_keys=True, separators=(",", ":"))
        assert {claim for check in program for claim in check.claims} == reference[key].keys()
