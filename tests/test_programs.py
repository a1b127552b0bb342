"""The claim registry: ``programs.PROGRAMS`` is the whole of each ``prove``
program, its premise graph is closed and acyclic, and every claim has a
route."""

import os
import subprocess
import sys
import textwrap

import pytest

import varcomp.programs
from varcomp import FParams, band_endpoints
from varcomp.programs import PROGRAMS, ROUTES, _COLUMN_MIN, _weld, prove_rows, route
from varcomp.varband import PROVED_D1

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(varcomp.programs.__file__)))


def premises(d1):
    """Claim id -> the ids it rests on, over the d1 program; each id once."""
    graph = {}
    for check in PROGRAMS[d1]:
        for claim, rests_on in check.claims.items():
            assert claim not in graph, (d1, claim)
            graph[claim] = rests_on
    return graph


def test_the_registry_covers_exactly_the_proved_cases():
    assert sorted(PROGRAMS) == list(PROVED_D1)


@pytest.mark.parametrize("d1", PROVED_D1)
def test_every_premise_is_a_claim_of_the_same_program(d1):
    graph = premises(d1)
    for claim, rests_on in graph.items():
        assert claim not in rests_on, claim
        assert len(set(rests_on)) == len(rests_on), claim
        assert set(rests_on) <= graph.keys(), (claim, set(rests_on) - graph.keys())


@pytest.mark.parametrize("d1", PROVED_D1)
def test_the_premise_graph_has_no_cycle(d1):
    graph = premises(d1)
    done, open_ = set(), set()

    def visit(claim, path):
        assert claim not in open_, " <= ".join(path + [claim])
        if claim in done:
            return
        open_.add(claim)
        for premise in graph[claim]:
            visit(premise, path + [claim])
        open_.remove(claim)
        done.add(claim)

    for claim in graph:
        visit(claim, [])


@pytest.mark.parametrize("d2_max", [400, _COLUMN_MIN + 904], ids=["scalar", "column"])
@pytest.mark.parametrize("d1", PROVED_D1)
def test_prove_emits_exactly_the_registered_claims_once_each(d1, d2_max):
    # the d2 chain takes the scalar route at 396 points and the column
    # kernels at 4,996
    ids = [block.check_id for block in prove_rows(d1, d2_max)]
    assert len(ids) == len(set(ids))
    assert set(ids) == premises(d1).keys()


def test_every_check_has_a_route_of_its_kind():
    for d1, program in PROGRAMS.items():
        for check in program:
            assert route(check) in ("exact", "sampled"), (d1, check)
    assert set(ROUTES.values()) == {"exact", "sampled"}


def test_the_routes_are_exactly_the_evaluator_kinds_the_programs_use():
    # so a deleted evaluator leaves no stale route behind
    kinds = [getattr(check.evaluator, "func", check.evaluator)
             for program in PROGRAMS.values() for check in program]
    assert set(kinds) == ROUTES.keys()


def test_each_weld_is_the_only_claim_of_its_check():
    welds = [check for program in PROGRAMS.values() for check in program
             if getattr(check.evaluator, "func", None) is _weld]
    assert len(welds) == 8
    for check in welds:
        assert list(check.claims) == [check.evaluator.args[0]], check.claims


@pytest.mark.parametrize("d2_max", [13, 16, 17, 150, 151, 400])
def test_the_r4_weld_runs_from_d2_17(d2_max):
    ids = {block.check_id for block in prove_rows(4, d2_max)}
    assert ("r4_log_form_consistency" in ids) == (d2_max >= 17)


def test_the_r4_weld_covers_where_r4_and_the_lower_images_apply():
    # r4 at y = d2 - 2 needs y >= 15, its log form c > 0 and d > 0
    ends = {d2: band_endpoints(FParams(4, d2)) for d2 in range(5, 151)}
    rule = {d2 for d2, ep in ends.items() if d2 - 2 >= 15 and ep.c > 0.0 and ep.d > 0.0}
    assert rule == set(range(17, 151))
    (weld,) = [check for check in PROGRAMS[4] if "r4_log_form_consistency" in check.claims]
    assert {d2 for d2 in ends if d2 in weld.coverage.points(400)} == rule


def test_the_certificates_and_the_boundary_are_the_exact_claims():
    exact = {claim for program in PROGRAMS.values() for check in program
             if route(check) == "exact" for claim in check.claims}
    assert exact == {"poly_values_p3", "poly_values_p4", "dc_boundary_d1_3",
                     "dc_boundary_d1_4", "expansion_p3_25", "expansion_p4_17",
                     "expansion_q5_30", "expansion_t1_12", "expansion_t2_12",
                     "expansion_u1_12", "expansion_u2_12"}


def test_importing_the_registry_evaluates_no_claim():
    # every function a check names, and the chain, stays uncalled while
    # the module loads
    script = textwrap.dedent("""\
        import sys
        called = set()
        sys.setprofile(lambda frame, event, arg:
                       called.add(frame.f_code) if event == "call" else None)
        import varcomp.programs as programs
        sys.setprofile(None)
        kinds = [kind for kind in programs.ROUTES if callable(kind)]
        print(sorted(kind.__name__ for kind in kinds + [programs.chain_blocks]
                     if kind.__code__ in called))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_SRC), timeout=300)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
