"""Metamorphic relations: how two runs of this simulator must relate, an
oracle that needs no second model of the protocol. See Chen, Cheung and Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998.
"""

import io
import json
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings

from aodvsim.engine import Engine
from aodvsim.scenario import Scenario, parse_scenario
from aodvsim.wire import ValidationError

from test_fuzz import valid_scenarios

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _trace_lines(sc: Scenario) -> list[str]:
    out = io.StringIO()
    Engine(sc, trace=out).run()
    return out.getvalue().splitlines(keepends=True)


@settings(derandomize=True, deadline=None, max_examples=300)
@example(doc=_golden("mixed.json"))
@example(doc=_golden("overrun.json"))
@example(doc=_golden("own-connectivity.json"))
@example(doc=_golden("params.json"))
@example(doc=_golden("waypoint-events.json"))
@example(doc=_golden("waypoint.json"))
@given(doc=valid_scenarios())
def test_a_run_to_t_max_is_the_start_of_a_longer_run(doc):
    # nothing that happens at or before t_max may depend on t_max: the trace
    # of a run to T is the lines at ticks <= T of the same run to T + 37
    try:
        sc = parse_scenario(json.dumps(doc))
    except ValidationError:
        return          # a drawn doc may break a rule across fields, such as round spacing
    longer = _trace_lines(replace(sc, t_max=sc.t_max + 37))
    assert _trace_lines(sc) == [line for line in longer
                                if int(line.split("\t", 1)[0]) <= sc.t_max]
