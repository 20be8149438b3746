"""
Weighted systems: the cheapest way to exhibit a trace
=====================================================

Weights live in the cost semiring (naturals with infinity, minimum as
sum, addition as product), so the behaviour value of a state against a
trace is the minimal total cost of producing that trace, and the top
relation starts at cost 0 and is refined upwards.
"""

import pathlib

from ltbe import (
    FixpointOptions,
    SemiringKind,
    SemiringValue,
    behaviour,
    common_trace,
    parse_spec,
    parse_system,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"

routes = parse_system((DATA / "routes.json").read_text())
one_step = parse_spec((DATA / "spec_a_stop_trop.json").read_text())

# ---------------------------------------------------------------------------
# Two routes produce the same trace "a then stop" at costs 2+0 and 5+0;
# the behaviour value picks the cheaper one.

report = behaviour(routes, one_step)
print("cost of exhibiting 'a stop' from each state:")
print(report.result.to_csv())

# ---------------------------------------------------------------------------
# Joint cost of two independent machines terminating on the same trace:
# the costs add up: 2 + 3 = 5.

a = parse_system((DATA / "stop_cost2.json").read_text())
b = parse_system((DATA / "stop_cost3.json").read_text())
joint = common_trace(a, b)
print("joint termination cost:", joint.result.get("c", "d").payload)

# ---------------------------------------------------------------------------
# A trace the system cannot produce has cost infinity; finite iterates
# climb without bound.  Costs only rise, so a threshold stops the climb
# once every entry is past it, and the report says honestly that the run
# did not converge.

import json

stuck = parse_system(json.dumps({
    "kind": "tropical",
    "stack": ["T", "{*} + {a} * Id"],
    "states": ["c"],
    "transitions": {"c": [
        {"term": {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": "c"}]}}, "weight": 1}
    ]},
}))
never_stops = parse_spec(json.dumps({
    "kind": "tropical",
    "stack": ["{*} + {a} * Id"],
    "states": ["z"],
    "transitions": {"z": {"inj": 0, "of": {"atom": "*"}}},
}))
report = behaviour(stuck, never_stops)
print("cost of stopping for a state that cannot stop:",
      report.result.get("c", "z").payload, f"(converged={report.converged})")

omega = parse_spec(json.dumps({
    "kind": "tropical",
    "stack": ["{*} + {a} * Id"],
    "states": ["z"],
    "transitions": {"z": {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": "z"}]}}},
}))
cap = SemiringValue(SemiringKind.TROPICAL, 100)
report = behaviour(stuck, omega, FixpointOptions(max_iterations=1000, threshold=cap))
print(f"looping forever costs 1 per lap: after {report.iterations} laps the chain "
      f"passed the cap, converged={report.converged} (true value: infinity)")
