"""The step-row codec: ``encode_steps`` / ``decode_steps`` store a run's
step rows as columns (int64 step numbers, float64 clocks, a code plane
for ``dt_reason``) and give back exactly the rows a live run records."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import run
from repro.telemetry.report import STEP_FIELDS, decode_steps, encode_steps

REASONS = ("initial", "cfl", "div", "growth", "max", "end")

#: every double: subnormals, the largest finite, signed zeros, and the
#: non-finite values too (JSON spells them NaN / Infinity)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -0.0, 0.0]),
)

ROWS = st.lists(st.fixed_dictionaries({
    "nstep": st.integers(-2**63, 2**63 - 1),
    "time": FLOATS,
    "dt": FLOATS,
    "dt_reason": st.sampled_from(REASONS),
    "wall_seconds": FLOATS,
}), max_size=40)


def _round_trip(rows):
    columns, reasons = encode_steps(rows)
    # as a state file hands them back: read-only views of one buffer
    stored = {name: np.frombuffer(a.tobytes(), a.dtype)
              for name, a in columns.items()}
    return decode_steps(stored, json.loads(json.dumps(reasons)))


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_decode_inverts_encode_exactly(rows):
    rows = [{name: row[name] for name in STEP_FIELDS} for row in rows]
    back = _round_trip(rows)
    assert json.dumps(back) == json.dumps(rows)
    assert all(type(row["nstep"]) is int for row in back)
    assert all(list(row) == list(STEP_FIELDS) for row in back)


def test_every_reason_gets_one_code():
    rows = [{"nstep": i, "time": 0.1 * i, "dt": 0.1, "dt_reason": reason,
             "wall_seconds": 1e-3} for i, reason in enumerate(REASONS * 2)]
    columns, reasons = encode_steps(rows)
    assert reasons == list(REASONS)
    assert columns["step_dt_reason"].tolist() == list(range(6)) * 2
    assert columns["step_nstep"].dtype == np.int64
    assert _round_trip(rows) == rows


def test_a_live_run_round_trips():
    result = run(problem="sod", nx=16, ny=8, max_steps=12)
    assert len(result.step_rows) == 12
    assert json.dumps(_round_trip(result.step_rows)) == \
        json.dumps(result.step_rows)
