"""Property: a valid run spec with any one task, round or cost field set to a
small value of any JSON type either runs (exit 0), exits 2 naming a field, or
exits 3 on an estimator failure; `scalarfed run` never raises. A value of the
wrong type, or a NaN or infinity in any field, is named by exactly the spec
field it was put in.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from scalarfed.cli import main

TASKS = {
    "quadratic": {"kind": "quadratic", "dim": 10, "num_clients": 4, "seed": 9,
                  "spectrum_variance": 1.0, "offset_scale": 0.1, "shift": 0.0,
                  "x0_scale": 0.5, "rotate": False},
    "logistic": {"kind": "logistic", "dim": 8, "num_clients": 4, "seed": 9,
                 "n_samples": 200, "alpha": 1.0, "separation": 2.0, "l2": 1e-3,
                 "batch_size": 16},
}
ROUND = {"M": 4, "m": 2, "R": 3, "eta": 0.02, "tau": 1, "P": 2, "mu": 1e-4, "nu": 0.05,
         "epsilon": 1e-8, "beta_lower": 1e-6, "beta_upper": 1e6, "root_seed": 3,
         "sampling_seed": 4, "algorithm": "hiso", "quantize_wire": False,
         "bytes_per_scalar": 4, "bytes_per_seed": 0}

# The schema's types, stated here independently of the code that declares
# them; every other field is a real number, which an integer also satisfies.
INTEGER = {"dim", "num_clients", "seed", "n_samples", "batch_size", "M", "m", "R", "tau",
           "P", "root_seed", "sampling_seed", "bytes_per_scalar", "bytes_per_seed"}
BOOLEAN = {"rotate", "quantize_wire"}
STRING = {"algorithm"}

# Small values only: R, dim and M size allocations (the R x tau x P seed
# grid, the (M, d) centers, the d x d rotation).
VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(-2, 3), max_size=2),
    st.floats(-2, 64).filter(lambda v: not v.is_integer()), st.integers(-2, 64),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def mistyped(key, value):
    if key in BOOLEAN:
        return not isinstance(value, bool)
    if key in STRING:
        return not isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return key in INTEGER and isinstance(value, float)


def nonfinite(value):
    return isinstance(value, float) and not math.isfinite(value)


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(TASKS)))
    spec = {"task": dict(TASKS[kind]), "round": dict(ROUND)}
    section = draw(st.sampled_from(["task", "round"]))
    key = draw(st.sampled_from(sorted(spec[section])))
    spec[section][key] = draw(VALUES)
    return spec, section, key


@settings(max_examples=200)
@given(mutations())
def test_any_one_field_mutation_runs_or_names_a_field(mutation):
    spec, section, key = mutation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", path])
    message = err.getvalue()
    assert code in (0, 2, 3), message
    if code == 2:
        assert "(field: " in message
    if code == 3:
        assert "estimator failure" in message
    if key == "kind":
        assert code == 2 and "(field: task.kind)" in message
    elif mistyped(key, spec[section][key]) or nonfinite(spec[section][key]):
        assert code == 2 and f"(field: {key})" in message, message
