"""The CLI's error contract over the float range: a float key of any
scenario, set to any magnitude from 1e-300 to 1e300 (either sign where the
key is signed), runs to finite outputs or is refused with exit 2 and
error.json, never a traceback.  The step-grid, sample-grid and transfer
limits keep each run short."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spinlift import cli

FLOAT_KEYS = [(name, key) for name, scenario in sorted(cli.SCENARIOS.items())
              for key, spec in scenario.keys.items() if spec.kind in cli._FLOAT_KINDS]


def finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        node = list(node.values())
    return not isinstance(node, list) or all(finite(v) for v in node)


@st.composite
def float_settings(draw, name):
    """(key, value): one float key of the scenario, log-uniform in
    magnitude over 1e-300..1e300; the other keys keep their defaults."""
    key = draw(st.sampled_from([k for n, k in FLOAT_KEYS if n == name]))
    value = 10.0 ** draw(st.floats(-300.0, 300.0))
    if cli.SCENARIOS[name].keys[key].kind == "freq_signed" and draw(st.booleans()):
        value = -value
    return key, value


def test_every_scenario_but_rotation_cycle_has_a_float_key():
    assert {name for name, _ in FLOAT_KEYS} == set(cli.SCENARIOS) - {"rotation-cycle"}


# every scenario with a float key gets its own draws
@pytest.mark.parametrize("name", sorted({name for name, _ in FLOAT_KEYS}))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_float_key_runs_or_is_refused(name, data):
    key, value = data.draw(float_settings(name))
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(["run", "--scenario", name, "--set", f"{key}={value!r}",
                               "--out", out])
        if status == 2:
            assert (Path(out) / "error.json").is_file()
            return
        assert status == 0
        outputs = json.loads((Path(out) / f"{name}_0.json").read_text())["outputs"]
        assert finite(outputs)
        assert outputs.get("pass", True) is True
