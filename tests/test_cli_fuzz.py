"""Property test: mutated README configs exit 0, 2 or 3, never with a traceback.

Each example takes the `crb` or `estimate` config as README.md prints it,
or a small `bench` config, and applies one to three mutations: drop a key,
or replace a value with NaN, an infinity, a negative number, zero, a
fraction, a string, null, a boolean, a list or an object. A config whose
integer field ends up holding a boolean or a non-integral number must exit
2: it may not be truncated and run. The estimate config uses 100x100 grids
instead of the README's 2500x2500, and the bench config 16x16 grids, one
trial and budgets 1 and 2, so the examples stay fast; the bench config
spells out its planar arrays so that their specs are mutated too. Valid
but huge values (a 10^12-point grid, a budget of 10^9 paths) are left out:
they are slow, not malformed.
"""

import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mimolab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_example(name):
    """The JSON block that follows the README's "`name` —" paragraph."""
    after = README[README.index(f"`{name}` —"):]
    start = after.index("```json\n") + len("```json\n")
    return json.loads(after[start:after.index("```", start)])


README_CRB = readme_example("crb.json")
README_ESTIMATE = dict(readme_example("estimate.json"), grid={"m": 100, "n": 100})

README_BENCH = {
    "n_t": 16, "n_r": 4,
    "tx_array": {"type": "upa", "nx": 4, "ny": 4, "spacing": 0.5, "plane": "yz"},
    "rx_array": {"type": "upa", "nx": 2, "ny": 2, "spacing": 0.5, "plane": "yz"},
    "n_clusters": 8, "paths_per_cluster": 5,
    "angular_spread_deg": 5.0, "gain_decay_db_per_cluster": 5.0,
    "snr_db": 10.0,
    "m": 16, "n": 16,
    "P_budgets": [1, 2],
    "strategies": ["joint", "sequential"],
    "trials": 1, "base_seed": 0,
}

BAD_VALUES = (math.nan, math.inf, -math.inf, -1, -2.5, 0, 2.7, "x", "10", None, True,
              False, [], {}, [1.0, 2.0])


def key_paths(node, prefix=()):
    """Every key path into node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from key_paths(value, prefix + (key,))


def mutate(cfg, path, value, drop):
    """Drop or replace the entry at path; skip paths an earlier mutation removed."""
    node = cfg
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, dict) and key in node:
        if drop:
            del node[key]
        else:
            node[key] = value
    elif isinstance(node, list) and isinstance(key, int) and key < len(node) and not drop:
        node[key] = value


def lookup(cfg, path):
    for key in path:
        try:
            cfg = cfg[key]
        except (KeyError, IndexError, TypeError):
            return None
    return cfg


def integer_field_truncated(cfg, base):
    """True when a field holding an int in base holds a bool or a fraction in cfg."""
    for path in key_paths(base):
        if type(lookup(base, path)) is int:
            value = lookup(cfg, path)
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                return True
    return False


def mutations(base):
    paths = list(key_paths(base))
    one = st.tuples(st.sampled_from(paths), st.sampled_from(BAD_VALUES), st.booleans())
    return st.lists(one, min_size=1, max_size=3)


def run_mutated(tmp_path, command, base, muts):
    """Exit code of command on the mutated config, and whether the mutations
    left a boolean or a fraction in one of base's integer fields."""
    cfg = json.loads(json.dumps(base))
    for path, value, drop in muts:
        mutate(cfg, path, value, drop)
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(cfg))
    return main([command, "--config", str(config)]), integer_field_truncated(cfg, base)


def check_exit(code, truncated, err):
    assert "Traceback" not in err
    if truncated:
        assert code == 2, err
    else:
        assert code in (0, 2, 3)


FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(muts=mutations(README_CRB))
def test_crb_mutated_readme_config_exits_cleanly(tmp_path, capsys, muts):
    check_exit(*run_mutated(tmp_path, "crb", README_CRB, muts), capsys.readouterr().err)


@FUZZ
@given(muts=mutations(README_ESTIMATE))
def test_estimate_mutated_readme_config_exits_cleanly(tmp_path, capsys, muts):
    check_exit(*run_mutated(tmp_path, "estimate", README_ESTIMATE, muts),
               capsys.readouterr().err)


@FUZZ
@given(muts=mutations(README_BENCH))
def test_bench_mutated_readme_config_exits_cleanly(tmp_path, capsys, muts):
    check_exit(*run_mutated(tmp_path, "bench", README_BENCH, muts), capsys.readouterr().err)


def test_readme_configs_run(tmp_path, capsys):
    assert run_mutated(tmp_path, "crb", README_CRB, []) == (0, False)
    capsys.readouterr()
    assert run_mutated(tmp_path, "estimate", README_ESTIMATE, []) == (0, False)
    # an estimate worse than none (rmse 1) would mean the example runs below the noise
    assert json.loads(capsys.readouterr().out)["rmse"] < 1.0
    assert run_mutated(tmp_path, "bench", README_BENCH, []) == (0, False)
