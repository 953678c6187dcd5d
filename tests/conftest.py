import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

# The sample helpers live with the check registry; tests import them from here.
from oscrenorm.verify import (  # noqa: F401
    element_gap,
    random_gl,
    random_gl_pos,
    random_osc,
    random_spd,
    random_sym,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def base_config(**overrides):
    """A valid 1-D flow config, with top-level keys replaced by ``overrides``."""
    cfg = {
        "schema_version": 1,
        "dimension": 1,
        "propagator": {"base": [[1.0]]},
        "fiducial_scale": 1.0,
        "interaction": {
            "terms": [
                {"exponents": [4], "coeff": -0.1},
                {"exponents": [2], "coeff": -0.2},
            ]
        },
        "scale_ladder": [1.0, 2.0, 4.0],
        "sample_points": {"grid": {"lo": -1.0, "hi": 1.0, "count": 5}},
        "quadrature_order": 20,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def perfbench_config(workload, seed):
    """The benchmark's config dict for one workload and seed, from
    perfbench/workloads.py."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_config(workload, seed)


def count_linalg(monkeypatch) -> dict:
    """Calls of np.linalg.eigvalsh and np.linalg.cholesky from now on."""
    calls = {"eigvalsh": 0, "cholesky": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
