import json

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
