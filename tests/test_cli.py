import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import oscrenorm
from oscrenorm import FieldFunction, QuadratureRule, cli
from oscrenorm.cli import MAX_ORDER, load_config, main
from oscrenorm.errors import ConfigError
from conftest import write_config


def config_4d():
    return {
        "dimension": 4,
        "propagator": {"base": [[1.0 if i == j else 0.0 for j in range(4)]
                                for i in range(4)]},
        "interaction": {"terms": [
            {"exponents": [4 if i == j else 0 for j in range(4)], "coeff": -0.1}
            for i in range(4)
        ]},
        "sample_points": [[0.1, 0.2, 0.3, 0.4]],
    }


def heat_kernel_config(tmp_path, heat_kernel):
    """A 2-D wtilde config on a heat-kernel propagator with the given spec."""
    return write_config(
        tmp_path,
        dimension=2,
        propagator={"heat_kernel": heat_kernel},
        interaction={"terms": [
            {"exponents": [4, 0], "coeff": -0.1},
            {"exponents": [0, 4], "coeff": -0.1},
            {"exponents": [1, 1], "coeff": 0.05},
        ]},
        sample_points=[[0.0, 0.0], [0.5, -0.3]],
        quadrature_order=8,
    )


class TestLoadConfig:
    def test_valid(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.family.dim == 1
        assert config.scale_ladder == (1.0, 2.0, 4.0)
        assert len(config.sample_points) == 5
        assert config.interaction.integrable

    def test_interaction_terms_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        expected = FieldFunction.polynomial([((4,), -0.1), ((2,), -0.2)], dim=1)
        assert config.interaction.terms == expected.terms

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, schema_version=99))

    def test_unsorted_ladder(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, scale_ladder=[2.0, 1.0]))

    def test_ladder_below_one(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, scale_ladder=[0.5, 1.0]))

    def test_nonintegrable_interaction(self, tmp_path):
        bad = {"terms": [{"exponents": [3], "coeff": 1.0}]}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, interaction=bad))

    def test_indefinite_propagator(self, tmp_path):
        bad = {"base": [[2.0, 3.0], [3.0, 2.0]]}
        with pytest.raises(ConfigError, match="^NotPositiveDefinite: base propagator"):
            load_config(write_config(tmp_path, dimension=2, propagator=bad))

    def test_explicit_points(self, tmp_path):
        path = write_config(tmp_path, sample_points=[[0.0], [1.0]])
        assert load_config(path).sample_points == ((0.0,), (1.0,))

    def test_order_override_wins(self, tmp_path):
        config = load_config(write_config(tmp_path), order_override=30)
        assert config.quadrature_order == 30

    def test_highest_orders_accepted(self, tmp_path):
        assert load_config(
            write_config(tmp_path), order_override=MAX_ORDER
        ).quadrature_order == MAX_ORDER
        # 32 ** 4 is exactly the node cap.
        assert load_config(
            write_config(tmp_path, **config_4d()), order_override=32
        ).quadrature_order == 32


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_unknown_suite_is_config_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_named_suite(self, capsys):
        assert main(["verify", "--suite", "group", "--seed", "7"]) == 0


class TestFlowCommand:
    def test_produces_valid_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert [r["c"] for r in payload["records"]] == [1.0, 2.0, 4.0]
        for record in payload["records"]:
            assert len(record["samples"]) == 5
            assert record["residual"] >= 0.0

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["flow", "--config", cfg, "--out", str(out1)])
        main(["flow", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_projection_lists_every_monomial(self, tmp_path):
        # On a grid symmetric about 0 the x^1 coefficient of -0.3 x^2 comes
        # out exactly 0.0; it is listed all the same.
        cfg = write_config(
            tmp_path,
            interaction={"terms": [{"exponents": [2], "coeff": -0.3}]},
            scale_ladder=[1.0],
            sample_points={"grid": {"lo": -1.0, "hi": 1.0, "count": 9}},
            projection_degree=2,
        )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        terms = record["interaction_projection"]["terms"]
        assert [t["exponents"] for t in terms] == [[0], [1], [2]]
        assert terms[1]["coeff"] == 0.0
        assert terms[2]["coeff"] == pytest.approx(-0.3, rel=1e-12)

    def test_fiducial_scale_has_no_effect_with_base(self, tmp_path):
        outs = []
        for scale in (1.0, 2.5):
            cfg = write_config(
                tmp_path, f"config-{scale}.json",
                fiducial_scale=scale, semigroup_check_c=4.0,
            )
            outs.append(tmp_path / f"flow-{scale}.json")
            assert main(["flow", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_semigroup_check_record(self, tmp_path):
        cfg = write_config(tmp_path, semigroup_check_c=4.0, quadrature_order=40)
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        check = json.loads(out.read_text())["semigroup_check"]
        assert check["c"] == 4.0
        assert check["max_rel_error"] < 1e-5

    def test_singular_step_covariance_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dimension=2,
            propagator={"base": [[1.0, 0.0], [0.0, 1.0]]},
            dilation_generator=[[-0.5, 0.0], [0.0, 0.0]],
            interaction={"terms": [
                {"exponents": [4, 0], "coeff": -0.1},
                {"exponents": [0, 4], "coeff": -0.1},
            ]},
            scale_ladder=[2.0],
            sample_points=[[0.1, 0.2]],
            quadrature_order=8,
        )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_quadratic_flow_matches_closed_form(self, tmp_path):
        # pure mass term: coefficient map has an exact solution
        inter = {"terms": [{"exponents": [2], "coeff": -0.3}]}
        cfg = write_config(
            tmp_path,
            interaction=inter,
            scale_ladder=[2.0],
            projection_degree=2,
        )
        out = tmp_path / "flow.json"
        main(["flow", "--config", cfg, "--out", str(out)])
        record = json.loads(out.read_text())["records"][0]
        coeff = {
            tuple(t["exponents"]): t["coeff"]
            for t in record["interaction_projection"]["terms"]
        }[(2,)]
        a, p, c = 0.6, 1.0, 2.0
        expected = -0.5 * (a / c) / (1.0 + a * p * (1.0 - 1.0 / c))
        assert coeff == pytest.approx(expected, rel=1e-7)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fiducial_scale": "x"},
            {"fiducial_scale": math.inf},
            {"propagator": {"heat_kernel": {"spatial_dim": 3}}},
            {"propagator": {"base": [[math.nan]]}},
            {"dilation_generator": [[math.nan]]},
            {"interaction": {"terms": [{"exponents": [4]}]}},
            {"quadrature_order": "abc"},
            {"quadrature_order": math.inf},
            {"scale_ladder": ["a"]},
            {"scale_ladder": [1, math.inf]},
            {"sample_points": [["a"]]},
            {"sample_points": [[math.nan]]},
            {"sample_points": []},
            {"sample_points": {"grid": {"lo": -1.0, "hi": 1.0, "count": "q"}}},
            {"semigroup_check_c": math.inf},
            # JSON true is the integer 1 to Python; it is no integer here.
            {"schema_version": True},
            {"dimension": True},
            {"quadrature_order": True},
            {"projection_degree": True},
            {"sample_points": {"grid": {"lo": -1.0, "hi": 1.0, "count": True}}},
            # Integer fields are neither truncated nor parsed from strings.
            {"schema_version": 1.0},
            {"quadrature_order": 12.7},
            {"quadrature_order": "12"},
            {"projection_degree": 2.9},
            {"sample_points": {"grid": {"lo": -1.0, "hi": 1.0, "count": 5.9}}},
        ],
        ids=repr,
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # Numbers are neither parsed from strings nor read from booleans.
            ({"fiducial_scale": "2"}, "fiducial_scale"),
            ({"fiducial_scale": True}, "fiducial_scale"),
            ({"scale_ladder": ["1", 2.0]}, "scale_ladder"),
            ({"scale_ladder": [1.0, True]}, "scale_ladder"),
            ({"sample_points": [["0.5"]]}, "sample_points"),
            ({"sample_points": [[True]]}, "sample_points"),
            ({"sample_points": {"grid": {"lo": "-1", "hi": 1.0, "count": 5}}},
             "grid lo"),
            ({"sample_points": {"grid": {"lo": -1.0, "hi": True, "count": 5}}},
             "grid hi"),
            ({"semigroup_check_c": "4"}, "semigroup_check_c"),
            ({"propagator": {"base": [["1.5"]]}}, "base"),
            ({"propagator": {"base": [[True]]}}, "base"),
            ({"propagator": {"heat_kernel": {
                "spatial_dim": 1, "sites": [["0"]], "mass": 1.0}}}, "sites"),
            ({"dilation_generator": [["-0.5"]]}, "dilation_generator"),
            ({"interaction": {"terms": [{"exponents": [4], "coeff": "-0.1"}]}},
             "coeff"),
            ({"interaction": {"terms": [{"exponents": [4], "coeff": -0.1},
                                        {"exponents": [2], "coeff": False}]}},
             "coeff"),
            # Exponents are neither truncated nor parsed.
            ({"interaction": {"terms": [{"exponents": [4.7], "coeff": -0.1}]}},
             "exponents"),
            ({"interaction": {"terms": [{"exponents": ["4"], "coeff": -0.1}]}},
             "exponents"),
            ({"interaction": {"terms": [{"exponents": [4], "coeff": -0.1},
                                        {"exponents": [True], "coeff": 0.2}]}},
             "exponents"),
            # A power takes one multiplication per degree, so degrees are capped.
            ({"interaction": {"terms": [{"exponents": [740], "coeff": -0.1}]}},
             "exponents"),
            ({"interaction": {"terms": [{"exponents": [4], "coeff": -0.1},
                                        {"exponents": [-1], "coeff": 0.2}]}},
             "exponents"),
        ],
        ids=repr,
    )
    def test_malformed_number_names_its_key(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")
        assert not out.exists()

    def test_order_above_max_is_config_error(self, tmp_path, capsys):
        # numpy's Gauss-Hermite weights are 0 or NaN above order 370.
        cfg = write_config(tmp_path)
        out = tmp_path / "flow.json"
        argv = ["flow", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--quadrature-order", "400"]) == 2
        assert "quadrature_order must be in 2..370" in capsys.readouterr().err
        assert not out.exists()

    def test_node_count_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(
            QuadratureRule, "for_covariance", lambda *a, **k: built.append(a)
        )
        cfg = write_config(tmp_path, quadrature_order=100, **config_4d())
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert "needs 100000000 nodes" in capsys.readouterr().err
        assert built == []
        assert not out.exists()


class TestWtildeCommand:
    def test_csv_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["wtilde", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x0,wtilde,w"
        assert len(lines) == 6

    def test_csv_to_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "table.csv"
        assert main(["wtilde", "--config", cfg, "--out", str(out)]) == 0
        body = out.read_text()
        assert body.startswith("x0,wtilde,w\n")

    def test_heat_kernel_propagator(self, tmp_path):
        cfg = heat_kernel_config(tmp_path, {
            "spatial_dim": 3, "sites": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        })
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["wtilde", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"x0,x1,wtilde,w\n")
        assert len(outputs[0].splitlines()) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            # Neither truncated nor parsed from a string.
            {"spatial_dim": 3.7},
            {"spatial_dim": "3"},
            {"spatial_dim": 0},
            {"spatial_dim": -2},
            # Neither broadcast against the other sites nor cut to spatial_dim.
            {"sites": [[0.0], [1.0, 0.0, 0.0]]},
            {"spatial_dim": 2},
            {"mass": "0.1"},
            {"mass": True},
        ],
        ids=repr,
    )
    def test_malformed_heat_kernel_is_config_error(self, tmp_path, capsys, overrides):
        spec = {"spatial_dim": 3, "mass": 0.1,
                "sites": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}
        cfg = heat_kernel_config(tmp_path, {**spec, **overrides})
        out = tmp_path / "table.csv"
        assert main(["wtilde", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_quadratic_value(self, tmp_path, capsys):
        import math

        inter = {"terms": [{"exponents": [2], "coeff": -0.25}]}
        cfg = write_config(
            tmp_path, interaction=inter, sample_points=[[1.0]]
        )
        main(["wtilde", "--config", cfg])
        line = capsys.readouterr().out.strip().splitlines()[1]
        value = float(line.split(",")[1])
        a, p = 0.5, 1.0
        expected = -0.5 * math.log(1.0 + a * p) - 0.5 * a / (1.0 + a * p)
        assert value == pytest.approx(expected, rel=1e-9)


class TestBatchedFlow:
    def test_evaluates_each_record_once(self, tmp_path, monkeypatch):
        # Each flowed interaction is evaluated in one call on the whole
        # sample block; the projection reuses those values.
        shapes = []
        real_step = cli.renorm_step

        def counting_step(*args, **kwargs):
            flowed = real_step(*args, **kwargs)

            def evaluator(X):
                shapes.append(X.shape)
                return flowed.evaluator(X)

            return dataclasses.replace(flowed, evaluator=evaluator)

        monkeypatch.setattr(cli, "renorm_step", counting_step)
        cfg = write_config(tmp_path, scale_ladder=[2.0, 4.0])
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "f.json")]) == 0
        assert shapes == [(5, 1), (5, 1)]

    def test_output_independent_of_blas_threads(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dimension=2,
            propagator={"base": [[1.0, 0.3], [0.3, 0.8]]},
            interaction={"terms": [
                {"exponents": [4, 0], "coeff": -0.1},
                {"exponents": [0, 4], "coeff": -0.08},
                {"exponents": [2, 2], "coeff": -0.05},
                {"exponents": [1, 1], "coeff": 0.1},
            ]},
            sample_points=[[0.3, -0.4], [0.1, 0.2], [-0.5, 0.6], [0.7, 0.0]],
            quadrature_order=8,
            projection_degree=2,
            semigroup_check_c=4.0,
        )
        src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=src,
            )
            out = tmp_path / f"flow-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "oscrenorm.cli", "flow",
                 "--config", cfg, "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_verify_output_independent_of_blas_threads(self):
        src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=src,
            )
            proc = subprocess.run(
                [sys.executable, "-m", "oscrenorm.cli", "verify",
                 "--suite", "all", "--seed", "0"],
                env=env, check=True, timeout=300, capture_output=True,
            )
            outputs.append(proc.stdout)
        assert b"23/23 checks passed" in outputs[0]
        assert outputs[0] == outputs[1]
