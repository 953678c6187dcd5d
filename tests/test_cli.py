import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscrenorm
from oscrenorm import (
    FieldFunction,
    PropagatorFamily,
    QuadratureRule,
    cli,
    heat_kernel_base,
    is_positive_definite,
    renorm,
)
from oscrenorm.cli import MAX_ORDER, load_config, main
from oscrenorm.errors import ConfigError
from oscrenorm.gaussian import _hermite
from conftest import base_config, count_linalg, perfbench_config, write_config


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
        assert config.interaction.poly.terms == expected.poly.terms

    def test_error_messages_are_built_only_on_failure(self, tmp_path, monkeypatch):
        # Integer and number fields format their message, json.dumps and
        # all, only for a value they reject; the messages stay as they were.
        path, bad_int, bad_number = (
            write_config(tmp_path),
            write_config(tmp_path, "int.json", quadrature_order=12.7),
            write_config(tmp_path, "number.json", fiducial_scale="2"),
        )

        def refuse(value, *args, **kwargs):
            raise AssertionError(f"json.dumps({value!r}) for an accepted value")

        with monkeypatch.context() as patch:
            patch.setattr(cli.json, "dumps", refuse)
            load_config(path)
        with pytest.raises(ConfigError) as err:
            load_config(bad_int)
        assert str(err.value) == "quadrature_order must be an integer, not 12.7"
        with pytest.raises(ConfigError) as err:
            load_config(bad_number)
        assert str(err.value) == 'fiducial_scale must be a number, not "2"'

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
        assert capsys.readouterr().err == "error: unknown suite 'nonsense'\n"

    def test_help_lists_the_suites(self, capsys):
        from oscrenorm.verify import SUITES

        assert cli.VERIFY_SUITES == SUITES
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "one of ('group', 'gaussian', 'convolution', 'renorm', 'all')" in (
            " ".join(capsys.readouterr().out.split())
        )

    def test_named_suite(self, capsys):
        assert main(["verify", "--suite", "group", "--seed", "7"]) == 0

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_must_be_a_nonnegative_integer(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: oscrenorm verify")
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in err


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

    def test_out_dash_prints_the_file_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["flow", "--config", cfg, "--out", "flow.json"]) == 0
        assert main(["flow", "--config", cfg, "--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / "flow.json").read_bytes()
        assert not (tmp_path / "-").exists()

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the semigroup check only records its gap; this 4-D "
        "flow records 1.47e-3 at the default order 8 and exits 0 "
        "(ROADMAP item 4)"))
    def test_semigroup_gap_above_tolerance_exits_nonzero(self, tmp_path):
        # Per-axis -0.1 x_i^4 - 0.2 x_i^2 with P0 = I, at x_i = 0.5.
        terms = []
        for axis in np.eye(4, dtype=int).tolist():
            terms += [{"exponents": [4 * e for e in axis], "coeff": -0.1},
                      {"exponents": [2 * e for e in axis], "coeff": -0.2}]
        cfg = write_config(
            tmp_path,
            dimension=4,
            propagator={"base": np.eye(4).tolist()},
            interaction={"terms": terms},
            scale_ladder=[1.0],
            sample_points=[[0.5] * 4],
            quadrature_order=None,
            semigroup_check_c=4.0,
        )
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "f.json")]) != 0

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

    def test_duplicate_exponents_are_merged(self, tmp_path):
        # -x^4 + x^4 - 0.1 x^2 is the integrable -0.1 x^2.
        outs = []
        for name, terms in (
            ("repeated", [([4], -1.0), ([4], 1.0), ([2], -0.1)]),
            ("merged", [([2], -0.1)]),
        ):
            interaction = {"terms": [{"exponents": e, "coeff": c} for e, c in terms]}
            cfg = write_config(tmp_path, f"{name}.json", interaction=interaction)
            outs.append(tmp_path / f"{name}-flow.json")
            assert main(["flow", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_large_negative_constant_shifts_every_sample(self, tmp_path):
        # exp(-800) underflows to 0; the flow stays in the log domain.
        outs = {}
        for a in (0.0, -800.0):
            terms = base_config()["interaction"]["terms"] + [
                {"exponents": [0], "coeff": a}
            ]
            cfg = write_config(
                tmp_path, f"config{a}.json", interaction={"terms": terms},
                semigroup_check_c=4.0,
            )
            out = tmp_path / f"flow{a}.json"
            assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
            outs[a] = json.loads(out.read_text())["records"]
        for shifted, record in zip(outs[-800.0], outs[0.0]):
            for s, r in zip(shifted["samples"], record["samples"]):
                assert s["value"] - r["value"] == pytest.approx(-800.0, abs=1e-12)

    def singular_step_config(self, tmp_path, **overrides):
        # The generator fixes the second axis, so every step at c > 1 has
        # the singular covariance diag(1 - 1/c, 0).
        settings = dict(
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
        settings.update(overrides)
        return write_config(tmp_path, **settings)

    def test_singular_step_covariance_is_an_error(self, tmp_path, capsys):
        cfg = self.singular_step_config(tmp_path)
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "c = 2.0" in err[0]
        assert not out.exists()

    def test_singular_semigroup_half_step_is_an_error(self, tmp_path, capsys):
        # The ladder's only step is the identity; the semigroup check steps
        # by sqrt(4) = 2 first.
        cfg = self.singular_step_config(
            tmp_path, scale_ladder=[1.0], semigroup_check_c=4.0
        )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "c = 2.0" in err[0]
        assert not out.exists()

    def test_identity_steps_of_a_singular_family_run(self, tmp_path):
        cfg = self.singular_step_config(tmp_path, scale_ladder=[1.0])
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0

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

    @pytest.mark.parametrize("terms", [
        [([4, 0], -1.0), ([0, 3], 1.0)],
        [([4, 0], -1.0), ([2, 2], 2.0), ([0, 4], -1.0)],
    ])
    def test_semidefinite_leading_form_exit_code(self, tmp_path, capsys, terms):
        interaction = {"terms": [{"exponents": e, "coeff": c} for e, c in terms]}
        path = write_config(
            tmp_path, dimension=2, propagator={"base": [[1.0, 0.0], [0.0, 1.0]]},
            interaction=interaction, sample_points=[[0.0, 0.0]],
        )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: interaction is not integrable: it needs even maximal "
            "degree with a negative-definite leading form\n"
        )
        assert not out.exists()

    def test_leading_form_null_on_an_axis_runs(self, tmp_path, capsys):
        # -0.1 x^4 vanishes along y, where -0.2 y^2 decays.
        interaction = {"terms": [
            {"exponents": [4, 0], "coeff": -0.1}, {"exponents": [0, 2], "coeff": -0.2},
        ]}
        path = write_config(
            tmp_path, dimension=2, propagator={"base": [[1.0, 0.0], [0.0, 1.0]]},
            interaction=interaction, sample_points=[[0.0, 0.0]],
        )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["records"]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flow", "wtilde"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, command):
        # The run completes, then its output file cannot be opened: one
        # error line and exit 2, as for a config that cannot be read.
        out = tmp_path / "missing" / "out"
        assert main([command, "--config", write_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(out) in err and len(err.splitlines()) == 1
        assert not out.parent.exists()

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

    @pytest.mark.parametrize("ladder, steps, lifts, rules", [
        ([1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 2.0], 3, 2),
        ([1.0, 4.0], [1.0, 4.0, 2.0, 2.0], 3, 2),
        ([1.0, 3.0], [1.0, 3.0, 4.0, 2.0, 2.0], 4, 3),
    ])
    def test_semigroup_check_reuses_the_ladder_steps(
        self, tmp_path, monkeypatch, ladder, steps, lifts, rules
    ):
        # The check at c = 4 takes its direct step and its first half step
        # from the ladder when they are on it, and builds them otherwise;
        # either way its error is that of fresh steps.  load_config lifts
        # each factor once, every step reuses that lift, and each step
        # covariance gets one quadrature rule, the identity step none.
        calls, lifted, built = [], [], []
        real_step, real_ur = cli.renorm_step, renorm.ur
        real_rule = QuadratureRule.for_covariance

        def counting_step(family, c, I, order=None):
            calls.append(c)
            return real_step(family, c, I, order=order)

        def counting_ur(C, M):
            lifted.append(M)
            return real_ur(C, M)

        def counting_rule(cls, C, order=None):
            built.append(C)
            return real_rule(C, order)

        monkeypatch.setattr(cli, "renorm_step", counting_step)
        monkeypatch.setattr(renorm, "ur", counting_ur)
        monkeypatch.setattr(QuadratureRule, "for_covariance", classmethod(counting_rule))
        cfg = write_config(tmp_path, scale_ladder=ladder, semigroup_check_c=4.0)
        out = tmp_path / "f.json"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        assert calls == steps
        assert (len(lifted), len(built)) == (lifts, rules)
        config = load_config(cfg)
        points = np.array(config.sample_points)
        base, dilation, I = config.family.base, config.family.dilation, config.interaction

        def fresh_step(c, f):
            return real_step(PropagatorFamily(base, dilation), c, f, order=20)

        a = fresh_step(4.0, I).values(points)
        b = fresh_step(2.0, fresh_step(2.0, I)).values(points)
        expected = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12)))
        assert json.loads(out.read_text())["semigroup_check"]["max_rel_error"] == expected

    def test_each_covariance_is_eigendecomposed_once(self, tmp_path, monkeypatch):
        # The benchmark's flow-1d config: the base and the step covariances
        # at c = 1, 2 and 4 take one eigvalsh each, which the family's, the
        # lift's and the config's tests and each step rule's measure share
        # (eight calls when each test took its own); the rules at c = 2
        # and 4 take one Cholesky factor each.
        path = tmp_path / "flow-1d.json"
        path.write_text(json.dumps(perfbench_config("flow-1d", 0)))
        # The 1-D rule of the default order is a constant: a cold cache
        # adds no eigvalsh.
        _hermite.cache_clear()
        calls = count_linalg(monkeypatch)
        config = load_config(str(path))
        assert cli.cmd_flow(config, 0, str(tmp_path / "out.json")) == 0
        assert calls == {"eigvalsh": 4, "cholesky": 2}

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


def readme_json_blocks():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)


class TestReadmeConfig:
    def test_full_config_runs(self, tmp_path):
        (config,) = [b for b in readme_json_blocks() if b.startswith("{")]
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        table = tmp_path / "table.csv"
        assert main(["wtilde", "--config", str(cfg), "--out", str(table)]) == 0

    def test_heat_kernel_fragment_builds_a_base(self):
        (fragment,) = [b for b in readme_json_blocks() if b.startswith('"propagator"')]
        hk = json.loads("{" + fragment + "}")["propagator"]["heat_kernel"]
        base = heat_kernel_base(hk["spatial_dim"], hk["sites"], 1.0, hk["mass"])
        assert base.dim == len(hk["sites"])
        assert is_positive_definite(base)


#: Keys and strings that json escapes: non-ASCII, quotes, backslashes and
#: control characters.
AWKWARD_TEXT = st.text() | st.sampled_from(
    ["", "é", "\"", "\\", "\x00", "\x1f", "\n\t\r", " ", "\ud800", "😀", "a\"b\\c"]
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63))
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e-05, 1e16, math.nan, math.inf, -math.inf])
    | AWKWARD_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(AWKWARD_TEXT, children)
    ),
    max_leaves=30,
)


class TestJsonText:
    """``cli._json_text`` writes what ``json.dumps(value, sort_keys=True,
    indent=2)`` writes."""

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    @example({
        "é\"\\\x00\n😀": [True, False, None, 2**64, -(2**70), 0, -0.0, 5e-324,
                         1e-05, 1e16, math.nan, math.inf, -math.inf],
        "": {},
        "a": [],
        "deep": [[{"b": [(1.5, {"c": {"d": []}})]}]],
        "numpy": [np.float64(0.1), np.float64(-np.inf)],
        "text": ["é", "\"\\", "\x1f", "\ud800", "😀"],
    })
    def test_bytes_of_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": object()})

    @pytest.mark.parametrize("config", ["readme-1d", "2d-semigroup-check"])
    def test_flow_output_is_the_stdlib_layout(self, tmp_path, config):
        if config == "readme-1d":
            (text,) = [b for b in readme_json_blocks() if b.startswith("{")]
            cfg = tmp_path / "config.json"
            cfg.write_text(text)
        else:
            cfg = write_config(
                tmp_path,
                dimension=2,
                propagator={"base": [[1.0, 0.3], [0.3, 0.8]]},
                interaction={"terms": [
                    {"exponents": [4, 0], "coeff": -0.1},
                    {"exponents": [0, 4], "coeff": -0.08},
                    {"exponents": [2, 2], "coeff": -0.05},
                ]},
                sample_points=[[0.3, -0.4], [0.0, 0.0]],
                quadrature_order=10,
                semigroup_check_c=4.0,
            )
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
