"""Config schema, overrides, artifact writers, and the CLI contract.

CLI commands are exercised in-process through cli.main(argv) so the
exit-code contract (0 ok, 1 usage/config, 2 numerical, 3 verification)
is asserted on return values, and determinism is checked byte-for-byte
on the CSV/JSON artifacts.
"""

import argparse
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from test_stability import FROZEN_TOPOLOGICAL
from test_torus import _growing_step
from vortexlab import (
    BetaCurve,
    EigenConvergenceError,
    EigenResult,
    ModelParams,
    SweepRecord,
    TorusDomain,
    TorusGeometry,
    VortexReport,
    VortexSet,
    asymptotics,
    compute_beta_curve,
    export_curve_csv,
    export_sweep_csv,
    integrate_radial,
    pohozaev_value,
    run_sweep,
    solve_newton,
    torus,
    weighted_eigen_radial,
)
from vortexlab.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           build_parser, main)
from vortexlab.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    atomic_path,
    dumps_json,
    load_field,
    save_field,
    validate_config,
    write_json,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_cli(cwd, *argv):
    """vortexlab.cli run on argv in a new interpreter on this checkout's
    src/, in cwd: stderr is what a user sees, with no test's warning
    filters in between."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "vortexlab.cli", *argv],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


pytestmark = [
    pytest.mark.filterwarnings("ignore::vortexlab.torus.ResolutionWarning"),
    pytest.mark.filterwarnings("ignore:.*snapped to the grid.*"),
]


def _write_cfg(tmp_path, tree, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def _base_cfg(tmp_path, grid=64, prefix="run"):
    return {
        "domain": {"periods": [4.0, 4.0], "grid_shape": [grid, grid]},
        "model": {"tau": 1.0, "epsilon": 0.15},
        "vortices": {"positive": [{"point": [2.0, 2.0]}]},
        "solver": {"continuation": [0.25, 0.2, 0.15]},
        "output": {"dir": str(tmp_path), "prefix": prefix},
    }


# ---------------------------------------------------------------------------
# schema


class TestSchema:
    def test_minimal_tree_autofills_defaults(self):
        tree = validate_config({})
        assert tree["domain"]["periods"] == [1.0, 1.0]
        assert tree["domain"]["grid_shape"] == [256, 256]
        assert tree["model"]["epsilon"] is None
        assert tree["solver"]["method"] == "newton"
        assert tree["verify"] == {"field": None}
        # sections whose required keys have no defaults stay absent
        assert tree["sweep"] is None
        assert tree["stability"] is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"bogus": 1})
        assert ei.value.pointer == "/bogus"

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"model": {"bogus": 1}})
        assert ei.value.pointer == "/model/bogus"

    def test_wrong_type_carries_pointer(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"model": {"tau": "one"}})
        assert ei.value.pointer == "/model/tau"

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"model": {"epsilon": -0.1}})
        assert ei.value.pointer == "/model/epsilon"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be finite") as ei:
            validate_config({"domain": {"periods": [bad, 4.0]}})
        assert ei.value.pointer == "/domain/periods/0"

    def test_nan_vortex_coordinate_rejected(self):
        tree = {"vortices": {"positive": [{"point": [math.nan, 1.0]}]}}
        with pytest.raises(ConfigError, match="must be finite") as ei:
            validate_config(tree)
        assert ei.value.pointer == "/vortices/positive/0/point/0"

    def test_vortex_entry_needs_point(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"vortices": {"positive": [{"multiplicity": 2}]}})
        assert ei.value.pointer == "/vortices/positive/0/point"

    def test_sweep_epsilons_must_decrease(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"sweep": {"epsilons": [0.1, 0.2]}})
        assert ei.value.pointer == "/sweep/epsilons"

    def test_message_embeds_pointer(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"model": {"tau": "one"}})
        assert str(ei.value).endswith("(at /model/tau)")

    def test_multiplicity_defaults_to_one(self):
        tree = validate_config(
            {"vortices": {"positive": [{"point": [1.0, 1.0]}]}})
        assert tree["vortices"]["positive"][0]["multiplicity"] == 1


# ---------------------------------------------------------------------------
# overrides


class TestOverrides:
    def test_dot_path_parses_json_value(self):
        tree = apply_overrides({}, ["model.epsilon=0.2"])
        assert tree == {"model": {"epsilon": 0.2}}
        assert isinstance(tree["model"]["epsilon"], float)

    def test_unquoted_string_taken_literally(self):
        tree = apply_overrides({}, ["output.prefix=run7"])
        assert tree["output"]["prefix"] == "run7"

    def test_json_list_and_bool_values(self):
        tree = apply_overrides({}, ["sweep.epsilons=[0.2, 0.1]",
                                    "sweep.compute_eigen=true"])
        assert tree["sweep"]["epsilons"] == [0.2, 0.1]
        assert tree["sweep"]["compute_eigen"] is True

    def test_list_index_assignment(self):
        raw = {"vortices": {"positive": [{"point": [1.0, 1.0],
                                          "multiplicity": 1}]}}
        tree = apply_overrides(raw, ["vortices.positive.0.multiplicity=3"])
        assert tree["vortices"]["positive"][0]["multiplicity"] == 3

    def test_descends_through_list_elements(self):
        raw = {"vortices": {"positive": [{"point": [1.0, 1.0]}]}}
        tree = apply_overrides(raw, ["vortices.positive.0.point.1=2.5"])
        assert tree["vortices"]["positive"][0]["point"] == [1.0, 2.5]

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["model.tau"])

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["=1.0"])

    def test_index_out_of_range_carries_pointer(self):
        raw = {"vortices": {"positive": [{"point": [1.0, 1.0]}]}}
        with pytest.raises(ConfigError) as ei:
            apply_overrides(raw, ["vortices.positive.5.multiplicity=2"])
        assert ei.value.pointer == "/vortices/positive/5"

    def test_non_integer_index_rejected(self):
        raw = {"vortices": {"positive": [{"point": [1.0, 1.0]}]}}
        with pytest.raises(ConfigError, match="list index expected"):
            apply_overrides(raw, ["vortices.positive.first.point=[0,0]"])

    def test_source_tree_not_mutated(self):
        raw = {"model": {"tau": 1.0}}
        apply_overrides(raw, ["model.tau=2.0"])
        assert raw["model"]["tau"] == 1.0


# ---------------------------------------------------------------------------
# deterministic JSON and atomic writes


class TestJsonWriter:
    def test_floats_roundtrip_exactly(self):
        x = math.pi / 7.0
        doc = json.loads(dumps_json({"x": x, "y": 0.1}))
        assert doc["x"] == x
        assert doc["y"] == 0.1

    def test_non_finite_tokens(self):
        text = dumps_json({"a": float("nan"), "b": float("inf"),
                           "c": float("-inf")})
        assert "NaN" in text and "-Infinity" in text
        doc = json.loads(text)
        assert math.isnan(doc["a"]) and doc["b"] == math.inf

    def test_key_order_is_canonical(self):
        one = dumps_json({"b": 1, "a": {"d": 2, "c": 3}})
        two = dumps_json({"a": {"c": 3, "d": 2}, "b": 1})
        assert one == two
        assert one.index('"a"') < one.index('"b"')

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"x": {1, 2}})

    def test_drops_large_arrays(self):
        out = json.loads(dumps_json({"big": np.zeros(65),
                                     "small": np.arange(3)}))
        assert "big" not in out
        assert out["small"] == [0, 1, 2]


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json(str(target), {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_path(str(target)) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("partial")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestCsvWriter:
    def test_sweep_csv_cells_by_one_rule(self, tmp_path):
        # None empty, bool true/false, int %d, float %.17g, str as is: a
        # failed step (error text, nan cells, empty flags, eigen and
        # per-vortex cells) and a solved one with an eigen result
        nan = float("nan")
        failed = SweepRecord(epsilon=0.2, sup_K=nan, inf_K=nan,
                             total_abs_mass=nan, error="solve failed: x")
        solved = SweepRecord(
            epsilon=0.1, sup_K=-0.25, inf_K=-1.5, total_abs_mass=12.5,
            per_vortex=(VortexReport(
                vortex=0, point=(2.0, 2.0), multiplicity=1, sign=1,
                mass=-12.5, beta_proxy=0.1, pohozaev=(1.0, 0.5, 0.25),
                quantization=25.0),),
            eigen=EigenResult(eigenvalue=3.5, eigenvector=np.ones(4),
                              residual_norm=1e-10, iterations=7),
            K_radius=0.5, resolved=True, h_over_eps=0.3125, minres_failed=0)
        path = tmp_path / "sweep.csv"
        export_sweep_csv([failed, solved], path)
        assert path.read_text() == "\n".join([
            "epsilon,sup_K,inf_K,total_abs_mass,error,resolved,h_over_eps,"
            "minres_failed,mu,eigen_iterations,v0_mass,v0_beta_proxy,"
            "v0_pohozaev_volume,v0_pohozaev_boundary,v0_pohozaev_residual,"
            "v0_quantization",
            "0.20000000000000001,nan,nan,nan,solve failed: x,,nan,,,,,,,,,",
            "0.10000000000000001,-0.25,-1.5,12.5,,true,0.3125,0,3.5,7,"
            "-12.5,0.10000000000000001,1,0.5,0.25,25",
        ]) + "\n"

    @pytest.mark.parametrize("name, export", [
        ("sweep.csv", lambda path: export_sweep_csv([SweepRecord(
            epsilon=0.1, sup_K=0.0, inf_K=0.0, total_abs_mass=0.0,
            eigen=object())], path)),
        ("curve.csv", lambda path: export_curve_csv(BetaCurve(
            tau=1.0, samples=[(-1.0, 5.2, "NonTopologicalI")],
            monotone_violations=0), path)),
    ], ids=["sweep", "curve"])
    def test_a_failed_export_leaves_the_target(self, tmp_path, name, export):
        # the rows are built before anything is written
        target = tmp_path / name
        target.write_text("old")
        with pytest.raises(AttributeError):
            export(target)
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == [name]


# ---------------------------------------------------------------------------
# field archive


@pytest.fixture(scope="module")
def small_field():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
    vs = VortexSet(positive_vortices=(((2.0, 2.0), 1),))
    return solve_newton(TorusGeometry(dom, vs),
                        ModelParams(tau=1.0, epsilon=0.2),
                        continuation=[0.25, 0.2])


class TestFieldArchive:
    def test_roundtrip_is_exact(self, small_field, tmp_path):
        path = str(tmp_path / "field.npz")
        save_field(small_field, path)
        back = load_field(path)
        assert np.array_equal(back.u0, small_field.u0)
        assert np.array_equal(back.v, small_field.v)
        assert back.params == small_field.params
        assert back.vortices.signed() == small_field.vortices.signed()
        assert back.domain.periods == small_field.domain.periods
        assert back.domain.grid_shape == small_field.domain.grid_shape
        assert back.diagnostics["iterations"] == \
            small_field.diagnostics["iterations"]
        # the archive holds v and the metadata; u0 is rebuilt from them
        with np.load(path) as npz:
            assert sorted(npz.files) == ["meta", "v"]

    def test_old_archive_with_u0_loads(self, small_field, tmp_path):
        # archives written before u0 was rebuilt on load carry u0 too
        path = str(tmp_path / "old.npz")
        save_field(small_field, path)
        with np.load(path) as npz:
            v, meta = npz["v"], npz["meta"]
        np.savez(path, u0=small_field.u0, v=v, meta=meta)
        back = load_field(path)
        assert np.array_equal(back.u0, small_field.u0)
        assert np.array_equal(back.v, small_field.v)
        assert back.vortices.signed() == small_field.vortices.signed()

    def test_shape_mismatch_rejected(self, tmp_path):
        meta = {
            "periods": [4.0, 4.0], "grid_shape": [64, 64],
            "tau": 1.0, "epsilon": 0.2, "nonlinearity": "SigmaO3",
            "positive": [[[2.0, 2.0], 1]], "negative": [],
            "diagnostics": {},
        }
        path = tmp_path / "bad.npz"
        np.savez(path, u0=np.zeros((32, 32)), v=np.zeros((32, 32)),
                 meta=np.bytes_(dumps_json(meta).encode()))
        with pytest.raises(ValueError, match="grid_shape"):
            load_field(str(path))


def _archive_without_meta(path):
    np.savez(path, v=np.zeros((8, 8)))


def _archive_bad_zip(path):
    path.write_bytes(b"PK\x03\x04garbage")


def _archive_meta(meta):
    def write(path):
        np.savez(path, v=np.zeros((8, 8)),
                 meta=np.bytes_(dumps_json(meta).encode()))
    return write


def _archive_csh(path):
    # whole and well typed, but of the retired Chern-Simons-Higgs kernel
    np.savez(path, v=np.zeros((32, 32)), meta=np.bytes_(dumps_json({
        "periods": [4.0, 4.0], "grid_shape": [32, 32], "tau": 1.0,
        "epsilon": 0.3, "nonlinearity": "CSH",
        "positive": [[[2.0, 2.0], 1]], "negative": [],
        "diagnostics": {}}).encode()))


_MALFORMED_ARCHIVES = {
    "no_meta": _archive_without_meta,
    "bad_zip": _archive_bad_zip,
    "missing_key": _archive_meta({"periods": [1, 1]}),
    "mistyped_key": _archive_meta({
        "periods": [4.0, 4.0], "grid_shape": [8, 8], "tau": 1.0,
        "epsilon": 0.2, "nonlinearity": "SigmaO3", "positive": 5,
        "negative": []}),
    "csh_kernel": _archive_csh,
}


class TestMalformedArchive:
    @pytest.mark.parametrize("kind", sorted(_MALFORMED_ARCHIVES))
    def test_load_field_names_the_archive(self, tmp_path, kind):
        path = tmp_path / "bad.npz"
        _MALFORMED_ARCHIVES[kind](path)
        with pytest.raises(ValueError, match="malformed field archive") as ei:
            load_field(str(path))
        assert str(path) in str(ei.value)

    @pytest.mark.parametrize("kind", sorted(_MALFORMED_ARCHIVES))
    def test_verify_exits_one(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.npz"
        _MALFORMED_ARCHIVES[kind](path)
        cfg = _write_cfg(tmp_path, {
            "verify": {"field": str(path)},
            "output": {"dir": str(tmp_path), "prefix": "run"}})
        assert main(["verify", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed field archive %s" % path)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run_verify.json").exists()

    def test_retired_kernel_is_named(self, tmp_path):
        path = tmp_path / "csh.npz"
        _archive_csh(path)
        with pytest.raises(ValueError, match="nonlinearity 'CSH' is not"):
            load_field(str(path))


# ---------------------------------------------------------------------------
# shoot and beta-curve commands


class TestShootCommand:
    def test_writes_profile_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        rc = main(["shoot", "--tau", "1.0", "--s", "-1.0",
                   "--rmax", "1e4", "--out", out])
        assert rc == EXIT_OK
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "r,u,du_dr"
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["bc_type"] == "NonTopologicalI"
        assert doc["beta"] > 2.0
        assert "beta =" in capsys.readouterr().out

    def test_json_mode_emits_one_document(self, tmp_path, capsys):
        rc = main(["shoot", "--tau", "1.0", "--s", "-1.0", "--rmax", "1e4",
                   "--out", str(tmp_path / "p"), "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["s"] == -1.0 and "beta" in doc

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["shoot", "--tau", "1.0", "--s", "-1.0", "--rmax", "1e4",
                "--out", str(tmp_path / "p")]
        assert main(argv) == EXIT_OK
        first = ((tmp_path / "p.csv").read_bytes(),
                 (tmp_path / "p.json").read_bytes())
        assert main(argv) == EXIT_OK
        assert (tmp_path / "p.csv").read_bytes() == first[0]
        assert (tmp_path / "p.json").read_bytes() == first[1]

    def test_missing_tau_is_usage_error(self, capsys):
        assert main(["shoot", "--s", "-1.0"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_bracket_conflicts_with_s(self, tmp_path, capsys):
        rc = main(["shoot", "--tau", "1.0", "--s", "-1.0",
                   "--bracket", "-8", "8", "--out", str(tmp_path / "p")])
        assert rc == EXIT_USAGE

    def test_find_topological_needs_bracket(self, capsys):
        rc = main(["shoot", "--tau", "1.0", "--find-topological"])
        assert rc == EXIT_USAGE

    def test_rmax_conflicts_with_find_topological(self, tmp_path, capsys):
        # bisection shoots to its own radius, so an --rmax would be ignored
        rc = main(["shoot", "--tau", "1", "--find-topological", "--nu", "1",
                   "--bracket", "-8", "8", "--rmax", "5",
                   "--out", str(tmp_path / "p")])
        assert rc == EXIT_USAGE
        assert "--rmax" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_find_topological_records_its_bisection(self, tmp_path, capsys):
        rc = main(["shoot", "--tau", "1", "--find-topological", "--nu", "2",
                   "--bracket", "-16", "16", "--out", str(tmp_path / "p")])
        assert rc == EXIT_OK
        diag = json.loads((tmp_path / "p.json").read_text())["diagnostics"]
        assert diag["bisect_probes"] > 2
        assert 0 <= diag["bisect_reshots"] <= diag["bisect_probes"]
        assert diag["bisect_nfev"] > diag["nfev"]

    def test_unset_nu_is_the_bisections_default(self, tmp_path, capsys):
        # without --nu, find_topological's own default (0) applies
        docs = []
        for name, extra in (("unset", []), ("zero", ["--nu", "0"])):
            out = tmp_path / name
            assert main(["shoot", "--tau", "1", "--find-topological",
                         "--bracket", "-1", "2", *extra,
                         "--out", str(out)]) == EXIT_OK
            doc = json.loads((tmp_path / (name + ".json")).read_text())
            assert doc.pop("profile_csv") == str(out) + ".csv"
            docs.append((doc, (tmp_path / (name + ".csv")).read_bytes()))
        assert docs[0] == docs[1]
        assert docs[0][0]["nu"] == 0.0

    def test_overflowing_nu_is_one_error_line(self, tmp_path):
        # (2 nu + 2)**2 of the series start overflowed with a traceback
        proc = _fresh_cli(tmp_path, "shoot", "--tau", "1", "--s", "2",
                          "--nu", "1e154")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: nu must be finite, nonnegative and " \
            "at most 6.703903964971298e+153, got 1e+154\n"
        assert os.listdir(tmp_path) == []

    def test_step_size_underflow_is_numerical_failure(self, tmp_path,
                                                      capsys):
        # DOP853's own failure message, as scipy's stock solver words it
        rc = main(["shoot", "--tau", "1e-300", "--s", "-2",
                   "--out", str(tmp_path / "p")])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: Required " \
            "step size is less than spacing between numbers.\n"
        assert os.listdir(tmp_path) == []

    def test_same_side_bracket_is_numerical_failure(self, tmp_path, capsys):
        rc = main(["shoot", "--tau", "1.0", "--find-topological",
                   "--nu", "1.0", "--bracket", "-8", "-7",
                   "--out", str(tmp_path / "p")])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["shoot", "--tau", "1", "--s", "-1"],
        ["beta-curve", "--tau", "1", "--s-min", "-2", "--s-max", "-1",
         "--n", "3"]], ids=["shoot", "beta-curve"])
    def test_infinite_rmax_is_an_error(self, tmp_path, capsys, argv):
        # an infinite radius once overflowed the output grid's size
        rc = main(argv + ["--rmax", "inf", "--out", str(tmp_path / "p")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: r_max must be finite and >= 10, got inf")
        assert not (tmp_path / "p.json").exists()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("ppd", ["0", "-3", "9"])
    @pytest.mark.parametrize("mode", [
        ["--s", "-1", "--rmax", "1e3"],
        ["--find-topological", "--nu", "1", "--bracket", "-8", "8"]],
        ids=["shot", "bisection"])
    def test_points_per_decade_below_ten_is_an_error(self, tmp_path, capsys,
                                                     ppd, mode):
        rc = main(["shoot", "--tau", "1", *mode, "--points-per-decade", ppd,
                   "--out", str(tmp_path / "p")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: points_per_decade must be >= 10")
        assert not (tmp_path / "p.csv").exists()

    def test_negative_value_in_scientific_notation(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        assert main(["shoot", "--s", "-1e-3", "--tau", "1", "--rmax", "1e3",
                     "--out", out]) == EXIT_OK
        assert json.loads((tmp_path / "p.json").read_text())["s"] == -1e-3
        # a dash word is still read as an option name
        assert main(["shoot", "--tau", "1", "--s", "-x"]) == EXIT_USAGE
        assert "argument --s: expected one argument" in \
            capsys.readouterr().err

    def test_last_line_names_what_was_written(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        assert main(["shoot", "--tau", "1", "--s", "-1", "--rmax", "1e3",
                     "--out", out]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "wrote %s.csv, %s.json" % (out, out)


# the four rules of a radial-profile request, as shoot flags and as the
# stability block: (shoot arguments, flag named, stability block, pointer)
_RADIAL_REQUEST_CONFLICTS = {
    "bracket_required": (
        ["--find-topological"], "--bracket",
        {"find_topological": True}, "/stability/bracket"),
    "s_with_topological": (
        ["--find-topological", "--bracket", "-8", "8", "--s", "-1"], "--s",
        {"find_topological": True, "bracket": [-8.0, 8.0], "s": -1.0},
        "/stability/s"),
    "r_max_with_topological": (
        ["--find-topological", "--bracket", "-8", "8", "--rmax", "1e6"],
        "--rmax",
        {"find_topological": True, "bracket": [-8.0, 8.0], "r_max": 1e6},
        "/stability/r_max"),
    "s_required": ([], "--s", {}, "/stability/s"),
    "bracket_without_topological": (
        ["--s", "-1", "--bracket", "-8", "8"], "--bracket",
        {"s": -1.0, "bracket": [-8.0, 8.0]}, "/stability/bracket"),
}


class TestRadialRequestConflicts:
    @pytest.mark.parametrize("name", sorted(_RADIAL_REQUEST_CONFLICTS))
    def test_shoot_names_the_flag(self, tmp_path, capsys, name):
        flags, flag, _, _ = _RADIAL_REQUEST_CONFLICTS[name]
        rc = main(["shoot", "--tau", "1", "--nu", "1", *flags,
                   "--out", str(tmp_path / "p")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("name", sorted(_RADIAL_REQUEST_CONFLICTS))
    def test_stability_names_the_pointer(self, tmp_path, capsys, name):
        _, _, block, pointer = _RADIAL_REQUEST_CONFLICTS[name]
        tree = {"stability": dict(block, target="radial", nu=1.0),
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "(at %s)" % pointer in err
        assert not (tmp_path / "st_stability.json").exists()


class TestBetaCurveCommand:
    def test_samples_requested_range(self, tmp_path):
        out = str(tmp_path / "b")
        rc = main(["beta-curve", "--tau", "1.0", "--s-min", "-2.0",
                   "--s-max", "-1.0", "--n", "3", "--rmax", "1e4",
                   "--out", out])
        assert rc == EXIT_OK
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "s,beta,bc_type"
        assert len(lines) == 4

    def test_degenerate_range_is_usage_error(self, tmp_path, capsys):
        rc = main(["beta-curve", "--tau", "1.0", "--s-min", "-1.0",
                   "--s-max", "-2.0", "--n", "3",
                   "--out", str(tmp_path / "b")])
        assert rc == EXIT_USAGE

    def test_single_sample_is_usage_error(self, tmp_path, capsys):
        rc = main(["beta-curve", "--tau", "1.0", "--s-min", "-2.0",
                   "--s-max", "-1.0", "--n", "1",
                   "--out", str(tmp_path / "b")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("s_min, s_max, flag, value", [
        ("-1", "inf", "s-max", "inf"), ("-inf", "1", "s-min", "-inf")])
    def test_non_finite_range_names_its_flag(self, tmp_path, s_min, s_max,
                                             flag, value):
        # refused before linspace, which warned on an infinite range
        proc = _fresh_cli(tmp_path, "beta-curve", "--tau", "1", "--n", "4",
                          "--s-min", s_min, "--s-max", s_max)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "usage error: beta-curve: --%s must be " \
            "finite, got %s\n" % (flag, value)
        assert os.listdir(tmp_path) == []

    def test_summary_reports_nfev(self, tmp_path):
        out = str(tmp_path / "b")
        assert main(["beta-curve", "--tau", "1.0", "--s-min", "-2.0",
                     "--s-max", "-1.0", "--n", "3", "--rmax", "1e4",
                     "--out", out]) == EXIT_OK
        doc = json.loads((tmp_path / "b.json").read_text())
        curve = compute_beta_curve(1.0, [-2.0, -1.5, -1.0], r_max=1e4)
        assert doc["nfev"] == curve.nfev > 0


@pytest.mark.parametrize("argv", [
    ["shoot", "--tau", "1.0", "--s", "-1.0"],
    ["beta-curve", "--tau", "1.0", "--s-min", "-2.0", "--s-max", "-1.0",
     "--n", "3"],
])
def test_kernel_flag_is_gone(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path / "o"), "--kernel", "SigmaO3"])
    assert rc == EXIT_USAGE
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv", [
    ["shoot", "--tau", "1.0", "--s", "-1.0"],
    ["beta-curve", "--tau", "1.0", "--s-min", "-2.0", "--s-max", "-1.0",
     "--n", "3"],
], ids=["shoot", "beta-curve"])
def test_tol_flag_is_gone(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path / "o"), "--tol", "1e-9"])
    assert rc == EXIT_USAGE
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def _subcommands():
    """name -> subparser of every command of build_parser()."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flag_argv(action, value):
    n = action.nargs if isinstance(action.nargs, int) else 1
    return [action.option_strings[-1]] + [value] * n


_FLOAT_FLAGS = [(name, action.dest) for name, p in _subcommands().items()
                for action in p._actions if action.type is float]


def _required_argv(command, flag):
    """(argv of command with every other required flag set to 1, the
    flag's action)."""
    sub = _subcommands()[command]
    action = next(a for a in sub._actions if a.dest == flag)
    argv = [command]
    for other in sub._actions:
        if other.required and other is not action:
            argv += _flag_argv(other, "1")
    for group in sub._mutually_exclusive_groups:
        if group.required and action not in group._group_actions:
            argv += _flag_argv(group._group_actions[0], "1")
    return argv, action


@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
@pytest.mark.parametrize("text", ["-1e-3", "-2.5E+2", "-.5e1", "-3."])
def test_negative_float_flag_takes_exponents(command, flag, text):
    # argparse alone reads "-1e-3" as an option name
    argv, action = _required_argv(command, flag)
    args = build_parser().parse_args(argv + _flag_argv(action, text))
    want = float(text)
    assert getattr(args, flag) == (
        want if action.nargs is None else [want] * action.nargs)


@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
@pytest.mark.parametrize("text", ["-inf", "-Infinity", "-NaN"])
def test_negative_inf_flag_names_the_value_fault(command, flag, text,
                                                 tmp_path, capsys):
    # "--s -inf" was read as an option name ("expected one argument"),
    # while "--s=-inf" reached the check that names the fault; float()
    # takes inf, infinity and nan in any case
    argv, action = _required_argv(command, flag)
    argv += ["--out", str(tmp_path / "o")]
    args = build_parser().parse_args(argv + _flag_argv(action, text))
    n = action.nargs if isinstance(action.nargs, int) else 1
    assert np.array_equal(np.ravel(getattr(args, flag)),
                          np.full(n, float(text)), equal_nan=True)
    spaced = main(argv + _flag_argv(action, text)), capsys.readouterr().err
    assert "expected" not in spaced[1]
    if action.nargs is None:  # --bracket takes two values: no "=" form
        joined = main(argv + ["%s=%s" % (action.option_strings[-1], text)])
        assert spaced == (joined, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# torus command


class TestTorusCommand:
    def test_solves_and_writes_artifacts(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path))
        assert main(["torus", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["epsilon"] == 0.15
        assert doc["residual_sup"] < 1e-8
        assert doc["hypotheses"] == {"h1": True, "h2": True}
        assert os.path.exists(doc["field_archive"])

    def test_summary_bytes_stable_across_reruns(self, tmp_path):
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path))
        assert main(["torus", "--config", cfg]) == EXIT_OK
        first = (tmp_path / "run_summary.json").read_bytes()
        assert main(["torus", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "run_summary.json").read_bytes() == first

    def test_override_reaches_the_solver(self, tmp_path):
        tree = _base_cfg(tmp_path)
        tree["solver"].pop("continuation")
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["torus", "--config", cfg,
                   "--override", "model.epsilon=0.2"])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["epsilon"] == 0.2

    def test_unknown_key_rejected_before_solving(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["bogus"] = 1
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert "/model/bogus" in capsys.readouterr().err
        assert not (tmp_path / "run_summary.json").exists()

    def test_missing_epsilon_without_continuation(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"].pop("epsilon")
        tree["solver"].pop("continuation")
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert "/model/epsilon" in capsys.readouterr().err

    def test_epsilon_must_match_the_continuation(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.3
        tree["solver"]["continuation"] = [0.3, 0.25]
        with pytest.raises(ConfigError) as ei:
            ExperimentConfig(tree=validate_config(tree)).params()
        assert ei.value.pointer == "/model/epsilon"
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: 0.3 differs from the last "
                              "solver.continuation stage 0.25")
        assert "/model/epsilon" in err
        assert not (tmp_path / "run_summary.json").exists()

    def test_growing_newton_residual_is_numerical_failure(self, tmp_path,
                                                          capsys):
        # a cold start at eps = 0.34 leaves an iterate the 0.25 stage's
        # damped steps cannot shrink; round-off decides whether Newton
        # stops on growth or on its iteration cap, and both exit 2
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.25
        tree["solver"]["continuation"] = [0.34, 0.25]
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: Newton ")
        assert not (tmp_path / "run_summary.json").exists()

    def test_newton_growth_stop_reaches_stderr(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(torus, "_solve_shifted", _growing_step)
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path))
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: Newton residual grew "
                                 "for 5 consecutive damped steps")
        assert not (tmp_path / "run_summary.json").exists()

    def test_infinite_period_is_a_usage_error(self, tmp_path, capsys):
        # json.dumps writes Infinity, which json.loads reads back
        tree = _base_cfg(tmp_path)
        tree["domain"]["periods"] = [math.inf, 4.0]
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run_summary.json").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["torus", "--config", str(tmp_path / "absent.json")])
        assert rc == EXIT_USAGE

    def test_malformed_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["torus", "--config", str(path)]) == EXIT_USAGE

    def test_snap_moves_reach_summary_and_verify(self, tmp_path, capsys):
        # (2.012, 2.0) snaps to the grid point (2, 2) of the 64^2 grid
        tree = _base_cfg(tmp_path)
        tree["vortices"]["positive"] = [{"point": [2.012, 2.0]}]
        tree["model"]["epsilon"] = 0.3
        tree["solver"].pop("continuation")
        cfg = _write_cfg(tmp_path, tree)
        with pytest.warns(UserWarning, match="snapped to the grid"):
            assert main(["torus", "--config", cfg]) == EXIT_OK
        move = [[[2.012, 2.0], [2.0, 2.0]]]
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["diagnostics"]["snap_moves"] == move
        archive = str(tmp_path / "run_field.npz")
        main(["verify", "--config", cfg,
              "--override", "verify.field=%s" % archive])
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert doc["solver"]["snap_moves"] == move

    def test_over_capacity_is_numerical_failure(self, tmp_path, capsys):
        # two vortices need eps < 0.248 on this domain; 0.3 is over capacity
        tree = _base_cfg(tmp_path)
        tree["vortices"]["positive"] = [{"point": [1.0, 1.0]},
                                        {"point": [3.0, 3.0]}]
        tree["model"]["epsilon"] = 0.3
        tree["solver"].pop("continuation")
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_capacity_checked_before_newton(self, tmp_path, capsys,
                                            monkeypatch):
        # tau = 1000 on the demo's 4 x 4 torus: one vortex needs
        # eps <= 1.78e-5, so eps = 0.3 fails before any Newton step
        monkeypatch.setattr(torus, "_newton_core", None)
        rc = main(["torus", "--config",
                   os.path.join(ROOT, "demos", "one_vortex.json"),
                   "--override", "model.tau=1000",
                   "--override", "model.epsilon=0.3",
                   "--override", "solver.continuation=null",
                   "--override", "output.dir=%s" % json.dumps(str(tmp_path))])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "over capacity" in err
        assert "needs epsilon <= 1.78279e-05" in err

    def test_snap_collision_is_usage_error(self, tmp_path, capsys):
        # both points round to the grid point (1, 1) at h = 1/16
        tree = _base_cfg(tmp_path)
        tree["vortices"]["positive"] = [{"point": [1.0, 1.0]},
                                        {"point": [1.02, 0.99]}]
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert "refine the grid" in capsys.readouterr().err

    def test_monotone_snaps_an_off_grid_vortex_once(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.3
        tree["vortices"]["positive"] = [{"point": [2.01, 2.0]}]
        tree["solver"] = {"method": "monotone"}
        cfg = _write_cfg(tmp_path, tree)
        # "always" overrides the module filter that hides the warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["torus", "--config", cfg]) == EXIT_OK
        snaps = [w for w in caught if "snapped to the grid" in str(w.message)]
        assert len(snaps) == 1

    def test_monotone_refuses_a_negative_step_kernel(self, tmp_path,
                                                     capsys):
        # tau 1, eps 0.1 on 32^2: (c - Lap)^-1 rings below zero
        tree = _base_cfg(tmp_path, grid=32)
        tree["model"]["epsilon"] = 0.1
        tree["solver"] = {"method": "monotone"}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: the monotone step (c - Lap)^-1 with shift "
            "c = 13.125 has a negative kernel on the 32 x 32 grid (min/max "
            "-5.653e-05), so it cannot preserve order\n")
        assert not (tmp_path / "run_summary.json").exists()

    def test_monotone_refuses_a_negative_vortex(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.3
        tree["vortices"]["negative"] = [{"point": [3.0, 3.0]}]
        tree["solver"] = {"method": "monotone"}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: the monotone bracket (-u0 - 25, -u0) needs "
            "N2 = 0: -u0 is no supersolution at the negative vortices "
            "(3, 3) m=1\n")
        assert not (tmp_path / "run_summary.json").exists()

    def test_retired_kernel_key_is_unknown(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["nonlinearity"] = "SigmaO3"
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "config error: unknown key (at /model/nonlinearity)\n"
        assert not (tmp_path / "run_summary.json").exists()


    # (section, key) of each config key that no config set, now a
    # constant; the value is never read
    @pytest.mark.parametrize("section, key", [
        ("solver", "max_iter"), ("solver", "tol_factor"),
        ("solver", "monotone_offset"), ("sweep", "K_radius"),
        ("sweep", "ball_radius"), ("sweep", "first_continuation"),
        ("sweep", "zero_tol"), ("sweep", "away_threshold"),
        ("stability", "margin"), ("stability", "tol"),
        ("verify", "a_values"), ("verify", "identity_tol"),
        ("verify", "mass_tol"), ("verify", "residual_factor"),
        ("verify", "ball_radius"), ("verify", "pohozaev_tol")])
    def test_retired_key_is_unknown(self, tmp_path, capsys, section, key):
        tree = _base_cfg(tmp_path)
        tree.setdefault(section, {})[key] = 1.0
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "config error: unknown key (at /%s/%s)\n" % (section, key)
        assert not (tmp_path / "run_summary.json").exists()


class TestEpsilonFloor:
    # below about 7.5e-155 epsilon^-2 is not a finite double: every place
    # an epsilon enters refuses it with its value, before any solve
    @pytest.mark.parametrize("command, key, value, pointer", [
        ("torus", "model.epsilon", "1e-160", "/model/epsilon"),
        ("torus", "solver.continuation", "[0.25, 1e-160]",
         "/solver/continuation/1"),
        ("sweep", "sweep.epsilons", "[0.25, 0.2, 1e-160]",
         "/sweep/epsilons/2"),
    ], ids=["model.epsilon", "solver.continuation", "sweep.epsilons"])
    def test_config_refuses_it(self, tmp_path, capsys, command, key, value,
                               pointer):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = None
        tree["solver"]["continuation"] = None
        tree["sweep"] = {"epsilons": [0.25, 0.2, 0.15]}
        cfg = _write_cfg(tmp_path, tree)
        argv = [command, "--config", cfg, "--override", "%s=%s" % (key, value)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: epsilon must be >= ")
        assert err[0].endswith("got 1e-160 (at %s)" % pointer)
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_a_finite_inverse_square_fails_honestly(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 1e-150
        tree["solver"]["continuation"] = None
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    # the overflowing step is reported once, by the failure line, and
    # not by numpy's warnings on the way to it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_trial_is_a_numerical_failure(self, tmp_path,
                                                       capsys):
        # epsilon^-2 is finite here, but the first Newton step is not, and
        # the kernels would refuse its trial iterate as a usage error
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 1e-154
        tree["solver"]["continuation"] = None
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: Newton trial iterate "
                                 "is not finite at step 1 (residual ")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_an_overflowing_step_prints_no_runtime_warning(self, tmp_path):
        # a new interpreter, so stderr is exactly what a user sees
        proc = _fresh_cli(
            tmp_path, "torus", "--config",
            os.path.join(ROOT, "demos", "one_vortex.json"),
            "--override", "solver.continuation=null",
            "--override", "model.epsilon=1e-154",
            "--override", "domain.grid_shape=[64,64]")
        assert proc.returncode == EXIT_NUMERICAL
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(
            "numerical failure: Newton trial iterate is not finite ")
        assert os.listdir(tmp_path) == []

    def test_a_warning_is_one_stderr_line(self, tmp_path):
        # a new interpreter, where no test module filters the warning
        proc = _fresh_cli(
            tmp_path, "torus", "--config",
            os.path.join(ROOT, "demos", "one_vortex.json"),
            "--override", "solver.continuation=null",
            "--override", "model.epsilon=1e-154",
            "--override", "domain.grid_shape=[64,64]")
        assert proc.returncode == EXIT_NUMERICAL
        warning, failure = proc.stderr.splitlines()
        assert warning == "warning: grid spacing h=0.0625 does not " \
            "resolve epsilon=1e-154 (want h <= eps/4)"
        assert failure.startswith(
            "numerical failure: Newton trial iterate is not finite ")


# ---------------------------------------------------------------------------
# stability command


class TestStabilityCommand:
    def test_radial_type_one_profile(self, tmp_path, capsys):
        tree = {"stability": {"target": "radial", "s": -1.0},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "st_stability.json").read_text())
        assert doc["classification"] == "Unstable"
        assert doc["eigenvalue"] == pytest.approx(-0.012767050113463,
                                                  rel=1e-6)
        assert doc["bc_type"] == "NonTopologicalI"

    def test_radial_topological_profile(self, tmp_path, capsys):
        tree = {"stability": {"target": "radial", "find_topological": True,
                              "bracket": [-8.0, 8.0], "nu": 1.0,
                              "vortex_sign": 1},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        # the half-radius probe vouches for the truncated profile
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["stability", "--config", cfg]) == EXIT_OK
        assert not [w for w in caught if "unreliable" in str(w.message)]
        doc = json.loads((tmp_path / "st_stability.json").read_text())
        assert doc["classification"] == "StrictlyStable"
        assert doc["bc_type"] == "Topological"
        assert doc["s"] == pytest.approx(-3.2781023384423236, abs=1e-7)
        assert doc["eigenvalue"] == pytest.approx(FROZEN_TOPOLOGICAL,
                                                  rel=1e-6)
        assert doc["diagnostics"]["reliable"] is True

    def test_radial_profile_reads_the_model_tau(self, tmp_path, capsys):
        tree = {"model": {"tau": 2.0},
                "stability": {"target": "radial", "s": -1.0},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "st_stability.json").read_text())
        assert doc["tau"] == 2
        want = weighted_eigen_radial(integrate_radial(-1.0, tau=2.0))
        assert doc["eigenvalue"] == want.eigenvalue
        # an explicit stability.tau still wins
        tree["stability"]["tau"] = 1.0
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "st_stability.json").read_text())
        assert doc["tau"] == 1
        assert doc["eigenvalue"] == pytest.approx(-0.012767050113463,
                                                  rel=1e-6)

    def test_torus_target_from_archive(self, small_field, tmp_path, capsys):
        archive = str(tmp_path / "field.npz")
        save_field(small_field, archive)
        tree = {"stability": {"target": "torus", "field": archive},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "st_stability.json").read_text())
        assert doc["classification"] == "StrictlyStable"
        assert doc["eigenvalue"] > 0.0

    def test_missing_section_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"output": {"dir": str(tmp_path),
                                               "prefix": "st"}})
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        assert "/stability" in capsys.readouterr().err

    def test_find_topological_needs_bracket(self, tmp_path, capsys):
        tree = {"stability": {"target": "radial", "find_topological": True},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        assert "/stability/bracket" in capsys.readouterr().err

    def test_r_max_conflicts_with_find_topological(self, tmp_path, capsys):
        tree = {"stability": {"target": "radial", "find_topological": True,
                              "bracket": [-8.0, 8.0], "nu": 1.0,
                              "r_max": 1e6},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        assert "/stability/r_max" in capsys.readouterr().err
        assert not (tmp_path / "st_stability.json").exists()

    @pytest.mark.parametrize("block, pointer", [
        ({"find_topological": True, "bracket": [-8.0, 8.0], "nu": 1.0,
          "s": -1.0}, "/stability/s"),
        ({"s": -1.0, "bracket": [5.0, 1.0]}, "/stability/bracket"),
    ])
    def test_s_and_bracket_are_exclusive(self, tmp_path, capsys, block,
                                         pointer):
        # as shoot refuses --s with --bracket or --find-topological
        tree = {"stability": dict(block, target="radial"),
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        assert pointer in capsys.readouterr().err
        assert not (tmp_path / "st_stability.json").exists()


    def test_points_per_decade_below_ten_is_an_error(self, tmp_path, capsys):
        # as shoot refuses --points-per-decade 9
        tree = {"stability": {"target": "radial", "s": -1.0,
                              "points_per_decade": 9},
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: must be >= 10, " \
            "got 9 (at /stability/points_per_decade)\n"
        assert not (tmp_path / "st_stability.json").exists()

    @pytest.mark.parametrize("block, pointer", [
        ({"target": "radial", "s": -1.0, "field": "missing.npz"},
         "/stability/field"),
        ({"target": "torus", "tau": 1.0}, "/stability/tau"),
        ({"target": "torus", "s": -1.0}, "/stability/s"),
        ({"target": "torus", "find_topological": True},
         "/stability/find_topological"),
        ({"target": "torus", "bracket": [-8.0, 8.0]}, "/stability/bracket"),
        ({"target": "torus", "r_max": 1e6}, "/stability/r_max"),
    ], ids=["radial-field", "torus-tau", "torus-s", "torus-find_topological",
            "torus-bracket", "torus-r_max"])
    def test_other_targets_key_is_refused(self, small_field, tmp_path,
                                          capsys, block, pointer):
        if block["target"] == "torus":
            archive = str(tmp_path / "field.npz")
            save_field(small_field, archive)
            block = dict(block, field=archive)
        tree = {"stability": block,
                "output": {"dir": str(tmp_path), "prefix": "st"}}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["stability", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: does not apply to the ")
        assert err.endswith("(at %s)\n" % pointer)
        assert not (tmp_path / "st_stability.json").exists()


# ---------------------------------------------------------------------------
# sweep command


class TestSweepCommand:
    def test_verdict_artifacts_and_determinism(self, tmp_path, capsys):
        tree = {
            "domain": {"periods": [4.0, 4.0], "grid_shape": [128, 128]},
            "model": {"tau": 1.0},
            "vortices": {"positive": [{"point": [2.0, 2.0]}]},
            "sweep": {"epsilons": list(np.geomspace(0.25, 0.05, 8))},
            "output": {"dir": str(tmp_path), "prefix": "sw"},
        }
        cfg = _write_cfg(tmp_path, tree)
        assert main(["sweep", "--config", cfg, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "A_uniform_zero"
        assert doc["n_failed"] == 0
        assert doc["evidence"]["n_underresolved"] == 4  # eps < 0.125
        assert doc["squared_ratio"] is not None
        lines = (tmp_path / "sw_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,sup_K,inf_K,total_abs_mass")
        assert len(lines) == 9
        first = ((tmp_path / "sw_sweep.csv").read_bytes(),
                 (tmp_path / "sw_verdict.json").read_bytes())
        assert main(["sweep", "--config", cfg, "--json"]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "sw_sweep.csv").read_bytes() == first[0]
        assert (tmp_path / "sw_verdict.json").read_bytes() == first[1]

    def test_too_few_steps_is_config_error(self, tmp_path, capsys):
        tree = {
            "domain": {"periods": [4.0, 4.0], "grid_shape": [64, 64]},
            "vortices": {"positive": [{"point": [2.0, 2.0]}]},
            "sweep": {"epsilons": [0.2, 0.1]},
            "output": {"dir": str(tmp_path), "prefix": "sw"},
        }
        cfg = _write_cfg(tmp_path, tree)
        assert main(["sweep", "--config", cfg]) == EXIT_USAGE
        assert "/sweep/epsilons" in capsys.readouterr().err

    def test_missing_section_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"output": {"dir": str(tmp_path),
                                               "prefix": "sw"}})
        assert main(["sweep", "--config", cfg]) == EXIT_USAGE

    @staticmethod
    def _coarse_sweep(tmp_path, epsilons):
        # eps of a few 1e-3 is far below the 32^2 grid: Newton's damped
        # steps grow the residual there and the step is recorded as failed
        return _write_cfg(tmp_path, {
            "domain": {"periods": [4.0, 4.0], "grid_shape": [32, 32]},
            "vortices": {"positive": [{"point": [2.0, 2.0]}]},
            "sweep": {"epsilons": epsilons},
            "output": {"dir": str(tmp_path), "prefix": "sw"},
        })

    def test_too_few_solved_steps_keep_their_csv(self, tmp_path, capsys):
        cfg = self._coarse_sweep(tmp_path, [0.3, 0.25, 0.003, 0.002])
        assert main(["sweep", "--config", cfg]) == EXIT_NUMERICAL
        csv = tmp_path / "sw_sweep.csv"
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: 2 of 4 steps solved, need 3 for a verdict; "
            "see %s" % csv]
        header, *rows = csv.read_text().splitlines()
        assert header.endswith("v0_quantization") and len(rows) == 4
        for row in rows:
            cells = row.split(",")
            failed = float(cells[0]) < 0.01
            assert cells[4].startswith("Newton residual grew") == failed
            assert (cells[-6:] == [""] * 6) == failed
        assert not (tmp_path / "sw_verdict.json").exists()

    def test_one_failed_step_is_reported(self, tmp_path, capsys):
        cfg = self._coarse_sweep(tmp_path, [0.3, 0.25, 0.2, 0.003])
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("eps = 0.0030000000000000001  FAILED: "
                                   "Newton residual grew")
        doc = json.loads((tmp_path / "sw_verdict.json").read_text())
        assert doc["n_steps"] == 4 and doc["n_failed"] == 1
        assert doc["evidence"]["n_failed"] == 1

    @staticmethod
    def _csv_rows(tmp_path):
        header, *rows = (tmp_path / "sw_sweep.csv").read_text().splitlines()
        return header.split(","), [row.split(",") for row in rows]

    @staticmethod
    def _coarse_records():
        # the library sweep of _coarse_sweep(tmp_path, [0.3, 0.25, 0.2])
        geo = TorusGeometry(TorusDomain((4.0, 4.0), (32, 32)),
                            VortexSet(positive_vortices=(((2.0, 2.0), 1),)))
        return run_sweep(geo, 1.0, [0.3, 0.25, 0.2], compute_eigen=True)

    def test_csv_carries_the_eigenvalue(self, tmp_path, capsys):
        cfg = self._coarse_sweep(tmp_path, [0.3, 0.25, 0.2])
        eigen_on = ["sweep", "--config", cfg,
                    "--override", "sweep.compute_eigen=true"]
        assert main(eigen_on) == EXIT_OK
        mus = [line.rsplit("mu = ", 1)[1]
               for line in capsys.readouterr().out.splitlines()
               if " mu = " in line]
        header, rows = self._csv_rows(tmp_path)
        assert header[7:10] == ["minres_failed", "mu", "eigen_iterations"]
        assert [row[8] for row in rows] == mus and len(mus) == 3
        records = self._coarse_records()
        assert [row[8] for row in rows] == [
            "%.17g" % rec.eigen.eigenvalue for rec in records]
        assert [row[9] for row in rows] == [
            "%d" % rec.eigen.iterations for rec in records]
        first = (tmp_path / "sw_sweep.csv").read_bytes()
        assert main(eigen_on) == EXIT_OK
        assert (tmp_path / "sw_sweep.csv").read_bytes() == first

        assert main(["sweep", "--config", cfg]) == EXIT_OK
        header, rows = self._csv_rows(tmp_path)
        assert header[8:10] == ["mu", "eigen_iterations"]
        assert [row[8:10] for row in rows] == [["", ""]] * 3

    def test_failed_eigen_solve_keeps_the_sweep(self, tmp_path, capsys,
                                                monkeypatch):
        solve = asymptotics.principal_eigen_torus

        def fail_at_025(fld):
            if fld.params.epsilon == 0.25:
                raise EigenConvergenceError("stalled", rayleigh=1.0)
            return solve(fld)

        monkeypatch.setattr(asymptotics, "principal_eigen_torus", fail_at_025)
        cfg = self._coarse_sweep(tmp_path, [0.3, 0.25, 0.2])
        assert main(["sweep", "--config", cfg,
                     "--override", "sweep.compute_eigen=true"]) \
            == EXIT_NUMERICAL
        csv = tmp_path / "sw_sweep.csv"
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: eigen solve failed at eps = 0.25: stalled; "
            "see %s" % csv]
        _, rows = self._csv_rows(tmp_path)
        assert [row[4] for row in rows] == ["", "", ""]
        assert [row[8] == "" for row in rows] == [False, True, False]
        assert [row[9] == "" for row in rows] == [False, True, False]
        assert all("" not in row[10:] for row in rows)
        assert not (tmp_path / "sw_verdict.json").exists()

        records = self._coarse_records()
        assert [rec.ok for rec in records] == [True] * 3
        assert [rec.eigen_error for rec in records] == [None, "stalled", None]
        assert records[1].eigen is None
        assert np.isfinite(records[1].sup_K)
        assert records[1].per_vortex[0].mass > 0.0


# ---------------------------------------------------------------------------
# verify command


class TestVerifyCommand:
    def test_battery_passes_on_fine_grid(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path, grid=128))
        assert main(["verify", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all_passed = true" in out
        assert "FAIL" not in out
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert doc["all_passed"] is True
        names = [row["name"] for row in doc["rows"]]
        assert names[:2] == ["residual_sup", "mass_identity"]
        assert "pohozaev_v0" in names
        # the solve's own validity, from the last continuation stage
        assert doc["solver"] == {
            "grid_shape": [128, 128], "h_over_eps": 0.03125 / 0.15,
            "minres_failed": 0, "resolved": True, "snap_moves": []}

    def test_monotone_field_has_no_stage_grid(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.3
        tree["solver"] = {"method": "monotone"}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert doc["solver"] == {
            "grid_shape": None, "h_over_eps": 0.0625 / 0.3,
            "minres_failed": None, "resolved": True, "snap_moves": []}

    def test_identity_battery_fails_on_coarse_grid(self, tmp_path, capsys):
        # 64^2 leaves ~2e-3 discretization error in the integral
        # identities, over the 1e-3 gate; the exit code must say so
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path, grid=64))
        assert main(["verify", "--config", cfg]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL" in out
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert doc["all_passed"] is False

    def test_perturbed_archive_fails_the_residual_row(self, tmp_path,
                                                      capsys):
        # the failure is the perturbation's, not the grid's: the archive
        # of a solved field with v moved off the solution
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path, grid=128))
        assert main(["torus", "--config", cfg]) == EXIT_OK
        archive = str(tmp_path / "run_field.npz")
        fld = load_field(archive)
        X, _ = fld.domain.mesh
        save_field(replace(fld, v=fld.v + 1e-3 * np.cos(0.5 * np.pi * X)),
                   archive)
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--override", "verify.field=%s" % archive]) \
            == EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("FAIL  residual_sup ") for line in lines)
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert doc["all_passed"] is False
        assert doc["rows"][0]["name"] == "residual_sup"
        assert doc["rows"][0]["passed"] is False

    def test_last_lines_name_what_was_written(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path))
        assert main(["torus", "--config", cfg]) == EXIT_OK
        archive = str(tmp_path / "run_field.npz")
        assert capsys.readouterr().out.splitlines()[-1] == \
            "wrote %s, %s" % (archive, tmp_path / "run_summary.json")
        main(["verify", "--config", cfg,
              "--override", "verify.field=%s" % archive])
        assert capsys.readouterr().out.splitlines()[-1] == \
            "wrote %s" % (tmp_path / "run_verify.json")

    def test_verify_loads_field_archive(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_cfg(tmp_path, grid=128))
        assert main(["torus", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        archive = str(tmp_path / "run_field.npz")
        rc = main(["verify", "--config", cfg,
                   "--override", "verify.field=%s" % archive, "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["field"] == archive
        assert doc["all_passed"] is True
        assert doc["solver"]["grid_shape"] == [128, 128]

    def test_vortex_free_field_gets_the_center_row(self, tmp_path, capsys):
        tree = _base_cfg(tmp_path)
        tree["vortices"] = {}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "run_verify.json").read_text())
        assert [row["name"] for row in doc["rows"]] == [
            "residual_sup", "mass_identity", "identity_a=0.5",
            "identity_a=1", "identity_a=2", "pohozaev_center"]
        assert doc["all_passed"] is True

    def test_default_ball_radius_reads_the_pair_separation(self, tmp_path,
                                                           capsys):
        # the pair is 2 apart on the 4 x 4 torus: r = 0.45 * 2
        tree = _base_cfg(tmp_path)
        tree["vortices"] = {"positive": [{"point": [1.0, 2.0]}],
                            "negative": [{"point": [3.0, 2.0]}]}
        tree["model"]["epsilon"] = 0.3
        tree["solver"] = {}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_OK
        archive = str(tmp_path / "run_field.npz")
        assert main(["verify", "--config", cfg,
                     "--override", "verify.field=%s" % archive]) == EXIT_OK
        rows = {row["name"]: row["value"] for row in json.loads(
            (tmp_path / "run_verify.json").read_text())["rows"]}
        fld = load_field(archive)
        for k in (0, 1):
            assert rows["pohozaev_v%d" % k] == \
                pohozaev_value(fld, vortex_id=k, r=0.9)[2]

    def test_older_archive_with_sigma_o3_entry_verifies(self, tmp_path,
                                                         capsys):
        # archives written while a kernel selector existed name their
        # kernel in the metadata; "SigmaO3" is this model's
        tree = _base_cfg(tmp_path)
        tree["model"]["epsilon"] = 0.3
        tree["solver"] = {}
        cfg = _write_cfg(tmp_path, tree)
        assert main(["torus", "--config", cfg]) == EXIT_OK
        archive = tmp_path / "run_field.npz"
        with np.load(archive) as npz:
            v = npz["v"]
            meta = json.loads(bytes(npz["meta"].tolist()).decode())
        assert "nonlinearity" not in meta
        meta["nonlinearity"] = "SigmaO3"
        np.savez(archive, v=v, meta=np.bytes_(dumps_json(meta).encode()))
        assert main(["verify", "--config", cfg,
                     "--override", "verify.field=%s" % archive]) == EXIT_OK
        out = capsys.readouterr().out
        assert "identity_a=1" in out and "pohozaev_v0" in out
        assert "all_passed = true" in out


# ---------------------------------------------------------------------------
# README quick start


def _readme_commands(intro):
    """The commands of the README quick-start block that follows intro."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split(intro)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in
            block.replace("\\\n", " ").splitlines() if line.strip()]


class TestReadmeQuickStart:
    def test_radial_block_runs_as_documented(self, tmp_path, monkeypatch):
        commands = _readme_commands("Radial shooting on the plane:")
        assert [cmd[:2] for cmd in commands] == [
            ["vortexlab", "shoot"], ["vortexlab", "shoot"],
            ["vortexlab", "beta-curve"]]
        monkeypatch.chdir(tmp_path)
        for cmd in commands:
            assert main(cmd[1:]) == EXIT_OK, " ".join(cmd)
            prefix = cmd[cmd.index("--out") + 1]
            for ext in (".csv", ".json"):
                assert (tmp_path / (prefix + ext)).is_file(), prefix + ext

    def test_torus_block_runs_as_documented(self, tmp_path, monkeypatch,
                                            capsys):
        commands = _readme_commands("Torus solves are config-driven:")
        assert [cmd[:2] for cmd in commands] == [
            ["vortexlab", "torus"], ["vortexlab", "stability"],
            ["vortexlab", "sweep"], ["vortexlab", "verify"]]
        (tmp_path / "demos").mkdir()
        shutil.copy(os.path.join(ROOT, "demos", "one_vortex.json"),
                    tmp_path / "demos")
        monkeypatch.chdir(tmp_path)
        for cmd in commands:
            assert main(cmd[1:]) == EXIT_OK, " ".join(cmd)
        out = capsys.readouterr().out
        assert "all_passed = true" in out
        assert "squared_ratio = pass" in out
        assert "n_underresolved = 0" in out
