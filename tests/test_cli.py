import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import conical_harvest
from conical_harvest import cli
from conical_harvest._version import __version__
from conical_harvest.cli import main
from conical_harvest.entanglement import (NU_OBJECTIVES, concurrence_flat, opposite_sides_terminal_l,
                                          sweep)
from conical_harvest.errors import DivergentOverlap, InvalidParameter, QuadratureFailure
from conical_harvest.geometry import Alignment, ConeParameter
from conical_harvest.serialize import SWEEP_COLUMNS, format_number

runner = CliRunner()


def invoke(*args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def test_compute_on_string_scaling():
    result = invoke("compute", "--alignment", "parallel", "--nu", "3",
                    "--l", "0", "--d", "0.5", "--gap", "0.1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["concurrence_per_lambda2"] == (
        3.0 * concurrence_flat(0.5, 0.1)) or abs(
        payload["concurrence_per_lambda2"] - 3.0 * concurrence_flat(0.5, 0.1)) < 1e-10
    assert payload["breakdowns"]["P_A"]["integral"] == 0.0
    assert payload["image_terms"][0]["m"] == 1


def test_compute_json_has_no_diverged_key():
    # compute raises at an overlap, so a success never diverged
    payload = json.loads(invoke("compute", "--alignment", "orthogonal", "--nu", "2.5", "--l", "0.3",
                                "--d", "0.7", "--gap", "0.2").output)
    assert "diverged" not in payload and payload["concurrence_per_lambda2"] > 0.0


def test_nuscan_objective_choices_are_the_library_table():
    (option,) = [p for p in main.commands["nuscan"].params if p.name == "objective"]
    assert list(option.type.choices) == list(NU_OBJECTIVES)


def test_compute_flat_matches_closed_form():
    result = invoke("compute", "--alignment", "flat", "--d", "0.5", "--gap", "0.1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["concurrence_per_lambda2"] - concurrence_flat(0.5, 0.1)) < 1e-12


def test_compute_lists_image_terms_for_every_alignment():
    args = ("--nu", "3", "--l", "0.5", "--d", "0.5", "--gap", "0.1")
    payload = json.loads(invoke("compute", "--alignment", "boundary-parallel", *args).output)
    (term,) = payload["image_terms"]
    assert (term["m"], term["weight"]) == (1, -0.5)
    x = payload["breakdowns"]["X"]
    assert (term["x_term_re"], term["x_term_im"]) == (x["images_re"], x["images_im"])
    payload = json.loads(invoke("compute", "--alignment", "flat", *args).output)
    assert payload["image_terms"] == []


def test_usage_error_nu_below_one():
    result = runner.invoke(main, ["compute", "--alignment", "parallel",
                                  "--nu", "0.5", "--d", "1", "--gap", "0.1"])
    assert result.exit_code == 2
    assert "nu" in result.output


def test_usage_error_opposite_separation():
    result = runner.invoke(main, ["compute", "--alignment", "opposite", "--nu", "3",
                                  "--l", "1", "--d", "1.5", "--gap", "0.1"])
    assert result.exit_code == 2
    assert "d >= 2l" in result.output


def test_divergent_overlap_exit_code_and_error_object():
    result = runner.invoke(main, ["compute", "--alignment", "opposite", "--nu", "4",
                                  "--l", "1", "--d", "2", "--gap", "0.1"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"]["kind"] == "divergent_overlap"
    assert payload["error"]["image_index"] == 2


def test_importing_the_cli_leaves_optimizer_oracle_and_test_packages_unloaded():
    # every CLI call pays the import: scipy.optimize, mpmath and hypothesis stay out of it
    src = str(Path(conical_harvest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, conical_harvest.cli; "
            "print(*(m for m in ('scipy.optimize', 'mpmath', 'hypothesis') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.split() == []


def test_unknown_preset_is_usage_error():
    result = runner.invoke(main, ["figure", "nope"])
    assert result.exit_code == 2
    assert "unknown figure preset" in result.output


def sweep_args(**overrides):
    base = {"alignment": "parallel", "nu": "2", "l": "0.1", "gap": "0.1",
            "axis": "d", "lo": "0.1", "hi": "1.5", "n": "5"}
    base.update(overrides)
    args = ["sweep"]
    for key, value in base.items():
        args.extend([f"--{key.replace('_', '-')}", value])
    return args


def test_sweep_csv_schema():
    result = invoke(*sweep_args())
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == f"# conical-harvest v{__version__}"
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2 + 5
    cell = lines[2].split(",")[1]
    assert cell == f"{float(cell):.12g}"  # 12 significant digits round-trip
    assert lines[2].split(",")[-1] == "false"


def test_sweep_deterministic_across_threads():
    plain = invoke(*sweep_args())
    threaded = invoke(*sweep_args(), env={"CONICAL_HARVEST_THREADS": "4"})
    assert plain.output == threaded.output


def test_sweep_json_rows_equal_the_csv_rows():
    # d = 0.5 < 2l flags its row diverged, so the empty cells are covered too
    args = sweep_args(alignment="opposite", nu="2.5", l="0.5", lo="0.5", hi="2", n="4")
    csv_rows = [line.split(",") for line in invoke(*args).output.splitlines()[2:]]
    payload = json.loads(invoke(*args, "--format", "json").output)
    assert (payload["version"], payload["axis"], payload["alignment"], payload["nu"]) == (
        __version__, "d", "opposite", 2.5)
    assert payload["fixed"] == {"l": 0.5, "gap": 0.1}
    assert len(payload["rows"]) == len(csv_rows) == 4
    table = sweep(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(2.5), "d",
                  np.linspace(0.5, 2.0, 4), l=0.5, gap=0.1)
    assert table.rows[0].diverged and not table.rows[-1].diverged
    for row, cells, want in zip(payload["rows"], csv_rows, table.rows):
        assert tuple(row) == SWEEP_COLUMNS
        assert tuple(row.values()) == (want.param, want.p_a, want.p_b, want.abs_x,
                                       want.concurrence, want.diverged)
        *numbers, diverged = row.values()
        assert [format_number(v) for v in numbers] + [str(diverged).lower()] == cells


def test_sweep_json_on_a_nu_axis_reports_no_fixed_nu():
    # the rows run at nu = 1 and 6; the ignored --nu 3 was printed as the table's nu
    args = ["sweep", "--alignment", "parallel", "--nu", "3", "--d", "0.5", "--l", "0.2",
            "--axis", "nu", "--lo", "1", "--hi", "6", "--n", "2", "--gap", "0.1"]
    payload = json.loads(invoke(*args, "--format", "json").output)
    assert payload["nu"] is None
    assert [row["param"] for row in payload["rows"]] == [1.0, 6.0]


@pytest.mark.parametrize("args, message", [
    (sweep_args(lo="1.5", hi="1.5"), "--lo must be below --hi"),
    (sweep_args(lo="1.5", hi="0.1"), "--lo must be below --hi"),
    ([*sweep_args(lo="0", hi="1.5"), "--log"], "--log requires positive bounds"),
    ([*sweep_args(lo="-1", hi="1.5"), "--log"], "--log requires positive bounds"),
    # sweep's own rule, reported as a usage error
    (["sweep", "--alignment", "parallel", "--nu", "2", "--l", "0.1", "--axis", "d",
      "--lo", "0.1", "--hi", "1.5"], "gap must be fixed unless it is the sweep axis"),
])
def test_sweep_bad_axis_bounds_or_missing_gap_is_a_usage_error(args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_sweep_monotone_concurrence():
    result = invoke(*sweep_args(n="12", hi="2.0"))
    rows = [line.split(",") for line in result.output.splitlines()[2:]]
    concurrences = [float(r[4]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(concurrences, concurrences[1:]))


def test_config_file_defaults_and_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# sweep defaults\n"
        "alignment = parallel\n"
        "nu = 2\n"
        "l = 0.1\n"
        "gap = 0.1\n"
        "axis = d\n"
        "lo = 0.1\n"
        "hi = 1.5\n"
        "n = 5\n",
        encoding="utf-8")
    from_file = invoke("sweep", "--config", str(config))
    assert from_file.exit_code == 0
    assert from_file.output == invoke(*sweep_args()).output
    overridden = invoke("sweep", "--config", str(config), "--n", "3")
    assert len(overridden.output.splitlines()) == 2 + 3


def test_config_file_unknown_key_rejected(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("bogus = 1\n", encoding="utf-8")
    result = runner.invoke(main, ["sweep", "--config", str(config)])
    assert result.exit_code == 2
    assert "bogus" in result.output


def test_config_line_without_an_equals_sign_names_its_file_and_line(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("# defaults\nnu 3\n", encoding="utf-8")
    result = runner.invoke(main, ["compute", "--config", str(config)])
    assert result.exit_code == 2
    assert f"Error: {config}:2: expected 'key = value', got 'nu 3'" in result.output


def test_figure_writes_monotone_curves(tmp_path):
    result = invoke("figure", "fig4a", "--out", str(tmp_path))
    assert result.exit_code == 0
    for label in ("parallel", "orthogonal", "flat"):
        path = tmp_path / f"fig4a_{label}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == f"# conical-harvest v{__version__}"
        concurrences = [float(line.split(",")[4]) for line in lines[2:]]
        assert all(a >= b - 1e-12 for a, b in zip(concurrences, concurrences[1:]))


def test_figure_list():
    result = invoke("figure", "--list")
    assert result.exit_code == 0
    assert "fig11" in result.output
    missing_name = runner.invoke(main, ["figure"])
    assert missing_name.exit_code == 2


def test_fig11_opposite_dominates_flat_until_terminal():
    from conical_harvest.presets import build_figure

    files = dict(build_figure("fig11"))

    def rows(name):
        return [line.split(",") for line in files[name].splitlines()[2:]]

    terminal_seen = False
    for opp, flat in zip(rows("fig11_opposite.csv"), rows("fig11_flat.csv")):
        assert opp[0] == flat[0]
        if opp[1] == "":
            terminal_seen = True  # beyond l0 ~ 2.219 no harvesting at any d >= 2l
            continue
        assert not terminal_seen  # the empty tail is contiguous
        assert float(opp[1]) >= float(flat[1])
    assert terminal_seen
    first_empty = next(float(r[0]) for r in rows("fig11_opposite.csv") if r[1] == "")
    assert abs(first_empty - 2.25) < 0.06  # grid point just past l0 = 2.219


# SHA-256 of each preset's CSV text, by file name, for every preset in FIGURES
FIGURES_SHA256 = {
    "fig10a_opposite.csv": "85a7457109050d49019ae758560354ed6431321bc470a124426db01b53f12979",
    "fig10b_opposite.csv": "e8a95b30810929ae96fe2ac8fc1897873a56139363900535659aa1bd4e1759ef",
    "fig10c_opposite.csv": "de857ff792ef5e933a877827f6d58f2a0e84fe76670ea3dc30d2e0844f6147c0",
    "fig10d_opposite.csv": "fb94e49e77ff3c9075ae537ebb49926343071e78d7ad359a0c42d391de6b3010",
    "fig11_opposite.csv": "d6cdd2acf43e6cebd790378efb8858725e4a5418d8a82b67b55842267352583c",
    "fig11_flat.csv": "c41fad56c95877f853dfe9f5b4466eece78856823295f7ad27430ba30558f636",
    "fig3a_nu2.csv": "616ff8622af9eaebbed99a3788a3b988a5fab8b182de0862a86bdc7b01f6273a",
    "fig3a_nu3.csv": "04f28ec2719488e3092e27dd6dafef80189e7ecff1abfe2e8eedbf97ea084dfa",
    "fig3a_nu11.csv": "36ea6351d9a5327aba94349161b925d9343f123cee3c4e33f3c32450c44cf916",
    "fig3a_flat.csv": "ad8c47484487ac463b9f14a7aba4a7fbbae8e49ea7649ca27d498f8d3347aa00",
    "fig3b_string.csv": "e548497054ea57a1301f6342014d262ed2e9a25e2f913306c3aeffd5ee972156",
    "fig4a_parallel.csv": "f1bd1bf3ef47220b51b5a6566acfd7cf4766b9de52b52e9c745f40ba7c791c5d",
    "fig4a_orthogonal.csv": "4e9967635b20d40bf965ed51d37c89623ac978b0ef36032136b59cffe9ce537b",
    "fig4a_flat.csv": "d6efd552d98220fc32cdbf494ce9ce180575681869ee38a37a416e5586caed78",
    "fig4b_parallel.csv": "bde8da42c0849d5ad37eef3c9e87aa88ea8a1d2d89e3e4318f1a781353372816",
    "fig4b_orthogonal.csv": "6a9b7fbca6fa4ddc627033ea69707dfe39884024b1fec090cbc9208ab6ef88fd",
    "fig4b_flat.csv": "d6efd552d98220fc32cdbf494ce9ce180575681869ee38a37a416e5586caed78",
    "fig5a_parallel.csv": "b7517cec7b4b290f1f37dce96ac6786d4ac7a754cc031ba134bc6c32e2d0a885",
    "fig5a_orthogonal.csv": "b71b9b7518fef52f3b7f3312a5847463df72eedd25d1f5d6f79048be1f4bc0f5",
    "fig5a_boundary-parallel.csv": "85ae05de8bcb1b9baac8b6711e6328a0e863b9be287b515c7164efb68708739a",
    "fig5a_boundary-orthogonal.csv": "6b86435e517c05675db53a60541468c93c221f2ff33afea1b3307faa6ad0a1cb",
    "fig5a_flat.csv": "11866cc210eb4b1f2ac228feb63a976221023564ed45ecf55c468f6e0bc54371",
    "fig5b_parallel.csv": "d613796c9e7d6d904e61058de3dfa9701471c245c4f4edd81d91a580530deed7",
    "fig5b_orthogonal.csv": "bd1b3397cf15531a94020b4cc9c69fd286b34ceb5754209e29c1aa28f6d99d20",
    "fig5b_boundary-parallel.csv": "85ae05de8bcb1b9baac8b6711e6328a0e863b9be287b515c7164efb68708739a",
    "fig5b_boundary-orthogonal.csv": "6b86435e517c05675db53a60541468c93c221f2ff33afea1b3307faa6ad0a1cb",
    "fig5b_flat.csv": "11866cc210eb4b1f2ac228feb63a976221023564ed45ecf55c468f6e0bc54371",
    "fig6a_parallel.csv": "4d6abd2c82c2f5b7475703d20c1393655e2a7488bf6d58264919bd5b9dd60356",
    "fig6a_orthogonal.csv": "1a5a82ac7090d5d15abfee549273f40781b3da2a0a961ffcbfd7597ebb4bd7b4",
    "fig6b_parallel.csv": "d5b5fe9029f4557bd1e25c5641cac256462229a5aa8f73152b48d73f782521f4",
    "fig6b_orthogonal.csv": "c65e2885073770ca25b1b6f33b0ddab275ca435dcfa5187b461b1bb502554790",
    "fig7_parallel.csv": "84892fad8a1737bbfe796e158dab78c7df91ac3e75d9883bbe836e887502321b",
    "fig8a_parallel.csv": "58eb9b743264dc0b68c1e7ff5526a82484c43e38109d3bd38a21e01df79a2d87",
    "fig8a_orthogonal.csv": "23874f0c5773fce28e8f81e016d6d911696d12c753ca359d3fcbfa8f89ad42d4",
    "fig8a_boundary-parallel.csv": "5bbaf1048000a151bda56fe9405daf99fd6742c86fc46fdaec35b30c9df01955",
    "fig8a_boundary-orthogonal.csv": "19a9afb5d1ab906240bf9d75714be381af3e91c0a67ef7a297c0dcbe884765d8",
    "fig8a_flat.csv": "54000476c6ed1d4496b3e22f869fabbce91e44cc6b7a0a509acd8a8f5548e02a",
    "fig8b_parallel.csv": "7cfd8cf1c3d088b5296d3d74100d9cb0609fec85aee13169de4af4277dcc238b",
    "fig8b_orthogonal.csv": "1307c6fecde18b021b90d950749f1a55e6b79f4d0f1e51c3d1c7197ba390641d",
    "fig8b_boundary-parallel.csv": "b3a398ef4d8a2e24ef43d7d73c323bc95e0ead0450e0f10703d47cc12f13950e",
    "fig8b_boundary-orthogonal.csv": "6497a5e076ba99dbc328b47aca96b863ee7f8140fc074f7a222d17578c9ae15f",
    "fig8b_flat.csv": "b8c79c7635c752668ae0d157f22522eeee1c6e4ddc0d2d63a8f03a11eeac83bc",
    "fig9a_nu3.csv": "a7103ab37d2bb8d2f605e2168fbe9b8dd5ff5ed7c8637c134281f7f8f4dca386",
    "fig9a_nu2.5.csv": "b4f0dcc0db021bdb2cc5d7cc78aa29942ff3807317b4b121ac582033059f7aa1",
    "fig9a_flat.csv": "6352f3cc6718e84b8aaefc24c499a1940ea8ac22b68aa7609ac45404a4340850",
    "fig9b_nu2.csv": "e1e5cc5e37b93f83da8e9be45f3442364fe6f6542fef4be7a8ca601743209bc5",
    "fig9b_nu4.csv": "06c2517d70f53c74cff6c7ddbbd80b543519ebb9e897e5ad9a6e049ff754bb4f",
    "fig9b_flat.csv": "5790c965b86bb76e4a08ed6364f8afb0be67797ac4094d6ca815d6a87cc81355",
}


def test_every_figure_preset_reproduces_its_pinned_csvs():
    # a change that moves any figure value in its 12 printed digits must say
    # so and pin the new digests of the files it moved, which the failure names
    from conical_harvest.presets import FIGURES, build_figure

    digests = {filename: hashlib.sha256(text.encode()).hexdigest()
               for name in sorted(FIGURES) for filename, text in build_figure(name)}
    assert sorted(digests) == sorted(FIGURES_SHA256)
    moved = sorted(name for name, digest in digests.items() if digest != FIGURES_SHA256[name])
    assert not moved, f"figure CSVs moved: {moved}"


def test_dmax_single_point():
    result = invoke("dmax", "--alignment", "flat", "--gap", "0.1", "--l", "0")
    payload = json.loads(result.output)
    assert 1.5 < payload["d_max_per_sigma"] < 1.8
    assert payload["skipped_points"] == []


def test_dmax_curve(tmp_path):
    out = tmp_path / "curve.csv"
    result = invoke("dmax", "--alignment", "parallel", "--nu", "3", "--gap", "0.1",
                    "--l-lo", "0.2", "--l-hi", "1.0", "--l-n", "3", "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "param,d_max_per_sigma,skipped_points"
    assert len(lines) == 2 + 3


def test_dmax_terminal_requires_opposite():
    result = runner.invoke(main, ["dmax", "--alignment", "parallel", "--nu", "3",
                                  "--gap", "0.1", "--l", "0.5", "--terminal"])
    assert result.exit_code == 2


CURVE = ["dmax", "--alignment", "opposite", "--nu", "3", "--gap", "0.1"]


@pytest.mark.parametrize("extra, message", [
    # each was accepted: --terminal printed no terminal l, --l-n alone fell back
    # to single mode, a reversed range gave a descending curve, --l-n 1 dropped --l-hi
    (["--l-lo", "0.1", "--l-hi", "0.5", "--l-n", "3", "--terminal"], "--terminal applies"),
    (["--l-n", "3"], "curve mode needs --l-lo, --l-hi and --l-n"),
    (["--l-lo", "0.5", "--l-hi", "0.1", "--l-n", "3"], "--l-lo must be below --l-hi"),
    (["--l-lo", "0.1", "--l-hi", "0.5", "--l-n", "1"], "--l-n"),
])
def test_dmax_curve_refuses_what_it_would_ignore(extra, message):
    result = runner.invoke(main, CURVE + extra)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("l", ["0.7", "0"])
def test_dmax_curve_refuses_an_explicit_l_flag(l):
    # it exited 0 and printed the curve with no trace of the given l
    result = runner.invoke(main, CURVE + ["--l", l, "--l-lo", "0.1", "--l-hi", "0.5",
                                          "--l-n", "3"])
    assert result.exit_code == 2, result.output
    assert "--l gives a single l" in result.output


def test_dmax_curve_refuses_an_l_from_a_config_file(tmp_path):
    path = write_config(tmp_path, "l = 0.7\nl-lo = 0.1\nl-hi = 0.5\nl-n = 3\n")
    result = runner.invoke(main, CURVE + ["--config", path])
    assert result.exit_code == 2, result.output
    assert "--l gives a single l" in result.output
    # the same file without its l key draws the curve
    path = write_config(tmp_path, "l-lo = 0.1\nl-hi = 0.5\nl-n = 3\n")
    assert invoke(*CURVE, "--config", path).exit_code == 0


def test_dmax_opposite_at_l_zero_names_the_alignment_rule():
    # it reported the degenerate scan start: "d must be finite and > 0, got 0.0"
    result = runner.invoke(main, CURVE + ["--l", "0"])
    assert result.exit_code == 2, result.output
    assert "opposite-sides alignment requires d >= 2l > 0" in result.output


def test_dmax_terminal_follows_scan_tol():
    result = invoke("dmax", "--alignment", "opposite", "--nu", "3", "--gap", "0.1",
                    "--l", "0.5", "--terminal", "--scan-tol", "1e-2")
    assert result.exit_code == 0
    expected = opposite_sides_terminal_l(ConeParameter(3.0), 0.1, tol=1e-2)
    assert json.loads(result.output)["terminal_l_per_sigma"] == expected
    coarse = invoke("dmax", "--alignment", "opposite", "--nu", "3", "--gap", "0.1",
                    "--l", "0.5", "--terminal", "--grid-n", "64")
    expected = opposite_sides_terminal_l(ConeParameter(3.0), 0.1, grid_n=64)
    assert json.loads(coarse.output)["terminal_l_per_sigma"] == expected


def test_nuscan_finds_minimum_gap():
    result = invoke("nuscan", "--alignment", "parallel", "--l", "3", "--d", "0.1",
                    "--gap", "0.1", "--nu-lo", "8.8", "--nu-hi", "9.7")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["nu_star"] - 9.22) < 0.05


@pytest.mark.parametrize("args, message", [
    # the unimodality sample lands on nu = 4, where the partner sits on image m = 2
    (("--alignment", "opposite", "--l", "0.5", "--d", "1.0", "--nu-lo", "3", "--nu-hi", "4"),
     "Error: detector/image overlap at image m=2"),
    (("--alignment", "orthogonal", "--l", "1", "--d", "1.5", "--nu-lo", "1", "--nu-hi", "11"),
     "Error: 2 distinct local minima sampled in [1.0, 11.0]"),
], ids=["overlap", "not-unimodal"])
def test_nuscan_reports_a_failed_search_on_one_line(args, message):
    result = runner.invoke(main, ["nuscan", *args, "--gap", "0.1"])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1, result.output
    assert len(result.output.splitlines()) == 1
    assert result.output.startswith(message)


def test_verify_passes_all_42_checks():
    result = invoke("verify")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == f"conical-harvest v{__version__} verification"
    assert lines[-1] == "all checks passed (42/42)"


def test_verify_has_no_profile_option():
    # verify runs one grid; --profile (default | fast) is gone
    result = runner.invoke(main, ["verify", "--profile", "fast"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: No such option '--profile'."


def test_verify_detects_injected_fault():
    result = runner.invoke(main, ["verify"], env={"CONICAL_HARVEST_FAULT_SCALE_P1": "1.0001"})
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    result = invoke("verify", "--json", "--out", str(out))
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["version", "all_passed", "checks"]
    assert payload["all_passed"] is True
    assert all("quantity" in check for check in payload["checks"])


def test_out_into_a_missing_directory_is_a_one_line_file_error(tmp_path):
    # it ended in a FileNotFoundError traceback after the whole computation
    out = tmp_path / "missing" / "report.txt"
    result = runner.invoke(main, ["verify", "--out", str(out)])
    assert result.exit_code == 1
    assert not isinstance(result.exception, FileNotFoundError)
    assert result.output == f"Error: Could not open file '{out}': No such file or directory\n"


def test_verify_json_checks_carry_the_report_fields_in_order():
    payload = json.loads(invoke("verify", "--json").output)
    assert {tuple(check) for check in payload["checks"]} == {
        ("quantity", "production", "oracle", "abs_deviation", "rel_deviation", "tolerance",
         "passed")}


def test_dmax_bad_input_is_a_usage_error():
    base = ["dmax", "--alignment", "flat", "--gap", "0.1", "--l", "0"]
    for extra, word in ((["--scan-tol", "0"], "tol"), (["--scan-tol", "-1"], "tol"),
                        (["--scan-tol", "nan"], "tol"), (["--l", "-1"], "l must be")):
        result = runner.invoke(main, base + extra)
        assert result.exit_code == 2, (extra, result.output)
        assert word in result.output, (extra, result.output)
    # curve mode, where an explicit --l is refused on its own
    result = runner.invoke(main, base[:-2] + ["--l-lo", "-1", "--l-hi", "1", "--l-n", "2"])
    assert result.exit_code == 2, result.output
    assert "l must be" in result.output, result.output
    opposite = ["dmax", "--alignment", "opposite", "--nu", "3", "--gap", "0.1", "--l", "0.5"]
    for d_hi in ("nan", "inf"):
        result = runner.invoke(main, opposite + ["--d-hi", d_hi])
        assert result.exit_code == 2, (d_hi, result.output)
        assert "d_hi must be finite" in result.output, (d_hi, result.output)


def test_dmax_config_rejects_threads(tmp_path):
    cfg = tmp_path / "dmax.cfg"
    cfg.write_text("threads = 2\n", encoding="utf-8")
    result = runner.invoke(main, ["dmax", "--config", str(cfg), "--alignment", "flat",
                                  "--gap", "0.1", "--l", "0"])
    assert result.exit_code == 2
    assert "threads" in result.output


COMPUTE = ["compute", "--alignment", "parallel", "--nu", "3", "--l", "0.1", "--d", "0.5",
           "--gap", "0.1"]
DMAX = ["dmax", "--alignment", "flat", "--gap", "0.1", "--l", "0"]
NUSCAN = ["nuscan", "--alignment", "parallel", "--l", "3", "--d", "0.1", "--gap", "0.1",
          "--nu-lo", "8.8", "--nu-hi", "9.7"]


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("lo, hi, message", [
    ("0.5", "9.7", "nu bracket must lie within [1, 64]"),
    ("8.8", "65", "nu bracket must lie within [1, 64]"),
    ("9.7", "8.8", "bracket must satisfy lo < hi, got [9.7, 8.8]"),
    ("9.7", "9.7", "bracket must satisfy lo < hi, got [9.7, 9.7]"),
    ("nan", "9.7", "bracket must satisfy lo < hi, got [nan, 9.7]"),
])
def test_nuscan_refuses_a_bad_bracket_with_the_library_message(lo, hi, message):
    result = runner.invoke(main, [*NUSCAN[:-4], "--nu-lo", lo, "--nu-hi", hi])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}" in result.output


@pytest.mark.parametrize("args, key", [
    (COMPUTE, "format"), (DMAX, "d"), (DMAX, "format"), (NUSCAN, "nu"), (NUSCAN, "format"),
])
def test_config_key_without_a_flag_is_rejected_by_name(tmp_path, args, key):
    config = write_config(tmp_path, f"{key} = 1\n")
    result = runner.invoke(main, [args[0], "--config", config, *args[1:]])
    assert result.exit_code == 2, result.output
    assert f"'{key}'" in result.output


@pytest.mark.parametrize("args, file_text, flag", [
    (COMPUTE[:-4], "d = 0.5\ngap = 0.1\n", ["--d", "0.7", "--gap", "0.1"]),
    (DMAX[:-2], "l = 0.5\n", ["--l", "0.2"]),
    (NUSCAN[:-2], "nu-hi = 9.7\n", ["--nu-hi", "9.6"]),
])
def test_flag_overrides_config_file(tmp_path, args, file_text, flag):
    config = write_config(tmp_path, file_text)
    overridden = invoke(args[0], "--config", config, *args[1:], *flag)
    assert overridden.exit_code == 0
    assert overridden.output == invoke(*args, *flag).output


@pytest.mark.parametrize("file_text, flags", [
    ("log = yes\nd-over-l = 2\n", ["--log", "--d-over-l", "2"]),
    ("d_over_l = 2.5\n", ["--d-over-l", "2.5"]),
])
def test_sweep_config_values_convert_like_flags(tmp_path, file_text, flags):
    base = ["--alignment", "opposite", "--nu", "3", "--gap", "0.1", "--axis", "l",
            "--lo", "0.05", "--hi", "3", "--n", "4"]
    from_file = invoke("sweep", "--config", write_config(tmp_path, file_text), *base)
    assert from_file.exit_code == 0
    assert from_file.output == invoke("sweep", *base, *flags).output


def test_dmax_config_terminal_is_a_boolean(tmp_path):
    args = ["--alignment", "opposite", "--nu", "3", "--gap", "0.1", "--l", "0.5"]
    from_file = invoke("dmax", "--config", write_config(tmp_path, "terminal = true\n"), *args)
    assert from_file.exit_code == 0
    assert from_file.output == invoke("dmax", *args, "--terminal").output
    assert "terminal_l_per_sigma" in json.loads(from_file.output)


@pytest.mark.parametrize("file_text, word", [
    ("alignment = bogus\n", "alignment"),
    ("alignment = parallel\nn = abc\n", "--n"),
    ("alignment = parallel\nlog = maybe\n", "--log"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, file_text, word):
    args = ["--nu", "2", "--l", "0.1", "--gap", "0.1", "--axis", "d", "--lo", "0.1", "--hi", "1.5"]
    result = runner.invoke(main, ["sweep", "--config", write_config(tmp_path, file_text), *args])
    assert result.exit_code == 2, result.output
    assert word in result.output


@pytest.mark.parametrize("args", [
    [*sweep_args(), "--threads", "2"],
    ["figure", "fig4a", "--threads", "2"],
], ids=["sweep", "figure"])
def test_threads_option_is_a_usage_error(tmp_path, args):
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "--threads" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", *sweep_args(nu="2.5")[1:], "--tol", "0"],
    ["figure", "fig6a", "--tol", "0"],
    ["compute", "--alignment", "parallel", "--nu", "2.5", "--l", "0.3", "--d", "0.5",
     "--gap", "0.1", "--tol", "0"],
    ["nuscan", "--alignment", "parallel", "--l", "0.3", "--d", "0.5", "--gap", "0.1",
     "--nu-lo", "2.2", "--nu-hi", "2.8", "--tol", "0"],
    ["nuscan", *NUSCAN[1:], "--scan-tol", "0"],
    ["compute", *COMPUTE[1:], "--tol", "nan"],
    ["compute", *COMPUTE[1:], "--tol", "inf"],
    ["compute", *COMPUTE[1:], "--tol", "-1"],
])
def test_bad_tolerance_is_a_usage_error(tmp_path, args):
    if args[0] == "figure":
        args = args + ["--out", str(tmp_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "tol" in result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bounds", [("nan", "1.5"), ("0.1", "inf"), ("-inf", "1.5")])
def test_sweep_rejects_non_finite_bounds(bounds):
    lo, hi = bounds
    result = runner.invoke(main, sweep_args(nu="2.5", lo=lo, hi=hi))
    assert result.exit_code == 2, result.output
    assert "finite" in result.output


@pytest.mark.parametrize("overrides, message", [
    ({"gap": "nan"}, "must be finite"), ({"l": "inf"}, "must be finite"),
    ({"l": "-0.1"}, "must be finite"),
    ({"axis": "l", "d_over_l": "nan", "alignment": "opposite"}, "must be finite"),
    # an axis value breaking its rule, not a diverged row
    ({"axis": "gap", "lo": "-1", "hi": "1", "d": "0.5"}, "must be finite"),
    ({"axis": "d", "lo": "-1", "hi": "1"}, "must be finite"),
    ({"axis": "l", "lo": "-1", "hi": "1", "d": "0.5"}, "must be finite"),
    # a d_over_l that the rows would ignore
    ({"alignment": "opposite", "l": "0.5", "d": "2", "axis": "nu", "lo": "2", "hi": "3",
      "n": "2", "d_over_l": "7", "format": "json"}, "d_over_l couples d to an l axis only"),
    ({"alignment": "opposite", "d": "2", "axis": "l", "lo": "0.1", "hi": "0.5",
      "d_over_l": "3"}, "give a fixed d or d_over_l, not both"),
])
def test_sweep_invalid_fixed_parameter_is_a_usage_error(overrides, message):
    result = runner.invoke(main, sweep_args(nu="3", **overrides))
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("args, name", [
    (["compute", "--alignment", "parallel", "--nu", "3", "--l", "1e200", "--d", "0.5",
      "--gap", "0.1"], "l"),
    (["compute", "--alignment", "parallel", "--nu", "3", "--l", "0.1", "--d", "1e200",
      "--gap", "0.1"], "d"),
    (sweep_args(nu="3", d="1e200", axis="nu", lo="2", hi="3"), "d"),
    (["dmax", "--alignment", "parallel", "--nu", "3", "--l", "0.5", "--gap", "0.1",
      "--d-hi", "1e200"], "d_hi"),
])
def test_length_whose_square_overflows_is_a_usage_error_by_name(args, name):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"{name} must be at most" in result.output


@pytest.mark.parametrize("extra", [["--grid-n", "100001"],
                                   ["--l-lo", "0.1", "--l-hi", "1", "--l-n", "100001"]])
def test_dmax_scan_size_above_the_sweep_cap_is_a_usage_error(extra, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr("conical_harvest.entanglement._scan_margins", no_scan)
    result = runner.invoke(main, ["dmax", "--alignment", "parallel", "--nu", "3", "--l", "0.5",
                                  "--gap", "0.1", *extra])
    assert result.exit_code == 2, result.output
    assert "100000" in result.output


@pytest.mark.parametrize("args", [
    ("dmax", "--alignment", "parallel", "--l", "0.5", "--gap", "0.1"),
    ("sweep", "--alignment", "parallel", "--l", "0.5", "--gap", "0.1", "--axis", "d",
     "--lo", "0.5", "--hi", "1", "--n", "2"),
    ("compute", "--alignment", "parallel", "--l", "0.5", "--d", "1", "--gap", "0.1"),
])
def test_a_numerical_failure_exits_1_on_one_line(args, monkeypatch):
    # a zeta coefficient that is not finite makes the integrator raise
    # QuadratureFailure from the zeta integral; dmax printed the usage text
    # and exited 2, compute ended in a traceback and sweep flagged every row
    # diverged
    monkeypatch.setattr("conical_harvest.correlation.zeta_coefficient",
                        lambda *branch: lambda zeta: np.full(np.shape(zeta), np.nan))
    result = invoke(*args, "--nu", "2.5")
    assert result.exit_code == 1, result.output
    assert len(result.output.splitlines()) == 1
    assert result.output.startswith("Error: numerical failure: integrand returned non-finite values")


def test_every_subcommand_maps_library_failures_in_one_invoke():
    assert len(main.commands) == 6
    assert all(type(command) is cli._Command for command in main.commands.values())


def test_a_library_usage_error_keeps_its_usage_and_hint_lines():
    result = runner.invoke(main, ["compute", "--alignment", "opposite", "--nu", "3", "--l", "1",
                                  "--d", "1", "--gap", "0.1"])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert lines[0].startswith("Usage: ") and " compute [OPTIONS]" in lines[0]
    assert lines[1].startswith("Try '") and lines[1].endswith(" compute --help' for help.")
    assert lines[-1] == "Error: opposite-sides alignment requires d >= 2l > 0, got l=1.0, d=1.0"


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_figure_reports_a_numerical_failure_on_one_line(tmp_path, monkeypatch):
    # it ended in a ToleranceNotMet traceback (e.g. fig3b --tol 1e-300)
    monkeypatch.setattr(cli, "build_figure", _raise(QuadratureFailure("budget exhausted")))
    result = runner.invoke(main, ["figure", "fig3b", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.output == "Error: numerical failure: budget exhausted\n"


def test_figure_out_under_a_regular_file_is_a_one_line_file_error(tmp_path):
    # it ended in a NotADirectoryError traceback
    (tmp_path / "FILE").write_text("x\n", encoding="utf-8")
    out = tmp_path / "FILE" / "sub"
    result = runner.invoke(main, ["figure", "fig4a", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: Could not open file '{out}': Not a directory\n"


@pytest.mark.parametrize("exc, line", [
    (QuadratureFailure("budget exhausted"), "Error: numerical failure: budget exhausted"),
    (DivergentOverlap(0.0, image_index=2), "Error: detector/image overlap at image m=2 (argument 0.0)"),
    (InvalidParameter("bad profile"), "Error: bad profile"),
], ids=["numerical", "overlap", "invalid"])
def test_verify_reports_a_failed_production_call_on_one_error_line(exc, line, monkeypatch):
    # the exception escaped verify unconverted
    monkeypatch.setattr(cli, "run_verification", _raise(exc))
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == (2 if isinstance(exc, InvalidParameter) else 1)
    assert result.output.splitlines()[-1] == line
    assert len(result.output.splitlines()) == (4 if isinstance(exc, InvalidParameter) else 1)


def test_an_output_error_without_a_file_name_names_the_out_path(tmp_path, monkeypatch):
    # a write that fails after the file opened (a full disk) carries no file name
    monkeypatch.setattr(cli.Path, "write_text",
                        _raise(OSError(errno.ENOSPC, "No space left on device")))
    out = tmp_path / "report.txt"
    result = runner.invoke(main, ["verify", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: Could not open file '{out}': No space left on device\n"


def test_a_closed_stdout_is_left_to_click(monkeypatch):
    # click ends a closed pipe quietly with exit 1; it is not an output-file error
    monkeypatch.setattr(cli, "run_verification", _raise(BrokenPipeError(errno.EPIPE, "Broken pipe")))
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ""


def test_a_config_file_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path):
    # it ended in a UnicodeDecodeError traceback with exit 1
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"gap = 0.1\n\xff\xfe = 2\n")
    result = runner.invoke(main, ["compute", "--config", str(config), "--alignment", "parallel",
                                  "--d", "1"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == (
        f"Error: {config}: not UTF-8 text (invalid start byte at byte 10)")
