import json

import numpy as np
import pytest

from actionlab.cli import main

QUAD = {"kind": "quadratic", "params": {"Q": [[1.0]], "b": [0.0], "c": 0.0}}
LSE_FAMILY = {
    "builder": "logsumexp_to_max",
    "vectors": [[1.0], [-1.0]],
    "epsilons": [0.5, 0.2, 0.08, 0.03],
    "x0": [-1.0], "x1": [1.0],
}


@pytest.fixture
def quad_file(tmp_path):
    p = tmp_path / "quad.json"
    p.write_text(json.dumps(QUAD))
    return str(p)


@pytest.fixture
def family_file(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(LSE_FAMILY))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_prox_smoke(capsys, quad_file):
    code, out, _ = run(capsys, ["prox", "--function", quad_file,
                                "--tau", "0.5", "--point", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["resolvent_point"] == pytest.approx([4.0 / 3.0])
    assert doc["moreau_gradient"] == pytest.approx([4.0 / 3.0])
    assert doc["tau"] == 0.5


def test_slope_smoke(capsys, quad_file):
    code, out, _ = run(capsys, ["slope", "--function", quad_file,
                                "--point", "2"])
    assert code == 0
    assert json.loads(out)["slope"] == pytest.approx(2.0)


def test_interpolate_worked_values(capsys, quad_file, tmp_path):
    code, out, _ = run(capsys, [
        "interpolate", "--function", quad_file, "--tau", "0.5",
        "--delta", "0.5", "--x0", "0", "--xd", "1",
        "--csv-dir", str(tmp_path / "art")])
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == pytest.approx(130.0)
    assert doc["coarsened_bound"] == pytest.approx(209.0)
    assert doc["action"]["total"] <= doc["bound"]
    csv_text = open(doc["csv"]).read()
    assert csv_text.splitlines()[0] == "t,x0"


def test_interpolate_coarsened_needs_matched_horizon(capsys, quad_file, tmp_path):
    code, out, _ = run(capsys, [
        "interpolate", "--function", quad_file, "--tau", "0.5",
        "--delta", "0.8", "--x0", "0", "--xd", "1",
        "--csv-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["coarsened_bound"] is None


def test_minimize_smoke(capsys, quad_file, tmp_path):
    code, out, _ = run(capsys, [
        "minimize", "--function", quad_file, "--delta", "1",
        "--x0", "1", "--xd", "2", "--n", "64",
        "--csv-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["value_true"] == pytest.approx(3.1615301240125278, rel=2e-2)
    rows = open(doc["csv"]).read().splitlines()
    assert len(rows) == 1 + 65


def test_gamma_resolvent_via_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": LSE_FAMILY,
        "tau": 0.3,
        "probes": [[0.0], [0.7]],
    }))
    code, out, _ = run(capsys, ["gamma", "--config", str(cfg),
                                "--experiment", "resolvent",
                                "--csv-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["kind"] == "resolvent"
    assert (tmp_path / "gamma_resolvent.csv").exists()


def test_gamma_slope_lsc_via_flags(capsys, family_file, tmp_path):
    code, out, _ = run(capsys, [
        "gamma", "--family", family_file, "--experiment", "slope_lsc",
        "--probes", "0.7;-0.9", "--csv-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["rows"]) == 2


def test_gamma_limsup_with_csv_curve(capsys, tmp_path):
    fam = tmp_path / "pen.json"
    fam.write_text(json.dumps({
        "builder": "penalty_to_indicator",
        "region": {"type": "ball", "center": [0.0, 0.0], "radius": 1.5},
        "penalties": [1.0, 4.0, 16.0],
        "x0": [-1.0, 0.0], "x1": [1.0, 0.0],
    }))
    t = np.linspace(0.0, 1.0, 17)
    lines = ["t,x0,x1"] + ["%.17g,%.17g,%.17g" % (ti, -1.0 + 2.0 * ti, 0.0)
                           for ti in t]
    curve = tmp_path / "curve.csv"
    curve.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, [
        "gamma", "--family", str(fam), "--experiment", "limsup",
        "--taus", "0.2,0.05", "--gamma-csv", str(curve),
        "--csv-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["rows"]) == 2 * 3


def test_verify_exit_codes_and_summary(capsys):
    code, out, err = run(capsys, ["verify", "--scope", "convex",
                                  "--seed", "0", "--samples", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert "OK" in err.splitlines()[-1]
    assert any(line.startswith("PASS") for line in err.splitlines())


def test_verify_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify", "--scope", "convex",
                                  "--seed", "3", "--samples", "2"])
    code2, out2, _ = run(capsys, ["verify", "--scope", "convex",
                                  "--seed", "3", "--samples", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("document", [None, {"kind": "bogus", "params": {}}],
                         ids=["missing_file", "malformed"])
def test_verify_function_that_cannot_be_read_is_a_usage_error(capsys, tmp_path,
                                                              document):
    path = tmp_path / "f.json"
    if document is not None:
        path.write_text(json.dumps(document))
    code, out, err = run(capsys, ["verify", "--scope", "gamma", "--function",
                                  str(path), "--csv-dir", str(tmp_path / "out")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_function_joins_the_per_function_checks(capsys, quad_file):
    argv = ["verify", "--scope", "convex", "--seed", "0", "--samples", "2"]
    code, out, _ = run(capsys, argv)
    code_f, out_f, _ = run(capsys, argv + ["--function", quad_file])
    assert code == code_f == 0
    base, joined = (json.loads(o)["checks"] for o in (out, out_f))
    grown = {c["name"] for c, j in zip(base, joined) if j["samples"] > c["samples"]}
    # every convex check but moreau_decomposition samples each pool function
    assert grown == {c["name"] for c in base} - {"moreau_decomposition"}
    assert all(j["failure_count"] == 0 for j in joined)


def test_missing_required_setting_is_a_usage_error(capsys, quad_file):
    code, _, err = run(capsys, ["prox", "--function", quad_file,
                                "--point", "2"])
    assert code == 2
    assert err.startswith("error:")
    assert "tau" in err


def test_bad_experiment_from_config_is_rejected(capsys, family_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bogus"}))
    code, _, err = run(capsys, ["gamma", "--family", family_file,
                                "--config", str(cfg),
                                "--csv-dir", str(tmp_path)])
    assert code == 2
    assert "experiment" in err


def test_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": QUAD, "tau": 0.25,
                               "point": [2.0]}))
    code, out, _ = run(capsys, ["prox", "--config", str(cfg),
                                "--tau", "0.5"])
    assert code == 0
    assert json.loads(out)["tau"] == 0.5


def test_no_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_missing_function_file_is_a_clean_error(capsys, tmp_path):
    code, _, err = run(capsys, ["prox", "--function",
                                str(tmp_path / "nope.json"),
                                "--tau", "0.5", "--point", "2"])
    assert code == 2
    assert err.startswith("error:")
    assert "nope.json" in err


def test_malformed_function_json_is_a_clean_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": "quadratic", "params": {')
    code, _, err = run(capsys, ["prox", "--function", str(p),
                                "--tau", "0.5", "--point", "2"])
    assert code == 2
    assert "invalid JSON" in err


def test_unreadable_config_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, ["verify", "--config", "absent.json"])
    assert code == 2
    assert "absent.json" in err


@pytest.mark.parametrize("config", [[1, 2], "abc", 3.5], ids=["list", "string",
                                                              "number"])
@pytest.mark.parametrize("command", ["minimize", "verify"])
def test_config_that_is_not_an_object_is_a_clean_error(capsys, quad_file, tmp_path,
                                                       command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = {"minimize": ["minimize", "--function", quad_file, "--delta", "1",
                         "--x0", "1", "--xd", "2"],
            "verify": ["verify", "--scope", "gamma"]}[command]
    code, out, err = run(capsys, argv + ["--config", str(cfg),
                                         "--csv-dir", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "JSON object" in err


@pytest.mark.parametrize("argv", [["prox", "--tau", "0.5", "--point", "2"],
                                  ["slope", "--point", "2"],
                                  ["verify", "--scope", "convex", "--samples", "2"]],
                         ids=["prox", "slope", "verify"])
def test_csv_dir_is_accepted_and_ignored_where_no_csv_is_written(capsys, quad_file,
                                                                 tmp_path, argv):
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "accepted and ignored" in " ".join(capsys.readouterr().out.split())
    code, out, _ = run(capsys, argv + ["--function", quad_file,
                                       "--csv-dir", str(tmp_path / "csv")])
    assert code == 0 and json.loads(out)
    assert not (tmp_path / "csv").exists()


def test_garbled_point_is_an_argparse_error(capsys, quad_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["prox", "--function", quad_file,
              "--tau", "0.5", "--point", "two"])
    assert excinfo.value.code == 2
    assert "'two'" in capsys.readouterr().err


def test_tau_schedule_flag_is_an_argparse_error(capsys, quad_file):
    # the schedule follows from delta and the function; no flag sets it
    with pytest.raises(SystemExit) as excinfo:
        main(["minimize", "--function", quad_file, "--delta", "1",
              "--x0", "1", "--xd", "2", "--tau-schedule", "0.5,0.1"])
    assert excinfo.value.code == 2
    assert "error: unrecognized arguments: --tau-schedule" in capsys.readouterr().err


def test_stalled_resolvent_is_a_clean_error(capsys, tmp_path, monkeypatch):
    import actionlab.convex as convex
    monkeypatch.setattr(convex, "_NEWTON_CAP", 1)
    doc = tmp_path / "lse.json"
    doc.write_text(json.dumps({"kind": "log_sum_exp", "params": {
        "vectors": [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]], "epsilon": 1e-4}}))
    code, out, err = run(capsys, ["prox", "--function", str(doc),
                                  "--tau", "0.5", "--point", "0.3,0.2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "stalled" in err


def test_value_experiment_ok_at_default_settings(capsys, family_file, tmp_path):
    code, out, _ = run(capsys, ["gamma", "--family", family_file,
                                "--experiment", "value",
                                "--csv-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["flags"] == []


MALFORMED = {
    "epsilon": {"kind": "log_sum_exp",
                "params": {"vectors": [[1.0]], "epsilon": "a"}},
    "ragged": {"kind": "max_linear", "params": {"vectors": [[1.0, 2.0], [3.0]]}},
    "size": {"builder": "constant", "function": QUAD, "x0": [0.0], "x1": [1.0],
             "size": "x"},
    "csv": LSE_FAMILY,
    "unknown-key": {"kind": "quadratic",
                    "params": {"Q": [[1.0]], "b": [0.0], "C": 1.0}},
    "unknown-region-key": {"kind": "indicator", "params": {"region": {
        "type": "ball", "center": [0.0], "radius": 1.0, "rim": 0.1}}},
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_value_is_a_clean_error(capsys, tmp_path, case):
    # a non-numeric or ragged field in a function, family or path document,
    # or an unknown key in a function document or its nested region
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(MALFORMED[case]))
    curve = tmp_path / "curve.csv"
    curve.write_text("t,x0\n0,-1\n0.5,a\n1,1\n")
    if "kind" in MALFORMED[case]:
        argv = ["prox", "--function", str(doc), "--tau", "0.5", "--point", "2"]
    else:
        argv = ["gamma", "--family", str(doc), "--experiment", "limsup",
                "--taus", "0.2", "--gamma-csv", str(curve),
                "--csv-dir", str(tmp_path)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("key", ["fd_step", "fd_scale", "preconditioner",
                                 "step_rule", "tau_schedule"])
def test_unknown_minimize_key_is_a_clean_error(capsys, quad_file, tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"minimize": {"N": 16, key: 1e-5}}))
    code, _, err = run(capsys, ["minimize", "--function", quad_file,
                                "--config", str(cfg), "--delta", "1",
                                "--x0", "1", "--xd", "2",
                                "--csv-dir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")
    assert repr(key) in err


@pytest.mark.parametrize("key", ["N", "max_iters"])
def test_non_integer_minimize_setting_is_a_clean_error(capsys, quad_file, tmp_path,
                                                       key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"minimize": {key: "abc"}}))
    code, _, err = run(capsys, ["minimize", "--function", quad_file,
                                "--config", str(cfg), "--delta", "1",
                                "--x0", "1", "--xd", "2",
                                "--csv-dir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")
    assert key in err


BAD_CONFIG = {
    "gamma-tau": (["gamma", "--experiment", "resolvent"],
                  {"family": LSE_FAMILY, "tau": "x", "probes": [[0.0]]}),
    "gamma-intervals": (["gamma", "--experiment", "limsup", "--taus", "0.2"],
                        {"family": LSE_FAMILY, "gamma-intervals": "x"}),
    "prox-point": (["prox"], {"function": QUAD, "tau": 0.5, "point": ["a"]}),
    "verify-seed": (["verify", "--scope", "gamma"], {"seed": "x"}),
    # an empty scope list once ran every scope
    "verify-no-scope": (["verify"], {"scope": []}),
    "verify-empty-scope": (["verify", "--scope", ""], {}),
    "minimize-delta": (["minimize"], {"function": QUAD, "delta": "x",
                                      "x0": [1.0], "xd": [2.0]}),
    "minimize-no-function": (["minimize"], {"delta": 1.0, "x0": [1.0],
                                            "xd": [2.0]}),
}


@pytest.mark.parametrize("case", list(BAD_CONFIG))
def test_non_numeric_config_value_is_a_clean_error(capsys, tmp_path, case):
    # config values reach the entry points raw, and those reject them; a
    # command given no function document at all is rejected the same way
    argv, config = BAD_CONFIG[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, argv + ["--config", str(cfg),
                                       "--csv-dir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")
