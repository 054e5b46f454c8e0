import json
import os

import numpy as np
import pytest

from scalarfed import harness
from scalarfed.cli import main
from scalarfed.errors import ConfigError


def quad_spec(**round_over):
    rnd = {"M": 4, "m": 2, "R": 5, "eta": 0.02, "tau": 1, "P": 2, "mu": 1e-4,
           "root_seed": 3, "sampling_seed": 4}
    rnd.update(round_over)
    return {
        "task": {"kind": "quadratic", "dim": 10, "num_clients": 4, "seed": 9,
                 "spectrum_variance": 1.0, "offset_scale": 0.1, "x0_scale": 0.5},
        "round": rnd,
    }


def test_run_spec_writes_trace_files(tmp_path):
    out = tmp_path / "run"
    result = harness.run_spec(quad_spec(), output_dir=str(out))
    assert len(result.trace) == 5
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert rec["round"] == 0 and "loss" in rec
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert "loss" in header and "uplink_bytes" in header


def test_spec_validation_names_offending_field():
    bad = quad_spec(m=9)
    with pytest.raises(ConfigError) as err:
        harness.run_spec(bad)
    assert err.value.field == "m"
    with pytest.raises(ConfigError) as err:
        harness.run_spec({"task": {"kind": "nope"}, "round": {}})
    assert err.value.field == "task.kind"


def test_unknown_round_field_rejected():
    with pytest.raises(ConfigError):
        harness.build_round_config({"M": 2, "m": 1, "R": 1, "eta": 0.1, "bogus": 1})


def test_decomfl_flag_vs_nu_zero_loss_columns_identical(tmp_path):
    a = harness.run_spec(quad_spec(nu=0.0, algorithm="hiso", R=15))
    b = harness.run_spec(quad_spec(nu=0.05, algorithm="decomfl", R=15))
    loss_a = [json.dumps(rec["loss"]) for rec in a.trace]
    loss_b = [json.dumps(rec["loss"]) for rec in b.trace]
    assert loss_a == loss_b


def test_verify_lemmas_report_structure():
    report = harness.verify_lemmas(dim=3, samples=150000, seed=5)
    d = report.to_dict()
    assert d["seed"] == 5
    assert all(set(c) >= {"name", "passed", "measured", "tolerance", "samples",
                          "runtime_s"} for c in d["checks"])
    assert report.passed
    # reproducibility: same seed, same measured values
    again = harness.verify_lemmas(dim=3, samples=150000, seed=5)
    assert [c.measured for c in report.checks] == [c.measured for c in again.checks]


def test_verify_equivalence_pinned_seeds():
    for seed in (7, 8, 9):
        report = harness.verify_equivalence(fuzz_count=1, seed=seed)
        assert report.passed, f"seed {seed} diverged"
        assert report.checks[0].measured == 0.0


def test_verify_equivalence_tolerance_follows_transport(capsys):
    report = harness.verify_equivalence(fuzz_count=2, seed=1, transport="natural")
    assert report.passed
    assert [c.tolerance for c in report.checks] == [1e-9, 1e-9]
    assert main(["verify-equivalence", "--fuzz", "1", "--transport", "natural"]) == 0
    assert "tol=1.000e-09" in capsys.readouterr().out
    with pytest.raises(ConfigError) as err:
        harness.verify_equivalence(fuzz_count=1, transport="replay")
    assert err.value.field == "transport"


def test_account_table_rows():
    row = harness.account(rounds=550, m=2, tau=1, perturbations=5)
    assert row["metered_uplink_bytes"] == 550 * 2 * 5 * 4
    # round 0 pulls nothing; every later round replays exactly one round
    assert row["metered_downlink_bytes"] == 549 * 2 * 5 * 4
    per_client = row["per_client_bytes"]
    assert abs(per_client - 21.56 * 1024) / (21.56 * 1024) < 0.02


def test_account_full_vector_ratio():
    row = harness.account(rounds=1, m=1, tau=1, perturbations=5, dim=1_300_000_000)
    assert row["full_vector_bytes_per_direction"] == 5_200_000_000
    assert row["savings_ratio_single_direction"] == pytest.approx(1.3e8, rel=1e-6)


def test_account_rejects_zero_rounds():
    with pytest.raises(ConfigError):
        harness.account(rounds=0)


def test_sweep_rows_and_budget(tmp_path):
    spec = quad_spec(R=4)
    rows = harness.sweep(spec, nu_list=[0.0, 0.1], eta_list=[0.01, 0.02])
    assert len(rows) == 4
    assert {(r["nu"], r["eta"]) for r in rows} == {(0.0, 0.01), (0.0, 0.02),
                                                   (0.1, 0.01), (0.1, 0.02)}
    path = harness.write_sweep_csv(rows, str(tmp_path / "sweep.csv"))
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 5
    with pytest.raises(ConfigError):
        harness.sweep(spec, nu_list=[0.1] * 9, eta_list=[0.01] * 9, max_runs=64)


def test_sweep_empty_grid_lists_fall_back_to_base():
    rows = harness.sweep(quad_spec(R=3))
    assert len(rows) == 1


def test_cli_run_and_exit_codes(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(R=3)))
    code = main(["run", str(spec_path), "-o", str(tmp_path / "out")])
    assert code == 0
    assert os.path.exists(tmp_path / "out" / "trace.jsonl")

    bad = quad_spec()
    bad["round"]["m"] = 99
    spec_path.write_text(json.dumps(bad))
    code = main(["run", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "m" in captured.err

    spec_path.write_text(json.dumps(quad_spec(M=8)))  # the task has 4 clients
    assert main(["run", str(spec_path)]) == 2
    assert "(field: M)" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("nu", 2.0), ("beta_lower", 5.0), ("epsilon", 0.0)])
def test_cli_rejects_bad_curvature_fields_with_exit_code_2(tmp_path, capsys, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(**{field: value})))
    assert main(["run", str(spec_path)]) == 2
    assert f"(field: {field})" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_estimator_failure_names_client(tmp_path, capsys):
    # the first step throws the model so far that every client's loss overflows
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(eta=1e300)))
    assert main(["run", str(spec_path)]) == 3
    err = capsys.readouterr().err
    assert "estimator failure" in err and "on client " in err


def test_cli_account_and_verify(tmp_path, capsys):
    code = main(["account", "--rounds", "550", "--m", "2", "--tau", "1", "--P", "5",
                 "--dim", "1000000", "-o", str(tmp_path / "acct.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "per client" in out
    row = json.loads((tmp_path / "acct.json").read_text())
    assert row["per_client_bytes"] == 550 * 40 - 20

    code = main(["verify-lemmas", "--dim", "3", "--samples", "120000",
                 "-o", str(tmp_path / "rep.json")])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["passed"] is True


def test_cli_sweep(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(R=3)))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec_path), "--nu", "0.0,0.1", "-o", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_cli_sweep_logistic_spec(tmp_path):
    spec = {"task": {"kind": "logistic", "dim": 8, "num_clients": 4, "seed": 9,
                     "n_samples": 200, "batch_size": 16},
            "round": {"M": 4, "m": 2, "R": 3, "eta": 0.05, "tau": 1, "P": 2, "mu": 1e-4,
                      "root_seed": 3, "sampling_seed": 4}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec_path), "--nu", "0,0.1", "-o", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_sweep_explicit_empty_grid_gives_empty_csv(tmp_path):
    rows = harness.sweep(quad_spec(R=3), nu_list=[])
    assert rows == []
    path = harness.write_sweep_csv(rows, str(tmp_path / "empty.csv"))
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 and "final_loss" in lines[0]


def test_run_spec_hessian_dump(tmp_path):
    spec = quad_spec(R=4)
    spec["dump_hessian"] = True
    harness.run_spec(spec, output_dir=str(tmp_path))
    blob = np.fromfile(tmp_path / "hessian_diag.f64", dtype="<f8")
    assert blob.shape == (10,)
    assert np.all(blob > 0)


def test_quadratic_shift_moves_optimum():
    task = harness.build_task({"kind": "quadratic", "dim": 6, "num_clients": 3,
                               "seed": 4, "offset_scale": 0.1, "shift": 2.0})
    # offsets are centered, so the global optimum (the mean center) is the shift
    assert np.allclose(task.centers.mean(axis=0), 2.0, atol=1e-12)


def test_account_rejects_zero_dim():
    with pytest.raises(ConfigError) as err:
        harness.account(rounds=10, dim=0)
    assert err.value.field == "dim"


@pytest.mark.parametrize("argv, field", [
    (["account", "--rounds", "10", "--m", "0"], "m"),
    (["account", "--rounds", "10", "--tau", "0"], "tau"),
    (["account", "--rounds", "10", "--P", "-1"], "P"),
    (["account", "--rounds", "10", "--bytes-per-scalar", "-4"], "bytes_per_scalar"),
    (["run", "{negative_bytes}"], "bytes_per_scalar"),
    (["verify-lemmas", "--samples", "0"], "samples"),
    (["verify-lemmas", "--dim", "0"], "dim"),
    (["run", "{missing}"], "spec"),
    (["run", "{malformed}"], "spec"),
    (["sweep", "{missing}"], "spec"),
    (["sweep", "{malformed}"], "spec"),
    (["sweep", "{spec}", "--nu", "0.1,abc"], "nu"),
], ids=["account-m-0", "account-tau-0", "account-P-negative", "account-bytes-negative",
        "run-bytes-negative", "lemmas-samples-0", "lemmas-dim-0", "run-missing-spec",
        "run-malformed-spec", "sweep-missing-spec", "sweep-malformed-spec",
        "sweep-bad-list"])
def test_cli_bad_input_exits_2_naming_field(tmp_path, capsys, argv, field):
    negative_bytes = quad_spec()
    negative_bytes["round"]["bytes_per_scalar"] = -4
    paths = {"spec": tmp_path / "spec.json", "negative_bytes": tmp_path / "bytes.json",
             "missing": tmp_path / "missing.json", "malformed": tmp_path / "bad.json"}
    paths["spec"].write_text(json.dumps(quad_spec(R=2)))
    paths["negative_bytes"].write_text(json.dumps(negative_bytes))
    paths["malformed"].write_text('{"task": ')
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    assert f"(field: {field})" in capsys.readouterr().err
