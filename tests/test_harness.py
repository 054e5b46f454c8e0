import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from scalarfed import harness
from scalarfed.cli import main
from scalarfed.errors import ConfigError
from scalarfed.rng import SeedSchedule
from scalarfed.tasks import QuadraticTask


def quad_spec(**round_over):
    rnd = {"M": 4, "m": 2, "R": 5, "eta": 0.02, "tau": 1, "P": 2, "mu": 1e-4,
           "root_seed": 3, "sampling_seed": 4}
    rnd.update(round_over)
    return {
        "task": {"kind": "quadratic", "dim": 10, "num_clients": 4, "seed": 9,
                 "spectrum_variance": 1.0, "offset_scale": 0.1, "x0_scale": 0.5},
        "round": rnd,
    }


def logistic_spec(**task_over):
    spec = quad_spec()
    spec["task"] = {"kind": "logistic", "dim": 8, "num_clients": 4, "seed": 9,
                    "n_samples": 200, "batch_size": 16, **task_over}
    return spec


def with_task(**task_over):
    spec = quad_spec()
    spec["task"].update(task_over)
    return spec


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


@pytest.mark.parametrize("field", ["M", "m", "R", "eta"])
def test_missing_round_field_names_it(field):
    spec = {"M": 4, "m": 2, "R": 1, "eta": 0.1, "P": 2}
    del spec[field]
    with pytest.raises(ConfigError, match=f"round needs {field!r}") as err:
        harness.build_round_config(spec)
    assert err.value.field == field


def test_cli_missing_round_field_exits_2(tmp_path, capsys):
    spec = quad_spec()
    del spec["round"]["eta"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", str(spec_path)]) == 2
    assert "(field: eta)" in capsys.readouterr().err


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
    rows = harness.sweep(spec, nu_list=[0.0, 0.1], eta_list=[0.01, 0.02], loss_factor=2.0)
    assert len(rows) == 4
    assert {(r["nu"], r["eta"]) for r in rows} == {(0.0, 0.01), (0.0, 0.02),
                                                   (0.1, 0.01), (0.1, 0.02)}
    # rounds_to_threshold is the first round whose trace loss is at or below
    # initial / 2; the larger step gets there within R, the smaller does not
    task, _ = harness._build(spec)
    threshold = task.global_loss(task.x0) / 2.0
    for row in rows:
        losses = harness.run_spec(quad_spec(R=4, nu=row["nu"], eta=row["eta"])).losses()
        reached = [r for r, loss in enumerate(losses) if loss <= threshold]
        assert row["rounds_to_threshold"] == (reached[0] if reached else None)
        assert (row["rounds_to_threshold"] is None) == (row["eta"] == 0.01)
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


@pytest.mark.parametrize("field, value", [
    ("tau", "2"), ("R", 3.5), ("eta", "0.001"), ("nu", None), ("quantize_wire", "no"),
    ("R", True), ("bytes_per_scalar", "4"),
], ids=["tau-string", "R-float", "eta-string", "nu-null", "quantize-string", "R-bool",
        "bytes-string"])
def test_cli_rejects_mistyped_round_fields_with_exit_code_2(tmp_path, capsys, field, value):
    # a wrong type must neither crash nor run with another meaning
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(**{field: value})))
    assert main(["run", str(spec_path)]) == 2
    assert f"(field: {field})" in capsys.readouterr().err


def test_run_spec_builds_the_seed_grid_once(monkeypatch):
    shapes = []
    validate_grid = SeedSchedule.validate_grid

    def counted(self, *shape):
        shapes.append(shape)
        return validate_grid(self, *shape)

    monkeypatch.setattr(SeedSchedule, "validate_grid", counted)
    harness.run_spec(quad_spec())
    assert shapes == [(5, 1, 2)]


def test_round_config_accepts_numpy_numbers():
    config = harness.build_round_config({"M": np.int64(4), "m": 2, "R": np.uint64(3),
                                         "eta": np.float64(0.02), "mu": np.float32(1e-3)})
    assert config.rounds == 3


def test_cli_verify_equivalence_refuses_zero_fuzz(capsys):
    # an empty report would pass: all() over no checks is true
    assert main(["verify-equivalence", "--fuzz", "0"]) == 2
    assert "(field: fuzz)" in capsys.readouterr().err


def test_cli_estimator_failure_names_client(tmp_path, capsys):
    # a perturbation this long overflows every client's perturbed loss in round 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(mu=1e300)))
    assert main(["run", str(spec_path)]) == 3
    err = capsys.readouterr().err
    # the client and the coordinates, each named once
    assert re.fullmatch(r"estimator failure: client \d+ perturbed loss diverged "
                        r"at round 0, step 0, perturbation 0\n", err)


@pytest.mark.parametrize("over, message", [
    ({"eta": 1e160}, "global loss diverged at round 0"),
    ({"mu": 1e300}, "perturbed loss diverged at round 0, step 0, perturbation 0"),
], ids=["global", "perturbed"])
def test_cli_real_overflow_exits_3(tmp_path, capsys, over, message):
    # numpy warns of the overflow first, an error under this suite's filters:
    # it must still fail as an estimator failure, not escape as a traceback
    spec = quad_spec(R=1, **over)
    spec["task"]["dim"] = 20
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", str(spec_path)]) == 3
    assert message in capsys.readouterr().err


def test_cli_decomfl_curvature_overflow_exits_3_naming_the_round(tmp_path, capsys):
    # at nu = 0 the squared step overflows the curvature EMA in round 0
    spec = quad_spec(R=3, eta=1e-6, mu=1e153, algorithm="decomfl")
    spec["task"]["dim"] = 20
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", str(spec_path)]) == 3
    assert capsys.readouterr().err == ("estimator failure: curvature diverged at round 0: "
                                       "a squared step overflowed\n")


def test_cli_failure_with_a_round_in_flight_exits_3(tmp_path):
    # at d = 2e4 each block spans several chunks, so round 2 is being drawn on
    # the helper threads when round 1's perturbed loss overflows (the round-0
    # step is near the overflow edge, and beta_upper = 1 keeps mu's full
    # reach); the process must exit 3, not wait on the draw or crash
    spec = quad_spec(R=4, eta=1e-4, mu=5e151, beta_upper=1.0)
    spec["task"]["dim"] = 20_000
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "scalarfed.cli", "run", str(spec_path),
         "-o", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("estimator failure: client 1 perturbed loss diverged at round 1, "
                           "step 0, perturbation 0\n")


def test_cli_run_whose_last_round_diverges_exits_3_without_a_trace(tmp_path, capsys,
                                                                    monkeypatch):
    # the stub makes the one round's global loss inf, whatever the model
    monkeypatch.setattr(QuadraticTask, "global_loss", lambda self, x: np.inf)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(R=1)))
    assert main(["run", str(spec_path), "-o", str(tmp_path / "out")]) == 3
    assert "global loss diverged at round 0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "trace.jsonl")


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


@pytest.mark.parametrize("argv", [
    ["run", "SPEC"], ["sweep", "SPEC"], ["account", "--rounds", "3"],
    ["verify-lemmas", "--samples", "10"], ["verify-equivalence", "--fuzz", "1"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_output_exits_2_before_any_work(argv, tmp_path, capsys, monkeypatch):
    for entry in ("run_spec", "sweep", "account", "verify_lemmas", "verify_equivalence"):
        monkeypatch.setattr(harness, entry, lambda *a, **k: pytest.fail("the work began"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(R=3)))
    argv = [str(spec_path) if arg == "SPEC" else arg for arg in argv]
    (tmp_path / "file").write_text("")
    # `run` makes its output directory, so only a path under a file defeats it
    outputs = [tmp_path / "file" / "out"]
    if argv[0] != "run":
        outputs += [tmp_path / "missing" / "out.json", tmp_path]
    for output in outputs:
        assert main([*argv, "-o", str(output)]) == 2
        assert "(field: output)" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(quad_spec(R=3)))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec_path), "--nu", "0.0,0.1", "-o", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_cli_sweep_logistic_spec(tmp_path):
    spec = logistic_spec()
    spec["round"].update(R=3, eta=0.05)
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
    (["run", "{dim_string}"], "dim"),
    (["run", "{clients_float}"], "num_clients"),
    (["run", "{unknown_task_key}"], "bogus"),
    (["run", "{no_seed}"], "seed"),
    (["run", "{x0_mode}"], "x0_mode"),
    (["run", "{kind_list}"], "task.kind"),
    (["run", "{zero_batch}"], "batch_size"),
    (["run", "{zero_dim}"], "dim"),
    (["run", "{zero_variance}"], "spectrum_variance"),
    (["run", "{negative_samples}"], "n_samples"),
    (["run", "{keep_models}"], "keep_models"),
    (["run", "{dump_string}"], "dump_hessian"),
    (["run", "{x0_nan}"], "x0_scale"),
    (["run", "{offset_inf}"], "offset_scale"),
    (["run", "{shift_minus_inf}"], "shift"),
    (["run", "{variance_inf}"], "spectrum_variance"),
    (["run", "{separation_nan}"], "separation"),
    (["run", "{l2_minus_inf}"], "l2"),
], ids=["account-m-0", "account-tau-0", "account-P-negative", "account-bytes-negative",
        "run-bytes-negative", "lemmas-samples-0", "lemmas-dim-0", "run-missing-spec",
        "run-malformed-spec", "sweep-missing-spec", "sweep-malformed-spec",
        "sweep-bad-list", "task-dim-string", "task-clients-float", "task-unknown-key",
        "task-missing-seed", "task-x0-mode", "task-kind-list", "logistic-batch-0",
        "task-dim-0", "task-variance-0", "logistic-samples-negative",
        "spec-keep-models", "spec-dump-string", "task-x0-nan", "task-offset-inf",
        "task-shift-minus-inf", "task-variance-inf", "logistic-separation-nan",
        "logistic-l2-minus-inf"])
def test_cli_bad_input_exits_2_naming_field(tmp_path, capsys, argv, field):
    no_seed = quad_spec()
    del no_seed["task"]["seed"]
    specs = {"spec": quad_spec(R=2), "negative_bytes": quad_spec(bytes_per_scalar=-4),
             "dim_string": with_task(dim="5"), "clients_float": with_task(num_clients=2.5),
             "unknown_task_key": with_task(bogus=1), "no_seed": no_seed,
             "x0_mode": with_task(x0_mode="uniform"), "kind_list": with_task(kind=[1]),
             "zero_batch": logistic_spec(batch_size=0), "zero_dim": with_task(dim=0),
             "zero_variance": with_task(spectrum_variance=0.0),
             "negative_samples": logistic_spec(n_samples=-1),
             "keep_models": dict(quad_spec(), keep_models=False),
             "dump_string": dict(quad_spec(), dump_hessian="yes"),
             # json writes these as NaN and Infinity, which its reader accepts
             "x0_nan": with_task(x0_scale=float("nan")),
             "offset_inf": with_task(offset_scale=float("inf")),
             "shift_minus_inf": with_task(shift=float("-inf")),
             "variance_inf": with_task(spectrum_variance=float("inf")),
             "separation_nan": logistic_spec(separation=float("nan")),
             "l2_minus_inf": logistic_spec(l2=float("-inf"))}
    paths = {"missing": tmp_path / "missing.json", "malformed": tmp_path / "bad.json"}
    for name, spec in specs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    paths["malformed"].write_text('{"task": ')
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    assert f"(field: {field})" in capsys.readouterr().err
