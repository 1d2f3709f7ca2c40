import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import vineshap
import vineshap.cli
from vineshap import ExperimentConfig, burr_sample, study_params
from vineshap.cli import FIT_METHODS, main, make_predictor, parse_bench_config, read_csv


def run_cli(*argv):
    return main(list(argv))


def write_csv(path, x):
    path.write_text("\n".join([",".join(f"x{j + 1}" for j in range(x.shape[1]))]
                              + [",".join(map(repr, row)) for row in x.tolist()]) + "\n")
    return path


@pytest.fixture
def train_csv(tmp_path):
    x = burr_sample(study_params(1.0, M=3), 200, np.random.default_rng(0))
    return write_csv(tmp_path / "train.csv", x)


@pytest.fixture
def test_csv(tmp_path):
    x = burr_sample(study_params(1.0, M=3), 3, np.random.default_rng(1))
    return write_csv(tmp_path / "test.csv", x)


# ----------------------------------------------------------------------
# csv layer

def test_read_csv_reports_bad_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n1.0,oops\n")
    from vineshap.errors import DataError
    with pytest.raises(DataError, match=r"row 3.*'b'"):
        read_csv(p)


def test_read_csv_reports_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0\n")
    from vineshap.errors import DataError
    with pytest.raises(DataError, match="row 2"):
        read_csv(p)


def test_read_csv_rejects_duplicate_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,a\n1.0,2.0\n")
    from vineshap.errors import DataError
    with pytest.raises(DataError, match="duplicate"):
        read_csv(p)


# ----------------------------------------------------------------------
# predictors

def test_cli_import_loads_no_scipy_stats():
    """No scipy module loads with the CLI: `scipy.stats` and `scipy.spatial`
    load where they are used (vine fits, the kNN predictor), and
    `scipy.special` with the first Gaussian piece."""
    src = Path(vineshap.__file__).resolve().parents[1]
    code = ("import sys, vineshap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def main_in_a_new_process(argv):
    """`vineshap` with `argv` in a fresh interpreter: its exit code and
    whether it loaded `scipy.special`."""
    src = Path(vineshap.__file__).resolve().parents[1]
    code = ("import sys; from vineshap.cli import main; "
            f"print(main({argv!r}), 'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    code, loaded = proc.stdout.split()
    return int(code), loaded == "True"


def explain_in_a_new_process(model, test_csv, out, predictor):
    """`vineshap explain` in a fresh interpreter, reported as `main_in_a_new_process` does."""
    return main_in_a_new_process(["explain", str(model), str(test_csv), "--predictor", predictor,
                                  "--k", "100", "--seed", "6", "--diagnostics", "--out", str(out)])


def pair_families(model):
    return {pair["family"] for vine in json.loads(model.read_text())["models"]
            for row in vine["pairs"] for pair in row}


def set_pairs(bundle, pair):
    for model in bundle["models"]:
        model["pairs"] = [[dict(pair) for _ in row] for row in model["pairs"]]


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_explain_without_a_gaussian_pair_loads_no_scipy_special(train_csv, test_csv,
                                                                tmp_path, shap_method):
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    assert run_cli("fit", str(train_csv), "--shap-method", shap_method,
                   "--out", str(model)) == 0
    bundle = json.loads(model.read_text())
    set_pairs(bundle, {"family": "clayton", "theta": 1.5, "rotation": 180})
    model.write_text(json.dumps(bundle))
    assert explain_in_a_new_process(model, test_csv, out, "const:1.5") == (0, False)
    assert all(rec["phi0"] == 1.5 for rec in json.loads(out.read_text())["explanations"])


@pytest.mark.parametrize("method,shap_method", [("gaussian-copula", "ratio"),
                                                ("vine-parametric", "condsim"),
                                                ("vine-parametric", "ratio")])
def test_gaussian_pieces_load_scipy_special_on_use(train_csv, test_csv, tmp_path,
                                                    method, shap_method):
    """A Gaussian baseline, or a vine with a Gaussian pair, loads
    `scipy.special` when it first evaluates one, and writes the bytes that
    an explain in a process which had loaded it already writes."""
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--method", method, "--shap-method", shap_method,
                   "--out", str(model)) == 0
    if method == "vine-parametric":
        bundle = json.loads(model.read_text())
        set_pairs(bundle, {"family": "clayton", "theta": 1.5, "rotation": 180})
        bundle["models"][-1]["pairs"][-1][0] = {"family": "gaussian", "rho": 0.4}
        model.write_text(json.dumps(bundle))
    fresh, loaded = tmp_path / "fresh.json", tmp_path / "loaded.json"
    assert explain_in_a_new_process(model, test_csv, fresh, "linear:1,2,3") == (0, True)
    assert run_cli("explain", str(model), str(test_csv), "--predictor", "linear:1,2,3",
                   "--k", "100", "--seed", "6", "--diagnostics", "--out", str(loaded)) == 0
    assert fresh.read_bytes() == loaded.read_bytes()


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_a_fit_whose_pairs_are_all_clayton_loads_no_scipy_special(tmp_path, shap_method):
    """Burr data, whose copula is a survival Clayton: a cold `vineshap fit`
    rules out the Gaussian candidate of every pair on NumPy normal scores,
    so it never imports `scipy.special`."""
    train = write_csv(tmp_path / "train.csv",
                      burr_sample(study_params(0.5, M=4), 300, np.random.default_rng(0)))
    model = tmp_path / "m.json"
    assert main_in_a_new_process(["fit", str(train), "--shap-method", shap_method,
                                  "--out", str(model)]) == (0, False)
    assert pair_families(model) == {"clayton"}


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_a_fit_on_gaussian_copula_data_loads_scipy_special_and_writes_the_same_bundle(
        tmp_path, shap_method):
    """Log-normal data, whose copula is Gaussian: a cold `vineshap fit` loads
    `scipy.special` for its Gaussian pairs and writes the bytes that a fit in
    a process which had loaded it already writes."""
    cov = 0.6 ** np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
    x = np.exp(np.random.default_rng(0).multivariate_normal(np.zeros(3), cov, size=200))
    train, fresh, loaded = write_csv(tmp_path / "train.csv", x), tmp_path / "f.json", tmp_path / "l.json"
    argv = ["fit", str(train), "--shap-method", shap_method, "--seed", "3"]
    assert main_in_a_new_process([*argv, "--out", str(fresh)]) == (0, True)
    vineshap.bicop.special()
    assert run_cli(*argv, "--out", str(loaded)) == 0
    assert "gaussian" in pair_families(fresh)
    assert fresh.read_bytes() == loaded.read_bytes()


def test_fit_loads_no_scipy_stats(train_csv, tmp_path):
    """Kendall's tau, the vine fits' one use of `scipy.stats`, is computed
    without it, so no `vineshap fit` loads it."""
    src = Path(vineshap.__file__).resolve().parents[1]
    runs = [[str(train_csv), "--method", method, "--shap-method", shap_method,
             "--out", str(tmp_path / f"{method}-{shap_method}.json")]
            for method in FIT_METHODS for shap_method in ("condsim", "ratio")]
    code = ("import sys; from vineshap.cli import main; "
            f"print([main(['fit', *argv]) for argv in {runs!r}], "
            "'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == f"{[0] * len(runs)} False"


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_fit_on_a_column_increasing_in_another_raises_no_runtime_warning(tmp_path, shap_method):
    """x3 = 2 x1 + 1 has Kendall's tau 1 with x1: `vineshap fit`, run with
    RuntimeWarnings as errors, fits it and exits 0."""
    x = burr_sample(study_params(1.0, M=3), 200, np.random.default_rng(0))
    x[:, 2] = 2.0 * x[:, 0] + 1.0
    train = tmp_path / "train.csv"
    train.write_text("\n".join(["x1,x2,x3"] + [",".join(map(repr, row)) for row in x.tolist()]))
    src = Path(vineshap.__file__).resolve().parents[1]
    argv = ["fit", str(train), "--shap-method", shap_method, "--out", str(tmp_path / "m.json")]
    code = f"import sys; from vineshap.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_const_predictor():
    g = make_predictor("const:2.5", ["a", "b"])
    assert np.allclose(g(np.zeros((4, 2))), 2.5)


def test_linear_predictor():
    g = make_predictor("linear:1,2", ["a", "b"])
    assert g(np.array([[3.0, 4.0]]))[0] == pytest.approx(11.0)


def test_linear_predictor_is_row_exact():
    """A row's value does not depend on the batch it comes in, bit for bit."""
    rng = np.random.default_rng(7)
    coef = rng.normal(size=6)
    g = make_predictor("linear:" + ",".join(repr(float(c)) for c in coef), list("abcdef"))
    x = rng.normal(size=(2000, 6)) * rng.uniform(0.1, 100, size=6)
    assert np.array_equal(g(x), np.concatenate([g(row) for row in x]))


def test_linear_predictor_wrong_arity():
    from vineshap.errors import DataError
    with pytest.raises(DataError):
        make_predictor("linear:1,2,3", ["a", "b"])


def test_cmd_predictor_roundtrip(tmp_path):
    script = tmp_path / "pred.py"
    script.write_text(
        "import sys\n"
        "rows = sys.stdin.read().splitlines()[1:]\n"
        "for r in rows:\n"
        "    print(sum(float(t) for t in r.split(',')))\n")
    g = make_predictor(f"cmd:{sys.executable} {script}", ["a", "b"])
    out = g(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(out, [3.0, 7.0])


def test_cmd_predictor_child_reads_the_csv_protocol(tmp_path, monkeypatch):
    """The stdin bytes, also when the rows are written in chunks of two."""
    script = tmp_path / "save.py"
    saved = tmp_path / "stdin.csv"
    script.write_text(
        "import sys\n"
        "data = sys.stdin.buffer.read()\n"
        "open(sys.argv[1], 'wb').write(data)\n"
        "print('0.0\\n' * (data.count(b'\\n') - 1), end='')\n")
    g = make_predictor(f"cmd:{sys.executable} {script} {saved}", ["a", "b"])
    for cells in (vineshap.cli.PREDICT_CELLS, 4):
        monkeypatch.setattr(vineshap.cli, "PREDICT_CELLS", cells)
        out = g(np.array([[0.1, -2.5], [1e-300, 3.0], [12345678.9, -0.0]]))
        assert np.array_equal(out, np.zeros(3))
        assert saved.read_bytes() == b"a,b\n0.1,-2.5\n1e-300,3.0\n12345678.9,-0.0\n"


def test_cmd_predictor_protocol_violation(tmp_path):
    script = tmp_path / "pred.py"
    script.write_text("print(1.0)\n")   # always one line regardless of input
    from vineshap.errors import DataError
    g = make_predictor(f"cmd:{sys.executable} {script}", ["a"])
    with pytest.raises(DataError, match="protocol"):
        g(np.zeros((3, 1)))


def child_script(tmp_path, body):
    script = tmp_path / "child.py"
    script.write_text("import sys, time\n" + body)
    return f"cmd:{sys.executable} {script}"


def test_cmd_predictor_output_that_is_not_utf8_is_a_protocol_violation(
        train_csv, test_csv, tmp_path, capsys):
    # it ended in a UnicodeDecodeError traceback
    spec = child_script(tmp_path, "n = len(sys.stdin.read().splitlines()) - 1\n"
                                  "sys.stdout.buffer.write(b'\\377\\n' * n)\n")
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    assert run_cli("fit", str(train_csv), "--out", str(model)) == 0
    capsys.readouterr()
    assert run_cli("explain", str(model), str(test_csv), "--k", "20",
                   "--predictor", spec, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "protocol violation" in err and "UTF-8" in err
    assert not out.exists()


def test_cmd_predictor_stderr_that_is_not_utf8_is_replaced():
    from vineshap.errors import NumericError
    g = make_predictor(f"cmd:{sys.executable} -c \"import sys; "
                       "sys.stderr.buffer.write(b'bad \\377 byte'); sys.exit(5)\"", ["a"])
    with pytest.raises(NumericError, match="exit 5.*bad \ufffd byte"):
        g(np.zeros((2, 1)))


def test_hung_cmd_predictor_is_killed_at_the_timeout(train_csv, test_csv, tmp_path, capsys):
    pid_file = tmp_path / "pid"
    spec = child_script(tmp_path, f"open({str(pid_file)!r}, 'w').write(str(__import__('os')"
                                  ".getpid()))\ntime.sleep(60)\n")
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    assert run_cli("fit", str(train_csv), "--out", str(model)) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("explain", str(model), str(test_csv), "--k", "20", "--predictor", spec,
                   "--predictor-timeout", "1", "--out", str(out)) == 4
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "timed out after 1 s" in err
    assert not out.exists()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_explain_sends_every_row_through_one_cmd_call(train_csv, test_csv, tmp_path):
    counts = tmp_path / "counts"
    spec = child_script(tmp_path, f"rows = sys.stdin.read().splitlines()[1:]\n"
                                  f"open({str(counts)!r}, 'a').write(f'{{len(rows)}}\\n')\n"
                                  "for r in rows:\n"
                                  "    print(sum(float(t) * c for t, c in zip(r.split(','), "
                                  "(1, 2, 3))))\n")
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--out", str(model)) == 0
    for name, predictor in (("cmd", spec), ("linear", "linear:1,2,3")):
        assert run_cli("explain", str(model), str(test_csv), "--k", "100", "--seed", "7",
                       "--predictor", predictor, "--out", str(tmp_path / f"{name}.json")) == 0
    # v(empty)'s 200 training rows, then x* and 6 coalitions of 100 rows per test row
    assert counts.read_text().split() == [str(200 + 3 * 601)]
    cmd, linear = (json.loads((tmp_path / f"{n}.json").read_text())["explanations"]
                   for n in ("cmd", "linear"))
    for a, b in zip(cmd, linear):
        assert a["phi0"] == pytest.approx(b["phi0"]) and np.allclose(a["phi"], b["phi"])


# ----------------------------------------------------------------------
# simulate

def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--p", "0.5", "--b", "2,4,6", "--r", "1,3,5",
            "--n", "50", "--seed", "3"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_n_zero_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run_cli("simulate", "--p", "1", "--b", "2", "--r", "1",
                   "--n", "0", "--out", str(out)) == 0
    assert out.read_text().strip() == "x1"


def test_simulate_invalid_params(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for p, b, r in (("-1", "2", "1"), ("nan", "2", "1"), ("inf", "2", "1"),
                    ("1", "1,nan", "1,1"), ("1", "2", "inf")):
        assert run_cli("simulate", "--p", p, "--b", b, "--r", r,
                       "--n", "5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


# ----------------------------------------------------------------------
# fit

def test_fit_two_columns_single_order(tmp_path):
    p = tmp_path / "t.csv"
    x = np.random.default_rng(2).normal(size=(100, 2))
    p.write_text("a,b\n" + "\n".join(f"{r[0]!r},{r[1]!r}" for r in x.tolist()) + "\n")
    out = tmp_path / "m.json"
    assert run_cli("fit", str(p), "--method", "vine-parametric",
                   "--shap-method", "ratio", "--out", str(out)) == 0
    bundle = json.loads(out.read_text())
    assert len(bundle["models"]) == 1
    assert sum(len(row) for row in bundle["models"][0]["pairs"]) == 1


def test_fit_three_columns_condsim_two_orders(train_csv, tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--method", "vine-parametric",
                   "--shap-method", "condsim", "--out", str(out)) == 0
    bundle = json.loads(out.read_text())
    assert len(bundle["models"]) == 2


def test_fit_byte_identical(train_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("fit", str(train_csv), "--method", "vine-parametric",
                       "--seed", "4", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_missing_file(tmp_path):
    assert run_cli("fit", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.json")) == 3


def test_fit_rejects_too_many_columns(tmp_path):
    p = tmp_path / "wide.csv"
    cols = [f"c{i}" for i in range(21)]
    rows = np.random.default_rng(3).normal(size=(40, 21))
    p.write_text(",".join(cols) + "\n"
                 + "\n".join(",".join(map(repr, r.tolist())) for r in rows) + "\n")
    assert run_cli("fit", str(p), "--out", str(tmp_path / "m.json")) == 3


@pytest.mark.parametrize("method", ["vine-parametric", "gaussian"])
@pytest.mark.parametrize("n", [10, 0])
def test_fit_below_the_row_floor_is_data_error(tmp_path, capsys, method, n):
    p = tmp_path / "short.csv"
    rows = np.random.default_rng(4).normal(size=(n, 3))
    p.write_text("a,b,c\n" + "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
    out = tmp_path / "m.json"
    assert run_cli("fit", str(p), "--method", method, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "30 rows" in err
    assert not out.exists()


# ----------------------------------------------------------------------
# explain

@pytest.mark.parametrize("method,shap_method", [
    ("vine-parametric", "ratio"),
    ("vine-parametric", "condsim"),
    ("gaussian", "ratio"),
    ("gaussian-copula", "ratio"),
])
def test_explain_efficiency(train_csv, test_csv, tmp_path, method, shap_method):
    model = tmp_path / "m.json"
    out = tmp_path / "e.json"
    assert run_cli("fit", str(train_csv), "--method", method,
                   "--shap-method", shap_method, "--out", str(model)) == 0
    assert run_cli("explain", str(model), str(test_csv),
                   "--predictor", "linear:1,1,1", "--k", "200",
                   "--seed", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    _, test = read_csv(test_csv)
    assert len(doc["explanations"]) == 3
    for rec in doc["explanations"]:
        gx = float(np.sum(test[rec["row_id"]]))
        assert abs(rec["phi0"] + sum(rec["phi"]) - gx) < 1e-8


def test_explain_constant_predictor(train_csv, test_csv, tmp_path):
    model = tmp_path / "m.json"
    out = tmp_path / "e.json"
    run_cli("fit", str(train_csv), "--out", str(model))
    assert run_cli("explain", str(model), str(test_csv),
                   "--predictor", "const:9.0", "--k", "50",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    for rec in doc["explanations"]:
        assert rec["phi0"] == pytest.approx(9.0)
        assert np.allclose(rec["phi"], 0.0, atol=1e-10)


def test_explain_methods_disagree_but_both_efficient(train_csv, test_csv, tmp_path):
    phis = {}
    for method in ("vine-parametric", "gaussian-copula"):
        model = tmp_path / f"{method}.json"
        out = tmp_path / f"{method}-e.json"
        run_cli("fit", str(train_csv), "--method", method, "--out", str(model))
        run_cli("explain", str(model), str(test_csv),
                "--predictor", "linear:1,2,3", "--k", "500",
                "--seed", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        phis[method] = np.array([r["phi"] for r in doc["explanations"]])
    assert not np.allclose(phis["vine-parametric"], phis["gaussian-copula"])


def test_explain_column_mismatch(train_csv, tmp_path):
    model = tmp_path / "m.json"
    run_cli("fit", str(train_csv), "--out", str(model))
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,names,here\n1.0,1.0,1.0\n")
    assert run_cli("explain", str(model), str(bad),
                   "--predictor", "const:0", "--out", str(tmp_path / "e.json")) == 3


def test_explain_linear_arity_mismatch_is_data_error(train_csv, test_csv, tmp_path):
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    run_cli("fit", str(train_csv), "--out", str(model))
    assert run_cli("explain", str(model), str(test_csv),
                   "--predictor", "linear:1,2", "--out", str(out)) == 3
    assert not out.exists()


def test_explain_nan_predictor_is_numeric_error(train_csv, test_csv, tmp_path):
    script = tmp_path / "pred.py"
    script.write_text(
        "import sys\n"
        "for _ in sys.stdin.read().splitlines()[1:]:\n"
        "    print('nan')\n")
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    run_cli("fit", str(train_csv), "--out", str(model))
    assert run_cli("explain", str(model), str(test_csv), "--k", "20",
                   "--predictor", f"cmd:{sys.executable} {script}",
                   "--out", str(out)) == 4
    assert not out.exists()


def test_explain_predictor_that_cannot_start_is_numeric_error(train_csv, test_csv, tmp_path,
                                                               capsys):
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    run_cli("fit", str(train_csv), "--out", str(model))
    capsys.readouterr()
    missing = tmp_path / "no-such-program"
    assert run_cli("explain", str(model), str(test_csv), "--k", "20",
                   "--predictor", f"cmd:{missing} --flag", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(missing) in err
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli("explain")   # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--predictor", "const:abc"),
    ("--predictor", "linear:1,x,1,1"),
    ("--predictor", "quadratic:1"),
    ("--predictor", "cmd:"),
    ("--predictor", "cmd:  "),
    ("--predictor", "cmd:'unterminated"),
    ("--k", "0"),
    ("--k", "-3"),
    ("--k", "ten"),
    ("--predictor-timeout", "0"),
    ("--predictor-timeout", "-1"),
    ("--predictor-timeout", "abc"),
    ("--predictor-timeout", "nan"),
    ("--predictor-timeout", "inf"),
])
def test_malformed_explain_arguments_are_usage_errors(tmp_path, capsys, flag, value):
    args = {"--predictor": "const:0", "--k": "10", flag: value}
    with pytest.raises(SystemExit) as exc:
        run_cli("explain", str(tmp_path / "m.json"), str(tmp_path / "t.csv"),
                *[token for item in args.items() for token in item],
                "--out", str(tmp_path / "e.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and flag in err


@pytest.mark.parametrize("argv,flag", [
    (["fit", "t.csv", "--method", "vine-nonparametric", "--grid-size", "0"], "--grid-size"),
    (["fit", "t.csv", "--method", "vine-nonparametric", "--grid-size", "-3"], "--grid-size"),
    (["fit", "t.csv", "--grid-size", "1"], "--grid-size"),
    (["fit", "t.csv", "--cover-batch", "0"], "--cover-batch"),
    (["simulate", "--p", "1", "--b", "2", "--r", "1", "--n", "-1"], "--n"),
])
def test_out_of_range_integer_options_are_usage_errors(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and flag in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_explain_single_sample(train_csv, test_csv, tmp_path, shap_method):
    model = tmp_path / "m.json"
    out = tmp_path / "e.json"
    assert run_cli("fit", str(train_csv), "--shap-method", shap_method,
                   "--out", str(model)) == 0
    assert run_cli("explain", str(model), str(test_csv),
                   "--predictor", "linear:1,2,3", "--k", "1",
                   "--seed", "3", "--out", str(out)) == 0
    _, test = read_csv(test_csv)
    for rec in json.loads(out.read_text())["explanations"]:
        assert np.all(np.isfinite(rec["phi"]))
        gx = float(test[rec["row_id"]] @ [1.0, 2.0, 3.0])
        assert abs(rec["phi0"] + sum(rec["phi"]) - gx) < 1e-8


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_explain_diagnostics_write_the_ratio_ess_min(train_csv, test_csv, tmp_path,
                                                     shap_method):
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--shap-method", shap_method,
                   "--out", str(model)) == 0
    docs = []
    for extra in ([], ["--diagnostics"]):
        out = tmp_path / f"e{len(extra)}.json"
        assert run_cli("explain", str(model), str(test_csv), "--predictor", "linear:1,2,3",
                       "--k", "100", "--seed", "4", "--out", str(out), *extra) == 0
        docs.append(json.loads(out.read_text())["explanations"])
    plain, diagnosed = docs
    assert [r["phi"] for r in plain] == [r["phi"] for r in diagnosed]
    for rec in diagnosed:
        if shap_method == "ratio":
            assert 1.0 <= rec["ess_min"] <= 100
        else:
            assert "ess_min" not in rec


@pytest.mark.parametrize("method", ["ratio", "condsim", "gaussian-copula"])
def test_explain_diagnostics_write_each_rows_whole_diagnostics(train_csv, test_csv, tmp_path,
                                                               method):
    """The call and row counts, and for ratio the per-coalition ESS keyed by
    mask string, as `values` is; the counts were not written before."""
    model = tmp_path / "m.json"
    fit = ["--shap-method", method] if method in ("ratio", "condsim") else ["--method", method]
    assert run_cli("fit", str(train_csv), *fit, "--out", str(model)) == 0
    docs = []
    for extra in ([], ["--diagnostics"]):
        out = tmp_path / f"e{len(extra)}.json"
        assert run_cli("explain", str(model), str(test_csv), "--predictor", "linear:1,2,3",
                       "--k", "50", "--seed", "4", "--out", str(out), *extra) == 0
        docs.append(out.read_text())
    plain, diagnosed = (json.loads(doc)["explanations"] for doc in docs)
    assert json.dumps([r["phi"] for r in plain]) == json.dumps([r["phi"] for r in diagnosed])
    record = {"row_id", "phi0", "phi", "method", "K", "seed"}
    assert all(set(rec) == record for rec in plain)
    added = {"values", "predictor_calls", "predictor_rows",
             *{"ratio": ["ess", "ess_min"], "gaussian-copula": ["ridge_flagged"]}.get(method, [])}
    # one predictor call carries every row; row 0's also holds v(empty)'s 200 training rows
    assert [rec["predictor_calls"] for rec in diagnosed] == [1, 1, 1]
    assert [rec["predictor_rows"] for rec in diagnosed] == [200 + 301, 301, 301]
    for rec in diagnosed:
        assert set(rec) == record | added
        assert sorted(rec["values"], key=int) == [str(mask) for mask in range(8)]
        if method == "ratio":
            assert sorted(rec["ess"], key=int) == [str(mask) for mask in range(1, 7)]
            assert rec["ess_min"] == min(rec["ess"].values())


@pytest.mark.parametrize("method", ["gaussian", "gaussian-copula"])
def test_explain_diagnostics_write_the_gaussian_ridge_flags(tmp_path, method):
    # x2 repeats x1: sigma_SS of S = {x1, x2} (mask 3) is singular
    rng = np.random.default_rng(10)
    z, noise = rng.normal(size=(2, 200))
    train = tmp_path / "train.csv"
    rows = zip(z.tolist(), noise.tolist())
    train.write_text("x1,x2,x3\n" + "".join(f"{a!r},{a!r},{b!r}\n" for a, b in rows))
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train), "--method", method, "--out", str(model)) == 0
    docs = []
    for extra in ([], ["--diagnostics"]):
        out = tmp_path / f"e{len(extra)}.json"
        assert run_cli("explain", str(model), str(train), "--predictor", "linear:1,2,3",
                       "--k", "50", "--seed", "4", "--out", str(out), *extra) == 0
        docs.append(out.read_text())
    plain, diagnosed = (json.loads(doc)["explanations"] for doc in docs)
    assert json.dumps([r["phi"] for r in plain]) == json.dumps([r["phi"] for r in diagnosed])
    assert all("ridge_flagged" not in rec for rec in plain)
    assert [rec["ridge_flagged"] for rec in diagnosed] == [[3]] * 200


@pytest.mark.parametrize("method", ["vine-parametric", "gaussian", "gaussian-copula"])
def test_bundle_stores_train_once(train_csv, tmp_path, method):
    out = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--method", method,
                   "--shap-method", "condsim", "--out", str(out)) == 0
    bundle = json.loads(out.read_text())
    assert bundle["version"] == 3
    assert set(bundle) <= {"format", "version", "manifest", "train", "models"}
    assert all("marginals" not in m for m in bundle.get("models", []))


@pytest.mark.parametrize("version", [1, 2])
def test_old_version_bundle_rejected(train_csv, test_csv, tmp_path, capsys, version):
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--out", str(model)) == 0
    bundle = json.loads(model.read_text())
    bundle["version"] = version
    model.write_text(json.dumps(bundle))
    assert run_cli("explain", str(model), str(test_csv), "--predictor", "const:0",
                   "--out", str(tmp_path / "e.json")) == 3
    assert "refit" in capsys.readouterr().err


def explain_edited_bundle(train_csv, test_csv, tmp_path, capsys, shap_method, edit):
    """Exit code and stderr of `explain` on a fitted bundle after `edit(bundle)`."""
    model = tmp_path / "m.json"
    assert run_cli("fit", str(train_csv), "--shap-method", shap_method,
                   "--out", str(model)) == 0
    bundle = json.loads(model.read_text())
    edit(bundle)
    model.write_text(json.dumps(bundle))
    capsys.readouterr()
    code = run_cli("explain", str(model), str(test_csv), "--predictor", "const:0",
                   "--out", str(tmp_path / "e.json"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_bundle_missing_an_order_is_data_error(train_csv, test_csv, tmp_path, capsys,
                                               shap_method):
    # at M = 3 both methods need two orders, so one alone leaves a coalition unserved
    code, err = explain_edited_bundle(train_csv, test_csv, tmp_path, capsys, shap_method,
                                      lambda bundle: bundle["models"].pop())
    assert code == 3
    assert err.count("error:") == 1 and "unserved" in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("shap_method", ["condsim", "ratio"])
def test_bundle_without_vines_is_data_error(train_csv, test_csv, tmp_path, capsys,
                                            shap_method):
    code, err = explain_edited_bundle(train_csv, test_csv, tmp_path, capsys, shap_method,
                                      lambda bundle: bundle["models"].clear())
    assert code == 3
    assert err.count("error:") == 1 and "unserved" in err
    assert not (tmp_path / "e.json").exists()


def drop_theta_of_a_clayton_pair(bundle):
    bundle["models"][0]["pairs"][0][0] = {"family": "clayton", "rotation": 0}


@pytest.mark.parametrize("edit", [
    lambda bundle: bundle.pop("manifest"),
    lambda bundle: bundle["manifest"].pop("shap_method"),
    lambda bundle: bundle["manifest"].update(shap_method="foo"),
    lambda bundle: bundle.update(train="x"),
    drop_theta_of_a_clayton_pair,
    lambda bundle: bundle["models"][0].update(order=[0, 0, 1]),
], ids=["no-manifest", "no-shap-method", "unknown-shap-method", "train-not-a-table",
        "clayton-without-theta", "order-not-a-permutation"])
def test_malformed_bundle_is_data_error(train_csv, test_csv, tmp_path, capsys, edit):
    code, err = explain_edited_bundle(train_csv, test_csv, tmp_path, capsys, "ratio", edit)
    assert code == 3
    assert err.count("error:") == 1 and "malformed model bundle" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("theta", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_a_non_finite_clayton_theta_is_a_malformed_bundle(train_csv, test_csv, tmp_path,
                                                          capsys, theta):
    # such a bundle loaded, and explain exited 4 on the draws' quantile (after
    # a RuntimeWarning at inf)
    def edit(bundle):
        pair = next(pc for model in bundle["models"] for row in model["pairs"] for pc in row
                    if pc["family"] == "clayton")
        pair["theta"] = theta  # written as the JSON token NaN or Infinity

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = explain_edited_bundle(train_csv, test_csv, tmp_path, capsys, "condsim",
                                          edit)
    assert code == 3
    assert err.count("error:") == 1 and "malformed model bundle" in err and "theta" in err
    assert not (tmp_path / "e.json").exists()


# ----------------------------------------------------------------------
# bench

def write_bench_config(path, **kw):
    base = dict(p=1.0, m=3, n_train=120, n_test=2, reps=2, k=100,
                k_oracle=1000, methods="independence,gaussian-copula", seed=0)
    base.update(kw)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))


def test_bench_deterministic_and_shaped(tmp_path):
    cfg = tmp_path / "bench.cfg"
    write_bench_config(cfg)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("bench", str(cfg), "--out-dir", str(out1)) == 0
    assert run_cli("bench", str(cfg), "--out-dir", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    results = (out1 / "results.csv").read_text().strip().splitlines()
    assert len(results) == 1 + 2 * 2          # header + methods x reps
    summary = (out1 / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2
    assert (out1 / "timing.csv").exists()
    assert (out1 / "manifest.txt").read_text() == (
        "p=1.0\nm=3\nn_train=120\nn_test=2\nreps=2\nk=100\nk_oracle=1000\n"
        "methods=independence,gaussian-copula\npredictor=analytic-mean\n"
        "noise_scale=0.5\nseed=0\n")


def test_bench_config_defaults_are_the_experiment_configs(tmp_path):
    # p and m, for which `burr` has no default, take 0.5 and 4
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# every key left out\n")
    assert parse_bench_config(cfg) == ExperimentConfig(study_params(0.5, 4))


def test_bench_single_rep_row_count(tmp_path):
    cfg = tmp_path / "bench.cfg"
    write_bench_config(cfg, reps=1, methods="independence")
    out = tmp_path / "o"
    assert run_cli("bench", str(cfg), "--out-dir", str(out)) == 0
    results = (out / "results.csv").read_text().strip().splitlines()
    assert len(results) == 2


def test_bench_unknown_key(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("bogus=1\n")
    assert run_cli("bench", str(cfg), "--out-dir", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("key, value", [
    ("k", "abc"), ("m", "x"), ("k", "0"), ("m", "11"), ("p", "-1"),
    ("p", "nan"), ("seed", "-1"), ("k_oracle", "10"),
])
def test_bench_bad_config_value_is_data_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bench.cfg"
    write_bench_config(cfg, **{key: value})
    assert run_cli("bench", str(cfg), "--out-dir", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f" {key} must" in err or f"{key}={value}" in err.lower()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bench_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    cfg = tmp_path / "bench.cfg"
    write_bench_config(cfg, reps=1, methods="independence")
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", str(cfg), "--threads", threads, "--out-dir", str(tmp_path / "o"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--threads" in err
    assert not (tmp_path / "o").exists()
