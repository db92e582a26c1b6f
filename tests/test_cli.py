import ast
import importlib
import json
import pathlib
import pkgutil
import re

import pytest

import superfock
from superfock import cli
from superfock.cli import main
from superfock.verify import (MAX_BASIS, RunConfig, report_json, report_text,
                              run_check, run_suite)


def strip_times(blob: str) -> str:
    return re.sub(r'"seconds": [0-9.]+', '"seconds": 0', blob)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(m=1, n=0)
    with pytest.raises(ValueError):
        RunConfig(m=4, n=-1)
    with pytest.raises(ValueError):
        RunConfig(m=4, n=0, suites=("nope",))
    # below degree 1 the scopes are empty or degenerate: -1 crashed
    # fock/dual-route, -2 passed vacuously, 0 failed sb/hermite at (6,1)
    for max_degree in (-2, -1, 0):
        with pytest.raises(ValueError, match="max_degree"):
            RunConfig(m=6, n=1, max_degree=max_degree)
        assert main(["--m", "6", "--n", "1", "--max-degree", str(max_degree)]) == 2
    assert RunConfig(m=6, n=1, max_degree=1).M == 4
    assert RunConfig(m=6, n=1).M == 4


def test_runconfig_refuses_a_basis_above_the_budget(monkeypatch, capsys):
    assert MAX_BASIS > 606  # (7,1) at degree <= 4, the largest acceptance basis
    RunConfig(m=7, n=1, max_degree=3)
    with pytest.raises(ValueError, match="budget"):
        RunConfig(m=7, n=1, max_degree=9)
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("a suite ran"))
    assert main(["--m", "7", "--n", "1", "--max-degree", "9"]) == 2
    assert "budget" in capsys.readouterr().err


def test_runconfig_refuses_a_repeated_suite(monkeypatch, capsys):
    with pytest.raises(ValueError, match="repeated suites: \\['quotient'\\]"):
        RunConfig(m=4, n=0, suites=("quotient", "algebra", "quotient"))
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("a suite ran"))
    assert main(["--m", "4", "--n", "0", "--suite", "quotient", "--suite", "quotient"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_refuses_an_out_path_it_cannot_write(tmp_path, monkeypatch, capsys):
    args = ["--m", "4", "--n", "0", "--max-degree", "1", "--suite", "quotient"]
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("a suite ran"))
    missing = tmp_path / "missing" / "r.json"
    assert main(args + ["--out", str(missing)]) == 2
    assert "--out" in capsys.readouterr().err and not missing.parent.exists()
    # the directory exists but the path is a directory: open() fails after the run
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [])
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [
    ["--m", "4", "--n", "0", "--gamma"],
    ["--m", "2", "--n", "1", "--structure-constants"],
    ["--m", "5", "--n", "0", "--specfun-table"],
    ["--m", "6", "--n", "1", "--trace", "2,0,0,0,0,0", "--trace-odd", "1,2"],
    ["--m", "4", "--n", "0", "--max-degree", "1", "--suite", "quotient", "--format", "json"],
])
def test_out_writes_what_stdout_would_show_in_every_mode(mode, tmp_path, capsys):
    assert main(mode) == 0
    shown = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert main(mode + ["--out", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {path}")
    written = path.read_text()
    if "--suite" in mode:  # the report carries timings
        shown, written = strip_times(shown), strip_times(written)
    assert written == shown
    missing = tmp_path / "missing" / "out.txt"
    assert main(mode + ["--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err
    assert not missing.parent.exists()


def test_clear_caches_empties_every_module_cache():
    run_suite(RunConfig(m=4, n=1, max_degree=2, suites=("quotient", "harmonics", "fock", "sb")))
    caches = []
    for info in pkgutil.iter_modules(superfock.__path__):
        mod = importlib.import_module(f"superfock.{info.name}")
        caches += [obj for obj in vars(mod).values()
                   if hasattr(obj, "cache_info")
                   and getattr(obj, "__module__", None) == mod.__name__]
    # the exact set, so that a new module-level cache shows up here
    assert {f"{obj.__module__}.{obj.__qualname__}" for obj in caches} == {
        "superfock.algebra.R2", "superfock.algebra._signature", "superfock.algebra.monomial_keys",
        "superfock.algebra.r2_small", "superfock.algebra.theta2",
        "superfock.bipoly._slot_r2_power", "superfock.bipoly.bi_signature",
        "superfock.bipoly.pairing_power", "superfock.fock.bessel_image",
        "superfock.fock.bf_covectors",
        "superfock.integral._moment_class", "superfock.integral.gamma_engine",
        "superfock.integral.moment",
        "superfock.liealg.tkk_for", "superfock.quotient._r2_power",
        "superfock.schrodinger.abs_X"}
    assert any(obj.cache_info().currsize for obj in caches)
    stats = superfock.cache_stats()
    assert set(stats) == {f"{obj.__module__}.{obj.__qualname__}" for obj in caches}
    assert any(info.misses > 0 for info in stats.values())
    superfock.clear_caches()
    assert [obj.__name__ for obj in caches if obj.cache_info().currsize] == []
    assert [name for name, info in superfock.cache_stats().items() if info.currsize] == []


def test_every_function_class_and_method_of_the_package_is_named_in_it():
    # a definition that no ``ast.Name`` or ``ast.Attribute`` of src/ names
    # has no caller there; only the package API cache_stats and clear_caches
    # is read from outside alone.  A method is called through an attribute,
    # so a local variable of the same name does not count for it
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(superfock.__file__).parent.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, functions)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    unnamed = [name for name in defined
               if name.rpartition(".")[2] not in (attributes if "." in name else named)]
    assert unnamed == ["cache_stats", "clear_caches"]


def test_run_check_captures_exceptions():
    res = run_check("s", "boom", "x", lambda: 1 / 0)
    assert res.status == "fail"
    assert "ZeroDivisionError" in res.detail
    assert run_check("s", "ok", "x", lambda: (True, "")).status == "pass"
    assert run_check("s", "no", "x", lambda: (False, "w")).detail == "w"


def test_small_run_and_reports():
    cfg = RunConfig(m=4, n=0, max_degree=2, suites=("quotient", "specfun"))
    results = run_suite(cfg)
    assert results and all(r.status == "pass" for r in results)
    blob = report_json(cfg, results)
    payload = json.loads(blob)
    assert payload["failures"] == 0
    assert {c["suite"] for c in payload["checks"]} == {"quotient", "specfun"}
    text = report_text(cfg, results)
    assert "0 failures" in text


def test_determinism_modulo_timing():
    # the second configuration covers the memoized action columns and the
    # order in which the checks draw from the shared seeded generator
    for cfg in (RunConfig(m=4, n=1, max_degree=2, suites=("quotient", "algebra"), seed=5),
                RunConfig(m=3, n=1, max_degree=1, suites=("liealg", "schrodinger", "fock"),
                          seed=5)):
        a = report_json(cfg, run_suite(cfg))
        b = report_json(cfg, run_suite(cfg))
        assert strip_times(a) == strip_times(b)


def test_skip_gating_below_m4():
    cfg = RunConfig(m=4, n=1, max_degree=2, suites=("integral",))
    results = run_suite(cfg)
    assert results
    assert all(r.status == "skip" for r in results)
    assert all("M >= 4" in r.detail for r in results)


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--m", "4", "--n", "0", "--max-degree", "2",
                 "--suite", "quotient", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["failures"] == 0
    assert main(["--m", "1", "--n", "0"]) == 2


def test_cli_gamma_and_trace(capsys):
    assert main(["--m", "4", "--n", "0", "--gamma"]) == 0
    assert "pi" in capsys.readouterr().out
    assert main(["--m", "4", "--n", "1", "--gamma"]) == 2  # M < 4
    capsys.readouterr()
    assert main(["--m", "4", "--n", "0", "--trace", "1,0,0,0", "--rate", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1/2"
    assert payload["terms"][0]["rho_power"] == 2


def test_cli_trace_reads_a_decimal_rate_exactly(capsys):
    # --rate is parsed as an exact rational, so 0.1 is 1/10 and not a float
    assert main(["--m", "4", "--n", "0", "--trace", "0,0,0,0", "--rate", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1600"
    assert {t["rate"] for t in payload["terms"]} == {"1/10"}


def test_cli_structure_constants(capsys):
    assert main(["--m", "2", "--n", "1", "--structure-constants"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["e0+ , e0-"] == {"L0": "2"}


def test_cli_specfun_table(capsys):
    assert main(["--m", "5", "--n", "0", "--specfun-table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 5


def test_cli_trace_orders_odd_factors(capsys):
    base = ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,0"]
    values = {}
    for odd in ("1,2", "2,1", "1,1"):
        assert main(base + ["--trace-odd", odd]) == 0
        values[odd] = json.loads(capsys.readouterr().out)["value"]
    assert values == {"1,2": "-1/8", "2,1": "1/8", "1,1": "0"}


@pytest.mark.parametrize("extra", [
    ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,0", "--trace-odd", "3"],
    ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,0", "--trace-odd", "0"],
    ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,0", "--rate", "0"],
    ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,0", "--rate", "x"],
    ["--m", "6", "--n", "1", "--trace", "0,0,0,0,0,-1"],
    ["--m", "4", "--n", "1", "--trace", "0,0,0,0"],
])
def test_cli_trace_refuses_bad_input(extra, capsys):
    assert main(extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
