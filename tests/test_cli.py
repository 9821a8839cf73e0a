import hashlib
import json
import math

import pytest

import sigmine.discovery
from sigmine import to_csv
from sigmine.cli import main
from sigmine.oracle import CatColumn, NullIID, SyntheticSpec, generate
from sigmine.suites import planted_spec


@pytest.fixture(scope="module")
def null_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "null.csv"
    ds = generate(
        SyntheticSpec(400, tuple(CatColumn((0.5, 0.5)) for _ in range(3)), NullIID(0.5), seed=2)
    )
    to_csv(ds, path)
    return path


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "planted.csv"
    to_csv(generate(planted_spec(m=2000, seed=31)), path)
    return path


def run_mine(path, *extra):
    return main(["mine", "--input", str(path), *extra])


def test_conditional_null_empty_output(null_csv, tmp_path, capsys):
    out = tmp_path / "o.tsv"
    code = run_mine(null_csv, "--mode", "conditional", "--delta", "0.05",
                    "--resamples", "10", "--output", str(out))
    assert code == 0
    text = out.read_text()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1  # header only, empty output set
    assert "# eps_t=0.0" in text  # conditional mode
    assert "# epsilon=" in text


def test_wy_quantile_position(null_csv, tmp_path):
    out = tmp_path / "o.json"
    code = run_mine(null_csv, "--mode", "wy", "--permutations", "1000",
                    "--format", "json", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["quantile"]["position"] == 50
    assert payload["quantile"]["permutations"] == 1000


def test_byte_identical_reruns(planted_csv, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        code = run_mine(planted_csv, "--mode", "unconditional", "--seed", "7",
                        "--output", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_planted_found_and_json_round_trip(planted_csv, tmp_path):
    out = tmp_path / "o.json"
    code = run_mine(planted_csv, "--mode", "conditional", "--seed", "3",
                    "--format", "json", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) >= 1
    assert payload["bound_report"]["eps_t"] == 0.0
    assert json.loads(json.dumps(payload)) == payload


def test_top_k_flags(planted_csv, tmp_path):
    out = tmp_path / "o.json"
    code = run_mine(planted_csv, "--mode", "conditional", "--seed", "3",
                    "--top-k", "8", "--format", "json", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 8
    assert any(r["significant"] for r in payload["records"])
    for r in payload["records"]:
        assert r["significant"] == (r["threshold_margin"] >= 0.0)


def test_ub_mode_runs(planted_csv, tmp_path):
    out = tmp_path / "o.tsv"
    code = run_mine(planted_csv, "--mode", "ub", "--output", str(out))
    assert code == 0
    assert "# n_hat_log=" in out.read_text()


# sha256 of `mine --seed 3` on planted_csv, default flags otherwise, taken
# before the four modes shared one method table: any later change to any
# output byte fails here
OUTPUT_SHA256 = {
    ("conditional", "scan", "tsv"): "7cafe52646233c41dfb37e7a4941f44dd8137562ffd0369bf034156308f9ce64",
    ("conditional", "top_k", "tsv"): "e03d3c1eb0b60fc15f50816fe5f2113d3a7b70dc501b750f2dd3579815ba15e7",
    ("unconditional", "scan", "tsv"): "a6c7467da03a17b90a66b2082c3f8d4d8c4cf476179719a7aafe356689a1169b",
    ("unconditional", "top_k", "tsv"): "61afd9fb54e026fac7f68da8ca5d21640696c834c6bed1cca0473dc82d6da1df",
    ("wy", "scan", "tsv"): "4eea44133a6f32c8c5fa974db0766c3b565b59758ebfa4164bb9f0490366142b",
    ("wy", "top_k", "tsv"): "55554b3ce1126cf234768c28ecf5e18852f7b91492fb8c407f9672ac068b9e56",
    ("ub", "scan", "tsv"): "7ca2a138d0e85ec204fb4bbccef1e6102cf4717a0aabf04ffe45277751254263",
    ("ub", "top_k", "tsv"): "62861e187ccfe8368e1970520c149ca6f38bd95f68c789c91e5610e0719027cf",
    ("wy", "scan", "json"): "64bdedb8eb6551897b3fed656539cd4a974b4351c6e6f34fd97635602c6fc7e2",
    ("ub", "scan", "json"): "937fb152811c9ea17ddbc394a3000037f9681bc8dc17cd3193305e6e68b74e95",
}


@pytest.mark.parametrize("mode, shape, fmt", list(OUTPUT_SHA256))
def test_output_bytes_pinned(planted_csv, tmp_path, mode, shape, fmt):
    out = tmp_path / "out"
    top = ["--top-k", "5"] if shape == "top_k" else []
    code = run_mine(planted_csv, "--mode", mode, "--seed", "3", "--format", fmt,
                    "--output", str(out), *top)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[mode, shape, fmt]


@pytest.mark.parametrize("mode", ["conditional", "unconditional", "wy", "ub"])
def test_top_k_runs_no_scan(planted_csv, tmp_path, monkeypatch, mode):
    # --top-k flags the top patterns against the threshold; the thresholded
    # scan of the whole language is not needed for that
    def scan(*args, **kwargs):
        raise AssertionError("--top-k ran the thresholded scan")

    monkeypatch.setattr(sigmine.discovery, "threshold_mine", scan)
    code = run_mine(planted_csv, "--mode", mode, "--top-k", "5", "--permutations", "50",
                    "--output", str(tmp_path / "o.tsv"))
    assert code == 0


def test_config_error_names_flag(null_csv, capsys):
    code = run_mine(null_csv, "--delta", "2.0")
    assert code == 2
    assert "--delta" in capsys.readouterr().err


def test_bad_forms_flag(null_csv, capsys):
    code = run_mine(null_csv, "--forms", "equals,sideways")
    assert code == 2
    assert "--forms" in capsys.readouterr().err


def test_ingestion_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1\n")
    assert run_mine(bad) == 3
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("a,y\n1,2\n")
    assert run_mine(bad2) == 3


def test_ub_one_row_file(tmp_path):
    # the closed-form projection count is below ln 1 at m=1
    one = tmp_path / "one.csv"
    one.write_text("a,y\nx,1\n")
    out = tmp_path / "o.json"
    code = run_mine(one, "--mode", "ub", "--depth", "2", "--format", "json", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())["bound_report"]
    assert report["n_hat_log"] == 0.0
    assert math.isfinite(report["epsilon"])


def test_wy_constant_target_reports_nothing(tmp_path):
    # every permutation supremum is 0 and so is every quality: under the
    # strict Westfall-Young rule no pattern beats the quantile
    flat = tmp_path / "flat.csv"
    flat.write_text("a,b,y\nx,u,0\nx,v,0\nz,v,0\n")
    out = tmp_path / "o.json"
    code = run_mine(flat, "--mode", "wy", "--permutations", "20", "--format", "json",
                    "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["records"] == []
    assert payload["quantile"]["delta_quantile"] == 0.0
    code = run_mine(flat, "--mode", "wy", "--permutations", "20", "--top-k", "5",
                    "--format", "json", "--output", str(out))
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert records and not any(r["significant"] for r in records)


def test_validate_oracle_suite(capsys):
    code = main(["validate", "--suite", "oracle", "--trials", "25", "--seed", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "oracle" and payload["ok"]


def test_validate_coupling_suite(capsys):
    code = main(["validate", "--suite", "coupling", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]


def test_validate_fwer_suite_small(capsys):
    code = main(["validate", "--suite", "fwer", "--trials", "30", "--seed", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "fwer" and payload["ok"]
    assert set(payload) >= {"conditional", "unconditional", "band"}


def test_stdout_default(null_csv, capsys):
    code = run_mine(null_csv, "--mode", "conditional")
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("rank\tpattern")
    assert "patterns reported" in captured.err  # diagnostics on stderr only


def test_missing_input_file_exit_code(capsys):
    assert run_mine("/nonexistent/input.csv") == 3
    assert "error:" in capsys.readouterr().err


def test_bad_bins_flag(null_csv, capsys):
    code = run_mine(null_csv, "--bins", "0")
    assert code == 2
    assert "--bins" in capsys.readouterr().err


DEGENERATE = {
    # name: (csv, sidecar schema or None, extra flags)
    "constant_target_1": ("a,b,y\nx,u,1\nx,v,1\nz,v,1\nz,u,1\n", None, []),
    "constant_target_0": ("a,b,y\nx,u,0\nx,v,0\nz,v,0\nz,u,0\n", None, []),
    "one_row": ("a,y\nx,1\n", None, []),
    "one_value_column": ("a,b,y\nx,u,1\nx,v,0\nx,u,0\nx,v,1\n", None, []),
    "tied_continuous": ("a,b,y\n2.5,u,1\n2.5,v,0\n2.5,u,0\n2.5,v,1\n",
                        "a=continuous\nb=categorical\ny=target\n", []),
    "depth_above_columns": ("a,b,y\nx,u,1\nx,v,0\nz,v,0\nz,u,1\nz,u,1\nx,v,0\n", None, ["--depth", "4"]),
    "delta_near_0": ("a,b,y\nx,u,1\nx,v,0\nz,v,0\nz,u,1\nz,u,1\nx,v,0\n", None, ["--delta", "1e-12"]),
    "delta_near_1": ("a,b,y\nx,u,1\nx,v,0\nz,v,0\nz,u,1\nz,u,1\nx,v,0\n", None, ["--delta", "0.999999"]),
}


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.mark.parametrize("top", [[], ["--top-k", "3"]], ids=["scan", "top_k"])
@pytest.mark.parametrize("mode", ["conditional", "unconditional", "wy", "ub"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs(name, mode, top, tmp_path, capsys):
    # every degenerate input ends with exit 0 and a finite report, or with a
    # named error and its documented exit code; equal seeds give equal bytes
    text, schema, extra = DEGENERATE[name]
    path = tmp_path / "in.csv"
    path.write_text(text)
    if schema is not None:
        (tmp_path / "schema.txt").write_text(schema)
        extra = [*extra, "--schema", str(tmp_path / "schema.txt")]
    outputs = []
    for run in range(2):
        out = tmp_path / f"{run}.json"
        code = run_mine(path, "--mode", mode, "--permutations", "50", "--seed", "4",
                        "--format", "json", "--output", str(out), *extra, *top)
        err = capsys.readouterr().err
        if code != 0:
            assert code in (2, 3) and "error:" in err
            outputs.append((code, err))
            continue
        payload = json.loads(out.read_text())
        assert "bound_report" in payload or "quantile" in payload
        assert all(math.isfinite(v) for v in _numbers(payload))
        outputs.append((code, out.read_bytes()))
    assert outputs[0] == outputs[1]
