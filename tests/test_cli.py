import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sigmine.baselines
import sigmine.cli
import sigmine.discovery
import sigmine.errors
import sigmine.resample
import sigmine.search
from sigmine import (
    Form,
    LanguageConfig,
    Mode,
    RunConfig,
    SearchContext,
    Selector,
    load_csv,
    run_discovery,
    run_ub,
    run_wy,
    to_csv,
)
from sigmine.cli import build_parser, main
from sigmine.discovery import mine
from sigmine.report import METHODS, records_from_discoveries, records_tsv
from sigmine.oracle import CatColumn, ContColumn, NullIID, Planted, SyntheticSpec, generate
from sigmine.suites import SUITES, planted_spec


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


def test_top_k_flags(planted_csv, tmp_path, capsys):
    out = tmp_path / "o.json"
    code = run_mine(planted_csv, "--mode", "conditional", "--seed", "3",
                    "--top-k", "8", "--format", "json", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 8
    assert any(r["significant"] for r in payload["records"])
    for r in payload["records"]:
        assert r["significant"] == (r["threshold_margin"] >= 0.0)
    # stderr counts the significant records apart from the k reported
    significant = sum(r["significant"] for r in payload["records"])
    assert f"patterns reported: 8, significant: {significant}\n" in capsys.readouterr().err


def test_ub_mode_runs(planted_csv, tmp_path):
    out = tmp_path / "o.tsv"
    code = run_mine(planted_csv, "--mode", "ub", "--output", str(out))
    assert code == 0
    text = out.read_text()
    assert "# n_hat_log=" in text
    assert "# n_hat_source='closed_form'" in text  # the closed form is >= ln 1 here


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


# each method's entry point on a dataset, as `mine` runs it on a context
ENTRY_POINTS = {
    "conditional": lambda ds, cfg: run_discovery(ds, replace(cfg, mode=Mode.CONDITIONAL)),
    "unconditional": lambda ds, cfg: run_discovery(ds, replace(cfg, mode=Mode.UNCONDITIONAL)),
    "wy": run_wy,
    "ub": run_ub,
}


@pytest.mark.parametrize("top", [None, 5])
@pytest.mark.parametrize("method", list(METHODS))
def test_library_output_equals_the_cli(planted_csv, tmp_path, method, top):
    # `mine` on the loaded file, with the CLI's defaults, writes the CLI's
    # bytes; each method's entry point returns the same records and report
    out = tmp_path / "o.tsv"
    top_flag = [] if top is None else ["--top-k", str(top)]
    code = run_mine(planted_csv, "--mode", method, "--seed", "3", "--permutations", "50",
                    "--output", str(out), *top_flag)
    assert code == 0
    ds = load_csv(planted_csv)
    cfg = RunConfig(seed=3, permutations=50, top_k=top, language=LanguageConfig(z=2, bins=5))
    found, report = mine(SearchContext(ds, cfg.language), cfg, METHODS[method])
    tsv = records_tsv(records_from_discoveries(found, ds)) + "\n" + report.to_kv_block() + "\n"
    assert out.read_text() == tsv
    assert top is None or len(found) == top
    lib_found, lib_report = ENTRY_POINTS[method](ds, cfg)
    assert lib_found == found and lib_report.to_kv_block() == report.to_kv_block()


def test_config_error_names_flag(null_csv, capsys):
    # every range-checked flag, refused by the library check behind it
    # (or, for --trials, by the CLI's own), exits 2 and names the flag
    cases = [
        *(["mine", "--input", str(null_csv), flag, value] for flag, value in [
            ("--delta", "0"), ("--delta", "1"), ("--resamples", "0"), ("--permutations", "0"),
            ("--depth", "0"), ("--top-k", "0"), ("--seed", "-1"),
        ]),
        ["validate", "--suite", "oracle", "--trials", "0"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert argv[-2] in captured.err and captured.out == "", argv


def test_config_error_without_a_field_names_no_flag(null_csv, capsys, monkeypatch):
    # an error no flag caused, such as a file of 2**32 rows or more, is
    # printed as it is, not as a --forms error
    def refuse(*args):
        raise sigmine.errors.ConfigError("a search takes fewer than 2**32 rows")

    monkeypatch.setattr(sigmine.cli, "SearchContext", refuse)
    assert run_mine(null_csv) == 2
    assert capsys.readouterr().err == "error: a search takes fewer than 2**32 rows\n"


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("command", ["mine", "validate"])
def test_seed_outside_64_bits_is_refused(null_csv, capsys, command, seed):
    # the seed is one 64-bit word of the generator's key: a seed outside
    # [0, 2**64) is refused, not taken modulo 2**64
    argv = {
        "mine": ["mine", "--input", str(null_csv)],
        "validate": ["validate", "--suite", "oracle", "--trials", "1"],
    }[command]
    assert main([*argv, "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and captured.out == ""


def test_validate_refused_suite_seed_is_a_config_error(capsys):
    # the oracle suite runs instance i at seed + i, past 2**64 - 1 at i = 1:
    # exit 2, never 1, which would report a band violation
    assert main(["validate", "--suite", "oracle", "--trials", "2", "--seed", str(2**64 - 1)]) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, mode", [("--resamples", "conditional"), ("--permutations", "wy")])
def test_draw_counts_capped_before_any_draw(null_csv, capsys, monkeypatch, flag, mode):
    # the generator keys at most 2**32 label vectors; a larger count is
    # refused before the first one is drawn, not after drawing 2**32
    def draw(*args):
        raise AssertionError("a label vector was drawn")

    monkeypatch.setattr(sigmine.resample, "bernoulli_labels", draw)
    monkeypatch.setattr(sigmine.baselines, "permuted_labels", draw)
    code = run_mine(null_csv, "--mode", mode, flag, str(2**32 + 1))
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mixed.csv"
    spec = planted_spec(m=2000, seed=31)
    to_csv(generate(replace(spec, columns=(*spec.columns, ContColumn("normal")))), path)
    return path


BATCHING_RUNS = [
    (mode, top) for mode in ("conditional", "unconditional", "wy", "ub")
    for top in ((), ("--top-k", "5"))
]
# at least the size of any language of `mine_inputs`: at most 3 columns of
# at most 14 selectors each (5 cuts, each less_than and at_least, 4 intervals)
TOP_ALL = ("--top-k", str(15**3))


def mined_bytes(path, out, mode, top):
    code = run_mine(path, "--mode", mode, "--depth", "3", "--permutations", "40",
                    "--output", str(out), *top)
    assert code == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def default_bytes(mixed_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out"
    return [mined_bytes(mixed_csv, out, mode, top) for mode, top in BATCHING_RUNS]


@pytest.mark.parametrize("budget", [1, 4096, None])
def test_output_bytes_do_not_depend_on_batching(mixed_csv, default_bytes, tmp_path, monkeypatch,
                                                budget):
    # the search budgets size batches, tables, groups, pieces and chunks
    # only: at one byte every batch holds one vector and every chunk one
    # row; at the default budgets with `tables_fit` false (None), whole
    # batches search every depth z-3 node's children one by one
    if budget is None:
        monkeypatch.setattr(sigmine.search._BatchSearch, "tables_fit", lambda *args: False)
    else:
        monkeypatch.setattr(sigmine.search, "BATCH_BYTES", budget)
        monkeypatch.setattr(sigmine.search, "PAIR_BYTES", budget)
    out = tmp_path / "out"
    assert [mined_bytes(mixed_csv, out, mode, top) for mode, top in BATCHING_RUNS] == default_bytes


@st.composite
def csv_inputs(draw):
    """A small CSV of 1-3 feature columns and a target, and its sidecar
    schema.  The target's rate is 0, 0.05, 0.5, 0.95 or 1; a `planted`
    column is the target in other words, so that some runs report
    significant patterns."""
    m = draw(st.integers(1, 200))

    def cells(values):
        return draw(st.lists(values, min_size=m, max_size=m))

    rate, rng = draw(st.sampled_from([0, 0.05, 0.5, 0.95, 1])), draw(st.randoms())
    target = ["1" if rng.random() < rate else "0" for _ in range(m)]
    kinds = {
        "categorical": lambda: cells(st.sampled_from("abcdef"[: draw(st.integers(1, 6))])),
        "continuous": lambda: [repr(v) for v in cells(st.floats(-10, 10, allow_nan=False))],
        "tied": lambda: cells(st.sampled_from(["0.5", "1.5", "2.5"])),
        "one_value": lambda: ["2.5"] * m,
        "planted": lambda: ["pq"[int(y)] for y in target],
    }
    picked = [draw(st.sampled_from(sorted(kinds))) for _ in range(draw(st.integers(1, 3)))]
    columns = [kinds[k]() for k in picked] + [target]
    header = [f"c{j}" for j in range(len(picked))] + ["y"]
    text = "\n".join(",".join(row) for row in [header, *zip(*columns)]) + "\n"
    schema = "".join(
        f"{name}={'categorical' if k in ('categorical', 'planted') else 'continuous'}\n"
        for name, k in zip(header, picked)
    ) + "y=target\n"
    return text, schema


@st.composite
def mine_inputs(draw):
    """`csv_inputs` and the language flags of a `sigmine mine` run on it."""
    text, schema = draw(csv_inputs())
    forms = "equals,less_than,at_least" + (",interval" if draw(st.booleans()) else "")
    flags = ["--forms", forms, "--depth", str(draw(st.integers(1, 4))),
             "--permutations", str(draw(st.integers(1, 20)))]
    return text, schema, flags


def tsv_rows(data: bytes) -> list[list[str]]:
    """The record rows of a TSV output, header and report block dropped."""
    return [ln.split("\t") for ln in data.decode().splitlines()[1:] if not ln.startswith("#")]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mine_inputs())
def test_output_bytes_do_not_depend_on_batching_on_random_files(tmp_path_factory, case):
    # the one-byte budgets cut every batch, group, piece and chunk down to
    # one entry, so that no depth z-3 node's tables fit either
    text, schema, flags = case
    folder = tmp_path_factory.mktemp("random")
    path, out = folder / "in.csv", folder / "out"
    path.write_text(text)
    (folder / "schema.txt").write_text(schema)
    flags = [*flags, "--schema", str(folder / "schema.txt")]
    modes = dict.fromkeys(mode for mode, _ in BATCHING_RUNS)
    runs = [*BATCHING_RUNS, *((mode, TOP_ALL) for mode in modes)]

    def mined():
        outputs = {}
        for mode, top in runs:
            code = run_mine(path, "--mode", mode, *flags, "--output", str(out), *top)
            outputs[mode, top] = (code, out.read_bytes() if code == 0 else b"")
        return outputs

    default = mined()
    # the scan and a top-k over the whole language agree: the significant
    # rows of the one are the rows of the other, value for value, and every
    # row is significant iff its margin is >= 0
    for mode in modes:
        (code, scan), (top_code, top) = default[mode, ()], default[mode, TOP_ALL]
        assert code == top_code
        assert [r[1:5] for r in tsv_rows(top) if r[5] == "1"] == [r[1:5] for r in tsv_rows(scan)]
    for _, data in default.values():
        assert all(r[5] == str(int(float(r[4]) >= 0)) for r in tsv_rows(data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigmine.search, "BATCH_BYTES", 1)
        mp.setattr(sigmine.search, "PAIR_BYTES", 1)
        assert mined() == default


FORMS = ("equals", "less_than", "at_least", "interval")


@st.composite
def run_flags(draw):
    """Every flag of a `sigmine mine` run but its files, extreme values
    included; a value out of range (`--bins 0`, `--top-k 0`) must
    be refused by name."""
    forms = draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=4, unique=True))
    top = draw(st.sampled_from([None, 1, 3, 10_000, 0]))
    return [
        "--mode", draw(st.sampled_from(list(METHODS))),
        "--delta", repr(draw(st.sampled_from([1e-9, 0.05, 0.5, 0.999]))),
        "--permutations", str(draw(st.sampled_from([1, 2, 19, 40]))),
        "--depth", str(draw(st.integers(1, 4))),
        "--bins", str(draw(st.sampled_from([1, 2, 3, 5, 0]))),
        "--forms", ",".join(forms),
        "--format", draw(st.sampled_from(["tsv", "json"])),
        *(() if top is None else ("--top-k", str(top))),
    ]


def report_numbers(data: bytes, fmt: str) -> list[float]:
    """Every number of a `sigmine mine` output: the record fields and the
    report's values."""
    if fmt == "json":
        return list(_numbers(json.loads(data)))
    numbers = []
    for line in data.decode().splitlines()[1:]:
        for cell in [line.partition("=")[2]] if line.startswith("# ") else line.split("\t")[2:5]:
            with contextlib.suppress(ValueError):  # a quoted name, None or a bool
                numbers.append(float(cell))
    return numbers


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_inputs(), run_flags())
def test_random_files_and_flags_end_in_a_finite_report_or_a_named_error(
    tmp_path_factory, case, flags
):
    # the degenerate-input contract of test_degenerate_inputs on random
    # files and flags: exit 0 and every number finite, or exit 2 or 3 and
    # an `error:` line; an exception out of main fails the test
    text, schema = case
    folder = tmp_path_factory.mktemp("contract")
    path, out = folder / "in.csv", folder / "out"
    path.write_text(text)
    (folder / "schema.txt").write_text(schema)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_mine(path, *flags, "--schema", str(folder / "schema.txt"),
                        "--output", str(out))
    if code != 0:
        assert code in (2, 3) and err.getvalue().startswith("error: ")
        return
    numbers = report_numbers(out.read_bytes(), flags[flags.index("--format") + 1])
    assert numbers and all(math.isfinite(v) for v in numbers)


@pytest.mark.parametrize(
    "m, seed, share, columns", [(2000, 1, 0.4, 3), (3000, 2, 0.3, 4), (4000, 3, 0.5, 3)]
)
def test_top_k_flags_the_scan_rows_where_eps_t_is_positive(tmp_path, m, seed, share, columns):
    # a strong plant on column 0 at a few thousand rows: the modes with
    # eps_t > 0 report patterns, and a top-k over the whole language flags
    # exactly the scan's rows, margins included
    cats = (CatColumn((0.3, 0.3, 0.4)),) * (columns - 2)
    spec = SyntheticSpec(
        m, (CatColumn((share, 1 - share)), *cats, ContColumn("normal")),
        Planted(Selector(0, Form.EQUALS, 0.0), p_in=0.95, p_out=0.05), seed=seed,
    )
    path, out = tmp_path / "in.csv", tmp_path / "out"
    to_csv(generate(spec), path)
    for mode in ("unconditional", "ub"):
        rows = {}
        for top in ((), TOP_ALL):
            assert run_mine(path, "--mode", mode, "--output", str(out), *top) == 0
            text = out.read_text()
            rows[top] = tsv_rows(out.read_bytes())
        eps_t = next(ln for ln in text.splitlines() if ln.startswith("# eps_t="))
        assert float(eps_t.split("=")[1]) > 0
        assert 0 < len(rows[()]) < len(rows[TOP_ALL]) < int(TOP_ALL[1])
        assert [r[1:5] for r in rows[TOP_ALL] if r[5] == "1"] == [r[1:5] for r in rows[()]]


def test_bad_forms_flag(null_csv, capsys):
    code = run_mine(null_csv, "--forms", "equals,sideways")
    assert code == 2
    assert "--forms" in capsys.readouterr().err
    # forms that no column of the file takes: null_csv is all categorical
    code = run_mine(null_csv, "--forms", "interval")
    assert code == 2
    assert "--forms" in capsys.readouterr().err
    # no form at all
    assert run_mine(null_csv, "--forms", " , ") == 2
    assert capsys.readouterr().err == "error: --forms: at least one form is required\n"


def test_ingestion_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1\n")
    assert run_mine(bad) == 3
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("a,y\n1,2\n")
    assert run_mine(bad2) == 3
    # a target column and no feature column
    bare = tmp_path / "bare.csv"
    bare.write_text("y\n1\n0\n")
    assert run_mine(bare) == 3
    assert "feature column" in capsys.readouterr().err


def test_empty_file_and_header_only_file_exit_3(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_mine(empty) == 3
    assert capsys.readouterr().err == f"error: {empty}: empty file\n"
    header = tmp_path / "header.csv"
    header.write_text("a,y\n")
    assert run_mine(header) == 3
    assert capsys.readouterr().err == f"error: {header}: no data rows\n"


@pytest.mark.parametrize("header", ["a,a,y", ",b,y"], ids=["repeated", "empty"])
def test_repeated_or_empty_column_name_exit_3(tmp_path, capsys, header):
    data = tmp_path / "data.csv"
    data.write_text(f"{header}\nx,u,1\nz,v,0\n")
    assert run_mine(data) == 3
    assert capsys.readouterr().err == "error: column names must be unique and non-empty\n"


@pytest.mark.parametrize("lines, message", [
    ("a categorical\ny=target\n", "schema line 1: expected name=kind, got 'a categorical'"),
    ("# kinds\na=ordinal\ny=target\n", "schema line 2: unknown kind 'ordinal'"),
    ("a=categorical\nb=continuous\ny=target\n", "schema has 3 columns, file has 2"),
])
def test_malformed_schema_file_exit_3(tmp_path, capsys, lines, message):
    data = tmp_path / "data.csv"
    data.write_text("a,y\nx,1\nz,0\n")
    schema = tmp_path / "bad.schema"
    schema.write_text(lines)
    assert run_mine(data, "--schema", str(schema)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_utf8_input_is_an_ingestion_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"a,target\n\xe9t\xe9,1\nb,0\n")
    assert run_mine(bad) == 3
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"


def test_non_utf8_schema_file_is_a_schema_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,y\nx,1\nz,0\n")
    schema = tmp_path / "latin1.schema"
    schema.write_bytes(b"a=categorical\n# r\xe9sum\xe9\ny=target\n")
    assert run_mine(data, "--schema", str(schema)) == 3
    err = capsys.readouterr().err
    assert err == f"error: {schema}: not UTF-8 text (invalid continuation byte)\n"


def test_schema_that_misnames_the_header_is_a_schema_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b,y\nx,1.5,1\nz,2.5,0\n")
    schema = tmp_path / "swapped.schema"
    schema.write_text("b=continuous\na=categorical\ny=target\n")
    assert run_mine(data, "--schema", str(schema)) == 3
    assert capsys.readouterr().err == "error: schema column 1 is 'b', file header has 'a'\n"


def test_byte_order_marks_stay_out_of_pattern_names(tmp_path):
    data = tmp_path / "bom.csv"
    data.write_text("\ufeffa,y\nx,1\nx,1\nz,0\nz,0\n", encoding="utf-8")
    schema = tmp_path / "bom.schema"
    schema.write_text("\ufeffa=categorical\ny=target\n", encoding="utf-8")
    out = tmp_path / "o.tsv"
    for extra in ((), ("--schema", str(schema))):
        assert run_mine(data, "--top-k", "1", "--output", str(out), *extra) == 0
        assert out.read_text().splitlines()[1].split("\t")[:2] == ["1", "a=x"]


def test_tsv_escapes_tabs_and_line_breaks_in_patterns(tmp_path):
    # quoted cells may hold tabs and line breaks; escaped, each record stays
    # one line of six fields, and no value can forge a `#` report line
    values = ["red\tdark", "blue\nlight", "x\n# epsilon=0", "y\r\\n"]
    data = tmp_path / "tabs.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([["tone\\x", "y"], *([v, i % 2] for i, v in enumerate(values * 5))])
    tsv, js = tmp_path / "o.tsv", tmp_path / "o.json"
    flags = ("--top-k", "4", "--depth", "1")
    assert run_mine(data, *flags, "--output", str(tsv)) == 0
    assert run_mine(data, *flags, "--format", "json", "--output", str(js)) == 0
    lines = tsv.read_bytes().decode().splitlines()
    rows = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 4 and all(len(row) == 6 for row in rows)
    assert lines.count("# epsilon=0") == 0
    unescape = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
    patterns = [re.sub(r"\\(.)", lambda e: unescape[e[1]], row[1]) for row in rows]
    assert patterns == [r["pattern"] for r in json.loads(js.read_text())["records"]]
    assert sorted(patterns) == sorted(f"tone\\x={v}" for v in values)


def test_over_long_field_is_an_ingestion_error(tmp_path, capsys):
    # the csv module refuses a field over its limit, 131 072 characters
    bad = tmp_path / "long.csv"
    bad.write_text('a,target\nb,0\n"' + "x" * 200_000 + '",1\n')
    assert run_mine(bad) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 3: field larger than field limit")


def test_ub_one_row_file(tmp_path):
    # the closed-form projection count is below ln 1 at m=1
    one = tmp_path / "one.csv"
    one.write_text("a,y\nx,1\n")
    out = tmp_path / "o.json"
    code = run_mine(one, "--mode", "ub", "--depth", "2", "--format", "json", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())["bound_report"]
    assert report["n_hat_log"] == 0.0
    # the count is the fallback's, min(language size, 2**m) = 1
    assert report["n_hat_source"] == "language_or_subsets"
    assert math.isfinite(report["epsilon"])


def test_wy_constant_target_reports_nothing(tmp_path, capsys):
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
    assert f"patterns reported: {len(records)}, significant: 0\n" in capsys.readouterr().err


def test_validate_suite_choices_are_the_suites():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in sub.choices["validate"]._actions if a.dest == "suite")
    assert suite.choices == list(SUITES)


def test_near_cuts_print_as_distinct_patterns(tmp_path):
    # 31 integer values near 1.23e6: at six significant digits many cuts
    # printed alike, so distinct selectors gave equal pattern strings
    path = tmp_path / "income.csv"
    rows = [(1234560 + (i * 7) % 31, int((i * 7) % 31 >= 15) ^ int(i % 11 == 0)) for i in range(400)]
    path.write_text("income,target\n" + "".join(f"{a},{y}\n" for a, y in rows))
    out = tmp_path / "o.tsv"
    code = run_mine(path, "--depth", "1", "--bins", "9", "--top-k", "20", "--output", str(out))
    assert code == 0
    patterns = [line.split("\t")[1] for line in out.read_text().splitlines()[1:]
                if not line.startswith("#")]
    assert len(patterns) > 10
    assert len(set(patterns)) == len(patterns)
    assert all(p.startswith(("income<", "income>=")) and "e+" not in p for p in patterns)


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


def test_validate_coupling_trials_set_the_samples(capsys):
    def summary(*trials):
        assert main(["validate", "--suite", "coupling", "--seed", "1", *trials]) == 0
        return capsys.readouterr()

    # without the flag, the suite's own 100 000 samples, as before the flag
    # reached it
    default = summary()
    payload = json.loads(default.out)
    assert [payload[f"z={t}"]["p_cond"] for t in (0.05, 0.1, 0.15)] == [0.69852, 0.2539, 0.03486]
    assert summary("--trials", "100000") == default
    assert summary("--trials", "500").out != summary("--trials", "2000").out


def test_validate_fwer_suite_small(capsys):
    code = main(["validate", "--suite", "fwer", "--trials", "30", "--seed", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "fwer" and payload["ok"]
    assert set(payload) >= {"conditional", "unconditional", "band"}


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["fwer", "power", "coupling", "oracle"])
def test_validate_rejects_trials_below_one(suite, trials, capsys):
    code = main(["validate", "--suite", suite, "--trials", trials])
    assert code == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err and captured.out == ""


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
    captured = capsys.readouterr()
    assert "--bins" in captured.err and captured.out == ""


def test_unwritable_output_file_exit_code(null_csv, tmp_path, capsys):
    # a file that cannot be written exits like one that cannot be read
    assert run_mine(null_csv, "--output", str(tmp_path / "missing" / "o.tsv")) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


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
