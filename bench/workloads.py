"""The three benchmark workloads: instance set-up, the timed op, its checks.

Each workload maps the benchmark's `--seed` to its inputs; seed 0 is the
pinned instance, whose outputs must equal `pins.json` bit for bit.  Any
other seed falls back to self-consistency: every op must reproduce the
first op's output exactly.  The program receives only the generated inputs.

Every workload offers the same methods: `prepare(i)` builds op i's input
outside the timer, `op(x)` is the timed call into sigmine, `check(i, result)`
verifies one op, and `gates()` runs the checks made once per run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import sigmine.cli
import sigmine.discovery
import sigmine.report
from sigmine import (
    LanguageConfig,
    Mode,
    RunConfig,
    empirical_quality,
    evaluate,
    load_csv,
    run_discovery,
    to_csv,
)
from sigmine.oracle import fwer_band, generate
from sigmine.suites import SWEEP_LANGUAGE, SWEEP_SPEC, _null_spec, mushroom_class_spec

MUSHROOM_BASE_SEED = 77  # mushroom_class_spec's default instance
MUSHROOM_RUN_SEED = 5  # the acceptance suite's end-to-end run seed
SWEEP_PERMUTATIONS = 40
NULL_TRIALS = 200
NULL_M = 2000
MODES = (Mode.CONDITIONAL, Mode.UNCONDITIONAL)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class MushroomMine:
    """`sigmine mine` through the in-process CLI on the 8124x22 mushroom-class
    CSV: the user path, dominated by ten pruned supremum searches."""

    name = "mushroom-mine"
    cycle = 1  # op inputs repeat after this many ops
    warmup = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path, pin: dict | None):
        spec = mushroom_class_spec(MUSHROOM_BASE_SEED + seed)
        self.depth = 3
        if tiny:
            spec, self.depth = replace(spec, m=600), 2
        self.csv = workdir / "mushroom_class.csv"
        to_csv(generate(spec), self.csv)
        self.output = workdir / "mined.tsv"
        self.argv = [
            "mine", "--input", str(self.csv), "--mode", "conditional",
            "--depth", str(self.depth), "--resamples", "10",
            "--seed", str(MUSHROOM_RUN_SEED), "--output", str(self.output),
        ]
        self.pin = pin
        self.reference: bytes | None = None
        self.config = (
            f"mushroom_class_spec(seed={MUSHROOM_BASE_SEED + seed}) m={spec.m}; "
            f"sigmine mine --mode conditional --depth {self.depth} --resamples 10 "
            f"--seed {MUSHROOM_RUN_SEED}, TSV; CLI defaults otherwise (bins 5, threads = cpus)"
        )

    def prepare(self, i: int):
        return None

    def op(self, _):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = sigmine.cli.main(self.argv)
        return code, err.getvalue()

    def check(self, i: int, result) -> bool:
        code, _ = result
        if code != 0:
            return False
        data = self.output.read_bytes()
        if self.reference is None:
            self.reference = data
        return data == self.reference and (
            self.pin is None or sha256(data) == self.pin["tsv_sha256"]
        )

    def observed(self) -> dict:
        return {"tsv_sha256": sha256(self.reference)}

    def gates(self) -> list[tuple[str, bool, str]]:
        """Re-derive the output through the library and re-verify every
        reported pattern, as acceptance criterion 10 does."""
        lines = self.reference.decode().splitlines()
        records = [ln.split("\t") for ln in lines[1:] if not ln.startswith("#")]
        kv = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        ds = load_csv(self.csv)
        cfg = RunConfig(
            mode=Mode.CONDITIONAL, c=10, seed=MUSHROOM_RUN_SEED,
            language=LanguageConfig(z=self.depth, bins=5),
        )
        found, report = run_discovery(ds, cfg)
        ok = report.epsilon == float(kv["epsilon"]) and len(found) == len(records)
        mu = ds.mean_target()
        for d, rec in zip(found, records):
            stat = empirical_quality(evaluate(d.pattern, ds), ds.target, mu)
            ok = ok and (
                d.pattern.describe(ds) == rec[1]
                and stat.value == d.quality == float(rec[2])
                and stat.value >= report.epsilon
            )
        return [(
            "re-verification", ok,
            f"{len(records)} records, epsilon={report.epsilon!r}, "
            f"tsv sha256={sha256(self.reference)}",
        )]


class SweepMethods:
    """All four methods on the 10 000x5 continuous sweep instance, sharing one
    SearchContext: many label vectors against one context, little pruning."""

    name = "sweep-methods"
    cycle = 1
    warmup = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path, pin: dict | None):
        spec = replace(SWEEP_SPEC, seed=SWEEP_SPEC.seed + seed)
        language = SWEEP_LANGUAGE
        self.permutations = SWEEP_PERMUTATIONS
        if tiny:
            spec, language, self.permutations = replace(spec, m=1000), replace(language, z=2), 4
        self.dataset = generate(spec)
        self.cfg = RunConfig(language=language, seed=0)
        self.pin = pin
        self.reference: dict | None = None
        self.config = (
            f"SWEEP_SPEC seed={spec.seed} m={spec.m}, SWEEP_LANGUAGE z={language.z}; "
            f"compare_methods(c=10, seed=0, permutations={self.permutations})"
        )

    def prepare(self, i: int):
        return None

    def op(self, _):
        return sigmine.report.compare_methods(
            self.dataset, self.cfg, permutations=self.permutations
        )

    def check(self, i: int, rows) -> bool:
        eps = {r.method: r.threshold for r in rows}
        if self.reference is None:
            self.reference = eps
        ordered = eps["conditional"] <= eps["unconditional"] < eps["ub"]
        return ordered and eps == self.reference and (
            self.pin is None or eps == self.pin["thresholds"]
        )

    def observed(self) -> dict:
        return {"thresholds": self.reference}

    def gates(self) -> list[tuple[str, bool, str]]:
        return []


class NullCalibration:
    """One `run_discovery` per op on a fresh 2000x5 null dataset, alternating
    the conditional and unconditional modes: Monte-Carlo validation traffic,
    where per-call set-up outweighs the search loop."""

    name = "null-calibration"

    def __init__(self, seed: int, tiny: bool, workdir: Path, pin: dict | None):
        self.trials, self.m = (10, 200) if tiny else (NULL_TRIALS, NULL_M)
        self.base = seed * self.trials
        # op i runs trial (i // 2) % trials; one warm-up cycle sees every trial
        self.cycle = self.warmup = 2 * self.trials
        self.pin = pin
        self.seen: dict[tuple[Mode, int], tuple[bool, float]] = {}
        self.config = (
            f"_null_spec(m={self.m}, 5 binary columns), trial seeds "
            f"{self.base}..{self.base + self.trials - 1} cycled, z=2, c=10, delta=0.05"
        )

    def prepare(self, i: int):
        mode, trial = MODES[i % 2], (i // 2) % self.trials
        seed = self.base + trial
        dataset = generate(_null_spec(mode, self.m, seed))
        cfg = RunConfig(mode=mode, delta=0.05, c=10, seed=seed, language=LanguageConfig(z=2))
        return (mode, trial), dataset, cfg

    def op(self, x):
        key, dataset, cfg = x
        found, report = sigmine.discovery.run_discovery(dataset, cfg)
        return key, bool(found), report.epsilon

    def check(self, i: int, result) -> bool:
        key, flag, eps = result
        if self.seen.setdefault(key, (flag, eps)) != (flag, eps):
            return False
        mode, trial = key
        return self.pin is None or self.pin[mode.value]["flags"][trial] == str(int(flag))

    def _mode_summary(self, mode: Mode) -> tuple[str, str]:
        cells = [self.seen[(mode, t)] for t in range(self.trials)]
        flags = "".join(str(int(flag)) for flag, _ in cells)
        eps = sha256(" ".join(repr(e) for _, e in cells).encode())
        return flags, eps

    def observed(self) -> dict:
        out = {}
        for mode in MODES:
            flags, eps = self._mode_summary(mode)
            out[mode.value] = {"flags": flags, "epsilon_sha256": eps}
        return out

    def gates(self) -> list[tuple[str, bool, str]]:
        band = fwer_band(0.05, self.trials)
        out = []
        for mode in MODES:
            flags, eps = self._mode_summary(mode)
            fwer = flags.count("1") / self.trials
            ok = fwer <= band and (
                self.pin is None or eps == self.pin[mode.value]["epsilon_sha256"]
            )
            out.append((
                f"{mode.value} FWER", ok,
                f"{fwer} <= band {band:.4f} over {self.trials} trials, "
                f"epsilons sha256={eps}",
            ))
        return out


WORKLOADS = {w.name: w for w in (MushroomMine, SweepMethods, NullCalibration)}
