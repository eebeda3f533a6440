"""CLI behaviour: flags, exit codes, formats, and byte determinism."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from onlinepred.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SIGMA_GRID_MAX_POINTS,
    main,
)
from onlinepred import cli, experiments
from onlinepred.experiments import (
    JOBS_MAX,
    N_MAX,
    SWEEP_MAX_RATIOS,
    TRIALS_MAX,
    SchedSweepConfig,
    SkiSweepConfig,
)
from onlinepred.ski_rental import B_MAX

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ski-sweep.example.cfg"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSkiSweepCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "ski-sweep", "--b", "100", "--trials", "100",
            "--sigma-grid", "0:400:100", "--seed", "7",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "experiment,algorithm,lambda,sigma,trials,mean_ratio,mean_eta,max_ratio"
        assert len(lines) == 1 + 5 * 4  # header + 5 sigma points x 4 algorithms

    def test_bad_lambda_exits_2_and_names_constraint(self, capsys):
        code, out, err = run_cli(
            capsys, "ski-sweep", "--b", "100", "--trials", "10", "--lambda-rand", "0.005",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "(1/100, 1]" in err

    def test_large_b_exact_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "ski-sweep", "--b", "100000", "--trials", "5", "--sigma-grid", "0:0:1",
        )
        assert code == EXIT_OK, err
        assert len(out.strip().split("\n")) == 1 + 4

    def test_tiny_lambda_det_is_optimal_without_noise(self, capsys):
        # ceil(b / lambda) has 301 digits: below b the rule rents every day, at or
        # above it buys on day 1, so at sigma 0 every ratio is 1
        code, out, err = run_cli(
            capsys, "ski-sweep", "--b", "10", "--trials", "3", "--sigma-grid", "0:0:1",
            "--lambda-det", "1e-300",
        )
        assert code == EXIT_OK, err
        row = [line.split(",") for line in out.splitlines() if ",deterministic," in line]
        assert [r[5:] for r in row] == [["1.000000", "0.0000", "1.000000"]]

    def test_sampled_huge_support(self, capsys):
        # b / lambda = 5 * 10^9 buy days: sampling must not build the support
        code, out, err = run_cli(
            capsys, "ski-sweep", "--sampled", "--b", "100000", "--lambda-rand", "0.00002",
            "--trials", "20",
        )
        assert code == EXIT_OK, err
        assert len(out.strip().split("\n")) == 1 + 41 * 4

    def test_internal_value_error_is_not_usage(self, monkeypatch, capsys):
        def broken(config):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "run_ski_sweep", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["ski-sweep", "--trials", "5"])
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ski-sweep", "--b", "1"),
            ("ski-sweep", "--trials", "0"),
            ("ski-sweep", "--jobs", "0"),
            ("ski-sweep", "--lambda-det", "nan"),
            ("ski-sweep", "--seed", "-1"),
            ("sched-sweep", "--alpha", "inf"),
            ("sched-sweep", "--lambda", "0"),
            ("verify-bounds", "--seed", "-1"),
            ("trace", "ski", "--b", "10", "--x", "3", "--y", "nan", "--algo", "naive"),
            ("trace", "ski", "--b", "10", "--x", "3", "--y", "1", "--algo", "det",
             "--lambda", "1.5"),
            ("trace", "ski", "--b", "10", "--x", "3", "--y", "1", "--algo", "karlin",
             "--seed", "-1"),
            ("trace", "sched", "--jobs", "1:1", "--algo", "prr", "--lambda", "1.5"),
            ("trace", "sched", "--jobs", "1e308:1,1e308:2", "--algo", "rr"),
            ("trace", "sched", "--jobs", "1e308:1,1e308:2", "--algo", "sjf"),
            ("trace", "sched", "--jobs", "1e308:1,1e308:2", "--algo", "prr", "--lambda", "0.5"),
        ],
    )
    def test_bad_input_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ski-sweep", "--sigma-grid", "a:b:c"), "numeric start:stop:step, got 'a:b:c'"),
            (("ski-sweep", "--seed", "abc"), "seed must be a non-negative integer, got 'abc'"),
            (("trace", "sched", "--jobs", "1:1", "--algo", "prr"), "'prr' requires --lambda"),
            (("trace", "sched", "--jobs", "1:x", "--algo", "rr"), "got chunk '1:x'"),
            (("trace", "ski", "--b", "10", "--x", "3", "--y", "1", "--algo", "karlin",
              "--lambda", "0.3"), "'karlin' takes no --lambda"),
            (("trace", "ski", "--b", "10", "--x", "3", "--y", "1", "--algo", "break-even",
              "--lambda", "0.2"), "'break-even' takes no --lambda"),
            (("trace", "ski", "--b", "10", "--x", "3", "--y", "1", "--algo", "naive",
              "--lambda", "0.5"), "'naive' takes no --lambda"),
            (("trace", "sched", "--jobs", "1:1", "--algo", "rr", "--lambda", "0.5"),
             "'rr' takes no --lambda"),
            (("trace", "sched", "--jobs", "1:1", "--algo", "sjf", "--lambda", "0.9"),
             "'sjf' takes no --lambda"),
        ],
        ids=["sigma-grid-letters", "seed-letters", "prr-without-lambda", "job-not-a-number",
             "karlin-with-lambda", "break-even-with-lambda", "naive-with-lambda",
             "rr-with-lambda", "sjf-with-lambda"],
    )
    def test_bad_input_names_the_fault(self, argv, message, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("b 50", "cfg:1: expected key=value, got 'b 50'"),
            ("b=abc", "config key b: cannot parse 'abc'"),
            ("sampled=maybe", "expected a boolean, got 'maybe'"),
            ("format=xml", "format must be csv or json, got 'xml'"),
            ("trials=5", "cfg:2: key 'trials' repeats line 1"),
        ],
        ids=["no-equals", "b-not-a-number", "sampled-not-a-bool", "unknown-format", "repeated-key"],
    )
    def test_bad_config_line_names_the_fault(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{line}\ntrials=2\nsigma_grid=0:0:1\n")
        code, out, err = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_config_file_sampled_true(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sampled=true\ntrials=2\nsigma_grid=0:0:1\n")
        code, out, _ = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert ",karlin-sampled," in out and ",randomized-sampled," in out

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        code, out, err = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert "UTF-8" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("ski-sweep", "--b", "50", "--trials", "200", "--sigma-grid", "0:100:50",
                "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "ski-sweep", "--b", "50", "--trials", "50",
            "--sigma-grid", "0:50:50", "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 2 * 4
        assert set(rows[0]) == {
            "experiment", "algorithm", "lambda", "sigma", "trials",
            "mean_ratio", "mean_eta", "max_ratio",
        }

    def test_output_file_and_io_error(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "ski-sweep", "--b", "50", "--trials", "20",
            "--sigma-grid", "0:0:1", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out_path.read_text().startswith("experiment,")

        code, _, err = run_cli(
            capsys, "ski-sweep", "--b", "50", "--trials", "20",
            "--sigma-grid", "0:0:1", "--out", str(tmp_path / "no-such-dir" / "x.csv"),
        )
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("b=50\ntrials=30\nsigma_grid=0:50:50\nseed=5\n")
        code, out_file_only, _ = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert ",30," in out_file_only.split("\n")[1]

        code, out_flag, _ = run_cli(
            capsys, "ski-sweep", "--config", str(cfg), "--trials", "40"
        )
        assert code == EXIT_OK
        assert ",40," in out_flag.split("\n")[1]  # flag beats file

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        code, _, err = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "nonsense" in err

    def test_bad_sigma_grid(self, capsys):
        for grid in ("10", "0:inf:1", "0:1:inf", "nan:1:1"):
            code, _, err = run_cli(capsys, "ski-sweep", "--sigma-grid", grid)
            assert code == EXIT_USAGE

    def test_sigma_grid_below_float_spacing_has_no_duplicates(self, capsys):
        # at 1e17 the float spacing is 16, so start + step rounds back to start
        assert cli._parse_sigma_grid("1e17:1e17:1") == [1e17]
        assert cli._parse_sigma_grid("1e17:1.0000000000000002e17:4") == [1e17, 1e17 + 16]
        code, out, _ = run_cli(
            capsys, "ski-sweep", "--b", "10", "--trials", "2", "--sigma-grid", "1e17:1e17:1"
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 4  # header + 4 algorithms at one sigma

    def test_sigma_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sched-sweep", "--trials", "2", "--sigma-grid", "1e308:1e308:1"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "1e+300" in err

    def test_oversized_sigma_grid_names_limit(self, tmp_path, capsys):
        # 10^15 points: rejected from the point count, before any list is built
        code, _, err = run_cli(capsys, "ski-sweep", "--sigma-grid", "0:1e9:1e-6")
        assert code == EXIT_USAGE
        assert f"limit of {SIGMA_GRID_MAX_POINTS} points" in err
        cfg = tmp_path / "big.cfg"
        cfg.write_text("sigma_grid=0:1e9:1e-6\n")
        code, _, err = run_cli(capsys, "sched-sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"limit of {SIGMA_GRID_MAX_POINTS} points" in err


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestSweepOptions:
    @pytest.mark.parametrize(
        "options, cls",
        [(cli._SKI_OPTIONS, SkiSweepConfig), (cli._SCHED_OPTIONS, SchedSweepConfig)],
        ids=["ski", "sched"],
    )
    def test_one_flag_per_config_field(self, options, cls):
        keys = [key for key, _, _ in options]
        assert sorted(keys) == sorted(field_names(cls))

    @pytest.mark.parametrize(
        "command, cls", [("ski-sweep", SkiSweepConfig), ("sched-sweep", SchedSweepConfig)]
    )
    def test_help_shows_config_defaults(self, command, cls, capsys):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == EXIT_OK
        text = " ".join(out.split())
        config = cls()
        assert f"trials per grid point (default {config.trials})" in text
        assert f"master seed (default {config.seed})" in text
        assert f"worker processes (default {config.jobs}," in text

    def test_sched_help_states_default_grid_rule(self, capsys):
        _, out, _ = run_cli(capsys, "sched-sweep", "--help")
        assert "default 0 to 20 mean job lengths in steps of 2" in " ".join(out.split())

    def test_example_config_matches_flagless_run(self, capsys):
        lines = EXAMPLE_CONFIG.read_text().splitlines()
        keys = {line.partition("=")[0] for line in lines if "=" in line and line[0] != "#"}
        assert keys == field_names(SkiSweepConfig) | {"format", "out"}
        # the header lists the sched-sweep fields in parentheses
        header = " ".join(line.lstrip("# ") for line in lines if line.startswith("#"))
        sched_keys = header.partition("(")[2].partition(")")[0].split(", ")
        assert set(sched_keys) == field_names(SchedSweepConfig)

        code, from_file, _ = run_cli(capsys, "ski-sweep", "--config", str(EXAMPLE_CONFIG))
        assert code == EXIT_OK
        code, flagless, _ = run_cli(capsys, "ski-sweep")
        assert code == EXIT_OK
        assert from_file == flagless
        assert hashlib.sha256(flagless.encode()).hexdigest() == (
            "3244dd46537798a2e2092592bb3b98687e0524885de4b8b3b17cc20acd882ae7"
        )


class TestSweepLimits:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("an over-limit sweep must not start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(cli, "run_ski_sweep", refuse)
        monkeypatch.setattr(cli, "run_scheduling_sweep", refuse)
        monkeypatch.setattr(cli, "run_all_checks", refuse)
        monkeypatch.setattr(cli, "policy_cost", refuse)

    @pytest.mark.parametrize(
        "command, key, limit",
        [
            ("ski-sweep", "b", B_MAX),
            ("ski-sweep", "jobs", JOBS_MAX),
            ("sched-sweep", "jobs", JOBS_MAX),
            ("ski-sweep", "trials", TRIALS_MAX),
            ("sched-sweep", "trials", TRIALS_MAX),
            ("sched-sweep", "n", N_MAX),
        ],
    )
    def test_count_above_limit_names_it(self, command, key, limit, tmp_path, capsys):
        code, out, err = run_cli(capsys, command, f"--{key}", str(limit + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {limit}" in err
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"{key}={limit + 1}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {limit}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("trace", "ski", "--x", "5", "--y", "0", "--algo", "rand", "--lambda", "0.5"),
            ("verify-bounds", "--grid-density", "tiny"),
        ],
    )
    def test_buy_cost_above_limit_names_it(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv, "--b", str(B_MAX + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {B_MAX}" in err

    def test_ratio_count_above_limit_names_it(self, tmp_path, capsys):
        # 101 sigma points x 4 algorithms x 10^6 trials
        argv = ("ski-sweep", "--trials", str(TRIALS_MAX), "--sigma-grid", "0:100:1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {SWEEP_MAX_RATIOS} ratios" in err
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"trials={TRIALS_MAX}\nsigma_grid=0:100:1\n")
        code, out, err = run_cli(capsys, "ski-sweep", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {SWEEP_MAX_RATIOS} ratios" in err


# stdout sha256 of small sweeps, recorded before the sweeps were split over
# trial ranges; any worker count must reproduce them
PINNED_SWEEPS = {
    "ski-sweep --b 20 --trials 300 --seed 5":
        "149bd1b557b7d46a683d9fb3ac2b0d65facecc9c4a3943024d4e3041ad3ce795",
    "ski-sweep --b 20 --trials 300 --seed 5 --format json":
        "871cf25c7b36a0bf08cf22f92f6700e31cae51d2589c2732b27ccb73ff5e7723",
    "ski-sweep --b 20 --trials 300 --seed 5 --sampled":
        "ec6024f1873fdb70b4519ce59501468dd32035a11284a8fc7dbbec1208f177b1",
    "ski-sweep --b 20 --trials 300 --seed 5 --sampled --format json":
        "60eff8d0e0d45affc7ffeb1b20a7120d6aed3ef6cefd29a10480b27a54b557eb",
    # both randomized entrants are the lambda = 1 rule here, yet draw different uniforms
    "ski-sweep --sampled --lambda-rand 1 --b 20 --trials 300 --seed 5":
        "7d7fcf9fffd86ed361b2a43989da66213afc51d8bbb74fe8f717de61363eeeaf",
    "sched-sweep --n 20 --trials 15 --seed 5":
        "7c8e2f8b9f5304358bd98ac7699e81ffdae4a18b005b64c6215df086661baf4d",
    "sched-sweep --n 20 --trials 15 --seed 5 --format json":
        "fb366df75cf10dbe4830e2918e63a01e3a976c68fa7d6f242c15eb7cdaaaba79",
    "sched-sweep --n 20 --trials 15 --seed 5 --fixed-jobs":
        "3bc61e534d393187ca34b9be36745d9c3e28d00c4f8571a1ac8ac54fbb9d802b",
    "sched-sweep --n 20 --trials 15 --seed 5 --fixed-jobs --format json":
        "45d52ae45859ba3a00ce04e0129188e2d45c824360e7ed717a5323ddeaa982ce",
    # master seeds of two and five uint32 words (2^32 and 2^130), recorded from
    # numpy's SeedSequence one trial at a time before trials were seeded in batches
    "ski-sweep --b 20 --trials 300 --seed 4294967296":
        "c87e8de27ebd929d8449102b9f89b1a66b7ad2327a6879235a2f284db492261a",
    "ski-sweep --b 20 --trials 300 --seed 1361129467683753853853498429727072845824":
        "ee33cb8aa7e5e00d1c9106f3d022b5f1378f63fde8e91ed7dda057d237cf9fb1",
    "ski-sweep --b 20 --trials 300 --seed 1361129467683753853853498429727072845824 --sampled":
        "23d47560826163e19349b091998ae9f75770f0777070868791a093645e230022",
    "sched-sweep --n 20 --trials 15 --seed 4294967296":
        "01b30aa42aaabd89f1dee0748ee638b2781813e219070347349ea1fcf1d584cd",
    "verify-bounds --grid-density tiny --seed 4294967296":
        "d2c56ee38bd07430d5f3f725ed38a97032b389883ed46f3cecc2581a77f4d1c9",
    # recorded while a block's statistics were a positional tuple: three blocks
    # each (up to 47,662 ski or 873 scheduling trials) whose mean errors print
    # every digit at these magnitudes, so another merge order shows here
    "ski-sweep --sigma-grid 0:1e300:1e299 --trials 100000":
        "42eed1939ef6172fb0cb97c0ee665859199f0e9bb4f7bd9f6c09028ad95eb131",
    "sched-sweep --sigma-grid 0:1e300:1e299 --trials 2000":
        "16e0cde16961c0350e9bab6f8cbd9d7ec50cc87b131635a0367878609ace9be5",
}


@pytest.mark.parametrize("command", sorted(PINNED_SWEEPS))
def test_sweep_bytes_pinned(command, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEPS[command]


# stdout sha256 at default sizes (and one large n), recorded from the per-job-set
# event sweep before round-robin and PRR moved onto the batched kernel
PINNED_FULL_SIZE = {
    "sched-sweep": "56c1bd0e101693d3231ab8dc9325af3eec93fe5e5bf6299a599d5c69e872846b",
    "sched-sweep --n 1000 --trials 20":
        "b92be334b0e647dda248cc83445c0ac9e09aa7d031ae1ea5ffcf34095f0654b5",
    "verify-bounds": "c17ddece1646e7296d6b65336f429138a8d1b3c5ce0bf6bea86fc257b6b87b0a",
    "verify-bounds --grid-density dense":
        "b4116c4edfd000b769cd5bb207be832531c0e2d11ce7c59fb1fc1f03c22fd2d2",
    # recorded from one numpy Generator per trial, before the ski draws were
    # batched; b = B_MAX takes the bounded-integer rejection path on some trials
    "ski-sweep --sampled --trials 20000":
        "abfcb518e955e341fddfce88796ad2d1e7ffd865ed0df4e25038897b77f5836f",
    "ski-sweep --b 1000000 --trials 20000":
        "f01267222d0ef4c6ccf08e23250d666b2b881cffe81a467430a8199e5d0ec077",
    # recorded from the dense sigma x entrant x trial ski scoring, before each
    # trial was scored once per prediction branch: 16 blocks of 12,787 trials,
    # and the widest CLI grid (10,001 points) in 77 blocks of 52 trials
    "ski-sweep --trials 200000":
        "ba373f783c05a1dc68ac14d15fe358732477a0bb1deaf325f05e5c495521e411",
    "ski-sweep --trials 4000 --sigma-grid 0:400:0.04":
        "7faf52950ab307842ab4f11e9fac72cb9227b1aa1572ab1e782ea94f76d2df4c",
    "ski-sweep --trials 4000 --sigma-grid 0:400:0.04 --sampled":
        "2bd65a21a1b5b07374929c73c3edf77d160d66f1bcffaf2b15abe70406a8d894",
}


@pytest.mark.parametrize("command", sorted(PINNED_FULL_SIZE))
def test_full_size_bytes_pinned(command, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FULL_SIZE[command]


# the stdout sha256 the benchmark checks, read from its own file so that a
# change to those bytes fails here first
BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(BENCH_DIGESTS))
def test_bench_digests_hold(command, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_DIGESTS[command]


# stdout sha256 of single-instance traces, recorded while each rule's bound had
# its own branch in the trace command: every rule, both prediction branches
# (y < b and y >= b, the last at zero error) and both formats; the JSON bytes
# also pin the key order
PINNED_TRACES = {
    "trace ski --b 10 --x 3 --y 1 --algo naive":
        "02e2d5354b7c309c87482e5796a1707e48f0c8fbdba201d013595b8bf3d816fa",
    "trace ski --b 10 --x 3 --y 1 --algo naive --format json":
        "1e53c6b8535d2e73c42ef4f0d51a83806e82ba815fafba868aff15655a72e865",
    "trace ski --b 10 --x 30 --y 4.5 --algo naive":
        "0e49e2d49bfe37ced8e06b484f8106de1a5bffac97d1b7a0ae47da563aaec278",
    "trace ski --b 10 --x 30 --y 4.5 --algo naive --format json":
        "67bb5b33a3f53d0d8134def74bb97a907fa680c07c6177d0b76872e35fa5c91e",
    "trace ski --b 10 --x 4 --y 12 --algo naive":
        "900721e32cf26382365626be3f4aa2d4f0c164d951c98b001d20fc8400de3641",
    "trace ski --b 10 --x 4 --y 12 --algo naive --format json":
        "eb6f051150079d85f4877e302a7bb0d2b96f4944b31d27f4e2051f1434c3cb73",
    "trace ski --b 10 --x 12 --y 12 --algo naive":
        "85e24c2938ac82d55c0186afdfe2739600882d5e89e551ef8b7d78f0b3e18806",
    "trace ski --b 10 --x 12 --y 12 --algo naive --format json":
        "4d19ab0a5a5c833d15b33e4738b0e8b54523c138cf63bd8b5456c8825f41f767",
    "trace ski --b 10 --x 3 --y 1 --algo break-even":
        "8d0c00171730a9ae07a21dd76a60c7b446fc3fef5440febe83bb3eecf302a3a2",
    "trace ski --b 10 --x 3 --y 1 --algo break-even --format json":
        "777aa78efa5f10bffe7eded216312fb201b982d21d2c9521e455c80ae0e29402",
    "trace ski --b 10 --x 30 --y 4.5 --algo break-even":
        "cc6fa0605a72c1e9394bf12e7ffa57c1ca89b4e15e43ed240599242da2a73d17",
    "trace ski --b 10 --x 30 --y 4.5 --algo break-even --format json":
        "4de69c268a7339fd5832aadc86701319970cace99f64b4b610485ab7b5800fd3",
    "trace ski --b 10 --x 4 --y 12 --algo break-even":
        "192a3e595bc601f88d2bdb91ea552fa85a26ad893f6aa6981cb5f855244cb55f",
    "trace ski --b 10 --x 4 --y 12 --algo break-even --format json":
        "7678a4ee665d058b9ccda8761f4564bdd7b6205b1730ff0407bc8f108a3a3b89",
    "trace ski --b 10 --x 12 --y 12 --algo break-even":
        "29ebebe16a59cb772b74a813eb3f00aafd0c94717299f3e7844c9554cfb4f046",
    "trace ski --b 10 --x 12 --y 12 --algo break-even --format json":
        "fb014fc67cad8999e6ab643c0ac8ddd454488ef756a8333efd3971c683ceb1b3",
    "trace ski --b 10 --x 3 --y 1 --algo karlin":
        "d71a26e09cc26f847557086313cb783c5bfb158525990ba154ed537fd40e4ef0",
    "trace ski --b 10 --x 3 --y 1 --algo karlin --format json":
        "16024476ec508dffbeb7678a1cd2227237ad072b73568d419d6017fb9f12eb8c",
    "trace ski --b 10 --x 30 --y 4.5 --algo karlin":
        "90e0fb92f256673c574f8b444eed0a525e88ff4a852d5e5ea8a97b527fda424b",
    "trace ski --b 10 --x 30 --y 4.5 --algo karlin --format json":
        "1daba0e9715d35db93e1c7a4464f545b029ae524e2a1fb15de80cd279c709afa",
    "trace ski --b 10 --x 4 --y 12 --algo karlin":
        "29d614d6f27301e4f396004dcabf1c8a5ec9180c20178de0f7ad616620853c3b",
    "trace ski --b 10 --x 4 --y 12 --algo karlin --format json":
        "cf788cc45c2d711612a21194342cfb53029b9368fe33018319c35be67976b12f",
    "trace ski --b 10 --x 12 --y 12 --algo karlin":
        "59ffec891e765dbdc73d8f1cf36fd51d427dfca668625cf3586e35c782be1eeb",
    "trace ski --b 10 --x 12 --y 12 --algo karlin --format json":
        "d3909a5f64fe0f0f28183c038934a26c512a0ef3632af41779544f1a4ba2891c",
    "trace ski --b 10 --x 3 --y 1 --algo det --lambda 0.5":
        "113a3079a90de521e10d95da7d806b65df1e81134841e2fe006f4b9bc81a3bcc",
    "trace ski --b 10 --x 3 --y 1 --algo det --lambda 0.5 --format json":
        "29a985315369ba380d03f203f6016b5e9ea70669f390afd93fb1218c2ba4debe",
    "trace ski --b 10 --x 30 --y 4.5 --algo det --lambda 0.5":
        "e9ba619d2d7f0369eb9b3dec3ca8f1297d3b1e8c79f602b1494075f0bb7326c1",
    "trace ski --b 10 --x 30 --y 4.5 --algo det --lambda 0.5 --format json":
        "389c171698e565aa432dab750f904aa08e341294f1969f9a09ce2ed1d843d6c8",
    "trace ski --b 10 --x 4 --y 12 --algo det --lambda 0.5":
        "bedac209a7e34384b331aed3833214ea918f013064dd941206c8c13ec0439179",
    "trace ski --b 10 --x 4 --y 12 --algo det --lambda 0.5 --format json":
        "b9c5effd31c43c0d480fde81594d6dda5fc965cbf29e3d81af37d3ca6c13df3b",
    "trace ski --b 10 --x 12 --y 12 --algo det --lambda 0.5":
        "d8c7d1dbe90f467e947133ff71d05acefe5bdb99d6f2ed075f16824335445cc6",
    "trace ski --b 10 --x 12 --y 12 --algo det --lambda 0.5 --format json":
        "457a6b842a4c5bc631d22e3a1b65fc865bc5059d79b492cdaf4b20678c2882f5",
    "trace ski --b 10 --x 3 --y 1 --algo det --lambda 1":
        "22408ac1369470d494597d5a00a591dcbab00373aa1c52ac3c92a98a1c193c1f",
    "trace ski --b 10 --x 3 --y 1 --algo det --lambda 1 --format json":
        "4897950edb62ac12f0b899997f7c05c555f3d0db605ee4c14d2348a3e94fb80a",
    "trace ski --b 10 --x 30 --y 4.5 --algo det --lambda 1":
        "3c0737707ffa9f910ed226a05e64432d6cd0f04dd8e75b1808f42d90c60dcaaf",
    "trace ski --b 10 --x 30 --y 4.5 --algo det --lambda 1 --format json":
        "fc34e093d4369d521c8c1adbf8f4c9765b1089de0769e86627271a9fcdaeb946",
    "trace ski --b 10 --x 4 --y 12 --algo det --lambda 1":
        "125dabc2ef8ae2d15acd3e86af8ce802d1f8d3d1b5ef43298fdf82bbc6d98d6f",
    "trace ski --b 10 --x 4 --y 12 --algo det --lambda 1 --format json":
        "4e58e3c5a19391fa0feb94e262116984f20609a646a30c8b41389d4de363dd50",
    "trace ski --b 10 --x 12 --y 12 --algo det --lambda 1":
        "12fc5ec94ec8ac8854e83e3e31890a7cf3b2e53600bff0d53dda8780a5c8f65a",
    "trace ski --b 10 --x 12 --y 12 --algo det --lambda 1 --format json":
        "35a6ef328a09c8ae20934ac384b5ff99fe1cf82c4851dad733ef497dd4b9ba63",
    "trace ski --b 10 --x 3 --y 1 --algo rand --lambda 0.5":
        "6aa70cf7e673b6556771e48f524681587ceef559c133c05c99444b259f65d65c",
    "trace ski --b 10 --x 3 --y 1 --algo rand --lambda 0.5 --format json":
        "abb600021db2fa8fc5bf33809640b03a011bb7c6f54b14977db8752fbfc112b7",
    "trace ski --b 10 --x 30 --y 4.5 --algo rand --lambda 0.5":
        "5ecbda11b0e02d2a1eef26377a5a0612ae146c5db21214c995eeb73bf533ae80",
    "trace ski --b 10 --x 30 --y 4.5 --algo rand --lambda 0.5 --format json":
        "5901bb99e3c19b31b616b2f0e17e2b1f70208296630798e41d389f0fc29879a2",
    "trace ski --b 10 --x 4 --y 12 --algo rand --lambda 0.5":
        "dedf0d29836eaf56ef166ec14f6b7c93395954eb5628ad17a7b0a750ab1937ba",
    "trace ski --b 10 --x 4 --y 12 --algo rand --lambda 0.5 --format json":
        "9cdb2eae99d8c73b6779d68f8ce03d2e0e9fc96ef9f528d866c59e812197f7d6",
    "trace ski --b 10 --x 12 --y 12 --algo rand --lambda 0.5":
        "f7eb497edaf0dc0a1b2a9057d5e0783ae9967ef68abc1bc19c5ed89bc1f11f93",
    "trace ski --b 10 --x 12 --y 12 --algo rand --lambda 0.5 --format json":
        "eaf5d0392a849e6bd08e01ecbc7c0f1139290ecf0d72d7334950e2f1475c9d3c",
    "trace ski --b 10 --x 3 --y 1 --algo rand --lambda 1":
        "280d8ee9bd297054c1f55ef62f11d8c9625938565c49d259bf0fb4484a30d1f1",
    "trace ski --b 10 --x 3 --y 1 --algo rand --lambda 1 --format json":
        "bc59175c8b358852ea5374f4df8f26a6e8c7c4bf0595327a0b68ed71da8d7240",
    "trace ski --b 10 --x 30 --y 4.5 --algo rand --lambda 1":
        "7b923a7c5f7c5f1c1ecfddae20455ea4e1d51b0bc483aa23c4dcabf787fc9fdd",
    "trace ski --b 10 --x 30 --y 4.5 --algo rand --lambda 1 --format json":
        "0cb9f4eed1934c57bf9fb6bb61d88bead88f1a3f7976cd0d53f00f7f7883c777",
    "trace ski --b 10 --x 4 --y 12 --algo rand --lambda 1":
        "9bc1b5b8a07b703010b4f9099c411fd1236be48d1574c481a9ceb319b296c3db",
    "trace ski --b 10 --x 4 --y 12 --algo rand --lambda 1 --format json":
        "29a17555516436e1f6023a7b401bb0004f9181d45b402e36e96bb13b57562705",
    "trace ski --b 10 --x 12 --y 12 --algo rand --lambda 1":
        "0f5fbe766028e42f69b6571846e8dedf82fde238d5164a95bb4f8df0dfad53c4",
    "trace ski --b 10 --x 12 --y 12 --algo rand --lambda 1 --format json":
        "2196f662f1674ba528e1a0fa5dc1df976282a7d6c9542b3b14eea6f95c21c477",
}


@pytest.mark.parametrize("command", sorted(PINNED_TRACES))
def test_trace_bytes_pinned(command, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TRACES[command]


class TestSchedSweepCommand:
    def test_default_algorithms_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "sched-sweep", "--n", "8", "--trials", "5", "--sigma-grid", "0:5:5",
        )
        assert code == EXIT_OK
        body = out.strip().split("\n")[1:]
        algs = {line.split(",")[1] for line in body}
        assert algs == {"round-robin", "spjf", "prr"}

    def test_single_trial_smoke(self, capsys):
        import time

        start = time.monotonic()
        code, out, _ = run_cli(
            capsys, "sched-sweep", "--trials", "1", "--sigma-grid", "0:0:1",
        )
        assert code == EXIT_OK
        assert time.monotonic() - start < 1.0
        assert len(out.strip().split("\n")) == 1 + 3

    def test_n_zero_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sched-sweep", "--n", "0", "--trials", "5")
        assert code == EXIT_USAGE

    def test_fixed_jobs_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sched-sweep", "--n", "8", "--trials", "5",
            "--sigma-grid", "0:5:5", "--fixed-jobs",
        )
        assert code == EXIT_OK


class TestTraceCommand:
    def test_ski_deterministic_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "ski", "--b", "100", "--x", "200", "--y", "150",
            "--algo", "deterministic", "--lambda", "0.5",
        )
        assert code == EXIT_OK
        assert "buy_day: 50" in out
        assert "cost: 149.0" in out
        assert "opt: 100" in out
        assert "ratio: 1.49" in out

    def test_ski_naive_never_buys(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "ski", "--b", "100", "--x", "300", "--y", "20",
            "--algo", "naive",
        )
        assert code == EXIT_OK
        assert "buy_day: never" in out
        assert "cost: 300.0" in out

    def test_ski_randomized_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "ski", "--b", "2", "--x", "5", "--y", "5",
            "--algo", "randomized", "--lambda", "1.0", "--format", "json",
        )
        assert code == EXIT_OK
        info = json.loads(out)
        assert info["support_size"] == 2
        assert info["cost"] == pytest.approx(8.0 / 3.0, abs=1e-4)

    def test_ski_randomized_large_b(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "ski", "--b", "100000", "--x", "5", "--y", "0",
            "--algo", "rand", "--lambda", "0.5",
        )
        assert code == EXIT_OK, err
        assert "support_size: 200000" in out
        assert "cost: 5.7826" in out

    def test_ski_randomized_huge_support(self, capsys):
        # b / lambda = 5 * 10^9 buy days: sampling must not build the support
        code, out, err = run_cli(
            capsys, "trace", "ski", "--b", "100000", "--x", "5", "--y", "0",
            "--algo", "rand", "--lambda", "0.00002",
        )
        assert code == EXIT_OK, err
        assert "support_size: 5000000000" in out

    def test_skiing_days_above_limit_names_it(self, capsys):
        base = ("trace", "ski", "--b", "100", "--y", "5", "--algo", "naive")
        code, out, err = run_cli(capsys, *base, "--x", str(2**64))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"limit of {2**53}" in err
        code, out, _ = run_cli(capsys, *base, "--x", str(2**53))
        assert code == EXIT_OK
        assert f"cost: {float(2**53)}\n" in out  # y < b: rents every day, exactly

    def test_ski_tiny_lambda_rents_every_day(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "ski", "--b", "10", "--x", "3", "--y", "1",
            "--algo", "det", "--lambda", "1e-300",
        )
        assert code == EXIT_OK, err
        assert "cost: 3.0\n" in out
        assert f"buy_day: {math.ceil(10 / 1e-300)}\n" in out

    def test_ski_missing_lambda(self, capsys):
        code, _, err = run_cli(
            capsys, "trace", "ski", "--b", "100", "--x", "10", "--y", "10",
            "--algo", "deterministic",
        )
        assert code == EXIT_USAGE
        assert "lambda" in err

    def test_sched_prr_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "sched", "--jobs", "1:1,2:2", "--algo", "prr",
            "--lambda", "0.5",
        )
        assert code == EXIT_OK
        assert "completions: 1.3333, 3.0000" in out
        assert "objective: 4.3333" in out

    def test_sched_rr_single_job(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "sched", "--jobs", "1:1", "--algo", "rr",
        )
        assert code == EXIT_OK
        assert "completions: 1.0000" in out
        assert "ratio: 1.000000" in out

    # SPJF trusts the swapped predictions and runs the long job first
    @pytest.mark.parametrize(
        "algo, completions", [("spjf", "4.0000, 3.0000"), ("sjf", "1.0000, 4.0000")]
    )
    def test_sched_sequential_rules(self, algo, completions, capsys):
        code, out, _ = run_cli(capsys, "trace", "sched", "--jobs", "1:3,3:1", "--algo", algo)
        assert code == EXIT_OK
        assert f"completions: {completions}" in out

    def test_sched_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "sched", "--jobs", "1:1,2:2", "--algo", "prr", "--lambda", "0.5",
            "--format", "json",
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert (row["algorithm"], row["lambda"], row["objective"]) == ("prr", 0.5, 4.3333)
        assert row["completions"] == {"0": 1.3333, "1": 3.0}

    def test_sched_malformed_jobs(self, capsys):
        code, _, err = run_cli(capsys, "trace", "sched", "--jobs", "1:2:3", "--algo", "rr")
        assert code == EXIT_USAGE
        code, _, err = run_cli(capsys, "trace", "sched", "--jobs", "0.5:1", "--algo", "rr")
        assert code == EXIT_USAGE  # job below the length normalization


class TestVerifyBoundsCommand:
    def test_tiny_density_passes_quickly(self, capsys):
        import time

        start = time.monotonic()
        code, out, _ = run_cli(capsys, "verify-bounds", "--grid-density", "tiny")
        elapsed = time.monotonic() - start
        assert code == EXIT_OK
        assert elapsed < 5.0
        assert "OVERALL: PASS" in out

    def test_violation_exit_code(self, capsys, monkeypatch):
        from onlinepred.verification import FamilyResult
        import onlinepred.cli as cli_mod

        fake = FamilyResult("fake-family", 10, 2, 0.5, 1e-9, "b=2")
        passing = FamilyResult("passing-family", 10, 0, -0.5, 1e-9, "b=3")
        monkeypatch.setattr(cli_mod, "run_all_checks", lambda density, seed: [fake, passing])
        code, out, err = run_cli(capsys, "verify-bounds", "--grid-density", "tiny")
        assert code == EXIT_VIOLATION
        assert "OVERALL: FAIL" in out
        assert "b=2" not in out
        assert err == "fake-family: worst point b=2\n"  # one line per failing family

    @pytest.mark.parametrize("b", ["0", "1", "-3"])
    def test_buy_cost_below_two_is_usage_error(self, b, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        code, out, err = run_cli(
            capsys, "verify-bounds", "--grid-density", "tiny",
            "--b", b, "--curve-out", str(curve),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--b" in err
        assert not curve.exists()

    def test_reports_and_curve_files(self, tmp_path, capsys):
        report = tmp_path / "families.csv"
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "verify-bounds", "--grid-density", "tiny",
            "--out", str(report), "--curve-out", str(curve),
        )
        assert code == EXIT_OK
        assert report.read_text().startswith("family,points,violations")
        curve_lines = curve.read_text().strip().split("\n")
        assert curve_lines[0] == (
            "lambda,det_robustness,det_consistency,rand_robustness,rand_consistency"
        )
        # lambda = 1 row carries the classical deterministic endpoint (2, 2)
        last = curve_lines[-1].split(",")
        assert last[0] == "1.000000" and last[1] == "2.000000" and last[2] == "2.000000"


    def test_curve_bytes_pinned(self, tmp_path, capsys):
        # sha256 recorded when the rows came from a sweep-module wrapper around bounds
        curve = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "verify-bounds", "--grid-density", "tiny", "--b", "100",
            "--curve-out", str(curve),
        )
        assert code == EXIT_OK
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
            "4727a462136cd3aecaa3b16d2ee4afa837cfdd6049797a276ec0657f83d6e26e"
        )


class TestEntryPoint:
    def test_module_invocation(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "onlinepred.cli", "trace", "sched",
             "--jobs", "1:1,2:2", "--algo", "prr", "--lambda", "0.5"],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "objective: 4.3333" in proc.stdout

    def test_usage_error_from_argparse(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE


BENCH_SCHED_SWEEP = "sched-sweep --n 50 --alpha 1.1 --lambda 0.5 --trials 10 --seed 271828 --jobs 1"
# (command, exit code) in the order one process runs them
SHARED_PARSER_RUNS = (
    (BENCH_SCHED_SWEEP.split(), EXIT_OK),
    (["sched-sweep", "--n", "0"], EXIT_USAGE),
    (["no-such-command"], EXIT_USAGE),
    (["ski-sweep", "--help"], EXIT_OK),
    (["ski-sweep", "--config", str(EXAMPLE_CONFIG)], EXIT_OK),
    (["verify-bounds", "--grid-density", "tiny"], EXIT_OK),
    (["trace", "sched", "--jobs", "1:1.2,2:1.9", "--algo", "prr", "--lambda", "0.5"], EXIT_OK),
)
GUARDED_RUNS = (
    ["ski-sweep", "--trials", "20"],
    ["sched-sweep", "--trials", "2"],
    ["verify-bounds", "--grid-density", "tiny"],
    ["trace", "ski", "--b", "10", "--x", "12", "--y", "12", "--algo", "rand", "--lambda", "1"],
)


class TestSharedParser:
    """``main`` parses with the process's one parser and carries nothing between calls."""

    def test_calls_leave_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        first = []
        for argv, expected in SHARED_PARSER_RUNS:
            code, out, _ = run_cli(capsys, *argv)
            assert code == expected, argv
            first.append((argv, code, out))
        assert hashlib.sha256(first[0][2].encode()).hexdigest() == BENCH_DIGESTS[BENCH_SCHED_SWEEP]
        for argv, code, out in first:
            if code == EXIT_OK:
                assert run_cli(capsys, *argv)[:2] == (code, out), argv

    def test_warm_calls_build_nothing(self, monkeypatch, capsys):
        run_cli(capsys, "trace", "sched", "--jobs", "1:1", "--algo", "sjf")

        def rebuilt(*args, **kwargs):
            raise AssertionError("the parser or a field schema was built again")

        monkeypatch.setattr(cli, "get_type_hints", rebuilt)
        monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument", rebuilt)
        monkeypatch.setattr(cli.argparse._SubParsersAction, "add_parser", rebuilt)
        guarded = [run_cli(capsys, *argv)[:2] for argv in GUARDED_RUNS]
        monkeypatch.undo()
        assert guarded == [run_cli(capsys, *argv)[:2] for argv in GUARDED_RUNS]
        assert all(code == EXIT_OK for code, _ in guarded)

    def test_field_schema_is_read_only(self):
        with pytest.raises(TypeError):
            cli._field_schema(SkiSweepConfig)["b"] = (int, 1)


# A one-worker run never needs the process pool, which would load
# multiprocessing, logging, socket and subprocess on every command
STARTUP_PROBE = """
import sys
import onlinepred
from onlinepred import cli
assert cli.main(["ski-sweep", "--trials", "10"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


class TestProcessPool:
    def test_one_worker_run_loads_no_pool(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_pooled_run_prints_the_same_bytes(self, monkeypatch, capsys):
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        # 10 trials in 4 blocks of up to 3, whose statistics the workers send
        # back: a ski trial counts its 41 sigma points, a scheduling trial its
        # 12 kernel rows (round-robin and 11 sigma points) of 5 jobs
        for command, per_trial in (("ski-sweep", 41), ("sched-sweep --n 5", 12 * 5)):
            monkeypatch.setattr(experiments, "KERNEL_ENTRIES", 3 * per_trial)
            argv = [*command.split(), "--trials", "10", "--jobs"]
            outs = [run_cli(capsys, *argv, jobs) for jobs in "12"]
            assert outs[0] == outs[1] and outs[0][0] == EXIT_OK, command
        assert started == [2, 2]
