import json
import math
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from helpers import CallCounter, bennett_bound_generic
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbound import (
    BennettBound,
    Beta,
    EnsembleSpec,
    HoeffdingBound,
    Uniform,
    cli,
)
from tailbound.cli import _fmt, _linspace, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The commands of the README's CLI block, as argument lists, with the
    leading `tailbound` dropped and continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert all(argv[0] == "tailbound" for argv in commands)
    return [argv[1:] for argv in commands]


class TestReadmeCommands:
    def test_each_command_of_the_readme_runs(self, capsys, tmp_path,
                                             monkeypatch):
        # the moments command reads values.csv from the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("id,value\n0,0.2\n1,0.4\n2,0.9\n")
        commands = readme_cli_commands()
        assert len(commands) == 6
        outputs = []
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            outputs.append(out)
        # the first is the classical Hoeffding value exp(-5)
        assert commands[0][:3] == ["bound", "--family", "hoeffding"]
        row = outputs[0].strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(math.exp(-5.0), rel=1e-15)


class TestBoundCommand:
    def test_classical_hoeffding_value(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "hoeffding",
                           "--dist", "uniform", "--params", "lo=0,hi=1",
                           "--n", "40", "--t", "10", "--p", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family,t,p,bound")
        row = lines[1].split(",")
        assert row[0] == "hoeffding"
        assert float(row[3]) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_json_records_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        code, _, _ = run(capsys, "bound", "--family", "both",
                         "--dist", "uniform", "--n", "5", "--t", "0.5,1.0",
                         "--p", "2,3", "--format", "json",
                         "--output", str(out_path))
        assert code == 0
        records = json.loads(out_path.read_text())
        hoeff = [r for r in records if r["family"] == "hoeffding"]
        benn = [r for r in records if r["family"] == "bennett"]
        assert len(hoeff) == len(benn) == 4
        # both families share the threshold grid
        assert sorted({r["t"] for r in hoeff}) == sorted({r["t"] for r in benn})
        for r in hoeff:
            HoeffdingBound.from_json_dict(r)
        for r in benn:
            parsed = BennettBound.from_json_dict(r)
            assert parsed.y_star == r["y_star"]
            assert {"family": "bennett", **parsed.to_json_dict()} == r

    def test_per_var_thresholds(self, capsys):
        code, out, _ = run(capsys, "bound", "--dist", "uniform", "--n", "40",
                           "--t", "0.25", "--p", "1", "--per-var")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == 10.0  # absolute t recorded
        assert float(row[3]) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_one_law_and_one_vector_per_order(self, capsys, monkeypatch):
        laws = CallCounter(monkeypatch, cli, "make_distribution")
        builds = CallCounter(monkeypatch, Uniform, "moments")
        code, out, _ = run(capsys, "bound", "--family", "both", "--dist",
                           "uniform", "--n", "10", "--t", "1,2", "--p", "2,3,4")
        assert code == 0 and len(out.splitlines()) == 13
        # the Hoeffding rows' order-4 vector serves the Bennett rows at p = 4
        assert (laws.calls, builds.calls) == (1, 3)

    def test_two_sided_flag(self, capsys):
        code, out, _ = run(capsys, "bound", "--dist", "uniform", "--n", "10",
                           "--t", "2.0", "--p", "2", "--two-sided")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "two_sided"

    def test_inline_moments(self, capsys):
        code, out, _ = run(capsys, "bound", "--mu", "0.5,0.3333333333333333",
                           "--support", "0,1", "--n", "4", "--t", "1.0",
                           "--p", "2")
        assert code == 0

    def test_infeasible_moments_exit_code(self, capsys):
        code, _, err = run(capsys, "bound", "--mu", "0.5,0.6",
                           "--support", "0,1", "--n", "2", "--t", "1.0",
                           "--p", "2")
        assert code == 3
        assert "chain" in err

    def test_negative_variance_exit_code(self, capsys):
        # no law on [0, 1] with mean 0.5 has E X^2 < 0.25
        code, _, err = run(capsys, "bound", "--mu", "0.5,0.2",
                           "--support", "0,1", "--n", "10", "--t", "1",
                           "--p", "2")
        assert code == 3
        assert "mu[0]*mu[2] = 0.2 < mu[1]^2 = 0.25" in err

    @pytest.mark.parametrize("argv,want", [
        # a valid law whose shifted moments lose every digit to rounding
        (("--dist", "uniform", "--params", "lo=1000,hi=1001", "--p", "6"), 2),
        (("--dist", "uniform", "--params", "lo=1000,hi=1001", "--p", "5",
          "--two-sided"), 2),
        # truly infeasible: 7.695 < 8.41 in the Cauchy-Schwarz chain
        (("--mu", "0.9,0.1,0.05", "--support=-1,1", "--pos-pth", "0.05",
          "--p", "3"), 3),
    ])
    def test_precision_lost_in_a_shift_is_not_infeasibility(self, capsys,
                                                            argv, want):
        code, _, err = run(capsys, "bound", "--t", "1", *argv)
        assert code == want, err

    @pytest.mark.parametrize("pos", ["nan", "inf"])
    def test_positive_part_that_is_not_finite_is_infeasible(self, capsys, pos):
        code, _, err = run(capsys, "bound", "--family", "bennett", "--mu",
                           "0.5,0.3", "--upper", "1", "--pos-pth", pos,
                           "--n", "10", "--t", "1", "--p", "2")
        assert code == 3, err
        assert "positive_part_pth" in err

    def test_huge_factor_argument(self, capsys):
        # 4 t b / d_n = 2e4 here, far past where e^y overflows
        code, out, _ = run(capsys, "bound", "--dist", "beta",
                           "--params", "a=0.01,b=100", "--n", "10", "--t", "5",
                           "--p", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(math.exp(-5.0), rel=1e-12)

    @pytest.mark.parametrize("dist,params", [("uniform", "lo=-1,hi=1"),
                                             ("truncexp", "b=1,rate=2")])
    def test_mixed_parity_orders_below_zero(self, capsys, dist, params):
        # a law's vector knows E max(X^p, 0) at its own order only: each
        # Bennett row must be what its order alone prints
        args = ("bound", "--family", "bennett", "--dist", dist, "--params",
                params, "--n", "5", "--t", "1")
        code, out, err = run(capsys, *args, "--p", "3,4")
        assert code == 0, err
        for p, row in zip((3, 4), out.splitlines()[1:]):
            _, single, _ = run(capsys, *args, "--p", str(p))
            assert row == single.splitlines()[1]

    @pytest.mark.parametrize("a", [1e-8, 1e-12, 1e-16, 1e-20])
    def test_order_three_with_alpha1_small_beside_alpha0(self, capsys, a):
        # Beta(a, 1) with a -> 0 gives alpha0 up to 3e20 against alpha1 =
        # 0.5, where the root as z - W(exp(z)/alpha1), z = alpha0/alpha1,
        # cancels
        code, out, _ = run(capsys, "bound", "--family", "bennett",
                           "--dist", "beta", "--params", f"a={a},b=1",
                           "--n", "10", "--t", "1", "--p", "3")
        assert code == 0
        lines = out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        spec = EnsembleSpec.iid_replicate(Beta(a, 1).moment_vector(3), 10)
        want = bennett_bound_generic(spec, 1.0, 3)
        assert float(row["bound"]) == pytest.approx(want.bound, rel=1e-12)
        assert float(row["y_star"]) == pytest.approx(want.y_star, rel=1e-12)
        assert "residual" not in row

    def test_bennett_needs_order_two(self, capsys):
        code, _, _ = run(capsys, "bound", "--family", "bennett",
                         "--dist", "uniform", "--n", "2", "--t", "0.5",
                         "--p", "1,2")
        assert code == 2

    def test_unknown_distribution(self, capsys):
        code, _, err = run(capsys, "bound", "--dist", "zipf", "--n", "2",
                           "--t", "0.5", "--p", "1")
        assert code == 2
        assert "unknown distribution" in err


class TestCompareCommand:
    def test_limit_curve_ratio_monotone(self, capsys):
        code, out, _ = run(capsys, "compare", "--dist", "uniform", "--n", "40",
                           "--t", "0.1:0.4:10", "--limit", "--per-var")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,classical_bound,new_bound,ratio"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r >= 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_finite_order_target(self, capsys):
        code, out, _ = run(capsys, "compare", "--dist", "uniform", "--n", "10",
                           "--t", "1.0,2.0", "--p", "3")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            t, classical, new, ratio = map(float, line.split(","))
            assert ratio == pytest.approx(classical / new, rel=1e-12)
            assert ratio >= 1.0

    def test_order_one_target_is_flat(self, capsys):
        code, out, _ = run(capsys, "compare", "--dist", "uniform", "--n", "10",
                           "--t", "1.0,2.0", "--p", "1")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == 1.0

    def test_limit_on_a_beta_whose_b_is_below_the_last_digit_of_a(self,
                                                                   capsys):
        # a + b + 1 rounds to a + 1 here, which once sent 0 to math.lgamma
        # and ended the command in a ValueError traceback
        code, out, err = run(
            capsys, "compare", "--dist", "beta",
            "--params", "a=3.1396913441781052e+50,b=1.3958170184060108e+26",
            "--n", "18", "--t", "14915.27463432374", "--limit")
        assert code == 0, err
        assert err == ""
        # both bounds underflow at this t, which leaves the ratio empty
        assert out.strip().splitlines()[1] == "14915.27463432374,0,0,"

    def test_new_bound_underflowing_to_zero(self, capsys):
        # at t = 1e300 both bounds are 0 and the ratio is undefined: the
        # row leaves it empty instead of dividing by zero
        code, out, err = run(capsys, "compare", "--dist", "uniform",
                             "--n", "13", "--t", "1e-3:1e300:7", "--p", "3")
        assert code == 0, err
        last = out.strip().splitlines()[-1].split(",")
        assert last[1:] == ["0", "0", ""]

    def test_requires_exactly_one_target(self, capsys):
        code, _, _ = run(capsys, "compare", "--dist", "uniform", "--n", "5",
                         "--t", "1.0")
        assert code == 2


class TestSampleSizeCommand:
    def test_record_fields(self, capsys):
        code, out, _ = run(capsys, "sample-size", "--dist", "uniform",
                           "--t", "0.1", "--alpha", "0.05", "--p", "2",
                           "--format", "json")
        assert code == 0
        (record,) = json.loads(out)
        assert record["classical_n"] == math.ceil(math.log(2 / 0.05) / 0.02)
        assert record["n"] <= record["classical_n"]
        assert 0 < record["c_bar"] < 1

    def test_order_one_is_classical(self, capsys):
        code, out, _ = run(capsys, "sample-size", "--dist", "uniform",
                           "--t", "0.1", "--alpha", "0.05", "--p", "1",
                           "--format", "json")
        assert code == 0
        (record,) = json.loads(out)
        assert record["n"] == record["classical_n"]


    def test_huge_width(self, capsys):
        # width^2 and t^2 both overflow: this printed a traceback and
        # exited 1
        code, out, _ = run(capsys, "sample-size", "--dist", "uniform",
                           "--params", "lo=0,hi=1e160", "--t", "1e160",
                           "--alpha", "0.05", "--p", "1", "--format", "json")
        assert code == 0
        (record,) = json.loads(out)
        assert record["n"] == record["classical_n"] == 2


class TestMomentsCommand:
    def test_from_data_file(self, capsys, tmp_path):
        data = tmp_path / "values.txt"
        data.write_text("0.0\n1.0\n")
        code, out, _ = run(capsys, "moments", "--data", str(data),
                           "--support", "0,1", "--p", "2", "--format", "json")
        assert code == 0
        (record,) = json.loads(out)
        assert record["mu"] == [0.5, 0.5]
        assert record["support"] == {"lower": 0.0, "upper": 1.0}

    def test_from_csv_with_ids(self, capsys, tmp_path):
        data = tmp_path / "values.csv"
        data.write_text("id,value\n1,0.25\n2,0.75\n")
        code, out, _ = run(capsys, "moments", "--data", str(data),
                           "--support", "0,1", "--p", "1", "--format", "json")
        assert code == 0
        (record,) = json.loads(out)
        assert record["mu"] == [0.5]

    def test_analytic_csv_output(self, capsys):
        code, out, _ = run(capsys, "moments", "--dist", "uniform", "--p", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        assert float(lines[1].split(",")[1]) == 0.5

    def test_datum_outside_support(self, capsys, tmp_path):
        data = tmp_path / "values.txt"
        data.write_text("0.5\n1.5\n")
        code, _, err = run(capsys, "moments", "--data", str(data),
                           "--support", "0,1", "--p", "2")
        assert code == 2
        assert "index 1" in err


class TestOrderBelowOne:
    """An order p < 1 is a configuration error (exit 2) in every command
    that takes a single order, whatever the source of the moments."""

    @pytest.mark.parametrize("argv", [
        ["moments", "--dist", "uniform", "--params", "lo=0,hi=1", "--p", "0"],
        ["moments", "--dist", "truncexp", "--params", "b=1,rate=2",
         "--p", "-1"],
        ["moments", "--mu", "0.5,0.3", "--support", "0,1", "--p", "0"],
        ["sample-size", "--dist", "uniform", "--params", "lo=0,hi=1",
         "--t", "0.1", "--alpha", "0.05", "--p", "0"],
        ["sample-size", "--dist", "uniform", "--params", "lo=0,hi=1",
         "--t", "0.1", "--alpha", "0.05", "--p", "-2"],
        ["compare", "--dist", "beta", "--params", "a=2,b=3", "--t", "1",
         "--p", "0"],
    ])
    def test_exits_2_with_the_flag_named(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--p must be >= 1" in err
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_smoke_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--dist", "uniform", "--n", "10",
                           "--t", "1.0,2.0", "--p", "1,2",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        assert "verify: PASS" in out
        assert out.count("ok") >= 4

    def test_zero_threshold_rejected_before_sampling(self, capsys):
        code, _, err = run(capsys, "verify", "--dist", "uniform", "--n", "5",
                           "--t", "0.0,1.0", "--p", "1", "--trials", "20000")
        assert code == 2
        assert "positive" in err

    def test_seed_fixed_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "verify", "--dist", "bernoulli",
                             "--params", "q=0.3", "--n", "8", "--t", "1.0",
                             "--p", "2", "--trials", "20000", "--seed", "7",
                             "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TAILBOUND_SEED", "12345")
        code, out, _ = run(capsys, "verify", "--dist", "uniform", "--n", "4",
                           "--t", "0.5", "--p", "1", "--trials", "20000",
                           "--seed", "1")
        assert code == 0
        assert "seed=12345" in out

    def test_negative_seed_is_bad_configuration(self, capsys, monkeypatch):
        argv = ["verify", "--dist", "uniform", "--n", "4", "--t", "0.5",
                "--p", "1", "--trials", "1000"]
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: the seed must be a nonnegative integer; got -1\n"
        monkeypatch.setenv("TAILBOUND_SEED", "-1")
        assert run(capsys, *argv, "--seed", "1") == (2, "", err)

    @pytest.mark.parametrize("orders", ["2,3", "3,4"])
    def test_bennett_family(self, capsys, orders):
        code, out, err = run(capsys, "verify", "--family", "bennett",
                             "--dist", "truncexp", "--params", "b=1,rate=1",
                             "--n", "10", "--t", "2.0", "--p", orders,
                             "--trials", "20000", "--seed", "3")
        assert code == 0, err
        assert "verify: PASS" in out


class TestConfigFile:
    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist=uniform\nn=40\nt=10\np=1\n")
        code, out, _ = run(capsys, "bound", "--config", str(cfg))
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) \
            == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist=uniform\nn=40\nt=10\np=1\n")
        code, out, _ = run(capsys, "bound", "--config", str(cfg), "--n", "10")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) \
            == pytest.approx(math.exp(-2 * 100 / 10), rel=1e-13)

    def test_boolean_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist=uniform\nn=40\nt=0.25\np=1\nper_var=true\n")
        code, out, _ = run(capsys, "bound", "--config", str(cfg))
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == 10.0

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "bound", "--config", "/no/such/file",
                           "--t", "1")
        assert code == 2
        assert "config" in err.lower()

    def test_config_file_that_is_not_text(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"dist=uniform\n\xff\xfe=1\n")
        code, out, err = run(capsys, "bound", "--config", str(cfg),
                             "--t", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file ")


class TestFileErrors:
    """A file the command cannot read or write is bad configuration: exit
    2 with one error line, as for --config, not a traceback."""

    def test_data_file_that_does_not_exist(self, capsys, tmp_path):
        missing = tmp_path / "no-such-file.csv"
        code, out, err = run(capsys, "bound", "--data", str(missing),
                             "--support=0,1", "--n", "10", "--t", "1",
                             "--p", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read data file ")
        assert str(missing) in err and err.count("\n") == 1

    def test_data_path_that_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "moments", "--data", str(tmp_path),
                           "--support", "0,1", "--p", "2")
        assert code == 2
        assert err.startswith("error: cannot read data file ")

    def test_data_file_that_is_not_text(self, capsys, tmp_path):
        data = tmp_path / "values.bin"
        data.write_bytes(b"0.5\n\xff\xfe\n")
        code, _, err = run(capsys, "moments", "--data", str(data),
                           "--support", "0,1", "--p", "2")
        assert code == 2
        assert err.startswith("error: cannot read data file ")

    @pytest.mark.parametrize("command", [
        ["bound", "--dist", "uniform", "--n", "10", "--t", "1", "--p", "2"],
        ["moments", "--dist", "uniform", "--format", "json"],
        ["verify", "--dist", "uniform", "--n", "2", "--t", "0.5",
         "--trials", "1000"],
    ])
    def test_output_path_that_cannot_be_written(self, capsys, tmp_path,
                                                command):
        target = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run(capsys, *command, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output file ")
        assert str(target) in err and err.count("\n") == 1
        assert not target.parent.exists()


class TestOutputFormats:
    def test_csv_uses_17_significant_digits(self, capsys):
        code, out, _ = run(capsys, "bound", "--dist", "uniform", "--n", "3",
                           "--t", "0.7", "--p", "2")
        assert code == 0
        bound_text = out.strip().splitlines()[1].split(",")[3]
        assert float(bound_text) == float(format(float(bound_text), ".17g"))
        assert len(bound_text.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_csv_no_trailing_whitespace(self, capsys):
        code, out, _ = run(capsys, "bound", "--dist", "uniform", "--n", "2",
                           "--t", "0.5", "--p", "1")
        assert code == 0
        for line in out.splitlines():
            assert line == line.strip()


def _fmt_per_entry(value):
    """The CSV cell of a value, formatting each entry of a sequence on its
    own: the reference for the run-wise formatter."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt_per_entry(v) for v in value)
    return str(value)


def _copy(x):
    # an equal float that is a distinct object, with the same bits (NaN
    # payload and sign included)
    return struct.unpack("d", struct.pack("d", x))[0]


class TestRunWiseFormatting:
    """A sequence cell formats each run of one object once; the text must
    be what formatting every entry gives."""

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])),
               min_size=1, max_size=6),
           picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4),
                                    st.booleans()), max_size=12))
    def test_matches_per_entry_formatting(self, pool, picks):
        items = []
        for i, count, fresh in picks:
            x = pool[i % len(pool)]
            items += [_copy(x) for _ in range(count)] if fresh else [x] * count
        for seq in (items, tuple(items)):
            assert _fmt(seq) == _fmt_per_entry(seq)

    def test_signed_zeros_in_one_run_of_equal_values(self):
        zero, negative = 0.0, -0.0
        assert zero == negative
        assert _fmt([zero, zero, negative, negative, zero]) == "0;0;-0;-0;0"

    @pytest.mark.parametrize("argv", [
        ["--family", "both", "--p", "2,3,4"],
        ["--two-sided", "--p", "1,2,3"],
    ])
    def test_per_var_csv_matches_per_entry_formatting(self, capsys,
                                                      monkeypatch, argv):
        argv = ["bound", "--dist", "beta", "--params", "a=2,b=3", "--n",
                "1000", "--t", "0.01:0.1:4", "--per-var", *argv]
        code, out, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "_fmt", _fmt_per_entry)
        ref_code, ref, _ = run(capsys, *argv)
        assert code == ref_code == 0
        assert out == ref
        cells = [line.split(",")[7] for line in out.splitlines()[1:]
                 if line.startswith("hoeffding")]
        assert len(cells) == 12
        assert all(len(cell.split(";")) == 1000 for cell in cells)


class TestThresholdGrid:
    """lo:hi:k grids are built without numpy, by np.linspace's arithmetic.
    Their ends are finite: the CLI rejects a NaN or infinite end first."""

    @settings(max_examples=500, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False),
           k=st.integers(0, 300))
    def test_matches_numpy_linspace_bit_for_bit(self, lo, hi, k):
        with np.errstate(all="ignore"):
            want = [float(v) for v in np.linspace(lo, hi, k)]
        got = _linspace(lo, hi, k)
        assert [struct.pack("<d", v) for v in got] \
            == [struct.pack("<d", v) for v in want]

    @pytest.mark.parametrize("grid", ["nan:1:3", "0.1:inf:3"])
    def test_non_finite_ends(self, capsys, grid):
        code, _, err = run(capsys, "bound", "--dist", "uniform", "--t", grid)
        assert code == 2
        assert f"threshold grid ends must be finite; got {grid!r}" in err

    @pytest.mark.parametrize("k, message", [("0", "empty threshold grid"),
                                            ("-1", "must be non-negative")])
    def test_empty_and_negative_counts(self, capsys, k, message):
        code, _, err = run(capsys, "bound", "--dist", "uniform",
                           "--t", f"0.1:1:{k}")
        assert code == 2
        assert message in err
