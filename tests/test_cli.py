import csv
import io
import json
import math
import shutil

import pytest

from genbenford import (
    Benford,
    DigitHistogram,
    SequenceSpec,
    chi_square_stat,
    digit_histogram_of,
    fit_pb,
    goodness_of_fit,
    pmf_vector,
    reconstructed_histogram,
    survey_row,
)
from genbenford.cli import main

MIXING_COUNTS = "175,90,71,61,47,48,50,41,35"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPmf:
    def test_benford_csv(self, capsys):
        code, out, _ = run(capsys, "pmf", "--model", "benford")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digit,probability"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.30103, abs=5e-6)
        assert len(lines) == 10

    def test_benford_markdown_shows_rounded_value(self, capsys):
        code, out, _ = run(capsys, "pmf", "--model", "benford",
                           "--format", "markdown")
        assert code == 0
        assert "| 1 | 0.30103 |" in out

    def test_tspb_c1_equals_benford_output(self, capsys):
        _, benford_md, _ = run(capsys, "pmf", "--model", "benford",
                               "--format", "markdown")
        _, tspb_md, _ = run(capsys, "pmf", "--model", "tspb", "--c", "1",
                            "--format", "markdown")
        assert tspb_md == benford_md
        _, benford_csv, _ = run(capsys, "pmf", "--model", "benford")
        _, tspb_csv, _ = run(capsys, "pmf", "--model", "tspb", "--c", "1")
        for b_line, t_line in zip(benford_csv.splitlines()[1:],
                                  tspb_csv.splitlines()[1:]):
            assert float(t_line.split(",")[1]) == pytest.approx(
                float(b_line.split(",")[1]), abs=1e-14)

    def test_pb_deficit_line(self, capsys):
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--m", "1000")
        assert code == 0
        deficit_line = out.strip().splitlines()[-1]
        name, value = deficit_line.split(",")
        assert name == "deficit"
        assert float(value) == pytest.approx((1.0 / 3.0) * 1001.0 ** -2, rel=1e-12)

    def test_pb_json_includes_deficit(self, capsys):
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--m", "50", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["model"]["m"] == 50
        assert len(obj["probabilities"]) == 9
        assert "truncation_deficit" in obj

    def test_adaptive_truncation_flag(self, capsys):
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--m", "adaptive", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["truncation_deficit"] < 1e-10

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pmf", "--model", "tspb")
        assert code == 2
        assert "--c" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "pmf", "--model", "benford", "--bogus")
        assert code == 2


class TestFit:
    def test_counts_benford(self, capsys):
        code, out, _ = run(capsys, "fit", "--counts", MIXING_COUNTS,
                           "--model", "benford")
        assert code == 0
        assert "chi_square: 15.5503" in out
        assert "p_value: 4.93%" in out
        assert "df: 8" in out

    def test_seq_squares_pb(self, capsys):
        code, out, _ = run(capsys, "fit", "--seq", "squares", "100",
                           "--model", "pb", "--m", "100", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["chi_square"] == pytest.approx(0.362, abs=0.02)
        assert obj["df"] == 6
        assert obj["source"] == "squares(100)"

    def test_survey_truncation_mode(self, capsys):
        code, out, _ = run(capsys, "fit", "--seq", "catalan", "100",
                           "--model", "pb", "--m", "survey", "--format", "json")
        assert code == 0
        assert json.loads(out)["model"]["m"] == 5000

    def test_survey_mode_needs_surveyed_sequence(self, capsys):
        code, _, err = run(capsys, "fit", "--counts", MIXING_COUNTS,
                           "--model", "pb", "--m", "survey")
        assert code == 2

    def test_csv_format_round_trips(self, capsys):
        code, out, _ = run(capsys, "fit", "--counts", MIXING_COUNTS,
                           "--model", "tspb", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["model"] == "tspb"
        assert float(fields["chi_square"]) == pytest.approx(9.014, abs=0.02)

    def test_zero_counts_rejected(self, capsys):
        code, _, err = run(capsys, "fit", "--counts", "0,0,0,0,0,0,0,0,0",
                           "--model", "benford")
        assert code == 2

    def test_malformed_counts_rejected(self, capsys):
        for bad in ("1,2,3", "1,2,3,4,5,6,7,8,x", "1,2,3,4,5,6,7,8,-1"):
            code, _, _ = run(capsys, "fit", "--counts", bad, "--model", "benford")
            assert code == 2

    def test_missing_file_is_generator_failure(self, capsys):
        code, _, err = run(capsys, "fit", "--file", "/no/such/file.txt",
                           "--model", "benford")
        assert code == 1

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "vals.txt"
        path.write_text("# squares\n" + "\n".join(str(n * n) for n in range(1, 101)))
        code, out, _ = run(capsys, "fit", "--file", str(path),
                           "--model", "benford", "--format", "json")
        assert code == 0
        assert json.loads(out)["chi_square"] == pytest.approx(9.096, abs=0.01)

    def test_generator_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "fit", "--seq", "keith", "500",
                           "--model", "benford")
        assert code == 1


class TestTables:
    def test_digits_table_csv_row_values(self, capsys):
        code, out, _ = run(capsys, "tables", "--table", "digits",
                           "--format", "csv", "--rows", "square,mixing")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        sq = rows[0]
        assert sq["sequence"] == "Square"
        assert sq["source"] == "generated"
        assert float(sq["pct1"]) == 21.0
        mix = rows[1]
        assert mix["source"] == "reconstructed"
        assert float(mix["pct1"]) == pytest.approx(28.3, abs=0.05)

    def test_fits_table_matches_library_exactly(self, capsys):
        code, out, _ = run(capsys, "tables", "--table", "fits",
                           "--format", "csv", "--rows", "square,mixing,fibonacci")
        assert code == 0
        rows = {r["sequence"]: r for r in csv.DictReader(io.StringIO(out))}

        squares = digit_histogram_of(SequenceSpec("squares", 100))
        chi2, _, _ = goodness_of_fit(squares, Benford(), 0)
        assert rows["Square"]["benford_chi2"] == repr(chi2)

        mixing = reconstructed_histogram(survey_row("mixing"))
        pb = fit_pb(mixing, m=100)
        assert rows["Mixing sequence"]["pb_chi2"] == repr(pb.chi_square)
        assert rows["Mixing sequence"]["pb_m"] == "100"

        fib = rows["Fibonacci number"]
        assert float(fib["benford_chi2"]) == pytest.approx(1.029, abs=0.01)
        assert float(fib["benford_p"]) == pytest.approx(0.9981, abs=0.001)

    def test_markdown_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--table", "digits",
                           "--format", "markdown", "--rows", "fibonacci")
        assert code == 0
        assert out.startswith("| sequence |")
        assert "| Fibonacci number |" in out

    def test_row_failure_does_not_abort_others(self, capsys, monkeypatch):
        import genbenford.cli as cli

        original = cli.digit_histogram_of

        def flaky(spec):
            if spec.kind == "squares":
                raise RuntimeError("boom")
            return original(spec)

        monkeypatch.setattr(cli, "digit_histogram_of", flaky)
        code, out, _ = run(capsys, "tables", "--table", "digits",
                           "--format", "csv", "--rows", "square,fibonacci")
        assert code == 1  # a row failed...
        rows = list(csv.DictReader(io.StringIO(out)))
        labels = [r["sequence"] for r in rows]
        assert labels == ["Square", "Fibonacci number"]  # ...but both emitted
        assert "error" in rows[0]["pct1"]
        assert float(rows[1]["pct1"]) == 30.0

    def test_unknown_row_key(self, capsys):
        code, _, err = run(capsys, "tables", "--rows", "nope")
        assert code == 2


class TestVerify:
    def test_tspb_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "tspb", "--c", "2",
                           "--n", "200000", "--seed", "42")
        assert code == 0
        assert "verdict: pass" in out

    def test_pb_pass_with_adaptive_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--n", "200000", "--seed", "7")
        assert code == 0

    def test_csv_output_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "benford",
                           "--n", "1000", "--seed", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "digit,expected_probability,observed_frequency,z_score"
        assert len(lines) >= 10

    def test_small_n_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--model", "benford", "--n", "10")
        assert code == 2

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "verify", "--model", "benford", "--n", "5000",
                      "--seed", "3", "--format", "csv")
        _, b, _ = run(capsys, "verify", "--model", "benford", "--n", "5000",
                      "--seed", "3", "--format", "csv")
        assert a == b


class TestSeq:
    def test_fibonacci_export(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "fibonacci", "--param", "10")
        assert code == 0
        assert out == "1\n1\n2\n3\n5\n8\n13\n21\n34\n55\n"

    def test_export_reimports(self, capsys, tmp_path):
        path = tmp_path / "fib.txt"
        code, _, _ = run(capsys, "seq", "--kind", "fibonacci", "--param", "50",
                         "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "fit", "--file", str(path),
                           "--model", "benford", "--format", "json")
        assert code == 0
        assert json.loads(out)["model"]["model"] == "benford"

    def test_missing_param(self, capsys):
        code, _, _ = run(capsys, "seq", "--kind", "squares")
        assert code == 2


class TestDataDirOverride:
    def test_env_var_redirects_survey(self, capsys, tmp_path, monkeypatch):
        from genbenford import data_dir

        custom = tmp_path / "data"
        shutil.copytree(data_dir(), custom)
        text = (custom / "digit_survey.csv").read_text()
        # rename a label so the override is observable
        text = text.replace("Mixing sequence", "Blended sequence")
        (custom / "digit_survey.csv").write_text(text)

        monkeypatch.setenv("BENFORD_DATA_DIR", str(custom))
        code, out, _ = run(capsys, "tables", "--table", "digits",
                           "--format", "csv", "--rows", "mixing")
        assert code == 0
        assert "Blended sequence" in out


class TestExitCodes:
    """2 for a missing or invalid flag value, 1 for a failed computation."""

    def test_seq_param_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "seq", "--kind", "squares", "--param", "0")
        assert code == 2

    def test_overflowing_c_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pmf", "--model", "tspb", "--c", "1e400")
        assert code == 2
        assert "--c" in err

    def test_bad_tables_m_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables", "--table", "fits", "--rows", "square",
                         "--m", "0")
        assert code == 2

    def test_m_past_float_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--counts", "30,17,12,10,8,7,6,5,5",
                           "--model", "pb", "--m", str(2 ** 1024))
        assert code == 2
        assert "--m" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--model", "benford", "--n", "1000",
                         "--seed", "-1")
        assert code == 2

    def test_unreachable_adaptive_truncation_is_failure(self, capsys):
        code, _, err = run(capsys, "pmf", "--model", "pb", "--alpha", "0.001",
                           "--beta", "1", "--m", "adaptive")
        assert code == 1
        assert "terms" in err

    def test_huge_integer_in_file_is_failure(self, capsys, tmp_path):
        # past int()'s digit limit the value is read as float inf: a failed
        # computation on the file's data, not a bad flag
        path = tmp_path / "big.txt"
        path.write_text("7" + "0" * 4999 + "\n")
        code, _, _ = run(capsys, "fit", "--file", str(path), "--model", "benford")
        assert code == 1


def test_tables_adaptive_m_matches_fit(capsys):
    code, out, _ = run(capsys, "tables", "--table", "fits", "--rows", "square",
                       "--m", "adaptive", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    code, out, _ = run(capsys, "fit", "--seq", "squares", "100", "--model", "pb",
                       "--m", "adaptive", "--format", "json")
    assert code == 0
    fit = json.loads(out)
    assert row["pb_m"] == str(fit["model"]["m"])
    assert row["pb_chi2"] == repr(fit["chi_square"])
