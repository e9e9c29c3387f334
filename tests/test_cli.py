import csv
import io
import json
import math
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from genbenford import (
    PB,
    Benford,
    DigitHistogram,
    FitResult,
    SequenceSpec,
    digit_histogram_of,
    fit_pb,
    fit_tspb,
    goodness_of_fit,
    load_survey,
    pmf_vector,
    verification_report,
)
from genbenford.cli import main
from genbenford.reference import SurveyRow

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

    def test_pb_past_float_max(self, capsys):
        # alpha + beta overflows: the weights are halved, not lost to 0
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "1e308",
                           "--beta", "1e308", "--m", "100")
        assert code == 0
        assert out == ("digit,probability\n1,0.5\n" + "".join(f"{d},0.0\n" for d in range(2, 9))
                       + "9,0.5\ndeficit,0.0\n")

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
        assert fields["params"].startswith("c=")
        assert float(fields["params"][2:]) == pytest.approx(2.5396, abs=1e-3)
        assert fields["df"] == "7"

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
        # a Keith count past the 71 bundled numbers is a bad flag value
        code, _, err = run(capsys, "fit", "--seq", "keith", "500",
                           "--model", "benford")
        assert code == 2
        assert "only 71" in err

    def test_seq_keith_past_bundle_is_usage_error(self, capsys):
        code, out, err = run(capsys, "seq", "--kind", "keith", "--param", "72")
        assert code == 2
        assert out == ""
        assert "only 71" in err


class TestTables:
    def test_survey_markdown_is_the_committed_table(self, capsys):
        # all 19 rows, both tables, each row at its survey m: byte for byte
        code, out, err = run(capsys, "tables", "--format", "markdown")
        assert (code, err) == (0, "")
        expected = Path(__file__).parent / "data" / "survey_tables.md"
        assert out.encode() == expected.read_bytes()

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

        mixing = next(r for r in load_survey() if r.key == "mixing").histogram()
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
        import genbenford.sequences as sequences

        original = sequences.digit_histogram_of

        def flaky(spec):
            if spec.kind == "squares":
                raise RuntimeError("boom")
            return original(spec)

        monkeypatch.setattr(sequences, "digit_histogram_of", flaky)
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

    def test_empty_rows_is_usage_error(self, capsys):
        # an empty list names one empty key, as "square," does
        code, out, err = run(capsys, "tables", "--rows", "")
        assert (code, out) == (2, "")
        assert "unknown survey keys" in err

    @pytest.mark.parametrize("rows", ["square,", "", " , square"])
    def test_empty_row_key_is_named(self, capsys, rows):
        code, out, err = run(capsys, "tables", "--rows", rows)
        assert (code, out, err) == (2, "", "error: unknown survey keys: ''\n")


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
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(math.log10(2), abs=1e-12)

    def test_small_n_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--model", "benford", "--n", "10")
        assert code == 2

    def test_a_truncation_deficit_holding_draws_is_a_failure(self, capsys):
        # 12.4% of DP(1, 0.05, 3)'s draws lie past W = m + 1, where PB's
        # pmf has no mass; they used to give a FAIL with max |z| = 349
        code, out, err = run(capsys, "verify", "--model", "pb", "--alpha", "0.05", "--beta", "3",
                             "--m", str(10 ** 18), "--n", "1000000")
        assert (code, out) == (1, "")
        assert err == ("failure: the pmf lacks mass 0.124, about 123829 of the 1000000 "
                       "draws: raise the truncation m\n")

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

    @pytest.mark.parametrize("argv", [
        ("fit", "--seq", "nosuch", "10", "--model", "benford"),
        ("seq", "--kind", "nosuch", "--param", "3"),
        ("seq", "--kind", "custom_file"),
    ])
    def test_bad_sequence_kind_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "sequence kind" in err

    @pytest.mark.parametrize("m", ["100", "1000", "5000"])
    def test_degenerate_pb_fit_succeeds(self, capsys, m):
        # the coarse stage reaches alpha ~ 1e-22, where the series' cells
        # round to about -3e-32
        code, out, _ = run(capsys, "fit", "--counts", "1,0,0,0,0,0,0,0,0",
                           "--model", "pb", "--m", m, "--format", "json")
        assert code == 0
        assert json.loads(out)["chi_square"] >= 0

    def test_overflowing_c_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pmf", "--model", "tspb", "--c", "1e400")
        assert code == 2
        assert "--c" in err

    def test_bad_tables_m_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables", "--table", "fits", "--rows", "square",
                         "--m", "0")
        assert code == 2

    _LAW_FLAGS = {"benford": (), "tspb": ("--c", "2"), "pb": ("--alpha", "1", "--beta", "1")}
    _COMMANDS = {"fit": ("fit", "--counts", MIXING_COUNTS), "pmf": ("pmf",),
                 "verify": ("verify", "--n", "1000", "--seed", "1")}

    @pytest.mark.parametrize("law", list(_LAW_FLAGS))
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_junk_m_is_usage_error_under_every_law(self, capsys, command, law):
        params = self._LAW_FLAGS[law] if command != "fit" else ()
        code, out, err = run(capsys, *self._COMMANDS[command], "--model", law, *params,
                             "--m", "junk")
        assert (code, out) == (2, "")
        assert err == "error: --m must be an integer, 'adaptive' or 'survey', got 'junk'\n"

    def test_junk_tables_m_is_usage_error(self, capsys):
        code, out, err = run(capsys, "tables", "--table", "fits", "--m", "junk")
        assert (code, out) == (2, "")
        assert err == "error: --m must be an integer, 'adaptive' or 'survey', got 'junk'\n"

    @pytest.mark.parametrize("law", ["benford", "tspb"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_valid_m_leaves_a_law_without_m_alone(self, capsys, command, law):
        params = self._LAW_FLAGS[law] if command != "fit" else ()
        argv = (*self._COMMANDS[command], "--model", law, *params)
        plain = run(capsys, *argv)
        assert plain[0] == 0
        for m in ("5", "adaptive", "survey"):  # a loop, not a parameter: the test ids stay
            assert run(capsys, *argv, "--m", m) == plain

    def test_m_past_float_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--counts", "30,17,12,10,8,7,6,5,5",
                           "--model", "pb", "--m", str(2 ** 1024))
        assert code == 2
        assert "--m" in err

    @pytest.mark.parametrize("counts", ["1,2,3,4,5,6,7,8,-1", "0,0,0,0,0,0,0,0,0",
                                        "1,2,3,4,5,6,7,8,x", "1,,2,3,4,5,6,7,8,9"])
    def test_bad_counts_name_the_flag(self, capsys, counts):
        code, _, err = run(capsys, "fit", "--counts", counts, "--model", "benford")
        assert code == 2
        assert "--counts" in err

    @pytest.mark.parametrize("argv,flag", [
        (("pmf", "--model", "benford", "--c", "3", "--m", "5"), "--c"),
        (("pmf", "--model", "tspb", "--c", "2", "--beta", "1"), "--beta"),
        (("verify", "--model", "benford", "--c", "3", "--n", "1000"), "--c"),
        (("verify", "--model", "tspb", "--c", "2", "--alpha", "1", "--n", "1000"), "--alpha"),
    ])
    def test_law_flag_the_law_lacks_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{flag} does not apply to --model" in err

    @pytest.mark.parametrize("argv", [
        ("fit", "--counts", MIXING_COUNTS, "--model", "tspb", "--c", "3"),
        ("fit", "--counts", MIXING_COUNTS, "--model", "pb", "--alpha", "2", "--beta", "1"),
        ("pmf", "--mod", "benford"),
        ("tables", "--row", "square"),
    ])
    def test_unread_or_abbreviated_flag_is_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")

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
        # past Python's 4,300-digit int() limit the value is still read
        # exactly, and the fit succeeds: one value with digit 7 has Benford
        # chi-square 1/p7 - 1
        path = tmp_path / "big.txt"
        path.write_text("7" + "0" * 4999 + "\n")
        code, out, _ = run(capsys, "fit", "--file", str(path), "--model", "benford",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["chi_square"] == pytest.approx(1 / math.log10(8 / 7) - 1)


@pytest.mark.parametrize("command", ["pmf", "fit", "tables", "verify", "seq"])
def test_help_exits_0(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: genbenford {command}")
    # fit estimates the law's parameters: it takes none of them as flags
    assert ("--c C" in out) == (command in ("pmf", "verify"))


def test_tables_builds_each_row_histogram_once(capsys, monkeypatch):
    # both tables of a row share one generated histogram
    built = []
    histogram = SurveyRow.histogram

    def counted(row):
        built.append(row.key)
        return histogram(row)

    monkeypatch.setattr(SurveyRow, "histogram", counted)
    code, _, _ = run(capsys, "tables", "--table", "both", "--rows", "ulam,lucky",
                     "--m", "100", "--format", "csv")
    assert code == 0
    assert sorted(built) == ["lucky", "ulam"]


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


class TestIdoneal:
    """The 65 bundled idoneal numbers are fitted as idoneal(65), whether
    asked for as 0 or 65; any other count is a bad flag value."""

    def test_survey_fit_names_what_was_fitted(self, capsys):
        code, out, _ = run(capsys, "fit", "--seq", "idoneal", "65", "--model", "pb",
                           "--m", "survey", "--format", "json")
        assert code == 0
        fit = json.loads(out)
        assert fit["source"] == "idoneal(65)"
        assert fit["model"]["m"] == 100

    def test_zero_fits_the_same_65_values(self, capsys):
        _, all65, _ = run(capsys, "fit", "--seq", "idoneal", "65", "--model", "benford",
                          "--format", "json")
        code, out, _ = run(capsys, "fit", "--seq", "idoneal", "0", "--model", "benford",
                           "--format", "json")
        assert code == 0
        assert out == all65

    @pytest.mark.parametrize("n", ["5", "64", "66", "-1"])
    def test_other_counts_are_usage_errors(self, capsys, n):
        code, _, err = run(capsys, "fit", "--seq", "idoneal", n, "--model", "benford")
        assert code == 2
        assert "idoneal" in err

    def test_negative_seq_param_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "idoneal", "--param", "-5")
        assert code == 2
        assert out == ""


MIXING = DigitHistogram.from_counts([175, 90, 71, 61, 47, 48, 50, 41, 35])


class TestExactFormat:
    """Markdown is pinned byte for byte; every CSV and JSON cell parses to
    the library's value exactly."""

    def test_pb_pmf_markdown(self, capsys):
        code, out, err = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                             "--beta", "1", "--m", "1000", "--format", "markdown")
        assert (code, err) == (0, "")
        assert out == (
            "| digit | probability |\n"
            "| --- | --- |\n"
            "| 1 | 0.37132 |\n"
            "| 2 | 0.17702 |\n"
            "| 3 | 0.11568 |\n"
            "| 4 | 0.08565 |\n"
            "| 5 | 0.06787 |\n"
            "| 6 | 0.05614 |\n"
            "| 7 | 0.04783 |\n"
            "| 8 | 0.04164 |\n"
            "| 9 | 0.03685 |\n"
            "\n"
            "truncation deficit: 3.326677e-07\n")

    @pytest.mark.parametrize("argv,expected", [
        (("--model", "benford"),
         "source: counts\nmodel: benford\nchi_square: 15.5503\ndf: 8\n"
         "p_value: 4.93%\nconverged: True\nevaluations: 1\n"),
        (("--model", "tspb"),
         "source: counts\nmodel: tspb\nc: 2.53958\nchi_square: 9.01359\ndf: 7\n"
         "p_value: 25.17%\nconverged: True\nevaluations: 1761\n"),
        (("--model", "pb", "--m", "100"),
         "source: counts\nmodel: pb\nalpha: 4.78641\nbeta: 1.83119\nm: 100\n"
         "chi_square: 1.81929\ndf: 6\np_value: 93.55%\nconverged: True\n"
         "evaluations: 10593\n"),
    ])
    def test_fit_markdown(self, capsys, argv, expected):
        code, out, err = run(capsys, "fit", "--counts", MIXING_COUNTS, *argv)
        assert (code, out, err) == (0, expected, "")

    def test_verify_markdown(self, capsys):
        code, out, err = run(capsys, "verify", "--model", "benford", "--n", "1000",
                             "--seed", "1")
        assert (code, err) == (0, "")
        assert out == (
            "| digit | expected_probability | observed_frequency | z_score |\n"
            "| --- | --- | --- | --- |\n"
            "| 1 | 0.301030 | 0.304000 | +0.205 |\n"
            "| 2 | 0.176091 | 0.183000 | +0.574 |\n"
            "| 3 | 0.124939 | 0.111000 | -1.333 |\n"
            "| 4 | 0.096910 | 0.089000 | -0.846 |\n"
            "| 5 | 0.079181 | 0.077000 | -0.255 |\n"
            "| 6 | 0.066947 | 0.079000 | +1.525 |\n"
            "| 7 | 0.057992 | 0.050000 | -1.081 |\n"
            "| 8 | 0.051153 | 0.055000 | +0.552 |\n"
            "| 9 | 0.045757 | 0.052000 | +0.945 |\n"
            "\n"
            "chi_square: 6.9736\n"
            "max |z|: 1.525\n"
            "verdict: pass (threshold: all |z| < 4)\n")

    def test_tables_markdown(self, capsys):
        code, out, err = run(capsys, "tables", "--table", "both", "--rows", "mixing",
                             "--m", "100")
        assert (code, err) == (0, "")
        assert out == (
            "| sequence | n | source | pct1 | pct2 | pct3 | pct4 | pct5 | pct6 | pct7 "
            "| pct8 | pct9 |\n"
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
            "| Mixing sequence | 618 | reconstructed | 28.3 | 14.6 | 11.5 | 9.9 | 7.6 "
            "| 7.8 | 8.1 | 6.6 | 5.7 |\n"
            "\n"
            "| sequence | n | source | benford_chi2 | benford_p | tspb_c | tspb_chi2 "
            "| tspb_p | pb_alpha | pb_beta | pb_m | pb_chi2 | pb_p |\n"
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- "
            "| --- |\n"
            "| Mixing sequence | 618 | reconstructed | 15.550 | 4.93 | 2.53958 | 9.014 "
            "| 25.17 | 4.78641 | 1.83119 | 100 | 1.819 | 93.55 |\n")

    def test_pb_pmf_csv_and_json(self, capsys):
        law = PB(2.0, 1.0, 1000)
        probs = pmf_vector(law).tolist()
        deficit = law.deficit()
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--m", "1000")
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()]
        assert lines[0] == ["digit", "probability"]
        assert [int(d) for d, _ in lines[1:10]] == list(range(1, 10))
        assert [float(p) for _, p in lines[1:10]] == probs
        assert lines[10][0] == "deficit" and float(lines[10][1]) == deficit
        assert len(lines) == 11
        code, out, _ = run(capsys, "pmf", "--model", "pb", "--alpha", "2",
                           "--beta", "1", "--m", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"model": {"model": "pb", "alpha": 2.0, "beta": 1.0,
                                             "m": 1000},
                                   "probabilities": probs,
                                   "truncation_deficit": deficit}

    @pytest.mark.parametrize("argv,fit", [
        (("--model", "benford"),
         lambda: FitResult(Benford(), *goodness_of_fit(MIXING, Benford(), 0),
                           converged=True, evaluations=1)),
        (("--model", "tspb"), lambda: fit_tspb(MIXING)),
        (("--model", "pb", "--m", "100"), lambda: fit_pb(MIXING, m=100)),
    ])
    def test_fit_csv_and_json(self, capsys, argv, fit):
        r = fit()
        model, chi2, df, p = r.model, r.chi_square, r.df, r.p_value
        params = asdict(model)
        code, out, _ = run(capsys, "fit", "--counts", MIXING_COUNTS, *argv,
                           "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert list(row) == ["sequence", "model", "params", "chi_square", "df",
                             "p_value"]
        assert (row["sequence"], row["model"]) == ("counts", model.tag)
        cells = dict(kv.split("=") for kv in row["params"].split(";") if kv)
        assert {k: type(params[k])(v) for k, v in cells.items()} == params
        assert float(row["chi_square"]) == chi2
        assert int(row["df"]) == df
        assert float(row["p_value"]) == p
        code, out, _ = run(capsys, "fit", "--counts", MIXING_COUNTS, *argv,
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"model": {"model": model.tag, **params},
                                   "chi_square": chi2, "df": df, "p_value": p,
                                   "converged": True, "evaluations": r.evaluations,
                                   "source": "counts"}

    def test_verify_csv(self, capsys):
        report = verification_report(Benford(), 1000, 1)
        code, out, _ = run(capsys, "verify", "--model", "benford", "--n", "1000",
                           "--seed", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "verdict: pass (threshold: all |z| < 4)"
        rows = list(csv.reader(lines[1:-1]))
        assert [int(r[0]) for r in rows] == list(range(1, 10))
        assert [float(r[1]) for r in rows] == list(report.expected)
        assert [float(r[2]) for r in rows] == list(report.observed)
        assert [float(r[3]) for r in rows] == list(report.z_scores)

    def test_tables_csv(self, capsys):
        row = next(r for r in load_survey() if r.key == "mixing")
        hist = row.histogram()
        code, out, _ = run(capsys, "tables", "--table", "both", "--rows", "mixing",
                           "--m", "100", "--format", "csv")
        assert code == 0
        digits_block, fits_block = out.split("\n\n")
        (digits,) = csv.DictReader(io.StringIO(digits_block))
        assert [digits[f"pct{d}"] for d in range(1, 10)] == [
            f"{p:.1f}" for p in hist.percentages()]
        (fits,) = csv.DictReader(io.StringIO(fits_block))
        assert (fits["sequence"], int(fits["n"]), fits["source"]) == (
            row.label, row.n, "reconstructed")
        b_chi2, _, b_p = goodness_of_fit(hist, Benford(), 0)
        t, pb = fit_tspb(hist), fit_pb(hist, m=100)
        assert [float(fits[k]) for k in ("benford_chi2", "benford_p")] == [b_chi2, b_p]
        assert [float(fits[k]) for k in ("tspb_c", "tspb_chi2", "tspb_p")] == [
            t.model.c, t.chi_square, t.p_value]
        assert [float(fits[k]) for k in ("pb_alpha", "pb_beta", "pb_chi2", "pb_p")] == [
            pb.model.alpha, pb.model.beta, pb.chi_square, pb.p_value]
        assert int(fits["pb_m"]) == 100
