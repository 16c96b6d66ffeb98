import json
from fractions import Fraction

import pytest

import statcover.cli as cli
from statcover.cli import main, parse_group, parse_set_file


def write_set(tmp_path, name, group, elements):
    path = tmp_path / name
    path.write_text(json.dumps({"group": group, "elements": elements}), encoding="utf-8")
    return str(path)


def strip_timings(payload):
    out = dict(payload)
    out.pop("timings", None)
    return out


class TestGroupGrammar:
    def test_power_form(self):
        assert parse_group("2^5").moduli == (2,) * 5

    def test_product_form(self):
        assert parse_group("2x2x4").moduli == (2, 2, 4)

    def test_single_modulus(self):
        assert parse_group("12").moduli == (12,)

    def test_garbage_rejected(self):
        with pytest.raises(cli.SetFileError):
            parse_group("2^x")


class TestSetFiles:
    def test_roundtrip(self, tmp_path):
        path = write_set(tmp_path, "a.json", [2, 2], [[0, 1], [1, 0]])
        spec, A = parse_set_file(path)
        assert spec.moduli == (2, 2)
        assert sorted(e.coords for e in A) == [(0, 1), (1, 0)]

    def test_out_of_range_coordinate(self, tmp_path):
        path = write_set(tmp_path, "bad.json", [2], [[4]])
        with pytest.raises(cli.SetFileError, match="out of range"):
            parse_set_file(path)

    def test_duplicate_elements(self, tmp_path):
        path = write_set(tmp_path, "dup.json", [2, 2], [[0, 1], [0, 1]])
        with pytest.raises(cli.SetFileError, match="duplicates"):
            parse_set_file(path)

    def test_json_syntax_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"group": [2], "elements": [[0]', encoding="utf-8")
        with pytest.raises(cli.SetFileError, match="line"):
            parse_set_file(str(path))

    def test_cli_exit_code_for_bad_input(self, tmp_path, capsys):
        path = write_set(tmp_path, "bad.json", [2], [[4]])
        assert main(["cover", "--input", path, "--delta", "1/2"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestGen:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "gen",
                        "--group",
                        "2x2x2",
                        "--kind",
                        "random",
                        "--size",
                        "4",
                        "--seed",
                        "7",
                        "--output",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_order_above_int64_limit_is_bad_input(self, capsys):
        assert main(["gen", "--group", "2^70", "--kind", "independent"]) == 2
        err = capsys.readouterr().err
        assert "exceeds the limit 2**63" in err
        assert "out of range" not in err

    def test_generated_file_parses(self, tmp_path):
        out = tmp_path / "g.json"
        main(["gen", "--group", "3^3", "--kind", "independent", "--output", str(out)])
        spec, A = parse_set_file(out)
        assert len(A) == 4


class TestCover:
    def test_frozen_z7_example(self, tmp_path, capsys):
        path = write_set(tmp_path, "z7.json", [7], [[0], [1], [2]])
        code = main(["cover", "--input", path, "--delta", "1/2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["X"]["elements"] == [[0], [2]]
        assert payload["results"]["K"] == {"num": 5, "den": 3}
        assert all(c["holds"] for c in payload["checks"])

    def test_rational_flag_is_exact(self, tmp_path, capsys):
        path = write_set(tmp_path, "z7.json", [7], [[0], [1], [2]])
        main(["cover", "--input", path, "--delta", "1/3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == {"num": 1, "den": 3}

    def test_report_determinism_modulo_timings(self, tmp_path):
        path = write_set(tmp_path, "z7.json", [7], [[0], [1], [2]])
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["cover", "--input", path, "--delta", "1/2", "--output", str(out)])
            outs.append(strip_timings(json.loads(out.read_text())))
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)

    def test_csv_sweep_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "cover",
                "--group",
                "2^4",
                "--delta",
                "1/2",
                "--count",
                "3",
                "--seed",
                "5",
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,seed,K_num,K_den,delta,X_size,bound_num,bound_den,holds"
        assert len(lines) == 1 + 3 * 4  # four families
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[0] in ("random", "independent", "subgroup", "coset_union")
            assert fields[-1] == "true"
            K = Fraction(int(fields[2]), int(fields[3]))
            bound = Fraction(int(fields[6]), int(fields[7]))
            assert Fraction(int(fields[5])) <= bound

    def test_csv_for_a_single_input_is_bad_input(self, tmp_path, capsys):
        path = write_set(tmp_path, "z7.json", [7], [[0], [1], [2]])
        assert main(["cover", "--input", path, "--delta", "1/2", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "--format csv applies to the --group sweep only" in captured.err
        assert captured.out == ""

    def test_failed_check_forces_exit_3(self, tmp_path, monkeypatch):
        path = write_set(tmp_path, "z7.json", [7], [[0], [1], [2]])
        monkeypatch.setattr(cli, "verify_covered", lambda *a, **k: (False, Fraction(0)))
        out = tmp_path / "r.json"
        assert (
            main(["cover", "--input", path, "--delta", "1/2", "--output", str(out)]) == 3
        )


class TestOtherCommands:
    def test_chang_report(self, tmp_path, capsys):
        path = write_set(tmp_path, "z4.json", [4], [[0], [1]])
        code = main(["chang", "--input", path, "--kappa", "1", "--eta", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["energies"][0] == {"num": 2, "den": 1}
        assert all(c["holds"] for c in payload["checks"])

    def test_chang_step_cap_above_limit_is_bad_input(self, tmp_path, capsys, monkeypatch):
        # Z_7 x Z_11 x Z_13: a tiny kappa puts the energy-floor cap near 2e13
        path = write_set(
            tmp_path, "c.json", [7, 11, 13],
            [[0, 10, 7], [4, 0, 10], [5, 5, 2], [5, 8, 2], [6, 0, 9]],
        )
        tiny = ["--input", path, "--kappa", "1/1000000000000", "--eta", "1/4"]
        monkeypatch.setattr(cli, "CHANG_STEP_LIMIT", 3)
        assert main(["chang", *tiny]) == 2
        err = capsys.readouterr().err
        assert "k_max 21197267467523 exceeds the chang step limit 3" in err
        assert "had not stopped after 3 steps" in err
        assert "Traceback" not in err
        assert main(["chang", *tiny, "--k", "4"]) == 2
        assert "k_max 4 exceeds the chang step limit 3" in capsys.readouterr().err
        assert main(["chang", *tiny, "--k", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_max"] == 3
        assert payload["results"]["kind"] == "decrement"
        assert payload["results"]["path_length"] == 3

    def test_chang_stopping_early_runs_past_step_limit(self, tmp_path, capsys):
        # the subgroup {0} x Z_11 x {0} is invariant under its own elements, so
        # the run stops at once however large the energy-floor cap is
        path = write_set(
            tmp_path, "h.json", [7, 11, 13], [[0, b, 0] for b in range(11)]
        )
        tiny = ["--input", path, "--kappa", "1/1000000000000", "--eta", "1/4"]
        over = cli.CHANG_STEP_LIMIT + 1
        for extra, k_max in (([], 18043438026067), (["--k", str(over)], over)):
            assert main(["chang", *tiny, *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["k_max"] == k_max
            assert payload["results"]["kind"] == "invariant"
            assert payload["results"]["path_length"] == 0
            assert payload["results"]["witness_count"] == 11

    def test_spectrum_report(self, tmp_path, capsys):
        path = write_set(tmp_path, "v.json", [2, 2], [[0, 0], [0, 1]])
        code = main(["spectrum", "--input", path, "--epsilon", "1/2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["spectrum_characters"] == [0, 2]
        assert payload["results"]["annihilator"]["elements"] == [[0, 0], [0, 1]]

    @pytest.mark.parametrize(
        "epsilon, message",
        [
            ("1e400", "spectrum threshold must lie in (0, 1]"),
            ("1e-400", "below the least positive double"),
        ],
    )
    def test_spectrum_epsilon_past_the_doubles_is_bad_input(
        self, tmp_path, capsys, epsilon, message
    ):
        path = write_set(tmp_path, "v.json", [2, 2], [[0, 0], [0, 1]])
        assert main(["spectrum", "--input", path, "--epsilon", epsilon]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kappa, message",
        [
            ("1e400", "kappa must lie in (0, 1]"),
            ("1e-400", "below the least positive double"),
        ],
    )
    def test_chang_kappa_past_the_doubles_is_bad_input(self, tmp_path, capsys, kappa, message):
        path = write_set(tmp_path, "z4.json", [4], [[0], [1]])
        assert main(["chang", "--input", path, "--kappa", kappa, "--eta", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--epsilon", "1e400"], "got ~1.00000e+400"),
            (["spectrum", "--epsilon=-3e5000"], "got ~-3.00000e+5000"),
            (["spectrum", "--epsilon=-1/3"], "got -1/3"),
            (["chang", "--kappa", "1e400", "--eta", "1"], "got ~1.00000e+400"),
            (["chang", "--kappa", "1", "--eta", "2e400"], "got ~2.00000e+400"),
            (["cover", "--delta=-1e-400"], "got ~-1.00000e-400"),
        ],
    )
    def test_range_messages_stay_short(self, tmp_path, capsys, argv, message):
        # a value with hundreds of digits shows six; a short one shows exactly
        path = write_set(tmp_path, "z4.json", [4], [[0], [1]])
        assert main([*argv, "--input", path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert all(len(line) < 160 for line in err.splitlines())

    def test_pipeline_report(self, tmp_path, capsys):
        path = write_set(tmp_path, "sub.json", [2, 4], [[0, 0], [0, 2]])
        code = main(["pipeline", "--input", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["ratio"] == {"num": 1, "den": 1}
        assert all(c["holds"] for c in payload["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--group", "2^3"],
            ["chang", "--input", "A.json", "--kappa", "1", "--eta", "1"],
            ["spectrum", "--input", "A.json", "--epsilon", "1/2"],
            ["pipeline", "--input", "A.json"],
            ["verify-lemmas", "--group", "2^3"],
        ],
    )
    def test_format_is_a_cover_option_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["-1", "19"])
    def test_pipeline_cap_past_the_limit_is_bad_input(self, tmp_path, capsys, cap):
        path = write_set(tmp_path, "sub.json", [2, 4], [[0, 0], [0, 2]])
        assert main(["pipeline", "--input", path, "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert f"cap {cap} must lie in [0, 18]" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_pipeline_cap_limits_accepted(self, tmp_path, capsys):
        path = write_set(tmp_path, "sub.json", [2, 4], [[0, 0], [0, 2]])
        assert cli.EXHAUSTIVE_SUBSET_CAP == 18
        for cap, mode in (("0", "singletons_and_A"), ("18", "exhaustive")):
            assert main(["pipeline", "--input", path, "--cap", cap]) == 0
            assert json.loads(capsys.readouterr().out)["results"]["petridis_mode"] == mode

    def test_verify_lemmas_small(self, tmp_path):
        out = tmp_path / "vl.json"
        code = main(
            [
                "verify-lemmas",
                "--group",
                "2^3",
                "--seed",
                "1",
                "--trials",
                "4",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(s["ok"] for s in payload["suites"])
        names = {s["name"] for s in payload["suites"]}
        assert "statistical-covering" in names and "pipeline-driver" in names


class TestInputRanges:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chang", "--kappa", "1/2", "--eta", "1/2"], "chang needs a non-empty set"),
            (["cover", "--delta", "1/2"], "needs non-empty A"),
            (["spectrum", "--epsilon", "1/2"], "zero function"),
            (["pipeline"], "A must be non-empty"),
        ],
    )
    def test_empty_set_is_bad_input(self, tmp_path, capsys, argv, message):
        path = write_set(tmp_path, "empty.json", [7], [])
        assert main(argv + ["--input", path]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["cover", "--group", "7", "--delta", "1/2", "--count"], "-1"),
            (["cover", "--group", "7", "--delta", "1/2", "--count"], "0"),
            (["verify-lemmas", "--group", "7", "--trials"], "0"),
            (["verify-lemmas", "--group", "7", "--trials"], "1.5"),
            pytest.param(
                ["verify-lemmas", "--group", "7", "--trials"], "-" + "9" * 400, id="400-digits"
            ),
        ],
    )
    def test_counts_below_one_are_bad_input(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be an integer in [1, inf)" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert all(len(line) < 160 for line in captured.err.splitlines())

    @pytest.mark.parametrize("option", ["--size", "--n-generators", "--n-cosets"])
    @pytest.mark.parametrize("value", ["-3", "-1", "0"])
    def test_gen_counts_below_one_are_bad_input(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--group", "8x8", "--kind", "coset_union", option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {option}: must be an integer in [1, inf), got '{value}'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_sweep_count_past_the_limit_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_COUNT", 2)
        assert main(["cover", "--group", "7", "--delta", "1/2", "--count", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 2 * len(cli.FAMILIES)
        for value in ("3", "9" * 400):
            with pytest.raises(SystemExit) as exc:
                main(["cover", "--group", "7", "--delta", "1/2", "--count", value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "argument --count: exceeds the sweep limit 2\n" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
            assert all(len(line) < 160 for line in captured.err.splitlines())

    def test_count_of_one_is_accepted(self, capsys):
        assert main(["cover", "--group", "7", "--delta", "1/2", "--count", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == len(cli.FAMILIES)


# a 3-element set in Z_2^30, whose order is past cli.MAX_COMPUTE_ORDER
Z2_30 = [[0] * 30, [1] + [0] * 29, [0, 1] + [0] * 28]


class TestOrderBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--delta", "1/2"],
            ["chang", "--kappa", "1/2", "--eta", "1/2"],
            ["spectrum", "--epsilon", "1/2"],
            ["pipeline"],
        ],
    )
    def test_set_file_commands_past_the_limit(self, tmp_path, capsys, argv):
        path = write_set(tmp_path, "big.json", [2] * 30, Z2_30)
        assert main(argv + ["--input", path]) == 2
        err = capsys.readouterr().err
        assert f"group order {2**30} exceeds the limit {cli.MAX_COMPUTE_ORDER}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--group", "2^30", "--delta", "1/2"],
            ["verify-lemmas", "--group", "2^30"],
            ["gen", "--group", "2^30", "--kind", "subgroup"],
            ["gen", "--group", "2^30", "--kind", "coset_union"],
        ],
    )
    def test_group_commands_past_the_limit(self, capsys, argv):
        assert main(argv) == 2
        assert f"group order {2**30} exceeds the limit" in capsys.readouterr().err

    def test_gen_random_and_independent_are_exempt(self, tmp_path):
        for kind, extra in (("random", ["--size", "3"]), ("independent", [])):
            out = tmp_path / f"{kind}.json"
            argv = ["gen", "--group", "2^30", "--kind", kind, "--output", str(out)]
            assert main(argv + extra) == 0
            assert len(json.loads(out.read_text())["elements"]) == (3 if extra else 31)

    def test_the_limit_itself_is_computed_in(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_COMPUTE_ORDER", 8)
        at = write_set(tmp_path, "at.json", [8], [[0], [1], [3]])
        past = write_set(tmp_path, "past.json", [16], [[0], [1], [3]])
        assert main(["spectrum", "--input", at, "--epsilon", "1/2"]) == 0
        assert main(["spectrum", "--input", past, "--epsilon", "1/2"]) == 2
        assert "group order 16 exceeds the limit 8" in capsys.readouterr().err


class TestJsonForm:
    def test_non_finite_floats_become_strings(self):
        assert cli.to_jsonable(float("inf")) == "inf"
        assert cli.to_jsonable(float("-inf")) == "-inf"
        assert cli.to_jsonable(float("nan")) == "nan"
        assert cli.to_jsonable([0.5, float("inf")]) == [0.5, "inf"]

    def test_emit_writes_standard_json(self, tmp_path):
        out = tmp_path / "r.json"
        cli._emit(cli.to_jsonable({"headline": float("inf")}), str(out))
        assert json.loads(out.read_text()) == {"headline": "inf"}
        with pytest.raises(ValueError):
            cli._emit({"headline": float("nan")}, str(out))
