import json

from orbirr.cli import main

C237 = ('{"genus":0,"points":[{"label":"x1","order":2},'
        '{"label":"x2","order":3},{"label":"x3","order":7}]}')


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def strip_timing(report):
    report = dict(report)
    report.pop("timing_seconds", None)
    return report


class TestHrrBg:
    def test_cyclic_regular(self, capsys, tmp_path):
        code, rep = run_cli(
            capsys, "hrr-bg", "--cache-dir", str(tmp_path),
            "--group", '{"type":"cyclic","order":5}',
            "--rep", '{"kind":"regular"}')
        assert code == 0
        assert rep["verdicts"]["hrr_bg"] == "equal"
        assert rep["results"]["lhs"] == "1"
        assert rep["results"]["rhs"] == "1"
        assert len(rep["results"]["per_sector"]) == 5

    def test_verdict_prints_both_sides(self, capsys, tmp_path):
        code, rep = run_cli(
            capsys, "hrr-bg", "--cache-dir", str(tmp_path),
            "--group", '{"type":"symmetric","n":3}',
            "--rep", '{"kind":"irreducible","index":2}')
        assert code == 0
        assert "lhs" in rep["results"] and "rhs" in rep["results"]


class TestEuler:
    def test_237(self, capsys):
        code, rep = run_cli(capsys, "euler", "--curve", C237)
        assert code == 0
        r = rep["results"]
        assert r["tangent_degree"] == "-1/42"
        assert r["euler_orb"] == "-1/42"
        assert r["euler_phy"] == 11
        assert r["gauss_bonnet_coarse"] == 2
        assert rep["verdicts"]["gauss_bonnet"] == "equal"


class TestHrrCurve:
    def test_with_divisor(self, capsys):
        code, rep = run_cli(
            capsys, "hrr-curve", "--curve", C237,
            "--divisor", '{"free_degree":-2,"weights":{"x1":1,"x2":2,"x3":6}}')
        assert code == 0
        assert rep["results"]["hrr_integral"] == "-1"
        assert rep["results"]["coarse_oracle"] == "-1"
        assert len(rep["results"]["per_sector"]) == 9

    def test_default_divisor(self, capsys):
        code, rep = run_cli(capsys, "hrr-curve", "--curve", C237)
        assert code == 0
        assert rep["results"]["hrr_integral"] == "1"


class TestObstruction:
    def test_witness(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "obstruction", "--cache-dir", str(tmp_path),
                            "--group", '{"type":"symmetric","n":3}')
        assert code == 0
        w = rep["results"]["witness"]
        assert w["tensor_order"] == 2
        assert w["dim_invariants"] == "0"
        assert w["dim_invariants_power"] == "1"

    def test_perfect_group(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "obstruction", "--cache-dir", str(tmp_path),
                            "--group", '{"type":"alternating","n":5}')
        assert code == 0
        assert rep["results"]["witness"] is None
        assert rep["verdicts"]["obstruction"] == "none"


class TestInputHandling:
    def test_malformed_json(self, capsys):
        assert main(["euler", "--curve", '{"genus":0,']) == 1

    def test_unknown_group_type(self, capsys):
        assert main(["chartable", "--group", '{"type":"wreath"}']) == 1

    def test_shorthand_above_cap(self, capsys):
        # the same cap as for permutation generators, with no table printed
        argv = ["chartable", "--group", '{"type":"symmetric","n":5}',
                "--max-group", "10"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap 10" in captured.err

    def test_missing_file(self, capsys):
        assert main(["euler", "--curve", "no/such/file.json"]) == 1

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(C237)
        code, rep = run_cli(capsys, "euler", "--curve", str(path))
        assert code == 0
        assert rep["results"]["euler_phy"] == 11

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["euler", "--curve", C237, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["results"]["euler_phy"] == 11

    def test_bad_divisor_label(self, capsys):
        assert main(["hrr-curve", "--curve", C237,
                     "--divisor", '{"weights":{"zz":1}}']) == 1


class TestChartableAndCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        group = '{"type":"symmetric","n":4}'
        code1, rep1 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                              "--group", group)
        files = list(tmp_path.glob("*.json"))
        assert code1 == 0 and len(files) == 1
        code2, rep2 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                              "--group", group)
        assert code2 == 0
        assert strip_timing(rep1) == strip_timing(rep2)

    def test_corrupted_cache_recomputed(self, capsys, tmp_path):
        group = '{"type":"quaternion"}'
        _, rep1 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                          "--group", group)
        cache_file = next(tmp_path.glob("*.json"))
        cache_file.write_text("{ not json")
        code, rep2 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                             "--group", group)
        assert code == 0
        assert strip_timing(rep1) == strip_timing(rep2)
        assert json.loads(cache_file.read_text())["order"] == 8

    def test_tampered_cache_fails_validation_and_recomputes(
            self, capsys, tmp_path):
        group = '{"type":"cyclic","order":3}'
        _, rep1 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                          "--group", group)
        cache_file = next(tmp_path.glob("*.json"))
        payload = json.loads(cache_file.read_text())
        payload["rows"][0][1] = "5"
        cache_file.write_text(json.dumps(payload))
        code, rep2 = run_cli(capsys, "chartable", "--cache-dir", str(tmp_path),
                             "--group", group)
        assert code == 0
        assert strip_timing(rep1) == strip_timing(rep2)

    def test_generator_presentation_independent_key(self, capsys, tmp_path):
        a = ('{"type":"permutation","degree":3,'
             '"generators":[[2,1,3],[2,3,1]]}')
        b = ('{"type":"permutation","degree":3,'
             '"generators":[[2,1,3],[1,3,2]]}')
        run_cli(capsys, "chartable", "--cache-dir", str(tmp_path), "--group", a)
        run_cli(capsys, "chartable", "--cache-dir", str(tmp_path), "--group", b)
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestSelftestCommand:
    def test_reduced_grid_deterministic(self, capsys):
        argv = ["selftest", "--max-group", "8", "--max-order", "3",
                "--genus-max", "0"]
        code1, rep1 = run_cli(capsys, *argv)
        code2, rep2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_timing(rep1) == strip_timing(rep2)

    def test_injected_mismatch_exits_2(self, capsys):
        code, rep = run_cli(capsys, "selftest", "--max-group", "6",
                            "--max-order", "2", "--genus-max", "0",
                            "--inject-mismatch")
        assert code == 2
        assert rep["verdicts"]["char_tables"] == "mismatch"
