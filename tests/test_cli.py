"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ffdioph.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "cli_golden.json")
with open(GOLDEN, encoding="utf-8") as _fh:
    GOLDEN_CASES = json.load(_fh)["cases"]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestCfrac:
    def test_rational_example(self):
        code, out = run_cli(["cfrac", "--q", "2", "--y", "(T^2+1)/T"])
        assert code == 0
        doc = json.loads(out)
        assert doc["quotients"] == ["T", "T"]
        assert doc["terminated"]

    def test_laurent_input(self):
        code, out = run_cli(
            ["cfrac", "--q", "2", "--y", "T^-1 + T^-3 + O(T^-40)"])
        assert code == 0
        doc = json.loads(out)
        assert doc["reason"] in ("precision", "max_terms", "terminated")

    @pytest.mark.parametrize("q", ["521", "1000000007"])
    def test_field_above_table_limit(self, capsys, q):
        code, out = run_cli(["cfrac", "--q", q, "--y", "T^-1"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestExponent:
    def test_csv(self):
        code, out = run_cli([
            "exponent", "--q", "2", "--Y", "T^-1 + T^-3 + T^-6",
            "--tau-max", "8", "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0] == "tau,L,exact_flag"

    def test_json_estimate(self):
        code, out = run_cli([
            "exponent", "--q", "2", "--Y", "T^-1 + T^-3 + T^-6",
            "--tau-max", "8",
        ])
        doc = json.loads(out)
        assert doc["estimate"]["omega_lower"] == "inf"

    def test_matrix_file_input(self, tmp_path):
        path = tmp_path / "Y.txt"
        path.write_text(
            "q=2 rows=1 cols=2 shift=0,0\n"
            "T^-1 + T^-4 + O(T^-44) | T^-2 + T^-3 + O(T^-44)\n"
        )
        code, out = run_cli([
            "exponent", "--q", "2", "--Y", str(path), "--tau-max", "10",
        ])
        assert code == 0
        doc = json.loads(out)
        assert (doc["m"], doc["n"]) == (1, 2)

    def test_matrix_file_field(self, tmp_path):
        # a file that names its field runs under the matching --q
        path = tmp_path / "Y.txt"
        path.write_text("q=3 rows=1 cols=1\n2*T^-1 + T^-3 + O(T^-30)\n")
        code, _ = run_cli(["exponent", "--q", "3", "--Y", str(path),
                           "--tau-max", "4"])
        assert code == 0

    @pytest.mark.parametrize("text, problem", [
        # header promises two forms, file holds one
        ("q=2 rows=2 cols=2\nT^-1 + O(T^-44) | T^-2 + O(T^-44)\n",
         "rows=2"),
        # a row with fewer entries than cols
        ("q=2 rows=1 cols=2\nT^-1 + O(T^-44)\n", "cols=2"),
        # a row with more entries than cols
        ("q=2 rows=1 cols=1\nT^-1 + O(T^-44) | T^-2 + O(T^-44)\n",
         "cols=1"),
        ("q=2 cols=2\nT^-1 + O(T^-44) | T^-2 + O(T^-44)\n", "rows="),
        ("q=2 rows=1\nT^-1 + O(T^-44) | T^-2 + O(T^-44)\n", "cols="),
        ("q=2 rows=x cols=2\nT^-1 + O(T^-44) | T^-2 + O(T^-44)\n",
         "rows="),
        ("q=2 rows=0 cols=2\n", "rows >= 1"),
        ("\n", "empty"),
    ])
    def test_matrix_file_mismatch(self, tmp_path, capsys, text, problem):
        path = tmp_path / "Y.txt"
        path.write_text(text)
        code, out = run_cli([
            "exponent", "--q", "2", "--Y", str(path), "--tau-max", "10",
        ])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: matrix file") and err.count("\n") == 1
        assert problem in err


class TestDirichlet:
    def test_instance_file(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("q=2 m=1 n=1 t=2,2\nT^-1 + O(T^-30)\n")
        code, out = run_cli(["dirichlet", "--instance", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == ["1"] and doc["q"] == ["T"]

    def test_zero_instance(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("q=2 m=1 n=2 t=4,2,2\n0 | 0\n")
        code, out = run_cli(["dirichlet", "--instance", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == ["0"]


    @pytest.mark.parametrize("text, problem", [
        ("", "empty"),
        ("  \n\n", "empty"),
        ("m=1 n=1 t=2,2\nT^-1 + O(T^-30)\n", "q=<int>"),
        ("q=x m=1 n=1 t=2,2\nT^-1 + O(T^-30)\n", "q=<int>"),
        ("q=2 n=1 t=2,2\nT^-1 + O(T^-30)\n", "m=<int>"),
        ("q=2 m=1 t=2,2\nT^-1 + O(T^-30)\n", "n=<int>"),
        ("q=2 m=1 n=1\nT^-1 + O(T^-30)\n", "t=<int>"),
        ("q=2 m=1 n=1 t=2,x\nT^-1 + O(T^-30)\n", "t=<int>"),
        ("q=2 m=0 n=1 t=1\n", "m >= 1"),
        # header promises two forms, file holds one
        ("q=2 m=2 n=1 t=1,1,2\nT^-1 + O(T^-30)\n", "m=2"),
        ("q=2 m=1 n=1 t=2,2\nT^-1 + O(T^-30)\nT^-2 + O(T^-30)\n", "m=1"),
        ("q=2 m=1 n=2 t=2,1,1\nT^-1 + O(T^-30)\n", "n=2"),
        ("q=2 m=1 n=1 t=2,2,2\nT^-1 + O(T^-30)\n", "m+n"),
    ])
    def test_malformed_instance(self, tmp_path, capsys, text, problem):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        code, out = run_cli(["dirichlet", "--instance", str(path)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: instance file") and err.count("\n") == 1
        assert problem in err


class TestGoodcheck:
    def test_identity(self):
        code, out = run_cli([
            "goodcheck", "--map", "veronese:1", "--alpha", "1",
            "-N", "8",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["good"]["C_min"] == {"coeff": "1/1", "q_exp": "0/1"}

    def test_claimed_violation_exit(self):
        code, _ = run_cli([
            "goodcheck", "--map", "veronese:1", "--alpha", "1",
            "-N", "8", "--claimed-C", "1/4",
        ])
        assert code == 1

    def test_json_map_file(self, tmp_path):
        # x -> (x, x^2 + T*x) as an explicit map file
        path = tmp_path / "map.json"
        path.write_text(json.dumps({
            "d": 1,
            "components": [
                [{"exps": [1], "coeff": "1"}],
                [{"exps": [2], "coeff": "1"}, {"exps": [1], "coeff": "T"}],
            ],
        }))
        code, out = run_cli([
            "goodcheck", "--map", str(path), "--alpha", "1", "-N", "7",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["good"]["C_min"] == {"coeff": "1/1", "q_exp": "0/1"}


    @pytest.mark.parametrize("alpha", ["1/2", "2"])
    def test_closure_passes_off_alpha_one(self, alpha):
        # scaling by T moves the threshold window by one step, which the
        # scaling item accounts for at every alpha
        code, out = run_cli([
            "goodcheck", "--map", "veronese:2", "--alpha", alpha,
            "-N", "6", "--closure",
        ])
        assert code == 0
        assert json.loads(out)["closure"]["passed"]

    def test_closure_evaluates_map_once_per_cell(self, monkeypatch):
        from ffdioph.goodmaps import PolyMap

        calls = []
        original = PolyMap.eval_raw

        def counting(self, point, floor):
            calls.append((point, floor))
            return original(self, point, floor)

        monkeypatch.setattr(PolyMap, "eval_raw", counting)
        code, out = run_cli([
            "goodcheck", "--map", "veronese:2", "--alpha", "1",
            "-N", "6", "--closure",
        ])
        assert code == 0
        cells = json.loads(out)["good"]["total_cells"]
        assert cells == 64
        assert len(calls) == cells and len(set(calls)) == cells


class TestTransfer:
    def test_intersection_exit_zero(self):
        code, out = run_cli([
            "transfer", "intersection", "--map", "veronese:1",
            "--t", "1", "--omega", "2", "-N", "8", "--theta", "T^-1",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["report"]["passed"]

    def test_random_requires_seed(self):
        code, _ = run_cli([
            "transfer", "bz", "--random", "2", "--n", "1",
            "--tau-max", "8",
        ])
        assert code == 2

    def test_bz_random(self):
        code, out = run_cli([
            "transfer", "bz", "--random", "2", "--n", "1",
            "--tau-max", "8", "--seed", "11",
        ])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 2
        _, out2 = run_cli([
            "transfer", "bz", "--random", "2", "--n", "1",
            "--tau-max", "8", "--seed", "11",
        ])
        assert out == out2  # byte-identical with the same seed

    def test_bz_literal(self):
        code, out = run_cli([
            "transfer", "bz", "--y", "T^-1 + T^-3 + O(T^-50)",
            "--theta", "T^-2", "--tau-max", "10", "--n", "1",
        ])
        assert code == 0
        doc = json.loads(out)
        statuses = {c["status"] for c in doc["results"][0]["checks"]}
        assert "violated" not in statuses

    def test_dyson_literal(self):
        code, out = run_cli([
            "transfer", "dyson",
            "--y", "T^-1 + T^-3 + O(T^-50); T^-2 + T^-5 + O(T^-50)",
            "--tau-max", "10",
        ])
        assert code == 0
        doc = json.loads(out)
        names = [c["name"] for c in doc["results"][0]["checks"]]
        assert "dyson_biconditional" in names

    def test_contraction_exit_zero(self):
        code, out = run_cli([
            "transfer", "contraction", "--map", "veronese:1",
            "--t", "2", "--omega", "2", "-N", "8",
            "--theta", "T^-1", "--C", "1", "--alpha0", "1",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["report"]["passed"]


class TestExtremal:
    def test_run_and_determinism(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "q=2\nmap=veronese:2\ntheta=0\ntau_max=8\n"
            "depth=30\nsamples=4\nseed=7\n"
        )
        code1, out1 = run_cli(["extremal", "--config", str(path)])
        code2, out2 = run_cli(["extremal", "--config", str(path)])
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical

    def test_csv_format(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "q=2\nmap=veronese:2\ntheta=0\ntau_max=8\n"
            "depth=30\nsamples=2\nseed=7\nformat=csv\n"
        )
        code, out = run_cli(["extremal", "--config", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "sample,tau,L,ratio,exact,included"

    def test_map_loaded_once(self, tmp_path, monkeypatch):
        import ffdioph.experiments as experiments

        calls = []
        original = experiments.load_map

        def counting(spec, field):
            calls.append(spec)
            return original(spec, field)

        monkeypatch.setattr(experiments, "load_map", counting)
        path = tmp_path / "cfg.txt"
        path.write_text("map=veronese:2\ntau_max=4\ndepth=12\n"
                        "samples=2\nseed=7\n")
        for fmt in ("json", "csv"):
            calls.clear()
            code, _ = run_cli(["extremal", "--config", str(path),
                               "--format", fmt])
            assert code == 0 and calls == ["veronese:2"]


class TestGolden:
    """Stdout digests and exit codes recorded before the cell-grid refactor.

    Each case names its input files; "{name}" in argv stands for the path
    of the file written from case["files"][name].
    """

    @pytest.mark.parametrize("case", GOLDEN_CASES,
                             ids=[c["name"] for c in GOLDEN_CASES])
    def test_digest(self, tmp_path, case):
        paths = {}
        for name, text in case["files"].items():
            path = tmp_path / name
            path.write_text(text)
            paths["{" + name + "}"] = str(path)
        argv = [paths.get(a, a) for a in case["argv"]]
        code, out = run_cli(argv)
        assert code == case["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == \
            case["stdout_sha256"]


class TestUsage:
    """Parser errors keep the contract: exit 2, one line on stderr."""

    @staticmethod
    def refused(capsys, argv):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_unknown_command_exits_2(self, capsys):
        assert "invalid choice" in self.refused(capsys, ["bogus"])

    def test_missing_required_exits_2(self, capsys):
        assert "--y" in self.refused(capsys, ["cfrac"])

    @pytest.mark.parametrize("argv", [
        ["cfrac", "--y"],
        ["transfer", "bz", "--y", "-T^-2"],
        ["cfrac", "--y", "T^-1", "--max-terms", "x"],
        ["transfer", "bogus"],
        ["cfrac", "--y", "T^-1", "--extra"],
    ], ids=["missing-value", "dash-value", "bad-int", "bad-choice",
            "unknown-option"])
    def test_parser_error_one_line(self, capsys, argv):
        self.refused(capsys, argv)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cfrac", "--help"])
        assert exc.value.code == 0
        assert "--max-terms" in capsys.readouterr().out


class TestInputErrors:
    """Malformed numbers and literals are usage errors: exit 2, one line."""

    @pytest.mark.parametrize("argv", [
        ["goodcheck", "--map", "veronese:1", "--alpha", "1/0", "-N", "4"],
        ["goodcheck", "--map", "veronese:1", "--alpha", "1", "-N", "4",
         "--claimed-C", "2/0"],
        ["transfer", "intersection", "--omega", "5/0", "-N", "4"],
        ["transfer", "contraction", "--C", "1/0", "--alpha0", "1",
         "-N", "4"],
        ["cfrac", "--y", "1/0"],
    ], ids=["alpha", "claimed-C", "omega", "C", "cfrac-y"])
    def test_zero_denominator(self, capsys, argv):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: zero denominator")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["cfrac", "--y", "T^-1 + bad"],
        ["exponent", "--Y", "T^-1 + T^-3", "--theta", "T^-2 + zz"],
        ["goodcheck", "--map", "veronese:1", "--alpha", "1", "-N", "4",
         "--combo", "0;T^-1 + zz"],
        # a coefficient outside [0, p)
        ["goodcheck", "--map", "veronese:1", "--alpha", "1", "-N", "4",
         "--combo", "0;5"],
    ], ids=["cfrac-y", "exponent-theta", "goodcheck-combo", "out-of-range"])
    def test_malformed_literal(self, capsys, argv):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_instance_entry(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("q=2 m=1 n=1 t=2,2\nT^-1 + zz\n")
        code, out = run_cli(["dirichlet", "--instance", str(path)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, files, problem", [
        (["transfer", "intersection", "--t", "-1", "-N", "3"], {}, "t must"),
        (["transfer", "intersection", "--t", "1,0", "-N", "3"], {}, "t must"),
        (["transfer", "bz", "--y", "T^-1;T^-2", "--tau-max", "0"], {},
         "tau_max"),
        (["transfer", "dyson", "--y", "T^-1;T^-2", "--tau-max", "0"], {},
         "tau_max"),
        # the file's field is F_3, the command's F_2
        (["exponent", "--Y", "{Y.txt}", "--tau-max", "4"],
         {"Y.txt": "q=3 rows=1 cols=1\n2*T^-1 + O(T^-20)\n"}, "q=3"),
        (["goodcheck", "--map", "veronese:0", "--alpha", "1", "-N", "4"],
         {}, "component"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 0, "components": [[]]}'}, "d >= 1"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 1, "components": []}'}, "component"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 1, "components": [[{"exps": [-1], '
                      '"coeff": "1"}]]}'}, "nonnegative"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 1, "components": [[{"exps": [1, 1], '
                      '"coeff": "1"}]]}'}, "1 nonnegative"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 1, "components": [[{"exps": 1, '
                      '"coeff": "1"}]]}'}, "map file needs"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": '{"d": 1, "components": [[{"exps": [1], '
                      '"coeff": 1}]]}'}, "map file needs"),
        (["goodcheck", "--map", "{map.json}", "--alpha", "1", "-N", "4"],
         {"map.json": "[]"}, "map file needs"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "sample=2\nseed=1\n"}, "unknown config key 'sample'"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "d=1\nseed=1\n"}, "unknown config key 'd'"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "n=2\nseed=1\n"}, "unknown config key 'n'"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "seed=1\nseed=2\n"}, "given twice"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "seed=1\nsamples\n"}, "line 2"),
        (["extremal", "--config", "{run.cfg}"],
         {"run.cfg": "samples=1\n"}, "seed"),
        (["transfer", "bz", "--random", "-1", "--seed", "1"], {},
         "--random"),
        (["cfrac", "--y", "T^-1", "--max-terms", "-1"], {}, "max_terms"),
        (["cfrac", "--y", "T^-1", "--max-terms", "0"], {}, "max_terms"),
        (["cfrac", "--y", "(T+1)/T^2", "--max-terms", "0"], {},
         "max_terms"),
        (["goodcheck", "--map", "veronese:2", "--alpha", "1", "-N", "4",
          "--nonplanarity-trials", "-1", "--seed", "1"], {}, "trials"),
    ], ids=["t-negative", "t-zero", "bz-tau-max", "dyson-tau-max",
            "matrix-q", "veronese-0", "map-d0", "map-empty", "map-exp-neg",
            "map-exp-len", "map-exps-type", "map-coeff-type", "map-list",
            "config-unknown", "config-d", "config-n", "config-twice",
            "config-no-equals", "config-no-seed", "random-negative",
            "max-terms-negative", "max-terms-zero", "max-terms-zero-ratfn",
            "trials-negative"])
    def test_refused_input(self, tmp_path, capsys, argv, files, problem):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:-1]) if a[1:-1] in files else a
                for a in argv]
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert problem in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # `python -m ffdioph` runs the same CLI as the installed script
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ffdioph", "cfrac", "--q", "2",
             "--y", "(T^2+1)/T"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(
            ["cfrac", "--q", "2", "--y", "(T^2+1)/T"])[1]


# -- fuzz ---------------------------------------------------------------------

# Literal pieces; numbers carry a leading space so that neighbours never
# glue into a huge exponent.
_PIECES = ("T", "T^-1", "T^-3", "T^2", " 0", " 1", " 2", " + ", "O(T^-6)",
           "*", " [1,0]", "/", "(", ")", "zz", "^", "-", ";")
_literal = st.lists(st.sampled_from(_PIECES), max_size=6).map("".join)
_fraction = st.sampled_from(("1", "1/2", "2/3", "0", "-1", "1/0", "x", "3"))
_small = st.integers(-2, 3)
_field = st.sampled_from(("2", "3", "9", "4", "0", "1", "-3", "6"))
_leaf = st.one_of(st.integers(-2, 3), st.none(), st.booleans(),
                  st.sampled_from(("1", "T", "T + 1", "zz", "T^-1", "0")))
_monomial = st.one_of(_leaf, st.fixed_dictionaries({
    "exps": st.one_of(_leaf, st.lists(st.integers(-1, 3), max_size=3)),
    "coeff": _leaf,
}))
_map_doc = st.one_of(_leaf, st.fixed_dictionaries({
    "d": _leaf,
    "components": st.one_of(_leaf, st.lists(
        st.one_of(_leaf, st.lists(_monomial, max_size=3)), max_size=3)),
}))
_map_text = st.one_of(_map_doc.map(json.dumps), st.just("{"))
_map_spec = st.one_of(st.sampled_from(("veronese:0", "veronese:-1",
                                       "veronese:x", "veronese:1",
                                       "veronese:2")),
                      st.just("{map.json}"))


def _table(head):
    rows = st.lists(st.lists(_literal, min_size=1, max_size=3)
                    .map("|".join), max_size=3)
    header = st.lists(st.sampled_from(head), max_size=5).map(" ".join)
    return st.builds(lambda h, r: "\n".join([h] + r) + "\n", header, rows)


_matrix_text = _table(("q=2", "q=3", "rows=1", "rows=2", "rows=0", "cols=1",
                       "cols=2", "cols=x", "shift=0,0", "junk"))
_instance_text = _table(("q=2", "q=3", "q=6", "m=1", "m=2", "m=0", "n=1",
                         "n=2", "t=1,1", "t=2,2", "t=1,1,2", "t=x",
                         "t=-1,1"))
_config_line = st.sampled_from((
    "q=2", "q=3", "q=0", "modulus=1,1,1", "map=veronese:1", "map=veronese:0",
    "map={map.json}", "map=3", "n=2", "d=1", "d=0", "sample=2", "samples=1",
    "samples=0", "seed=1", "seed=x", "tau_max=2", "tau_max=3", "tau_max=0",
    "depth=5", "depth=0", "precision=-3", "theta=0", "theta=T^-1",
    "format=csv", "format=xml", "no equals sign", "# comment", "",
))


def _config(lines):
    # unset keys get a seed and cheap sizes, never the costly defaults
    keys = {ln.partition("=")[0] for ln in lines}
    cheap = [f"{k}={v}" for k, v in (("samples", 1), ("tau_max", 2),
                                     ("depth", 4), ("seed", 1))
             if k not in keys]
    return "\n".join(lines + cheap) + "\n"


_file_calls = st.one_of(
    # literals go after "=", so one that starts with "-" is no option
    st.builds(lambda y, q, k: (["cfrac", "--q", q, "--y=" + y,
                                "--max-terms", str(k)], {}),
              _literal, _field, _small),
    st.builds(lambda y, th, q, k: (["exponent", "--q", q, "--Y=" + y,
                                    "--theta=" + th, "--tau-max", str(k)],
                                   {}),
              _literal, _literal, _field, _small),
    st.builds(lambda text, k: (["exponent", "--Y", "{Y.txt}",
                                "--tau-max", str(k)], {"Y.txt": text}),
              _matrix_text, _small),
    st.builds(lambda text: (["dirichlet", "--instance", "{inst.txt}"],
                            {"inst.txt": text}), _instance_text),
    st.builds(lambda spec, doc, a, N, r: (
        ["goodcheck", "--map", spec, "--alpha", a, "-N", str(N),
         "--ball-radius", str(r)], {"map.json": doc}),
        _map_spec, _map_text, _fraction, _small, st.integers(-2, 1)),
    st.builds(lambda kind, y, k, n, r: (
        ["transfer", kind, "--y=" + y, "--tau-max", str(k), "--n", str(n),
         "--random", str(r), "--seed", "1"], {}),
        st.sampled_from(("bz", "dyson")), _literal, _small, _small,
        st.integers(0, 1)),
    st.builds(lambda kind, spec, doc, t, w, N: (
        ["transfer", kind, "--map", spec, "--t", t, "--omega", w,
         "-N", str(N), "--theta", "T^-1"], {"map.json": doc}),
        st.sampled_from(("intersection", "contraction")), _map_spec,
        _map_text, st.sampled_from(("1", "-1", "0", "1,2", "x", "")),
        _fraction, _small),
    st.builds(lambda lines, doc: (["extremal", "--config", "{run.cfg}"],
                                  {"run.cfg": _config(lines),
                                   "map.json": doc}),
              st.lists(_config_line, max_size=5), _map_text),
)


class TestFuzz:
    """Any drawn input exits 0, 1 or 2; exit 2 prints exactly one line."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(call=_file_calls)
    def test_no_traceback(self, tmp_path_factory, call):
        argv, files = call
        where = tmp_path_factory.mktemp("fuzz")

        def fill(text):
            for name in files:
                text = text.replace("{" + name + "}", str(where / name))
            return text

        for name, text in files.items():
            (where / name).write_text(fill(text))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([fill(a) for a in argv])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().count("\n") == 1, err.getvalue()
