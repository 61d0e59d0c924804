"""Readers of outside text: round trips and refusals, format by format."""

import json
from fractions import Fraction

import pytest

from ffdioph import (
    LaurentMat,
    format_laurent,
    parse_laurent,
    parse_poly,
    parse_ratfn,
)
from ffdioph.errors import LiteralSyntaxError
from ffdioph.experiments import CONFIG_KEYS, ExperimentConfig, run_extremal
from ffdioph.formats import (
    load_map,
    parse_config,
    parse_fraction,
    parse_ints,
    parse_matrix_text,
    parse_row,
    parse_table,
    read_forms,
    read_instance,
)
from ffdioph.goodmaps import PolyMap
from ffdioph.transference import check_bz, check_dyson


class TestOptionValues:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-2/4", Fraction(-1, 2)), ("7/3", Fraction(7, 3)),
    ])
    def test_fraction(self, text, value):
        assert parse_fraction(text) == value

    @pytest.mark.parametrize("text", ["1/0", "x", "1/", "1/2/3"])
    def test_fraction_refused(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    def test_ints(self):
        assert parse_ints("2,-1,0") == (2, -1, 0)
        with pytest.raises(ValueError):
            parse_ints("1,,2")

    def test_row_roundtrip(self, F3):
        row = tuple(parse_laurent(t, F3)
                    for t in ("2*T^-1 + O(T^-9)", "T^2 + 1", "0"))
        assert parse_row(";".join(format_laurent(x) for x in row), F3) == row

    def test_ratfn_parentheses(self, F2):
        assert parse_ratfn("((T^2+1))/(T)", F2) == parse_ratfn("T^2+1/T", F2)
        assert parse_ratfn("(T + 1)", F2) == parse_ratfn("T+1", F2)

    @pytest.mark.parametrize("text", ["1/0", "T/(0)", "T/T/T", "(T", "T)/1"])
    def test_ratfn_refused(self, F2, text):
        with pytest.raises(LiteralSyntaxError):
            parse_ratfn(text, F2)


class TestTables:
    def test_roundtrip(self, F3):
        rows = [["2*T^-1 + O(T^-9)", "T^-2 + O(T^-9)"], ["1", "0"]]
        text = "rows=2 cols=2 q=3\n" + "".join(
            " | ".join(r) + "\n" for r in rows)
        header, ints, field, vals = parse_table(text, "matrix file",
                                                ("rows", "cols"))
        assert field is F3 and ints == {"rows": 2, "cols": 2, "q": 3}
        assert [[format_laurent(x) for x in r] for r in vals] == rows

    def test_field_must_match(self, F2, F3):
        text = "q=3 rows=1 cols=1\nT^-1\n"
        with pytest.raises(ValueError, match="q=3"):
            parse_table(text, "matrix file", ("rows", "cols"), F2)
        assert parse_table(text, "matrix file", ("rows", "cols"), F3)[2] is F3
        # a file without q= takes the given field
        assert parse_table("rows=1 cols=1\n1\n", "matrix file",
                           ("rows", "cols"), F2)[2] is F2

    @pytest.mark.parametrize("text, problem", [
        # the module-basis reader used to raise a bare KeyError
        ("rows=1 cols=1\nT\n", "q=<int>"),
        # and to ignore lines beyond `rows`
        ("q=2 rows=1 cols=1\nT\n1\n", "rows=1"),
        ("q=2 rows=1 cols=2\nT | 1\n", "square"),
        ("", "empty"),
    ])
    def test_module_basis_refused(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            parse_matrix_text(text)

    def test_forms_literal_or_file(self, F2, tmp_path):
        row = "T^-1 + O(T^-20);T^-2 + O(T^-20)"
        path = tmp_path / "Y.txt"
        path.write_text("rows=1 cols=2\n" + row.replace(";", " | ") + "\n")
        assert read_forms(row, F2).rows == read_forms(str(path), F2).rows

    def test_instance(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("t=2,2 q=2 n=1 m=1\nT^-1 + O(T^-30)\n")
        inst = read_instance(path)
        assert inst.t == (2, 2) and (inst.m, inst.n) == (1, 1)


def _map_doc(d, comps):
    return {"d": d, "components": [
        [{"exps": list(e), "coeff": c} for e, c in comp] for comp in comps]}


class TestMaps:
    def test_roundtrip(self, F2, tmp_path):
        comps = [[((1, 0), "1")], [((0, 2), "T"), ((1, 1), "1")]]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(_map_doc(2, comps)))
        f = load_map(str(path), F2)
        assert f == PolyMap(2, tuple(
            tuple((e, parse_poly(c, F2)) for e, c in comp) for comp in comps))
        assert f.d == 2 and f.n == 2

    def test_veronese(self, F2):
        assert load_map("veronese:3", F2) == PolyMap.veronese(F2, 3)

    @pytest.mark.parametrize("d, comps, problem", [
        (0, [[((), "1")]], "d >= 1"),
        (1, [], "component"),
        # x**-1 used to be evaluated as x
        (1, [[((-1,), "1")]], "nonnegative"),
        (1, [[((1, 2), "1")]], "1 nonnegative"),
    ])
    def test_polymap_refused(self, F2, d, comps, problem):
        one = parse_poly("1", F2)
        with pytest.raises(ValueError, match=problem):
            PolyMap(d, tuple(tuple((e, one) for e, _ in comp)
                             for comp in comps))

    @pytest.mark.parametrize("doc", [
        [], "x", {"components": []}, {"d": True, "components": []},
        {"d": 1, "components": {}}, {"d": 1, "components": [[1]]},
        {"d": 1, "components": [[{"exps": [1]}]]},
        {"d": 1, "components": [[{"exps": [1.0], "coeff": "1"}]]},
        {"d": 1, "components": [[{"exps": 1, "coeff": "1"}]]},
        {"d": 1, "components": [[{"exps": [1], "coeff": 1}]]},
    ])
    def test_shape_refused(self, F2, tmp_path, doc):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="map file needs"):
            load_map(str(path), F2)


class TestConfigs:
    def test_roundtrip(self, tmp_path):
        keys = {"q": "3", "modulus": "", "map": "veronese:2",
                "theta": "2*T^-1 + T^-5", "tau_max": "8", "precision": "0",
                "depth": "20", "samples": "3", "seed": "11", "format": "csv"}
        assert set(keys) == set(CONFIG_KEYS)
        text = "# a comment\n\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items())
        assert parse_config(text) == keys
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = ExperimentConfig.from_file(path)
        assert cfg == ExperimentConfig.from_keys(keys)
        assert (cfg.q, cfg.samples, cfg.format) == (3, 3, "csv")

    @pytest.mark.parametrize("text, problem", [
        ("seed=1\nseed=2\n", "twice"),
        ("seed=1\nsamples 3\n", "line 2"),
    ])
    def test_lines_refused(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            parse_config(text)

    @pytest.mark.parametrize("key", ["d", "n", "sample"])
    def test_unknown_key_refused(self, key):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_keys({"seed": "1", key: "2"})

    def test_map_fixes_dimension(self, tmp_path):
        # a two-variable map samples two coordinates per point
        path = tmp_path / "map.json"
        path.write_text(json.dumps(_map_doc(
            2, [[((1, 0), "1")], [((0, 1), "1")]])))
        cfg = ExperimentConfig.from_keys({
            "map": str(path), "tau_max": "4", "depth": "12",
            "samples": "2", "seed": "5"})
        assert cfg.polymap.d == 2
        assert len(run_extremal(cfg).rows) == 2


class TestHorizons:
    @pytest.mark.parametrize("check", [check_bz, check_dyson])
    def test_tau_max_below_one_refused(self, F2, check):
        y = LaurentMat([[parse_laurent("T^-1", F2),
                         parse_laurent("T^-2", F2)]])
        args = (y, None) if check is check_bz else (y.rows[0],)
        with pytest.raises(ValueError, match="tau_max"):
            check(*args, tau_max=0)
