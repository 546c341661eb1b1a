import itertools
import json

import pytest

from toricdeg import bott, cli, gromov
from toricdeg.cli import main

RECT = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 3], [0, 3]]}
SQUARE2 = {"dim": 2, "inequalities": [[-1, 0, 0], [0, -1, 0], [1, 0, 2], [0, 1, 2]]}
PENTAGON = {"dim": 2, "inequalities": [[-1, 0, 0], [0, -1, 0], [1, 0, 3], [0, 1, 3],
                                        [1, 1, 5]]}
BOTT0 = {"n": 2, "A": [[0, 0], [0, 0]], "lambda": ["1", "3"]}
BOTT4 = {"n": 2, "A": [[0, 4], [0, 0]], "lambda": [1, 5]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCommands:
    def test_vertices(self, tmp_path, capsys):
        code, rep = run(capsys, ["vertices", "--polytope", write(tmp_path, "p.json", RECT)])
        assert code == 0
        assert ["1", "3"] in rep["vertices"]

    def test_lattice_points(self, tmp_path, capsys):
        code, rep = run(capsys, ["lattice-points", "--polytope",
                                 write(tmp_path, "p.json", RECT)])
        assert code == 0
        assert rep["count"] == 8

    def test_slide_reproduces_worked_example(self, tmp_path, capsys):
        code, rep = run(capsys, ["slide", "--polytope", write(tmp_path, "p.json", RECT),
                                 "--k", "1", "--l", "2", "--c", "2"])
        assert code == 0
        assert [1, 1] in rep["image"] and [0, 5] in rep["image"]
        assert [4, 1, "5"] in rep["hull"]["inequalities"]

    def test_semigroup_saturation_verdicts(self, tmp_path, capsys):
        code, rep = run(capsys, ["semigroup", "--polytope",
                                 write(tmp_path, "p.json", SQUARE2),
                                 "--k", "1", "--l", "2", "--c", "2", "--max-level", "2"])
        assert code == 0
        assert rep["saturated_up_to_budget"] is False
        assert rep["saturation_witness"] == {"level": 1, "point": [1, 1], "multiple": 2}
        assert rep["cone_condition"]["holds"] is False

    def test_gw_formula(self, capsys):
        code, rep = run(capsys, ["gw-formula", "--family", "A", "--rank", "3",
                                 "--lambda", "5,3,0"])
        assert code == 0
        assert rep["lower_bound"] == "2"

    def test_gw_simplex(self, tmp_path, capsys):
        sq = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
        code, rep = run(capsys, ["gw-simplex", "--polytope",
                                 write(tmp_path, "p.json", sq), "--bound", "1"])
        assert code == 0
        assert rep["a"] == "1"

    def test_gw_simplex_heuristic_claims_no_bound(self, tmp_path, capsys):
        # the random walk never applies --bound, so the report names the seed
        sq = {"dim": 2, "vertices": [[0, 0], [3, 0], [0, 2], [3, 2]]}
        code, rep = run(capsys, ["gw-simplex", "--polytope", write(tmp_path, "p.json", sq),
                                 "--bound", "3", "--mode", "heuristic", "--seed", "5"])
        assert code == 0
        assert rep["bound"] is None
        assert rep["summary"] == f"simplex of size {rep['a']} fits (heuristic mode, seed 5)"
        assert rep["certified_maximal"] is False

    def test_bott_equiv_identity(self, tmp_path, capsys):
        f = write(tmp_path, "b.json", BOTT0)
        code, rep = run(capsys, ["bott-equiv", f, f])
        assert code == 0
        assert rep["symplectomorphic"] is True
        assert rep["ring_map"] == [["1", "0"], ["0", "1"]]

    def test_bott_equiv_pair(self, tmp_path, capsys):
        code, rep = run(capsys, ["bott-equiv", write(tmp_path, "a.json", BOTT0),
                                 write(tmp_path, "b.json", BOTT4)])
        assert code == 0
        assert rep["symplectomorphic"] is True

    def test_bott_verify_move(self, tmp_path, capsys):
        code, rep = run(capsys, ["bott-verify-move", "--bott",
                                 write(tmp_path, "b.json", BOTT0),
                                 "--k", "1", "--l", "2", "--c", "2",
                                 "--max-level", "3"])
        assert code == 0
        assert rep["all_pass"] is True
        assert rep["target"]["lambda"] == ["1", "5"]

    def test_bott_verify_move_zero_shift(self, tmp_path, capsys):
        # --c equal to the entry is the identity move: every level passes
        f = write(tmp_path, "b.json", {"n": 3, "A": [[0, 1, -1], [0, 0, 0], [0, 0, 0]],
                                       "lambda": [2, 4, 5]})
        code, rep = run(capsys, ["bott-verify-move", "--bott", f, "--k", "1", "--l", "2",
                                 "--c", "1", "--max-level", "3"])
        assert code == 0
        assert rep["all_pass"] is True and rep["target"] == rep["source"]
        assert rep["levels"] == [{"level": m, "ok": True} for m in (1, 2, 3)]
        assert rep["slide"] == {"k": 1, "l": 2, "c": 1} and rep["dilated_by"] == 1

    def test_hirzebruch(self, capsys):
        code, rep = run(capsys, ["hirzebruch", "--a", "0", "--lam", "1,3",
                                 "--a-tilde", "4", "--lam-tilde", "1,5"])
        assert code == 0
        assert rep["symplectomorphic"] is True

    def test_zero_normal_row_holds_everywhere(self, tmp_path, capsys):
        square = write(tmp_path, "a.json", SQUARE2)
        padded = write(tmp_path, "b.json", dict(
            SQUARE2, inequalities=SQUARE2["inequalities"] + [[0, 0, 2]]))
        code, rep = run(capsys, ["vertices", "--polytope", square])
        assert code == 0
        assert run(capsys, ["vertices", "--polytope", padded]) == (0, rep)

    def test_bott_reduce(self, tmp_path, capsys):
        cls = {"monomials": {"1,1": 1}}
        code, rep = run(capsys, ["bott-reduce", "--bott",
                                 write(tmp_path, "b.json",
                                       {"n": 2, "A": [[0, 2], [0, 0]], "lambda": [1, 5]}),
                                 "--class", write(tmp_path, "c.json", cls)])
        assert code == 0
        assert rep["normal_form"] == {"1,2": "-2"}

    def test_bott_reduce_past_top_degree(self, tmp_path, capsys):
        # x_1^3000 lies past degree n = 2, where the ring is zero; reducing it
        # one square at a time would overflow the recursion
        cls = {"monomials": {",".join(["1"] * 3000): 1}}
        code, rep = run(capsys, ["bott-reduce", "--bott",
                                 write(tmp_path, "b.json",
                                       {"n": 2, "A": [[0, 1], [0, 0]], "lambda": ["1", "5"]}),
                                 "--class", write(tmp_path, "c.json", cls)])
        assert code == 0
        assert rep["normal_form"] == {} and rep["zero"] is True

    def test_normal_and_smooth_checks(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", RECT)
        code, rep = run(capsys, ["normal-check", "--polytope", p, "--max-degree", "3"])
        assert code == 0 and rep["normal"] is True
        code, rep = run(capsys, ["smooth-check", "--polytope", p])
        assert code == 0 and rep["smooth"] is True


class TestRenderDeterminism:
    def test_byte_identical(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", RECT)
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        for out in (out1, out2):
            code, _ = run(capsys, ["render", "--polytope", p, "--slide-k", "1",
                                   "--slide-l", "2", "--slide-c", "2",
                                   "--svg", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.startswith("<svg") and "circle" in text

    def test_point_polytope(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", {"dim": 2, "vertices": [[1, 1]]})
        out = tmp_path / "pt.svg"
        code, _ = run(capsys, ["render", "--polytope", p, "--svg", str(out)])
        assert code == 0
        assert "circle" in out.read_text()

    def test_polygon_without_lattice_dots(self, tmp_path):
        # polygon outline only: fractional vertices, no interior points
        from toricdeg import hull
        from toricdeg.svg import render_svg
        from fractions import Fraction
        shifted = hull([(Fraction(1, 3), Fraction(1, 3)),
                        (Fraction(2, 3), Fraction(1, 3)),
                        (Fraction(1, 3), Fraction(2, 3))])
        out = tmp_path / "empty.svg"
        text = render_svg([shifted], [[]], str(out))
        assert "path" in text and "circle" not in text

    def test_json_reports_deterministic(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", RECT)
        _, rep1 = run(capsys, ["slide", "--polytope", p, "--k", "1", "--l", "2", "--c", "2"])
        _, rep2 = run(capsys, ["slide", "--polytope", p, "--k", "1", "--l", "2", "--c", "2"])
        assert json.dumps(rep1) == json.dumps(rep2)


class TestExitCodes:
    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2}")
        code = main(["vertices", "--polytope", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "schema" in captured.err

    def test_math_error(self, tmp_path, capsys):
        unbounded = write(tmp_path, "u.json",
                          {"dim": 2, "inequalities": [[-1, 0, 0], [0, -1, 0]]})
        code = main(["vertices", "--polytope", unbounded])
        captured = capsys.readouterr()
        assert code == 3
        assert "Unbounded" in captured.err

    def test_work_limit_is_a_domain_error(self, tmp_path, capsys):
        # a well-formed pentagon past the exhaustive search's work cap
        # (C(45^2, 2) column sets at bound 22) is no malformed request
        p = write(tmp_path, "p.json", PENTAGON)
        code = main(["gw-simplex", "--polytope", p, "--bound", "22"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "WorkLimitError"
        assert "candidate space too large" in err["message"]

    def test_exhaustive_dimension_limit_is_a_domain_error(self, tmp_path, capsys):
        # the exhaustive search stops at dimension 3; a 4-d box is well formed
        box = {"dim": 4, "vertices": [list(v) for v in itertools.product((0, 1), repeat=4)]}
        code = main(["gw-simplex", "--polytope", write(tmp_path, "p.json", box),
                     "--bound", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "WorkLimitError",
            "message": "exhaustive search supported for n <= 3; use heuristic"}

    @pytest.mark.parametrize("argv", [["bott-polytope"],
                                      ["bott-verify-move", "--k", "1", "--l", "2"],
                                      ["vertices"]])
    def test_dimension_past_max_dim_is_a_work_limit(self, tmp_path, capsys, argv):
        # a well-formed n = 9 cube tower, or a 9-d box, needs a polytope
        # past MAX_DIM = 8: a work limit, not malformed input
        rows = [[0] * 9 for _ in range(9)]
        if argv[0] == "vertices":
            flag, body = "--polytope", {"dim": 9, "inequalities": [
                [(i == j) - (i + 9 == j) for i in range(9)] + [1 if j < 9 else 0]
                for j in range(18)]}
        else:
            flag, body = "--bott", {"n": 9, "A": rows, "lambda": list(range(1, 10))}
        code = main(argv + [flag, write(tmp_path, "in.json", body)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "WorkLimitError",
            "message": "dimension 9 outside supported range 1..8"}

    def test_equiv_has_no_dimension_cap(self, tmp_path, capsys):
        # bott-equiv builds no polytope, so n = 9 is decided
        rows = [[-1 if j == 8 and i < 8 else 0 for j in range(9)] for i in range(9)]
        f = write(tmp_path, "b.json", {"n": 9, "A": rows, "lambda": list(range(1, 10))})
        code, rep = run(capsys, ["bott-equiv", f, f])
        assert code == 0
        assert rep["symplectomorphic"] is True

    @pytest.mark.parametrize("c", [None, 1])
    @pytest.mark.parametrize("k, l", [(0, 2), (1, 3), (2, 2), (2, 1)])
    def test_verify_move_bad_indices(self, tmp_path, capsys, k, l, c):
        # k = 0, l > n and k >= l on an n = 2 tower: a domain error, not an
        # IndexError traceback
        f = write(tmp_path, "b.json", BOTT4)
        argv = ["bott-verify-move", "--bott", f, "--k", str(k), "--l", str(l)]
        code = main(argv + ([] if c is None else ["--c", str(c)]))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "MoveError",
                                            "message": "need 1 <= k < l <= n"}

    def test_zero_normal_row_fails_everywhere(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", dict(
            SQUARE2, inequalities=SQUARE2["inequalities"] + [[0, 0, -1]]))
        code = main(["vertices", "--polytope", p])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "EmptyPolytopeError",
                                            "message": "inequality 5 reads 0 <= -1"}

    @pytest.mark.parametrize("argv, code, err", [
        (["hirzebruch", "--a", "2", "--lam", "1,2", "--a-tilde", "0", "--lam-tilde", "1,2"],
         3, {"error": "MoveError",
             "message": "decision requires combinatorial-hypercube data"}),
        (["hirzebruch", "--a", "0", "--lam", "0,2", "--a-tilde", "0", "--lam-tilde", "1,2"],
         2, {"error": "schema", "message": "lengths must be positive"}),
        (["gw-formula", "--family", "G2", "--rank", "3", "--lambda", "1,0,-1"],
         2, {"error": "schema", "message": "G2 has rank 2"}),
        (["slide", "--polytope", "{square}", "--k", "2", "--l", "1", "--c", "1"],
         2, {"error": "schema", "message": "need 1 <= k < l"})])
    def test_argument_errors(self, tmp_path, capsys, argv, code, err):
        # argument-contract violations inside the library reach main as
        # ValueError (exit 2) or as a domain error (exit 3), never wrapped
        square = write(tmp_path, "p.json", SQUARE2)
        assert main([x.replace("{square}", square) for x in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == err

    def test_float_rejected(self, tmp_path, capsys):
        bad = write(tmp_path, "f.json",
                    {"dim": 2, "vertices": [[0.5, 0], [1, 0], [0, 1]]})
        code = main(["vertices", "--polytope", bad])
        assert code == 2

    def test_verdict_not_exit_code(self, tmp_path, capsys):
        # a computed "no" is still a successful run
        a = write(tmp_path, "a.json", {"n": 2, "A": [[0, -1], [0, 0]], "lambda": [1, 3]})
        b = write(tmp_path, "b.json", {"n": 2, "A": [[0, -1], [0, 0]], "lambda": [1, 4]})
        code, rep = run(capsys, ["bott-equiv", a, b])
        assert code == 0
        assert rep["symplectomorphic"] is False

    def test_internal_error(self, tmp_path, capsys, monkeypatch):
        # an exceptional type that vanishes after the first step of the
        # standardization of D(-4; 1, 5) is a broken invariant
        calls = []
        real = bott.exceptional_type

        def vanishing(b, k):
            calls.append(k)
            return real(b, k) if len(calls) == 1 else None

        monkeypatch.setattr(bott, "exceptional_type", vanishing)
        f = write(tmp_path, "b.json", {"n": 2, "A": [[0, -4], [0, 0]], "lambda": [1, 5]})
        code = main(["bott-equiv", f, f])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "internal",
            "message": "nonzero row must stay exceptional during standardization"}

    def test_unbounded_lp_is_internal(self, tmp_path, capsys, monkeypatch):
        # a fit value above the LP optimum leaves the optimal face empty; the
        # witness search reports the broken invariant as internal, not as
        # the empty-polytope domain error its vertex enumeration raises
        fit_value = gromov._fit_value

        def too_large(delta):
            value = fit_value(delta)
            return lambda loads: value(loads) + 1

        monkeypatch.setattr(gromov, "_fit_value", too_large)
        p = write(tmp_path, "p.json", SQUARE2)
        code = main(["gw-simplex", "--polytope", p, "--bound", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "internal", "message": "optimal face of the simplex fit is empty"}

    @pytest.mark.parametrize("argv", [
        ["slide", "--k", "1", "--l", "2", "--c", "1"],
        ["render", "--svg", "{svg}", "--slide-k", "1", "--slide-l", "2", "--slide-c", "1"]])
    def test_slide_without_lattice_points_is_a_domain_error(self, tmp_path, capsys, argv):
        # 1/3 <= x, y <= 2/3 is well formed and holds no lattice point, so
        # its slide has no hull: a domain error, not malformed input
        p = write(tmp_path, "p.json", {"dim": 2, "inequalities": [
            ["-1", "0", "-1/3"], ["1", "0", "2/3"], ["0", "-1", "-1/3"], ["0", "1", "2/3"]]})
        assert run(capsys, ["lattice-points", "--polytope", p]) == (0, {
            "summary": "0 lattice points", "dim": 2, "count": 0, "points": []})
        svg_path = tmp_path / "slide.svg"
        code = main([argv[0], "--polytope", p]
                    + [a.format(svg=svg_path) for a in argv[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "EmptyPolytopeError",
            "message": "polytope has no lattice points to slide"}
        assert not svg_path.exists()

    def test_output_flag_writes_file(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", RECT)
        target = tmp_path / "report.json"
        code = main(["vertices", "--polytope", p, "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["summary"].startswith("4 vertices")

    @pytest.mark.parametrize("target", ["dir", "missing"])
    def test_unwritable_output_is_a_schema_error(self, tmp_path, capsys, target):
        # a directory, or a file in a missing directory: no traceback
        p = write(tmp_path, "p.json", RECT)
        out = tmp_path if target == "dir" else tmp_path / "missing" / "r.json"
        code = main(["vertices", "--polytope", p, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "schema"
        assert err["message"].startswith(f"cannot write {out}: ")

    def test_unwritable_svg_is_a_schema_error(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", RECT)
        out = tmp_path / "missing" / "x.svg"
        code = main(["render", "--polytope", p, "--svg", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "schema"
        assert err["message"].startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("command", ["semigroup", "okounkov", "saturation"])
    @pytest.mark.parametrize("body, message", [
        ({"dim": 2, "vertices": [[1, 1], [2, 1], [1, 2]]},
         "polytope must have a vertex at the origin"),
        ({"dim": 2, "vertices": [[-1, 0], [0, 0], [-1, 1], [0, 1]]},
         "polytope must lie in the nonnegative orthant")])
    def test_origin_corner_is_a_domain_error(self, tmp_path, capsys, command, body,
                                             message):
        # well-formed polytopes away from the origin corner fail a
        # mathematical precondition, like NotSmoothError on the same path
        p = write(tmp_path, "p.json", body)
        code = main([command, "--polytope", p, "--k", "1", "--l", "2", "--c", "1",
                     "--max-level", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "OriginCornerError",
                                            "message": message}

    @pytest.mark.parametrize("degree", ["-1", "0"])
    def test_normal_check_degree_below_one(self, tmp_path, capsys, degree):
        p = write(tmp_path, "p.json", RECT)
        code = main(["normal-check", "--polytope", p, "--max-degree", degree])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "schema",
                                            "message": "max_degree must be >= 1"}

    def test_verify_move_max_level_checked_first(self, tmp_path, capsys):
        # x_1 is not exceptional here, so a late check would report the
        # MoveError of the move instead of the malformed level bound
        f = write(tmp_path, "b.json", {"n": 3, "A": [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
                                       "lambda": [1, 5, 9]})
        code = main(["bott-verify-move", "--bott", f, "--k", "1", "--l", "2",
                     "--max-level", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err) == {"error": "schema",
                                            "message": "max_level must be >= 1"}

    def test_max_level_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TORICDEG_MAX_LEVEL", "2")
        p = write(tmp_path, "p.json", RECT)
        code, rep = run(capsys, ["semigroup", "--polytope", p,
                                 "--k", "1", "--l", "2", "--c", "2"])
        assert code == 0
        assert rep["max_level"] == 2

    def test_max_level_env_below_one(self, tmp_path, capsys, monkeypatch):
        # the environment bound fails like the flag instead of clamping to 1
        monkeypatch.setenv("TORICDEG_MAX_LEVEL", "0")
        p = write(tmp_path, "p.json", RECT)
        code = main(["semigroup", "--polytope", p, "--k", "1", "--l", "2", "--c", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "schema",
                                            "message": "max_level must be >= 1"}


class TestParserReuse:
    def test_no_state_leaks_between_calls(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TORICDEG_MAX_LEVEL", raising=False)
        p = write(tmp_path, "p.json", RECT)
        target = tmp_path / "report.json"
        assert main(["semigroup", "--polytope", p, "--k", "1", "--l", "2", "--c", "2",
                     "--max-level", "2", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["max_level"] == 2
        # a parse error in between: the subcommand lacks its required option
        assert main(["vertices"]) == 2
        assert "--polytope" in capsys.readouterr().err
        target.unlink()
        code, rep = run(capsys, ["semigroup", "--polytope", p,
                                 "--k", "1", "--l", "2", "--c", "2"])
        assert code == 0 and not target.exists()
        assert rep["max_level"] == cli.DEFAULT_MAX_LEVEL
        code, rep = run(capsys, ["lattice-points", "--polytope", p])
        assert code == 0 and rep["count"] == 8
        assert cli.build_parser() is cli.build_parser()
