"""End-to-end CLI runs via subprocess: exit codes, file outputs, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from treegraded.cli import main
from treegraded.formats import read_coloring, read_space, write_space

from treegraded.space import Space

from conftest import edge_piece_path, path_graph, two_triangles_sharing_edge

CLI = [sys.executable, "-m", "treegraded.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra: dict | None = None):
    """Run the CLI of this checkout's src, ahead of any installed copy."""
    env = dict(os.environ)
    env.pop("TG_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, env=env
    )


@pytest.fixture
def path_space_file(tmp_path):
    path = tmp_path / "path.tgspace"
    write_space(edge_piece_path(420), str(path))
    return str(path)


class TestValidate:
    def test_valid_space_exits_zero(self, path_space_file):
        proc = run_cli("validate", path_space_file)
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_axiom_violation_exits_one_with_witness(self, tmp_path):
        bad = tmp_path / "bad.tgspace"
        write_space(two_triangles_sharing_edge(), str(bad))
        proc = run_cli("validate", str(bad))
        assert proc.returncode == 1
        assert "T1" in proc.stdout
        assert "(0, 1)" in proc.stdout  # both pieces named
        assert "[1, 2]" in proc.stdout  # both shared vertices named

    def test_truncated_file_exits_two_with_line(self, tmp_path):
        target = tmp_path / "trunc.tgspace"
        target.write_text("tgspace 1\nvertices 3\nedges 2\n0 1\n")
        proc = run_cli("validate", str(target))
        assert proc.returncode == 2
        assert "line 5" in proc.stderr


class TestGen:
    def test_random_roundtrip_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.tgspace", tmp_path / "b.tgspace"
        args = [
            "gen", "random", "--template", "path:5=2", "--template", "cycle:6",
            "--pieces", 8, "--seed", 42, "--spacing", 2, "-o",
        ]
        assert run_cli(*args, out1).returncode == 0
        assert run_cli(*args, out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        space = read_space(str(out1))
        assert space.validate().ok

    def test_env_seed_overrides(self, tmp_path):
        out1, out2 = tmp_path / "a.tgspace", tmp_path / "b.tgspace"
        args = ["gen", "random", "--template", "path:4", "--pieces", 6, "--seed", 1, "-o"]
        run_cli(*args, out1)
        run_cli(*args, out2, env_extra={"TG_SEED": "999"})
        assert out1.read_bytes() != out2.read_bytes()

    def test_freeprod(self, tmp_path):
        out = tmp_path / "fp.tgspace"
        proc = run_cli(
            "gen", "freeprod", "--left", "path:6", "--right", "path:6",
            "--depth", 3, "--spacing", 3, "-o", out,
        )
        assert proc.returncode == 0
        assert read_space(str(out)).validate().ok

    def test_subdivide(self, tmp_path, path_space_file):
        out = tmp_path / "sub.tgspace"
        proc = run_cli("subdivide", path_space_file, "-k", 2, "-o", out)
        assert proc.returncode == 0
        refined = read_space(str(out))
        assert refined.graph.vertex_count == 841


class TestColor:
    def test_subdivided_grid_space_is_colored(self, tmp_path):
        space, coloring = tmp_path / "s.tgspace", tmp_path / "s.tgcolor"
        gen = run_cli(
            "gen", "random", "--template", "grid:4x4", "--template", "path:6",
            "--pieces", 4, "--seed", 1, "--subdivide", 2, "-o", space,
        )
        assert gen.returncode == 0
        proc = run_cli("color", space, "--r", 2, "-o", coloring)
        assert proc.returncode == 0, proc.stderr
        piece_magnitude = int(proc.stdout.split("piece_magnitude=")[1].split()[0])
        measured = run_cli("measure", space, coloring, "--r", 2)
        assert measured.returncode == 0
        assert json.loads(measured.stdout)["magnitude"] <= 300 * piece_magnitude

    def test_explain_period_boundary(self, tmp_path, path_space_file):
        out = tmp_path / "c.tgcolor"
        proc = run_cli(
            "color", path_space_file, "--r", 2, "--variant", "cstar",
            "--explain", 199, "-o", out,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout[proc.stdout.index("{"):])
        assert payload["first_sum"] == 0
        assert [t["value"] for t in payload["floor_terms"]] == [1]
        assert payload["total"] == 1
        colors = read_coloring(str(out))
        assert colors[0] == 0  # basepoint always color 0

    def test_naive_variant_constant(self, tmp_path, path_space_file):
        out = tmp_path / "naive.tgcolor"
        assert run_cli(
            "color", path_space_file, "--r", 2, "--variant", "naive", "-o", out
        ).returncode == 0
        colors = read_coloring(str(out))
        assert set(colors.values()) == {0}

    def test_uncertifiable_user_coloring_exits_one(self, tmp_path, path_space_file):
        colors_file = tmp_path / "user.tgcolor"
        colors_file.write_text(
            "tgcolor 1\n" + "".join(f"{v} 0\n" for v in range(421))
        )
        proc = run_cli(
            "color", path_space_file, "--r", 2, "--piece-colors", colors_file,
            "--declared-magnitude", 0, "-o", tmp_path / "out.tgcolor",
        )
        assert proc.returncode == 1
        assert "certification failed" in proc.stderr

    def test_certified_user_coloring_accepted(self, tmp_path, path_space_file):
        colors_file = tmp_path / "user.tgcolor"
        colors_file.write_text(
            "tgcolor 1\n" + "".join(f"{v} 0\n" for v in range(421))
        )
        proc = run_cli(
            "color", path_space_file, "--r", 2, "--piece-colors", colors_file,
            "--declared-magnitude", 2, "-o", tmp_path / "out.tgcolor",
        )
        assert proc.returncode == 0


class TestMeasure:
    def test_rainbow_zero(self, tmp_path):
        space_file = tmp_path / "p.tgspace"
        write_space(edge_piece_path(6), str(space_file))
        coloring = tmp_path / "rainbow.tgcolor"
        coloring.write_text("tgcolor 1\n" + "".join(f"{v} {v}\n" for v in range(7)))
        proc = run_cli("measure", str(space_file), str(coloring), "--r", 3)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["magnitude"] == 0

    def test_band_path_magnitude_two(self, tmp_path):
        space_file = tmp_path / "p.tgspace"
        write_space(edge_piece_path(10), str(space_file))
        coloring = tmp_path / "band.tgcolor"
        coloring.write_text(
            "tgcolor 1\n" + "".join(f"{v} {(v // 3) % 2}\n" for v in range(11))
        )
        proc = run_cli("measure", str(space_file), str(coloring), "--r", 2, "--chain", "strict")
        payload = json.loads(proc.stdout)
        assert payload["magnitude"] == 2
        assert payload["chain"] == "strict"

    def test_invalid_space_is_still_measured(self, tmp_path):
        space_file = tmp_path / "t1.tgspace"
        write_space(two_triangles_sharing_edge(), str(space_file))
        coloring = tmp_path / "one.tgcolor"
        coloring.write_text("tgcolor 1\n" + "".join(f"{v} 0\n" for v in range(4)))
        proc = run_cli("measure", str(space_file), str(coloring), "--r", 2)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["witness"] == [0, 3]

    def test_valid_space_is_measured_on_its_piece_tables(self, tmp_path, capsys):
        n = 3000  # a path in four-edge pieces
        space_file = tmp_path / "long.tgspace"
        pieces = [set(range(i, min(i + 4, n - 1) + 1)) for i in range(0, n - 1, 4)]
        write_space(Space(path_graph(n), pieces, 0), str(space_file))
        coloring = tmp_path / "band.tgcolor"
        coloring.write_text("tgcolor 1\n" + "".join(f"{v} {(v // 3) % 2}\n" for v in range(n)))
        tracemalloc.start()
        try:
            assert main(["measure", str(space_file), str(coloring), "--r", "2"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["magnitude"] == 2
        assert peak < n * n  # bytes: a quarter of one int32 n x n table


class TestExperiment:
    def test_config_run_with_reports(self, tmp_path):
        config = {
            "seed": 5,
            "r_list": [2, 4],
            "spaces": [
                {"name": "gen-a", "forge": {"templates": [["path:6", 2]], "pieces": 5, "seed": 3}},
                {"name": "gen-b", "forge": {"templates": [["cycle:6", 1], ["path:4", 2]], "pieces": 6, "seed": 4}},
            ],
            "samples": {"stability_pairs": 500, "chains": 100, "trace_targets": 16,
                        "geodesic_chain_targets": 8},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
        proc = run_cli("experiment", cfg, "-o", out, "--csv", csv_out)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["summary"]["all_pass"] is True
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "space,r,f_r,magnitude,bound,pass"
        assert len(lines) == 5  # header + 2 spaces x 2 scales

    def test_empty_scales_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_list": [], "spaces": [{"name": "x", "forge": {"templates": [["path:3", 1]], "pieces": 2}}]}))
        proc = run_cli("experiment", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("config", [[2], {"r_list": [2], "spaces": ["x"]}])
    def test_non_object_config_is_config_error(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli("experiment", cfg)
        assert proc.returncode == 2
        assert "bad experiment config" in proc.stderr

    def test_negative_sample_budget_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        space = {"name": "a", "forge": {"templates": [["path:5", 1]], "pieces": 3, "seed": 1}}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "samples": {"stability_pairs": -3}}))
        proc = run_cli("experiment", cfg)
        assert proc.returncode == 2
        assert "bad experiment config" in proc.stderr and "stability_pairs" in proc.stderr
        zero = {"stability_pairs": 0, "chains": 0, "trace_targets": 0, "geodesic_chain_targets": 0}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "samples": zero}))
        assert run_cli("experiment", cfg).returncode == 0

    @pytest.mark.parametrize("period", [-5, 0])
    def test_non_positive_color_period_is_config_error(self, tmp_path, period):
        cfg = tmp_path / "cfg.json"
        space = {"name": "a", "forge": {"templates": [["path:5", 1]], "pieces": 3, "seed": 1}}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "color_period": period}))
        proc = run_cli("experiment", cfg)
        assert proc.returncode == 2
        assert "bad experiment config: color period must be positive" in proc.stderr

    def test_missing_file_space_recorded_as_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"r_list": [2], "spaces": [{"name": "ghost", "file": str(tmp_path / "none.tgspace")}]})
        )
        out = tmp_path / "report.json"
        proc = run_cli("experiment", cfg, "-o", out)
        assert proc.returncode == 1  # run continues but reports the failure
        report = json.loads(out.read_text())
        assert report["summary"]["errors"] == ["ghost"]


class TestOracles:
    def test_geodesic_invariance_pass(self, tmp_path):
        from treegraded.space import Space
        from conftest import cycle_graph

        space_file = tmp_path / "c4.tgspace"
        write_space(Space(cycle_graph(4), [set(range(4))], 0), str(space_file))
        proc = run_cli("oracle", "geodesic-invariance", str(space_file), "--r", 2)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariant"] is True

    def test_geodesic_invariance_too_large(self, path_space_file):
        proc = run_cli("oracle", "geodesic-invariance", path_space_file, "--r", 2)
        assert proc.returncode == 2

    def test_min_magnitude_strict(self, tmp_path):
        space_file = tmp_path / "p5.tgspace"
        write_space(edge_piece_path(4), str(space_file))
        proc = run_cli(
            "oracle", "min-magnitude", str(space_file), "--r", 3, "--n", 1, "--chain", "strict"
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_min_magnitude_weak(self, tmp_path):
        space_file = tmp_path / "p5.tgspace"
        write_space(edge_piece_path(4), str(space_file))
        proc = run_cli(
            "oracle", "min-magnitude", str(space_file), "--r", 3, "--n", 1, "--chain", "weak"
        )
        assert proc.stdout.strip() == "2"

    def test_non_positive_width_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        space = {"name": "a", "forge": {"templates": [["path:5", 1]], "pieces": 3, "seed": 1}}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "strategy": {"arc_width": 0}}))
        assert main(["experiment", str(cfg)]) == 2
        assert "bad experiment config: arc width must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1, "2", 1.5, True])
    def test_bad_color_count_is_config_error(self, tmp_path, capsys, n):
        cfg = tmp_path / "cfg.json"
        space = {"name": "a", "forge": {"templates": [["path:5", 1]], "pieces": 3, "seed": 1}}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "n": n}))
        assert main(["experiment", str(cfg)]) == 2
        assert f"bad experiment config: n must be a positive integer, got {n!r}" in capsys.readouterr().err

    def test_color_count_override_is_used(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        space = {"name": "a", "forge": {"templates": [["path:5", 1]], "pieces": 3, "seed": 1}}
        cfg.write_text(json.dumps({"spaces": [space], "r_list": [2], "n": 3, "property_checks": False}))
        out = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["n_override"] == 3
        assert [cell["n"] for cell in report["spaces"][0]["cells"]] == [3]


class TestMiscCli:
    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("gen", "--help").returncode == 0
        assert run_cli("oracle", "--help").returncode == 0

    def test_period_override(self, tmp_path, path_space_file):
        out = tmp_path / "p.tgcolor"
        proc = run_cli(
            "color", path_space_file, "--r", 2, "--period", 50, "--explain", 51, "-o", out,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout[proc.stdout.index("{"):])
        assert [t["value"] for t in payload["floor_terms"]] == [1]  # floor(50/50)

    @pytest.mark.parametrize("flag", ["--band-width", "--arc-width", "--brick-width"])
    def test_non_positive_width_rejected(self, tmp_path, path_space_file, flag, capsys):
        # the space has no cycle or grid piece: a width is refused whether or not a piece reads it
        out = tmp_path / "w.tgcolor"
        assert main(["color", path_space_file, "--r", "2", flag, "0", "-o", str(out)]) == 2
        assert f"{flag[2:].replace('-', ' ')} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", [-5, 0])
    def test_non_positive_period_rejected(self, tmp_path, path_space_file, period):
        out = tmp_path / "p.tgcolor"
        proc = run_cli("color", path_space_file, "--r", 2, "--period", period, "-o", out)
        assert proc.returncode == 2
        assert "color period must be positive" in proc.stderr
        assert not out.exists()
