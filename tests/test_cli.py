import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "roughgg.cli"]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def main_code(*args):
    """Exit code of an in-process ``cli.main`` call.  The one exception
    allowed to escape it is argparse's usage error, ``SystemExit(2)``."""
    from roughgg import cli

    try:
        return cli.main(list(args))
    except SystemExit as exc:
        assert exc.code == 2
        return 2


def test_gallery_manifest(tmp_path):
    out = tmp_path / "gal"
    proc = run("gallery", "--out-dir", str(out))
    assert proc.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 6
    assert manifest["slit-square"]["star_measure"] == 10.0
    assert abs(manifest["slit-disk"]["star_measure"] - (2 * 3.141592653589793 + 1)) < 1e-12
    for entry in manifest.values():
        assert (out / entry["file"]).exists()


def test_trace_subcommand_slit(tmp_path):
    out = tmp_path / "tr.json"
    proc = run("trace", "--preset", "slit-square", "--grid", "32",
               "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["g_infinity"] == 2.0
    slit_sides = [s for s in report["sides"]
                  if s["axis"] == 1 and s["g"] == -1.0]
    assert len(slit_sides) == 2 * 64  # both sides of 2/dx crack facets


def test_classify_and_idempotence(tmp_path):
    out = tmp_path / "cls.json"
    png = tmp_path / "cls.pgm"
    args = ("classify", "--preset", "slit-square", "--grid", "32",
            "--out", str(out), "--png", str(png))
    assert run(*args).returncode == 0
    first = out.read_bytes(), png.read_bytes()
    assert run(*args).returncode == 0
    assert (out.read_bytes(), png.read_bytes()) == first
    assert png.read_bytes().startswith(b"P5\n")
    report = json.loads(out.read_text())
    # a whole-number measure stays a JSON float
    assert type(report["star_measure"]) is float and report["star_measure"] == 10.0


def test_perimeter_subcommand(tmp_path):
    out = tmp_path / "p.json"
    proc = run("perimeter", "--preset", "disk", "--grid", "128",
               "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["perimeter_estimate"] == pytest.approx(6.2832, rel=0.02)


def test_approx_subcommand_and_sweep(tmp_path):
    out = tmp_path / "a.json"
    png = tmp_path / "e.pgm"
    proc = run("approx", "--preset", "square", "--grid", "64", "--delta",
               "0.25", "--out", str(out), "--png", str(png))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["ratio"] < 4.0
    assert png.exists()
    csv = tmp_path / "sweep.csv"
    proc = run("approx", "--preset", "square", "--grid", "128",
               "--sweep", "0.25,0.125,0.0625", "--out", str(csv))
    assert proc.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("delta,")
    assert len(lines) == 4
    assert all(line.endswith("BOUNDED") for line in lines[1:])


def test_approx_sweep_with_png_exit_2_before_any_output(tmp_path):
    out, png = tmp_path / "sw.csv", tmp_path / "sw.pgm"
    proc = run("approx", "--preset", "square", "--grid", "16", "--sweep", "1,0.75,0.5",
               "--png", str(png), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not allowed with argument --sweep" in proc.stderr
    assert not out.exists() and not png.exists()


@pytest.mark.parametrize("source", [
    ["--preset", "square", "--k", "3"],
    ["--domain", '{"preset": "square", "k": 3}'],
], ids=["flag", "document"])
def test_generation_on_a_preset_without_one_exit_2(source, capsys):
    assert main_code("trace", *source, "--grid", "16") == 2
    assert "preset 'square' has no generation" in capsys.readouterr().err


def test_approx_default_scale_on_a_coarse_grid(tmp_path):
    out = tmp_path / "a.json"
    proc = run("approx", "--preset", "cantor-cross", "--grid", "36", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["delta"] == 8.0 / 36.0


def test_gg_check_subcommand(tmp_path):
    out = tmp_path / "gg.json"
    proc = run("gg-check", "--preset", "slit-square", "--grid", "32",
               "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["worst_relative"] <= 1e-8


def test_solve_div_round_trip(tmp_path):
    tr = tmp_path / "tr.csv"
    proc = run("trace", "--preset", "slit-square", "--grid", "32",
               "--csv", str(tr))
    assert proc.returncode == 0
    out = tmp_path / "solve.json"
    flux = tmp_path / "f.dmf"
    proc = run("solve-div", "--preset", "slit-square", "--grid", "32",
               "--trace", str(tr), "--out", str(out), "--flux", str(flux))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["audit_pass"] is True
    assert report["trace_linf_gap"] <= 1e-8
    assert flux.read_bytes().startswith(b"DMF1")
    proc = run("solve-div", "--preset", "slit-square", "--grid", "32",
               "--trace", str(tr), "--mode", "decomposed", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["mode"] == "DECOMPOSED"


def test_solve_div_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    """One solve-div at 1/64 per BLAS thread count writes the same bytes."""
    grid = ["--preset", "slit-square", "--grid", "64"]
    tr = tmp_path / "tr.csv"
    assert run("trace", *grid, "--csv", str(tr)).returncode == 0
    written = []
    for threads in ("1", "2"):
        out, flux = tmp_path / f"solve{threads}.json", tmp_path / f"f{threads}.dmf"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(CLI + ["solve-div", *grid, "--trace", str(tr),
                                     "--out", str(out), "--flux", str(flux)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        written.append((out.read_bytes(), flux.read_bytes()))
    assert written[0] == written[1]


def test_solve_div_incompatible_exit_3(tmp_path):
    tr = tmp_path / "tr.csv"
    proc = run("trace", "--preset", "square", "--grid", "16", "--csv", str(tr))
    assert proc.returncode == 0
    lines = tr.read_text().splitlines()
    # keep only the positive-flux rows: net inflow, no exact solution
    bad = [lines[0]] + [l for l in lines[1:] if float(l.rsplit(",", 1)[1]) > 0]
    assert len(bad) > 1
    badfile = tmp_path / "bad.csv"
    badfile.write_text("\n".join(bad) + "\n")
    proc = run("solve-div", "--preset", "square", "--grid", "16",
               "--trace", str(badfile))
    assert proc.returncode == 3


def test_solve_div_non_finite_exit_2(tmp_path):
    tr = tmp_path / "tr.csv"
    proc = run("trace", "--preset", "square", "--grid", "16", "--csv", str(tr))
    assert proc.returncode == 0
    lines = tr.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    proc = run("solve-div", "--preset", "square", "--grid", "16",
               "--trace", str(bad))
    assert proc.returncode == 2, proc.stderr


def test_solve_div_repeated_trace_row_exit_2(tmp_path):
    tr = tmp_path / "tr.csv"
    proc = run("trace", "--preset", "square", "--grid", "16", "--csv", str(tr))
    assert proc.returncode == 0
    lines = tr.read_text().splitlines()
    bad = tmp_path / "dup.csv"
    bad.write_text("\n".join(lines + [lines[1]]) + "\n")
    proc = run("solve-div", "--preset", "square", "--grid", "16",
               "--trace", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "line 2" in proc.stderr


def test_bad_input_exit_2():
    assert main_code("classify", "--domain", '{"shape":{"op":"disk","r":-2}}',
                     "--grid", "16") == 2
    assert main_code("classify", "--domain", "{not json", "--grid", "16") == 2
    assert main_code("classify", "--grid", "16") == 2  # no domain source at all


@pytest.mark.parametrize("args", [
    ["approx", "--delta", "nan"],
    ["approx", "--delta", "inf"],
    ["perimeter", "--eps", "nan"],
    ["approx", "--sweep", "0.5,x"],
    ["trace", "--field", "seed:x"],
    ["trace", "--field", "seed:1e3"],
], ids=["delta-nan", "delta-inf", "eps-nan", "sweep-x", "seed-x", "seed-1e3"])
def test_bad_flag_values_exit_2(args, capsys):
    code = main_code(args[0], "--preset", "square", "--grid", "16", *args[1:])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err


def test_tol_flag_is_gone(tmp_path, capsys):
    tr = tmp_path / "tr.csv"
    grid = ["--preset", "slit-square", "--grid", "64"]
    assert main_code("trace", *grid, "--csv", str(tr)) == 0
    capsys.readouterr()
    assert main_code("solve-div", *grid, "--trace", str(tr), "--tol", "1e-15") == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --tol 1e-15" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["direct", "decomposed"])
def test_solve_div_huge_density_exit_2(tmp_path, mode, capsys):
    # finite densities whose squares overflow CG's dot products; 1e100 is
    # the largest magnitude a prescription may have
    tr = tmp_path / "huge.csv"

    def solve(g):
        tr.write_text(f"axis,i0,i1,side,g\n0,36,4,0,{g}\n0,4,4,1,-{g}\n")
        return main_code("solve-div", "--preset", "square", "--grid", "16",
                         "--trace", str(tr), "--mode", mode)

    assert solve("1e200") == 2
    err = capsys.readouterr().err
    assert err == ("error: trace CSV line 2: prescribed trace density 1e+200 "
                   "exceeds 1e+100 in magnitude\n")
    assert solve("1e100") == 0


@pytest.mark.parametrize("row,shown", [
    ("0,36,4,0,nan", "non-finite prescribed trace density nan"),
    ("0,36,4,0,inf", "non-finite prescribed trace density inf"),
    ("0,36,4,0,-1e200", "prescribed trace density -1e+200 exceeds 1e+100 in magnitude"),
    # the exterior side of the reduced facet whose body side is on line 2
    ("0,4,4,0,1", "(axis 0, (4, 4), side 0) is not a trace side"),
], ids=["nan", "inf", "minus-1e200", "exterior-side"])
def test_solve_div_csv_refusal_names_the_line(tmp_path, capsys, row, shown):
    tr = tmp_path / "bad.csv"
    tr.write_text(f"axis,i0,i1,side,g\n0,4,4,1,-1\n{row}\n")
    assert main_code("solve-div", "--preset", "square", "--grid", "16",
                     "--trace", str(tr)) == 2
    assert capsys.readouterr().err == f"error: trace CSV line 3: {shown}\n"


@pytest.mark.parametrize("target", ["missing-dir", "directory", "file-as-out-dir"])
def test_unwritable_output_exit_2(tmp_path, target):
    if target == "file-as-out-dir":
        out = tmp_path / "taken"
        out.write_text("")
        proc = run("gallery", "--out-dir", str(out))
    else:
        out = tmp_path / "nodir" / "x.json" if target == "missing-dir" else tmp_path
        proc = run("classify", "--preset", "square", "--grid", "16", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(out) in proc.stderr


@pytest.mark.parametrize("number", ["0", "12"])
def test_accept_unknown_criterion_exit_2(number):
    proc = run("accept", "--only", number)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("doc", [
    '{"shape": {"op": "disk", "r": NaN}}',
    '{"shape": {"op": "disk", "r": "x"}}',
    '{"shape": {"op": "box", "min": [-1, -1]}}',
    '{"shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},'
    ' "cracks": [{"seg": [[0, 0]]}]}',
    '{"preset": "cantor-cross", "k": "x"}',
    '{"preset": "cantor-cross", "k": 1' + "0" * 400 + '}',
    '{"shape": {"op": "box", "min": [-1, -1], "max": [1, 1]}, "cracks": 5}',
    '{"shape": {"op": "box", "min": [-1, -1], "max": [1, 1]}, "cracks": null}',
    '{"shape": {"op": "union", "args": 5}}',
    '{"shape": {"op": "union", "args": null}}',
    '{"shape": {"op": "union", "args": [{"op": "disk", "r": 1},'
    ' {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]}]}}',
], ids=["r-nan", "r-string", "box-no-max", "seg-one-point", "k-string", "k-huge",
        "cracks-int", "cracks-null", "args-int", "args-null", "mixed-dimension"])
def test_bad_domain_json_exit_2(doc):
    proc = run("classify", "--domain", doc, "--grid", "16")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    # names the node
    assert any(node in proc.stderr for node in ("shape", "cracks[0]", "cracks:", "k:"))


def test_crack_with_both_seg_and_rect_exit_2():
    doc = ('{"shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},'
           ' "cracks": [{"seg": [[-1, 0], [1, 0]], "rect": [[0, 0, 0], [1, 1, 0]]}]}')
    proc = run("classify", "--domain", doc, "--grid", "16")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cracks[0]: crack takes one of 'seg' and 'rect', not both" in proc.stderr


@pytest.mark.parametrize("op", ["[0]", '{"op": "disk"}'], ids=["list", "object"])
def test_non_string_shape_op_exit_2(op, capsys):
    from roughgg import cli

    doc = '{"shape": {"op": %s, "args": [{"op": "disk", "r": 1}]}}' % op
    assert cli.main(["classify", "--domain", doc, "--grid", "8"]) == 2
    assert "shape: unknown shape op" in capsys.readouterr().err


def test_readme_trace_readers_match_their_writers():
    # a trace CSV indexes facets of one grid, so `--trace FILE` must name
    # the domain and grid of the command that wrote `--csv FILE`
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    domain_flags = ("--preset", "--domain", "--domain-file", "--k", "--margin", "--grid")
    written, readers = {}, 0
    for line in "\n".join(blocks).splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["roughgg"]:
            continue
        flags = {k: v for k, v in zip(argv, argv[1:]) if k.startswith("--")}
        domain = {k: flags.get(k) for k in domain_flags}
        if "--trace" in flags:
            assert written.get(flags["--trace"]) == domain, line
            readers += 1
        if "--csv" in flags:
            written[flags["--csv"]] = domain
    assert readers > 0


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, roughgg.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("row", ["1,4,-5,0,1", "7,4,5,0,1", "0,25,3,0,1"])
def test_solve_div_trace_row_out_of_range_exit_2(tmp_path, row):
    # square at 1/8 with the default margin: 24 x 24 cells
    bad = tmp_path / "bad.csv"
    bad.write_text("axis,i0,i1,side,g\n" + row + "\n")
    proc = run("solve-div", "--preset", "square", "--grid", "8",
               "--trace", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_input_files_exit_2(tmp_path):
    proc = run("solve-div", "--preset", "square", "--grid", "8",
               "--trace", str(tmp_path / "missing.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run("classify", "--domain-file", str(tmp_path / "missing.json"),
               "--grid", "8")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_trace_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"axis,i0,i1,side,g\n\xff,1,2\n")
    proc = run("solve-div", "--preset", "square", "--grid", "8", "--trace", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"trace CSV {bad} line 2: not UTF-8 text" in proc.stderr


def test_non_utf8_domain_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"preset":\n "square"\xff}')
    proc = run("classify", "--domain-file", str(bad), "--grid", "8")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"domain file {bad} line 2: not UTF-8 text" in proc.stderr


def test_deeply_nested_domain_file_exits_2(tmp_path):
    box = '{"op": "box", "min": [-1, -1], "max": [1, 1]}'
    text = box
    for _ in range(600):
        text = '{"op": "union", "args": [' + box + ", " + text + "]}"
    deep = tmp_path / "deep.json"
    deep.write_text('{"shape": ' + text + "}")
    proc = run("classify", "--domain-file", str(deep), "--grid", "8")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"domain file {deep}: the document nests too deeply" in proc.stderr


def test_grid_zero_exit_2():
    proc = run("classify", "--preset", "square", "--grid", "0")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_large_cantor_generation_exit_2_before_building(monkeypatch):
    # generation 40 would need 4^41 crack segments; the spacing rule must
    # refuse it before any segment is built
    import roughgg.domain
    from roughgg import cli
    from roughgg.errors import GridTooCoarseError

    def refuse(k):
        raise AssertionError(f"cantor intervals built for k={k}")

    monkeypatch.setattr(roughgg.domain, "_cantor_intervals", refuse)
    assert cli.main(["approx", "--preset", "cantor-cross", "--k", "40",
                     "--grid", "36"]) == 2
    # a negative generation is refused by the spec, not by an overflowing 3^-k
    assert cli.main(["approx", "--preset", "cantor-cross", "--k", "-5000",
                     "--grid", "36"]) == 2
    # nor is a generation beyond the float range an overflow
    assert cli.main(["approx", "--preset", "cantor-cross", "--k", "9" * 400,
                     "--grid", "36"]) == 2
    # the generation of a domain document meets the same rule
    assert cli.main(["classify", "--domain", '{"preset": "cantor-cross", "k": 40}',
                     "--grid", "36"]) == 2
    with pytest.raises(GridTooCoarseError):
        roughgg.domain.preset_set("cantor-cross", 1.0 / 36.0, k=40)


def test_grid_above_the_cell_cap_exit_2_before_building(monkeypatch, capsys):
    # 40,008^2 cells would need a 25 GB centre array; the cap must refuse
    # the grid before rasterize allocates anything
    from roughgg import cli

    def refuse(spec, grid):
        raise AssertionError(f"rasterized a grid of extents {grid.extents}")

    monkeypatch.setattr(cli, "rasterize", refuse)
    assert cli.main(["classify", "--preset", "square", "--grid", "20000"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_seed_flag_is_gone_and_bare_seed_means_seed_0(tmp_path):
    proc = run("trace", "--preset", "square", "--grid", "16", "--field", "seed",
               "--seed", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 3" in proc.stderr
    outs = []
    for field in ("seed", "seed:0"):
        out = tmp_path / f"{field.replace(':', '_')}.json"
        proc = run("gg-check", "--preset", "square", "--grid", "16", "--field", field,
                   "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(out.read_text()))
    assert outs[0]["rows"] == outs[1]["rows"]


@pytest.mark.parametrize("args, scale", [
    (["perimeter", "--preset", "disk", "--grid", "32", "--eps", "1e300"],
     "mollifier width 1e+300"),
    (["approx", "--preset", "cantor-cross", "--k", "2", "--grid", "36", "--delta", "1e300"],
     "cover ball radius"),
    (["approx", "--preset", "slit-square", "--grid", "32", "--sweep", "1e300,0.5,0.25"],
     "cover ball radius"),
], ids=["perimeter-eps", "approx-delta", "approx-sweep"])
def test_scale_too_large_for_the_grid_exit_2(args, scale, capsys):
    # each would ask for a lattice of some 1e603 points
    from roughgg import cli

    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert scale in err and f"over the cap of {2**23}" in err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    out = tmp_path / "perimeter.json"
    for args in (["gallery", "--out-dir", str(tmp_path / "gallery")],
                 ["perimeter", "--preset", "square", "--grid", "16", "--out", str(out)]):
        proc = subprocess.run(CLI + args, capture_output=True, text=True, umask=umask)
        assert proc.returncode == 0, proc.stderr
    written = [out, *(tmp_path / "gallery").iterdir()]
    assert len(written) == 8  # six presets, the manifest and the perimeter report
    assert {oct(p.stat().st_mode & 0o777) for p in written} == {oct(mode)}
    assert not [p for p in tmp_path.rglob(".tmp-roughgg*")]


CUBE_DOC = '{"shape":{"op":"box","min":[-1,-1,-1],"max":[1,1,1]}}'


@pytest.mark.parametrize("command", ["classify", "approx"])
def test_png_on_a_3d_set_exit_2_before_any_output(tmp_path, command):
    out, png = tmp_path / "x.json", tmp_path / "y.pgm"
    proc = run(command, "--domain", CUBE_DOC, "--grid", "8", "--out", str(out),
               "--png", str(png))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--png needs a 2D domain" in proc.stderr
    assert not out.exists() and not png.exists()
