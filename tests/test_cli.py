import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from floqueng import cli, lattice
from floqueng.propagate import verify_protocol

SQRT2 = np.sqrt(2.0)
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run(args):
    return cli.main(args)


def run_process(args, timeout):
    """``python -m floqueng.cli ARGS`` under warnings-as-errors in a child
    process killed after ``timeout`` seconds, so a run that hangs fails its
    test instead of stalling the suite."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "floqueng.cli", *args], capture_output=True,
                          text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"))


def test_synth_defaults(tmp_path):
    code = run(["synth", "--out", str(tmp_path), "--kpoints", "64",
                "--tpoints", "64"])
    assert code == 0
    path = tmp_path / "drive_crossstitch_w8.csv"
    header, rows = read_csv(path)
    assert header == ["k", "t", "fx", "fy", "fz", "f0"]
    assert len(rows) == 64 * 64
    # row-major over k then t: the k = 0 block starts at index 32 * 64
    row = rows[32 * 64]
    assert float(row[0]) == 0.0 and float(row[1]) == 0.0
    assert float(row[2]) == pytest.approx(16 * SQRT2 - 8)
    assert float(row[4]) == pytest.approx(24.0)


def test_synth_second_frequency_writes_second_file(tmp_path):
    assert run(["synth", "--out", str(tmp_path), "--kpoints", "8",
                "--tpoints", "8"]) == 0
    assert run(["synth", "--out", str(tmp_path), "--kpoints", "8",
                "--tpoints", "8", "--omega", "4"]) == 0
    assert (tmp_path / "drive_crossstitch_w8.csv").exists()
    assert (tmp_path / "drive_crossstitch_w4.csv").exists()


def test_large_ladder_amplitude_synthesizes(tmp_path):
    # mu_plus(T) = a_plus sin(2 pi) rounds to a few 1e-12 at a_plus = 1e4,
    # which is no broken gauge: the integer winding alone makes it periodic
    assert run(["synth", "--out", str(tmp_path), "--aplus2", "1e8",
                "--kpoints", "4", "--tpoints", "4"]) == 0
    assert (tmp_path / "drive_crossstitch_w8.csv").exists()


def test_invalid_winding_exits_2_and_writes_nothing(tmp_path, capsys):
    code = run(["synth", "--out", str(tmp_path), "--p", "1.5"])
    assert code == 2
    assert list(tmp_path.iterdir()) == []
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["synth", "--kpoints", "1"],
    ["synth", "--tol", "1e-2"],
    ["synth", "--omega", "-3"],
    ["synth", "--aplus2", "-1"],
    ["verify", "--periods", "0"],
    ["verify", "--omega", "nan"],
    ["verify", "--omega", "inf"],
    ["verify", "--aplus2", "nan"],
    ["synth", "--config", "kpoints = 2.5"],
    ["verify", "--config", "omega = abc"],
    ["fourier", "--config", "ncoeff = 4096"],  # above the table's size limit
    ["synth", "--config", "kpoints 16"],  # a line without "="
    # a model name that only a file can give: the flag's choices refuse it first
    ["bands", "--config", "model = nosuch"],
    # model parameters are the library defaults, not config keys
    ["synth", "--config", "kitaev_mu = 0.5"],
    ["synth", "--config", "pwave_delta = 0.7"],
    # only the crossstitch drive has a hopping-harmonic table
    ["lattice", "--model", "kitaev"],
    ["lattice", "--model", "su3flat"],
    ["lattice", "--config", "model = pwave2d"],
    # a key set twice is refused, naming both lines, rather than the last winning
    ["synth", "--config", "kpoints = 8\nkpoints = 4"],
    # a file that is not UTF-8 text is refused, naming the file
    ["synth", "--config", b"kpoints = 8\n\xff\n"],
    # su3 writes the su3flat table only, and never reads the default model
    ["su3", "--model", "kitaev"],
    ["su3", "--config", "model = crossstitch"],
    # ncoeff is set by flag like every other config key, and is bounded there too
    ["fourier", "--ncoeff", "4096"],
])
def test_config_validation_failures(tmp_path, bad, capsys):
    expected = bad[1].lstrip("-")  # the message names the key the flag sets
    if "--config" in bad:  # the argument after it is the file's text, or its bytes
        i = bad.index("--config") + 1
        cfg, text = tmp_path / "bad.cfg", bad[i]
        if isinstance(text, bytes):
            cfg.write_bytes(text)
            expected = str(cfg)
        else:
            cfg.write_text(text + "\n")
            expected = "lines 1 and 2" if "\n" in text else text.split()[0]
        bad = bad[:i] + [str(cfg)] + bad[i + 1:]
    assert run(bad + ["--out", str(tmp_path)]) == 2
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == (["bad.cfg"] if "--config" in bad else [])
    err = capsys.readouterr().err
    assert "configuration error" in err and expected in err


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_output_directory_exits_2_and_writes_nothing(tmp_path, out, capsys):
    # an existing file, or a path through one, is no output directory
    (tmp_path / "file").write_text("kept\n")
    assert run(["synth", "--kpoints", "4", "--tpoints", "4",
                "--out", str(tmp_path / out)]) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert "configuration error" in capsys.readouterr().err


def test_unwritable_output_file_exits_3(tmp_path, capsys):
    # the table's own path is a directory: writing it fails at run time
    (tmp_path / "drive_crossstitch_w8.csv").mkdir()
    assert run(["synth", "--kpoints", "4", "--tpoints", "4", "--out", str(tmp_path)]) == 3
    assert [path.name for path in tmp_path.iterdir()] == ["drive_crossstitch_w8.csv"]
    assert list((tmp_path / "drive_crossstitch_w8.csv").iterdir()) == []
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["synth", "--kpoints", "2", "--tpoints", "1000000000000000"],
    ["su3", "--kpoints", "2", "--tpoints", "1000000000000000"],
    ["verify", "--kpoints", "1000000000000000"],
])
def test_array_too_large_to_allocate_exits_3_and_writes_nothing(tmp_path, args, capsys):
    # 1e15 values are past a 47-bit address space under any overcommit
    # setting, so the allocation fails at once without touching memory
    assert run(args + ["--out", str(tmp_path)]) == 3
    assert list(tmp_path.iterdir()) == []
    assert "runtime error: Unable to allocate" in capsys.readouterr().err


def test_verify_passes_on_defaults(tmp_path):
    # down to the tightest tol allowed, where a round accepted on its own
    # error estimate sits closest to the rounding floor
    for tol in ("1e-8", "1e-12"):
        assert run(["verify", "--out", str(tmp_path / tol), "--kpoints", "8",
                    "--tol", tol]) == 0
        text = (tmp_path / tol / "verify_crossstitch_w8.txt").read_text()
        strobe = float([l for l in text.splitlines()
                        if l.startswith("maxStrobeError=")][0].split("=")[1])
        assert strobe <= float(tol)
        assert "passed=true" in text
        assert "[per-k]" in text


@pytest.mark.parametrize("name", ["verify_w8", "verify_w4"])
def test_verify_recipes_accept_at_256_steps(name):
    # the steps each recipe needs: at w=4 the 256-step round cut its
    # difference 64x, to 1.3e-8, so it is accepted on 8 diff/63 < tol one
    # doubling before its difference itself falls below tol
    cfg = cli.validate(cli.load_config(str(CONFIGS / f"{name}.cfg")))
    rep = verify_protocol(cli.build_protocol(cfg), cli.k_grid_of(cfg),
                          periods=cfg["periods"], tol=cfg["tol"])
    assert len(rep.strobe_errors) == 64
    assert rep.integrator_steps == 256
    assert rep.max_strobe_error <= cfg["tol"]


def test_verify_corrupted_drive_fails(tmp_path):
    code = run(["verify", "--out", str(tmp_path), "--kpoints", "4",
                "--tol", "1e-8", "--corrupt-fz", "1.01"])
    assert code == 1
    text = (tmp_path / "verify_crossstitch_w8.txt").read_text()
    assert "passed=false" in text
    # synth checks no propagation, so the detuned closed-form table is written
    assert run(["synth", "--out", str(tmp_path), "--kpoints", "4", "--tpoints", "4",
                "--corrupt-fz", "1.5"]) == 0
    header, rows = read_csv(tmp_path / "drive_crossstitch_w8.csv")
    assert header == ["k", "t", "fx", "fy", "fz", "f0"] and len(rows) == 16


def test_verify_multi_period(tmp_path):
    # every segment past the first period spans several blocks folded across
    # chunks, for the closed form, the general path and the 2D momentum grid
    runs = [(model, "2", "8", "1e-9") for model in cli.MODELS]
    runs.append(("crossstitch", "3", "4", "1e-8"))
    for model, periods, kpoints, tol in runs:
        out = tmp_path / f"{model}-{periods}"
        assert run(["verify", "--out", str(out), "--model", model, "--kpoints", kpoints,
                    "--periods", periods, "--tol", tol]) == 0
        assert "passed=true" in (out / f"verify_{model}_w8.txt").read_text().splitlines()


def test_periods_beyond_the_step_cap_exit_3_and_write_nothing(tmp_path):
    # 300000 periods need 1.92e7 base steps, above the 2^24 cap: the run
    # stops before the first round instead of doubling for minutes
    proc = run_process(["verify", "--periods", "300000", "--kpoints", "2",
                        "--out", str(tmp_path)], timeout=10)
    assert proc.returncode == 3
    assert list(tmp_path.iterdir()) == []
    assert "cap of 16777216 steps" in proc.stderr


def test_bands_flat_column(tmp_path):
    assert run(["bands", "--out", str(tmp_path), "--kpoints", "32"]) == 0
    header, rows = read_csv(tmp_path / "bands_crossstitch.csv")
    assert header == ["k", "E_flat", "E_disp"]
    flat = np.array([float(r[1]) for r in rows])
    disp = np.array([float(r[2]) for r in rows])
    k = np.array([float(r[0]) for r in rows])
    assert np.all(flat == 2.0)
    assert np.allclose(disp, -4 * np.cos(k) - 2.0)


def test_bands_bookkeeping_scales_with_the_energies(tmp_path):
    # energies of size 1e7 carry rounding far above an absolute 1e-10
    assert run(["bands", "--out", str(tmp_path), "--delta", "1e7"]) == 0
    assert (tmp_path / "bands_crossstitch.csv").exists()


def test_overflowing_drive_exits_3_and_writes_nothing(tmp_path, capsys):
    # su3 builds its drive as synth does, so a detuning that overflows stops
    # it too; a target that overflows is refused by its spec, without a warning
    for command, flag, message in (("synth", "--aplus2", "not finite"),
                                   ("lattice", "--aplus2", "not finite"),
                                   ("su3", "--corrupt-fz", "not finite"),
                                   ("bands", "--delta", "model 'crossstitch' produced "
                                                        "non-finite coefficients")):
        out = tmp_path / command
        assert run([command, "--out", str(out), flag, "1e308",
                    "--kpoints", "4", "--tpoints", "4"]) == 3
        assert list(out.iterdir()) == []
        assert message in capsys.readouterr().err


def test_bands_of_huge_couplings_are_finite(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bands", "--out", str(tmp_path), "--model", "su3flat",
                    "--delta", "1e300", "--kpoints", "8"]) == 0
    _, rows = read_csv(tmp_path / "bands_su3flat.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_unresolvable_drive_exits_3_at_once(tmp_path):
    # a period of 6e300: no step count within the cap resolves the drive, and
    # the run says so instead of doubling for minutes
    proc = run_process(["verify", "--out", str(tmp_path), "--omega", "1e-300",
                        "--kpoints", "4"], timeout=60)
    assert proc.returncode == 3
    assert list(tmp_path.iterdir()) == []
    assert "> pi per step" in proc.stderr


@pytest.mark.parametrize("model", cli.MODELS)
def test_fast_drive_verifies(tmp_path, model):
    # the drive grows with omega; the phase rule's max |h| must not square its
    # components, which overflows above about 1.3e154 and refuses the run
    for omega in ("1e200", "1e300"):
        out = tmp_path / omega
        assert run(["verify", "--out", str(out), "--model", model, "--omega", omega,
                    "--kpoints", "4"]) == 0
        (path,) = out.iterdir()
        assert "passed=true" in path.read_text().splitlines()


def test_bands_three_band_model(tmp_path):
    assert run(["bands", "--out", str(tmp_path), "--model", "su3flat",
                "--kpoints", "16"]) == 0
    header, rows = read_csv(tmp_path / "bands_su3flat.csv")
    assert header == ["k", "E_minus", "E_flat", "E_plus"]
    assert all(float(r[2]) == pytest.approx(0.0, abs=1e-12) for r in rows)


def test_fourier_dataset(tmp_path):
    assert run(["fourier", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fourier_aplus2_2.csv")
    assert header == ["n", "c_n"]
    coeffs = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(coeffs[1::2])) <= 1e-12
    even = coeffs[2::2]
    assert np.allclose(even[1:] / even[:-1], 2 - np.sqrt(3), atol=1e-6)


def test_fourier_ncoeff_flag_sets_the_coefficient_count(tmp_path):
    assert run(["fourier", "--ncoeff", "8", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fourier_aplus2_2.csv")
    assert [int(r[0]) for r in rows] == list(range(9))


def test_fourier_at_large_amplitude_writes_the_exact_mean(tmp_path):
    # c_0 is the envelope's mean 1/b, and every odd coefficient is exactly 0
    assert run(["fourier", "--aplus2", "1e8", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fourier_aplus2_1e+08.csv")
    assert float(rows[0][1]) == pytest.approx(1 / math.sqrt(1 + 1e8), rel=1e-12, abs=0)
    assert all(float(r[1]) == 0.0 for r in rows[1::2])


def test_every_config_key_is_a_flag_of_its_type():
    # the flags are made from DEFAULTS, so no key can lack one
    parser = cli.build_parser()
    for key, default in cli.DEFAULTS.items():
        args = parser.parse_args(["synth", "--" + key.replace("_", "-"), str(default)])
        assert (getattr(args, key), type(getattr(args, key))) == (default, type(default))


def test_lattice_dataset(tmp_path):
    assert run(["lattice", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "lattice_terms.csv")
    assert header == ["channel", "m", "harmonic", "coefficient"]
    assert max(int(r[1]) for r in rows) == 3


def test_lattice_round_trip_reads_no_time_mesh(tmp_path, capsys):
    # the round trip samples 16 times over one period, whatever tpoints is:
    # tpoints sizes the synth and su3 tables only, so 1e15 allocates nothing
    deviations = []
    for tpoints in ("16", "2", "64", "1000000000000000"):
        out = tmp_path / tpoints
        assert run(["lattice", "--out", str(out), "--tpoints", tpoints]) == 0
        deviations.append(capsys.readouterr().out.rsplit(" ", 1)[1])
        assert len(read_csv(out / "lattice_terms.csv")[1]) == 26
    assert deviations == [deviations[0]] * 4


def test_lattice_round_trip_miss_exits_3_and_writes_nothing(tmp_path, monkeypatch,
                                                            capsys):
    # one term 1% off: the table check reads the table, not the terms, so
    # only the round trip through the lattice matrix can catch it
    expand = lattice.expand_to_lattice

    def one_wrong(proto):
        first, *rest = expand(proto)
        wrong = first._replace(coefficient=1.01 * first.coefficient)
        return [wrong] + rest

    monkeypatch.setattr(lattice, "expand_to_lattice", one_wrong)
    assert run(["lattice", "--out", str(tmp_path)]) == 3
    assert list(tmp_path.iterdir()) == []
    assert "round trip misses the general path" in capsys.readouterr().err


def test_huge_lattice_drive_passes_its_round_trip(tmp_path):
    # a deviation of 1e285 is 1e-16 of a drive of size 1e301
    assert run(["lattice", "--out", str(tmp_path), "--omega", "1e300"]) == 0
    assert (tmp_path / "lattice_terms.csv").exists()


def test_large_ladder_amplitude_expands_to_the_lattice(tmp_path):
    # the table check is on the drive's own scale, so rounding noise that
    # grows with a_plus^2 leaves a drive of exactly range 3 passing
    assert run(["lattice", "--out", str(tmp_path), "--aplus2", "1e4"]) == 0
    _, rows = read_csv(tmp_path / "lattice_terms.csv")
    assert len(rows) == 27


def test_lattice_past_the_closed_form_float_limit_exits_3(tmp_path, capsys):
    # at a_plus^2 = 1e16 the table's z rows p w (1 - a_plus^2/2) and
    # p w a_plus^2/2 cos 2wt, each about 1e17, cancel at t = 0 below their
    # rounding: the table misses the drive there by 8, and the round trip
    # samples t = 0
    assert run(["lattice", "--out", str(tmp_path), "--aplus2", "1e16"]) == 3
    assert list(tmp_path.iterdir()) == []
    assert "round trip misses the general path" in capsys.readouterr().err


def test_su3_dataset(tmp_path):
    assert run(["su3", "--out", str(tmp_path), "--kpoints", "8",
                "--tpoints", "8"]) == 0
    header, rows = read_csv(tmp_path / "su3_drive_w8.csv")
    assert header == ["k", "t", "fx", "fy", "fz"]
    assert len(rows) == 64


def reference_csv(header, rows):
    """The table format, one value at a time: text as is, numbers with 17
    significant digits."""
    return "".join(
        ",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in row) + "\n"
        for row in [[header], *rows])


def test_write_csv_matches_per_value_reference(tmp_path):
    rows = [
        (-0.0, math.nan, math.inf, -math.inf),
        (5e-324, 1e308, 0.1, -1e-300),
        (3, -7, 2**60 + 1, 0),
        (np.float64(0.1), np.float64(-0.0), np.float64(2.5e-17), np.float64(1 / 3)),
    ]
    path = tmp_path / "numbers.csv"
    cli.write_csv(path, "a,b,c,d", rows)
    assert path.read_text() == reference_csv("a,b,c,d", rows)

    text_rows = [("x", 1, "cos(2k)*sin(wt)", 0.1), ("yz", -2, "1", np.float64(-0.0))]
    cli.write_csv(path, "channel,m,harmonic,coefficient", text_rows)
    assert path.read_text() == reference_csv("channel,m,harmonic,coefficient",
                                             text_rows)

    cli.write_csv(path, "k,t", [])
    assert path.read_bytes() == b"k,t\n"


@pytest.mark.parametrize("command,model,name", [
    ("synth", "crossstitch", "drive_crossstitch_w8.csv"),
    ("synth", "kitaev", "drive_kitaev_w8.csv"),
    ("su3", "su3flat", "su3_drive_w8.csv"),
])
def test_mesh_tables_match_row_by_row_reference(tmp_path, command, model, name):
    assert run([command, "--out", str(tmp_path), "--model", model,
                "--kpoints", "16", "--tpoints", "8"]) == 0
    cfg = cli.validate({"model": model, "kpoints": 16, "tpoints": 8})
    k, t = cli.k_grid_of(cfg), cli.t_grid_of(cfg)
    f0, fx, fy, fz = cli.build_protocol(cfg).drive_table(k, t)
    fields = (fx, fy, fz, f0) if command == "synth" else (fx, fy, fz)
    rows = []
    for i in range(16):
        for j in range(8):
            rows.append((k[i], t[j], *(f[i, j] for f in fields)))
    header = "k,t,fx,fy,fz,f0" if command == "synth" else "k,t,fx,fy,fz"
    assert (tmp_path / name).read_text() == reference_csv(header, rows)


def test_deterministic_output(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(["synth", "--out", str(d), "--kpoints", "16",
                    "--tpoints", "16"]) == 0
        assert run(["fourier", "--out", str(d)]) == 0
        assert run(["lattice", "--out", str(d)]) == 0
    for name in ("drive_crossstitch_w8.csv", "fourier_aplus2_2.csv",
                 "lattice_terms.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 4\nkpoints = 8\ntpoints = 8\n# comment\n")
    out = tmp_path / "out"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "drive_crossstitch_w4.csv").exists()
    assert run(["synth", "--config", str(cfg), "--out", str(out),
                "--omega", "8"]) == 0
    assert (out / "drive_crossstitch_w8.csv").exists()


def test_config_with_a_byte_order_mark(tmp_path):
    # an editor may save UTF-8 with a leading BOM; it is not part of the first key
    plain, bom = CONFIGS / "bands.cfg", tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for cfg in (plain, bom):
        assert run(["bands", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    name = "bands_crossstitch.csv"
    assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "bands" / name).read_bytes()


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omgea = 4\n")
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_config_file(tmp_path):
    assert run(["synth", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path)]) == 2


def test_general_model_synth(tmp_path):
    assert run(["synth", "--out", str(tmp_path), "--model", "kitaev",
                "--kpoints", "8", "--tpoints", "8"]) == 0
    assert (tmp_path / "drive_kitaev_w8.csv").exists()


def test_verify_three_band_model(tmp_path):
    code = run(["verify", "--out", str(tmp_path), "--model", "su3flat",
                "--kpoints", "4", "--tol", "1e-8"])
    assert code == 0
    assert "passed=true" in (tmp_path / "verify_su3flat_w8.txt").read_text()


def test_pwave2d_synth(tmp_path):
    assert run(["synth", "--out", str(tmp_path), "--model", "pwave2d",
                "--kpoints", "8", "--tpoints", "8"]) == 0
    header, rows = read_csv(tmp_path / "drive_pwave2d_w8.csv")
    assert len(rows) == 64
    kx = cli.k_grid_of(cli.validate({"model": "pwave2d", "kpoints": 8}))[:, 0]
    assert [float(row[0]) for row in rows] == np.repeat(kx, 8).tolist()


def test_pwave2d_bands_label_each_momentum_by_kx(tmp_path):
    assert run(["bands", "--out", str(tmp_path), "--model", "pwave2d",
                "--kpoints", "8"]) == 0
    header, rows = read_csv(tmp_path / "bands_pwave2d.csv")
    kx = cli.k_grid_of(cli.validate({"model": "pwave2d", "kpoints": 8}))[:, 0]
    assert [float(row[0]) for row in rows] == kx.tolist()


def test_pwave2d_verify_labels_each_momentum_by_kx():
    cfg = cli.validate({"model": "pwave2d", "kpoints": 4})
    k = cli.k_grid_of(cfg)
    report = verify_protocol(cli.build_protocol(cfg), k, tol=1e-8)
    assert report.worst_k == k[np.argmax(report.strobe_errors), 0]
    assert np.array_equal(report.k_labels, k[:, 0])


@pytest.mark.parametrize("model", cli.MODELS)
@pytest.mark.parametrize("command", ["synth", "bands", "verify"])
def test_every_model_runs_every_target_command(tmp_path, command, model):
    assert run([command, "--out", str(tmp_path), "--model", model,
                "--kpoints", "16"]) == 0
    (path,) = tmp_path.iterdir()
    lines = path.read_text().splitlines()
    if command == "synth":
        assert lines[0] == "k,t,fx,fy,fz,f0"
        assert len(lines) == 1 + 16 * cli.DEFAULTS["tpoints"]
    elif command == "bands":
        three = model == "su3flat"
        assert lines[0] == {"crossstitch": "k,E_flat,E_disp",
                            "su3flat": "k,E_minus,E_flat,E_plus"}.get(model, "k,E_minus,E_plus")
        assert len(lines) == 1 + 16
        assert all(len(line.split(",")) == (4 if three else 3) for line in lines)
    else:
        assert lines[0] == f"model={model}" and "passed=true" in lines
        assert len(lines) == lines.index("[per-k]") + 2 + 16


@pytest.mark.parametrize("extra", [[], ["--corrupt-fz", "1.5"]], ids=["plain", "corrupt-fz"])
def test_su3_table_is_the_su3flat_synth_table_without_f0(tmp_path, extra):
    # both tables come from one drive builder: byte for byte, once f0 is
    # cut, with a detuned z channel too
    args = ["--out", str(tmp_path), "--kpoints", "16", "--tpoints", "8"] + extra
    assert run(["su3"] + args) == 0
    assert run(["synth", "--model", "su3flat"] + args) == 0
    synth = (tmp_path / "drive_su3flat_w8.csv").read_text().splitlines()
    su3 = (tmp_path / "su3_drive_w8.csv").read_text().splitlines()
    assert su3 == [line.rsplit(",", 1)[0] for line in synth]
