import math

import numpy as np
import pytest

from floqueng import cli
from floqueng.propagate import verify_protocol

SQRT2 = np.sqrt(2.0)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run(args):
    return cli.main(args)


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
])
def test_config_validation_failures(tmp_path, bad, capsys):
    if "--config" in bad:  # the argument after it is the file's text
        i = bad.index("--config") + 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad[i] + "\n")
        bad = bad[:i] + [str(cfg)] + bad[i + 1:]
    assert run(bad + ["--out", str(tmp_path)]) == 2
    if "--config" in bad:
        assert cfg.read_text().split()[0] in capsys.readouterr().err


def test_verify_passes_on_defaults(tmp_path):
    code = run(["verify", "--out", str(tmp_path), "--kpoints", "8",
                "--tol", "1e-8"])
    assert code == 0
    text = (tmp_path / "verify_crossstitch_w8.txt").read_text()
    strobe = float([l for l in text.splitlines()
                    if l.startswith("maxStrobeError=")][0].split("=")[1])
    assert strobe <= 1e-8
    assert "passed=true" in text
    assert "[per-k]" in text


def test_verify_corrupted_drive_fails(tmp_path):
    code = run(["verify", "--out", str(tmp_path), "--kpoints", "4",
                "--tol", "1e-8", "--corrupt-fz", "1.01"])
    assert code == 1
    text = (tmp_path / "verify_crossstitch_w8.txt").read_text()
    assert "passed=false" in text


def test_verify_multi_period(tmp_path):
    code = run(["verify", "--out", str(tmp_path), "--kpoints", "4",
                "--periods", "3", "--tol", "1e-8"])
    assert code == 0


def test_bands_flat_column(tmp_path):
    assert run(["bands", "--out", str(tmp_path), "--kpoints", "32"]) == 0
    header, rows = read_csv(tmp_path / "bands_crossstitch.csv")
    assert header == ["k", "E_flat", "E_disp"]
    flat = np.array([float(r[1]) for r in rows])
    disp = np.array([float(r[2]) for r in rows])
    k = np.array([float(r[0]) for r in rows])
    assert np.all(flat == 2.0)
    assert np.allclose(disp, -4 * np.cos(k) - 2.0)


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


def test_lattice_dataset(tmp_path):
    assert run(["lattice", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "lattice_terms.csv")
    assert header == ["channel", "m", "harmonic", "coefficient"]
    assert max(int(r[1]) for r in rows) == 3


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


def test_pwave2d_verify_labels_each_momentum_by_kx():
    cfg = cli.validate({"model": "pwave2d", "kpoints": 4})
    k = cli.k_grid_of(cfg)
    report = verify_protocol(cli.build_protocol(cfg), k, tol=1e-8)
    assert report.worst_k == k[np.argmax(report.strobe_errors), 0]
    assert np.array_equal(report.k_labels, k[:, 0])
