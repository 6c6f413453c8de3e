"""Command-line front end: deterministic dataset emission and batch
verification runs.

Configuration comes from an optional flat key=value file plus command-line
overrides (the command line wins).  All quantities use hbar = 1 energy
units.  Numeric CSV output carries 17 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 synthesis or integration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import algebra, lattice, spectra, su3 as su3mod
from .errors import FloquetError
from .propagate import verify_protocol
from .synth import (
    DrivingProtocol,
    crossstitch_protocol,
    general_protocol,
    su3_protocol,
)
from .gauge import GaugeParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME = 3

MODELS = ("crossstitch", "kitaev", "pwave2d", "su3flat")

DEFAULTS = {
    "model": "crossstitch",
    "alpha": 1.0,
    "delta": 2.0,
    "omega": 8.0,
    "aplus2": 2.0,
    "p": 3.0,
    "kpoints": 64,
    "tpoints": 64,
    "periods": 1,
    "tol": 1e-9,
    "ncoeff": 40,
    "lattice_sites": 8,
    "kitaev_mu": 1.0,
    "kitaev_t": 1.0,
    "kitaev_delta": 1.0,
    "pwave_mu": 1.0,
    "pwave_delta": 0.5,
    "corrupt_fz": 1.0,
    "out": ".",
}

_FLOAT_KEYS = {"alpha", "delta", "omega", "aplus2", "p", "tol", "kitaev_mu",
               "kitaev_t", "kitaev_delta", "pwave_mu", "pwave_delta",
               "corrupt_fz"}
_INT_KEYS = {"kpoints", "tpoints", "periods", "ncoeff", "lattice_sites"}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(cfg: dict) -> dict:
    out = dict(DEFAULTS)
    out.update(cfg)
    for key in sorted(_FLOAT_KEYS | _INT_KEYS):
        kind = int if key in _INT_KEYS else float
        try:
            out[key] = kind(out[key])
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {out[key]!r}") from None
    out["model"] = str(out["model"])
    return out


def validate(cfg: dict) -> dict:
    cfg = _coerce(cfg)
    for key in sorted(_FLOAT_KEYS):
        if not np.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    if cfg["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg['model']!r}")
    if cfg["kpoints"] < 2 or cfg["tpoints"] < 2:
        raise ConfigError("kpoints and tpoints must both be >= 2")
    if not (1e-12 <= cfg["tol"] <= 1e-4):
        raise ConfigError("tol must lie in [1e-12, 1e-4]")
    if cfg["omega"] <= 0:
        raise ConfigError("omega must be positive")
    if cfg["aplus2"] < 0:
        raise ConfigError("aplus2 must be non-negative")
    if float(cfg["p"]) != int(round(cfg["p"])):
        raise ConfigError(f"winding p must be an integer, got {cfg['p']}")
    cfg["p"] = int(round(cfg["p"]))
    if cfg["periods"] < 1:
        raise ConfigError("periods must be >= 1")
    if cfg["ncoeff"] < 1:
        raise ConfigError("ncoeff must be >= 1")
    if cfg["lattice_sites"] < 8:
        raise ConfigError("lattice_sites must be >= 8 so range-3 hops cannot wrap")
    return cfg


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: str, rows) -> None:
    """Write ``rows``, a sequence or 2-D array of equal-length rows, under
    ``header``.  A column whose first cell is a str is written as is; any
    other is written as :func:`fmt` writes it.  The body is formatted in one
    ``%`` operation."""
    body = ""
    if len(rows):
        cells = np.asarray(rows, dtype=object)
        spec = ",".join("%s" if isinstance(v, str) else "%.17g" for v in cells[0])
        body = ((spec + "\n") * len(cells)) % tuple(cells.ravel().tolist())
    path.write_text(header + "\n" + body)


def _mesh_rows(k_label, t, *fields) -> np.ndarray:
    """k-major (k, t, *fields) rows of an (n_k, n_t) mesh as an object
    array.  Each grid value is formatted once and enters as a text cell."""
    cells = np.empty((len(k_label), len(t), 2 + len(fields)), dtype=object)
    cells[..., 0] = np.array([fmt(v) for v in k_label], dtype=object)[:, None]
    cells[..., 1] = np.array([fmt(v) for v in t], dtype=object)
    for column, field in enumerate(fields, 2):
        cells[..., column] = field
    return cells.reshape(-1, cells.shape[-1])


def k_grid_of(cfg) -> np.ndarray:
    n = cfg["kpoints"]
    k = -np.pi + 2 * np.pi * np.arange(n) / n
    if cfg["model"] == "pwave2d":
        return np.stack([k, np.zeros_like(k)], axis=-1)  # kx sweep at ky = 0
    return k


def t_grid_of(cfg) -> np.ndarray:
    n = cfg["tpoints"]
    period = 2 * np.pi / cfg["omega"]
    return period * np.arange(n) / n


def build_protocol(cfg) -> DrivingProtocol:
    a_plus = float(np.sqrt(cfg["aplus2"]))
    model = cfg["model"]
    if model == "crossstitch":
        proto = crossstitch_protocol(cfg["alpha"], cfg["delta"], cfg["omega"],
                                     a_plus, cfg["p"])
    elif model == "su3flat":
        spec = algebra.su3_flat(delta=cfg["delta"])
        proto = su3_protocol(spec, omega=cfg["omega"], a_plus=a_plus, p=cfg["p"])
    else:
        if model == "kitaev":
            target = algebra.kitaev_chain(cfg["kitaev_mu"], cfg["kitaev_t"],
                                          cfg["kitaev_delta"])
        else:
            target = algebra.chiral_p_wave_2d(cfg["pwave_mu"], cfg["pwave_delta"])
        zero = algebra.custom(lambda k: (np.zeros_like(np.asarray(k, dtype=float)[..., 0]
                                                       if target.dimension == 2 else
                                                       np.asarray(k, dtype=float)),) * 4,
                              band_count=2, dimension=target.dimension,
                              name="zero")
        gauge = GaugeParams(a_plus=a_plus, p=cfg["p"], omega=cfg["omega"])
        proto = general_protocol(zero, target, gauge)
    if cfg["corrupt_fz"] != 1.0:
        proto = dataclasses.replace(proto, fz_scale=cfg["corrupt_fz"])
    return proto


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg, outdir: Path) -> int:
    proto = build_protocol(cfg)
    k = k_grid_of(cfg)
    t = t_grid_of(cfg)
    f0, fx, fy, fz = proto.drive_table(k, t)
    k_label = k[:, 0] if k.ndim == 2 else k
    rows = _mesh_rows(k_label, t, fx, fy, fz, f0)
    path = outdir / f"drive_{cfg['model']}_w{cfg['omega']:g}.csv"
    write_csv(path, "k,t,fx,fy,fz,f0", rows)
    print(f"synth: wrote {len(rows)} samples to {path}")
    return EXIT_OK


def cmd_verify(cfg, outdir: Path) -> int:
    proto = build_protocol(cfg)
    k = k_grid_of(cfg)
    report = verify_protocol(proto, k, periods=cfg["periods"], tol=cfg["tol"])
    max_strobe = report.max_strobe_error
    errors = report.strobe_errors
    k_labels = report.k_labels
    order = np.argsort(errors)[::-1]
    passed = max_strobe <= cfg["tol"]

    lines = [
        f"model={cfg['model']}",
        f"omega={fmt(cfg['omega'])}",
        f"periods={cfg['periods']}",
        f"kpoints={cfg['kpoints']}",
        f"tol={fmt(cfg['tol'])}",
        f"maxStrobeError={fmt(max_strobe)}",
        f"maxMicromotionError={fmt(report.max_micromotion_error)}",
        f"strobePhase={fmt(report.strobe_phase_used.real)}",
        f"integratorSteps={report.integrator_steps}",
        f"passed={'true' if passed else 'false'}",
        "",
        "[worst-offenders]",
        "k,strobe_error",
    ]
    for idx in order[:8]:
        lines.append(f"{fmt(k_labels[idx])},{fmt(errors[idx])}")
    lines += ["", "[per-k]", "k,strobe_error"]
    for kv, err in zip(k_labels, errors):
        lines.append(f"{fmt(kv)},{fmt(err)}")
    path = outdir / f"verify_{cfg['model']}_w{cfg['omega']:g}.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"verify: maxStrobeError={max_strobe:.3e} "
          f"({'pass' if passed else 'FAIL'}), report in {path}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_bands(cfg, outdir: Path) -> int:
    model = cfg["model"]
    k = k_grid_of(cfg)
    if model == "crossstitch":
        spec = algebra.cross_stitch(cfg["alpha"], cfg["delta"])
        flat = np.full(cfg["kpoints"], cfg["delta"])
        disp = -4 * cfg["alpha"] * np.cos(k) - cfg["delta"]
        table = spectra.band_structure(spec, k)
        check = np.max(np.abs(np.sort(np.stack([flat, disp], axis=1), axis=1)
                              - table.energies))
        if check > 1e-10:
            raise FloquetError(f"band bookkeeping drifted by {check:.2e}")
        rows = [(kv, f, d) for kv, f, d in zip(k, flat, disp)]
        header = "k,E_flat,E_disp"
    elif model == "su3flat":
        spec = algebra.su3_flat(delta=cfg["delta"])
        table = spectra.band_structure(spec, k)
        rows = [(kv, *row) for kv, row in zip(k, table.energies)]
        header = "k,E_minus,E_flat,E_plus"
    else:
        spec = (algebra.kitaev_chain(cfg["kitaev_mu"], cfg["kitaev_t"],
                                     cfg["kitaev_delta"])
                if model == "kitaev"
                else algebra.chiral_p_wave_2d(cfg["pwave_mu"], cfg["pwave_delta"]))
        table = spectra.band_structure(spec, k)
        k_label = k[:, 0] if k.ndim == 2 else k
        rows = [(kv, *row) for kv, row in zip(k_label, table.energies)]
        header = "k,E_flat,E_disp"  # ascending eigenvalues; schema-fixed names
    path = outdir / f"bands_{model}.csv"
    write_csv(path, header, rows)
    print(f"bands: wrote {len(rows)} momenta to {path}")
    return EXIT_OK


def cmd_fourier(cfg, outdir: Path) -> int:
    table = spectra.envelope_fourier(cfg["aplus2"], cfg["ncoeff"])
    rows = list(zip(table.indices.tolist(), table.coefficients))
    path = outdir / f"fourier_aplus2_{cfg['aplus2']:g}.csv"
    write_csv(path, "n,c_n", rows)
    print(f"fourier: wrote {len(rows)} coefficients to {path}")
    return EXIT_OK


def cmd_lattice(cfg, outdir: Path) -> int:
    a_plus = float(np.sqrt(cfg["aplus2"]))
    terms = lattice.expand_to_lattice(cfg["alpha"], cfg["delta"], cfg["omega"],
                                      a_plus, cfg["p"])
    rows = [(term.channel, term.m, term.describe(), term.coefficient)
            for term in terms]
    path = outdir / "lattice_terms.csv"
    write_csv(path, "channel,m,harmonic,coefficient", rows)
    deviation = lattice.lattice_vs_momentum_check(
        cfg["alpha"], cfg["delta"], cfg["omega"], a_plus, cfg["p"],
        cfg["lattice_sites"],
        t_grid_of(cfg)[:min(16, cfg["tpoints"])])
    print(f"lattice: wrote {len(rows)} terms to {path}; "
          f"momentum-space roundtrip deviation {deviation:.3e}")
    return EXIT_OK


def cmd_su3(cfg, outdir: Path) -> int:
    a_plus = float(np.sqrt(cfg["aplus2"]))
    spec = algebra.su3_flat(delta=cfg["delta"])
    k, t = k_grid_of(cfg), t_grid_of(cfg)
    table = su3mod.su3_drive_table(spec, cfg["omega"], a_plus, cfg["p"], k, t)
    rows = _mesh_rows(k, t, table["fx"], table["fy"], table["fz"])
    path = outdir / f"su3_drive_w{cfg['omega']:g}.csv"
    write_csv(path, "k,t,fx,fy,fz", rows)
    print(f"su3: wrote {len(rows)} samples to {path}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "verify": cmd_verify,
    "bands": cmd_bands,
    "fourier": cmd_fourier,
    "lattice": cmd_lattice,
    "su3": cmd_su3,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqueng",
        description="Synthesize and verify exact periodic driving protocols "
                    "for two- and three-band lattice Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--model", type=str, choices=MODELS, default=None)
        for flag in ("--omega", "--alpha", "--delta", "--aplus2", "--p", "--tol",
                     "--corrupt-fz"):
            cmd.add_argument(flag, type=float, default=None)
        for flag in ("--kpoints", "--tpoints", "--periods"):
            cmd.add_argument(flag, type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        for key in DEFAULTS:  # a flag's argparse dest is its config key
            value = getattr(args, key, None)
            if value is not None:
                cfg[key] = value
        cfg = validate(cfg)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    outdir = Path(cfg["out"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, outdir)
    except (FloquetError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
