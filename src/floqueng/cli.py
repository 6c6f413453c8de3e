"""Command-line front end: deterministic dataset emission and batch
verification runs.

Configuration comes from an optional flat key=value file plus command-line
overrides (the command line wins).  All quantities use hbar = 1 energy
units.  Numeric CSV output carries 17 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 synthesis or integration failure, or an array too large to allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import algebra, lattice, spectra, su3 as su3mod
from .errors import FloquetError
from .propagate import DEFAULT_TOL, TOL_MAX, TOL_MIN, verify_protocol
from .synth import DrivingProtocol, crossstitch_protocol, general_protocol
from .gauge import GaugeParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME = 3

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
    "tol": DEFAULT_TOL,
    "ncoeff": 40,
    "corrupt_fz": 1.0,
    "out": ".",
}

#: Each model's target Hamiltonian, built from a validated config.
TARGETS = {
    "crossstitch": lambda cfg: algebra.cross_stitch(cfg["alpha"], cfg["delta"]),
    "kitaev": lambda cfg: algebra.kitaev_chain(),
    "pwave2d": lambda cfg: algebra.chiral_p_wave_2d(),
    "su3flat": lambda cfg: algebra.su3_flat(delta=cfg["delta"]),
}
MODELS = tuple(TARGETS)


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    out, first = {}, {}  # each key's value and the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{path}: key {key!r} set on lines {first[key]} and {lineno}")
        out[key], first[key] = value, lineno
    return out


def validate(cfg: dict) -> dict:
    """``cfg`` over ``DEFAULTS``, each value converted to its default's type
    and held to the rules below; a rule that fails raises ConfigError."""
    cfg = {**DEFAULTS, **cfg}
    for key in sorted(DEFAULTS):
        kind = type(DEFAULTS[key])
        try:
            cfg[key] = kind(cfg[key])
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {cfg[key]!r}") from None
        if kind is float and not np.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    if cfg["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg['model']!r}")
    if cfg["kpoints"] < 2 or cfg["tpoints"] < 2:
        raise ConfigError("kpoints and tpoints must both be >= 2")
    if not (TOL_MIN <= cfg["tol"] <= TOL_MAX):
        raise ConfigError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if cfg["omega"] <= 0:
        raise ConfigError("omega must be positive")
    if cfg["aplus2"] < 0:
        raise ConfigError("aplus2 must be non-negative")
    if float(cfg["p"]) != int(round(cfg["p"])):
        raise ConfigError(f"winding p must be an integer, got {cfg['p']}")
    if cfg["periods"] < 1:
        raise ConfigError("periods must be >= 1")
    if not 1 <= cfg["ncoeff"] <= 4095:  # bounds the table an unbounded count would allocate
        raise ConfigError(f"ncoeff must lie in [1, 4095], got {cfg['ncoeff']}")
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
        cells[..., column] = np.ascontiguousarray(field)  # a strided view reads slowly
    return cells.reshape(-1, cells.shape[-1])


def k_grid_of(cfg) -> np.ndarray:
    n = cfg["kpoints"]
    k = -np.pi + 2 * np.pi * np.arange(n) / n
    if TARGETS[cfg["model"]](cfg).dimension == 2:
        return np.stack([k, np.zeros_like(k)], axis=-1)  # kx sweep at ky = 0
    return k


def t_grid_of(cfg) -> np.ndarray:
    n = cfg["tpoints"]
    period = 2 * np.pi / cfg["omega"]
    return period * np.arange(n) / n


def build_protocol(cfg) -> DrivingProtocol:
    """The crossstitch drive in closed form; any other model's target on the
    general path from the zero static Hamiltonian.  The gauge has
    a_plus = sqrt(aplus2), and ``corrupt_fz`` scales the z channel."""
    g = GaugeParams(float(np.sqrt(cfg["aplus2"])), cfg["p"], cfg["omega"])
    if cfg["model"] == "crossstitch":
        proto = crossstitch_protocol(cfg["alpha"], cfg["delta"], g.omega, g.a_plus, g.p)
    else:
        proto = general_protocol(algebra.ZERO, TARGETS[cfg["model"]](cfg), g)
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
    rows = _mesh_rows(proto.target.k_labels(k), t, fx, fy, fz, f0)
    path = outdir / f"drive_{cfg['model']}_w{cfg['omega']:g}.csv"
    write_csv(path, "k,t,fx,fy,fz,f0", rows)
    print(f"synth: wrote {len(rows)} samples to {path}")
    return EXIT_OK


def cmd_verify(cfg, outdir: Path) -> int:
    report = verify_protocol(build_protocol(cfg), k_grid_of(cfg),
                             periods=cfg["periods"], tol=cfg["tol"])
    max_strobe, errors = report.max_strobe_error, report.strobe_errors
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
    ]
    for section, order in (("worst-offenders", np.argsort(errors)[::-1][:8]),
                           ("per-k", range(len(errors)))):
        lines += ["", f"[{section}]", "k,strobe_error"]
        lines += [f"{fmt(report.k_labels[i])},{fmt(errors[i])}" for i in order]
    path = outdir / f"verify_{cfg['model']}_w{cfg['omega']:g}.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"verify: maxStrobeError={max_strobe:.3e} "
          f"({'pass' if passed else 'FAIL'}), report in {path}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_bands(cfg, outdir: Path) -> int:
    model = cfg["model"]
    k = k_grid_of(cfg)
    spec = TARGETS[model](cfg)
    energies = spectra.band_structure(spec, k)
    if model == "crossstitch":
        flat = np.full(cfg["kpoints"], cfg["delta"])
        disp = -4 * cfg["alpha"] * np.cos(k) - cfg["delta"]
        check = np.max(np.abs(np.sort(np.stack([flat, disp], axis=1), axis=1)
                              - energies))
        if check > 1e-10 * max(1.0, float(np.max(np.abs(energies)))):
            raise FloquetError(f"band bookkeeping drifted by {check:.2e}")
        rows, header = [(kv, f, d) for kv, f, d in zip(k, flat, disp)], "k,E_flat,E_disp"
    else:  # ascending eigenvalues under schema-fixed names
        rows = [(kv, *row) for kv, row in zip(spec.k_labels(k), energies)]
        header = "k,E_minus,E_flat,E_plus" if spec.band_count == 3 else "k,E_minus,E_plus"
    path = outdir / f"bands_{model}.csv"
    write_csv(path, header, rows)
    print(f"bands: wrote {len(rows)} momenta to {path}")
    return EXIT_OK


def cmd_fourier(cfg, outdir: Path) -> int:
    coeff = spectra.envelope_fourier(cfg["aplus2"], cfg["ncoeff"])
    rows = list(enumerate(coeff))
    path = outdir / f"fourier_aplus2_{cfg['aplus2']:g}.csv"
    write_csv(path, "n,c_n", rows)
    print(f"fourier: wrote {len(rows)} coefficients to {path}")
    return EXIT_OK


def cmd_lattice(cfg, outdir: Path) -> int:
    proto = build_protocol(cfg)
    terms = lattice.expand_to_lattice(proto)
    deviation = lattice.lattice_vs_momentum_check(  # tpoints sizes the tables only
        proto, terms, 2 * lattice.MAX_RANGE + 2, proto.period * np.arange(16) / 16)
    rows = [(term.channel, term.m, f"{term.k_harmonic}({term.m}k)*{term.time_label}",
             term.coefficient) for term in terms]
    path = outdir / "lattice_terms.csv"
    write_csv(path, "channel,m,harmonic,coefficient", rows)
    print(f"lattice: wrote {len(rows)} terms to {path}; "
          f"momentum-space roundtrip deviation {deviation:.3e}")
    return EXIT_OK


def cmd_su3(cfg, outdir: Path) -> int:
    k, t = k_grid_of(cfg), t_grid_of(cfg)
    rows = _mesh_rows(k, t, *su3mod.su3_drive_table(build_protocol(cfg), k, t))
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None)
    for key, default in DEFAULTS.items():  # a flag's argparse dest is its config key
        parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=None,
                            choices=MODELS if key == "model" else None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg.update((key, getattr(args, key)) for key in DEFAULTS if getattr(args, key) is not None)
        if args.command == "su3":  # a model set by the file or a flag is still checked
            cfg.setdefault("model", "su3flat")
        cfg = validate(cfg)
        if args.command == "lattice" and cfg["model"] != "crossstitch":
            raise ConfigError(f"lattice expands model crossstitch only, got {cfg['model']!r}")
        if args.command == "su3" and cfg["model"] != "su3flat":
            raise ConfigError(f"su3 writes model su3flat only, got {cfg['model']!r}")
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        return COMMANDS[args.command](cfg, outdir)
    except (FloquetError, ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
