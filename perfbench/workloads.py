"""The benchmark's workloads: which recipes each runs, how the seed perturbs
them, and the correctness gate of every op.

Seed 0 reproduces the grids of ``configs/`` exactly.  Other seeds shift the
momentum grid of a verify recipe by a fraction of one grid spacing, or
permute the recipe order of ``tables``.  Reasons for each workload are in
README.md.

numpy is imported inside functions: ``setup_s`` times its first import.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: (config file, overrides) per verify workload.  Overrides act like the
#: command-line flags of the same name.
VERIFY_RECIPES = {
    "verify2_closed": (("verify_w8.cfg", {}), ("verify_w4.cfg", {})),
    "verify3_general": (("su3_w8.cfg", {"kpoints": 16, "tol": 1e-8}),
                        ("su3_w4.cfg", {"kpoints": 16, "tol": 1e-8})),
}

#: Mesh of the four field tables, enlarged from the 64 x 64 recipes so that
#: table emission, not interpreter start-up, dominates a pass.
TABLE_MESH = {"kpoints": 512, "tpoints": 256}

#: (command, config file, overrides) of the ``tables`` workload.
TABLE_RECIPES = (
    ("synth", "drive_w8.cfg", TABLE_MESH),
    ("synth", "drive_w4.cfg", TABLE_MESH),
    ("su3", "su3_w8.cfg", TABLE_MESH),
    ("su3", "su3_w4.cfg", TABLE_MESH),
    ("bands", "bands.cfg", {}),
    ("fourier", "fourier.cfg", {}),
    ("lattice", "lattice.cfg", {}),
)

WORKLOADS = ("verify2_closed", "verify3_general", "tables")

#: The crossstitch table must match an independent general-path evaluation.
TABLE_AGREEMENT_TOL = 1e-10


@dataclass
class Op:
    """One timed unit of work and the gate that decides whether it passed.

    ``check(result) -> (passed, detail)`` runs outside the timed region.
    """

    name: str
    run: Callable
    check: Callable


def recipes(workload: str):
    """(command, config file, overrides) for every op of a workload."""
    if workload in VERIFY_RECIPES:
        return [("verify", cfg, over) for cfg, over in VERIFY_RECIPES[workload]]
    if workload == "tables":
        return list(TABLE_RECIPES)
    raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def setup(fq, workload: str, root: Path, overrides=None) -> list:
    """Parse and validate every config of the workload and build every
    protocol; returns (command, config file, overrides, cfg, protocol)."""
    out = []
    for cmd, cfg_file, over in recipes(workload):
        over = {**over, **(overrides or {})}
        # the command line's order: config file, then flags, then validation
        raw = fq.cli.load_config(str(root / "configs" / cfg_file))
        cfg = fq.cli.validate({**raw, **over})
        proto = fq.cli.build_protocol(cfg) if cmd in ("verify", "synth", "su3") else None
        out.append((cmd, cfg_file, over, cfg, proto))
    return out


def build(fq, workload: str, seed: int, root: Path, workdir: Path,
          overrides=None) -> list[Op]:
    """The ops of one pass.  ``overrides`` apply to every recipe, after the
    workload's own (the smoke test uses them to shrink grids)."""
    rng = random.Random(seed)
    prepared = setup(fq, workload, root, overrides)
    if workload == "tables":
        if seed != 0:
            rng.shuffle(prepared)
        return [_table_op(fq, item, root, workdir / f"{i}-{item[1]}")
                for i, item in enumerate(prepared)]
    return [_verify_op(fq, item, 0.0 if seed == 0 else rng.random())
            for item in prepared]


def _verify_op(fq, item, shift: float) -> Op:
    import numpy as np

    _, cfg_file, _, cfg, proto = item
    k = fq.cli.k_grid_of(cfg)
    if shift:
        k = k + shift * 2 * math.pi / cfg["kpoints"]
    tol = cfg["tol"]

    def run():
        return fq.propagate.verify_protocol(proto, k, periods=cfg["periods"], tol=tol)

    def check(report):
        # The command line's rule: every momentum within the recipe tol.
        # VerificationReport.failures uses max(10 tol, 1e-8), which is looser.
        errors = np.asarray(report.strobe_errors)
        passed = bool(np.all(np.isfinite(errors)) and np.all(errors <= tol))
        return passed, {"steps": int(report.integrator_steps),
                        "max_strobe_error": float(report.max_strobe_error),
                        "estimated_error": float(report.estimated_error),
                        "worst_k": float(report.worst_k),
                        "kpoints": int(errors.shape[0]), "grid_shift": shift}

    return Op(f"verify:{cfg_file}", run, check)


def _table_op(fq, item, root: Path, outdir: Path) -> Op:
    cmd, cfg_file, over, cfg, _ = item
    argv = [cmd, "--config", str(root / "configs" / cfg_file)]
    for key, value in over.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    argv += ["--out", str(outdir)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fq.cli.main(argv)

    return Op(f"{cmd}:{cfg_file}", run,
              lambda rc: _check_table(fq, cmd, cfg, outdir, rc))


def _check_table(fq, cmd: str, cfg: dict, outdir: Path, rc):
    """Exit code 0, the expected row count, and for the crossstitch field
    table agreement with an independent general-path evaluation."""
    import numpy as np

    files = sorted(outdir.glob("*.csv"))
    detail = {"exit_code": rc, "files": [f.name for f in files]}
    if rc != 0 or len(files) != 1:
        return False, detail
    lines = files[0].read_text().splitlines()[1:]
    detail["rows"] = len(lines)
    if cmd == "lattice":
        ranges = [int(line.split(",")[1]) for line in lines]
        passed = bool(ranges) and all(0 <= m <= 3 for m in ranges)
    else:
        expected = {"synth": cfg["kpoints"] * cfg["tpoints"],
                    "su3": cfg["kpoints"] * cfg["tpoints"],
                    "bands": cfg["kpoints"],
                    "fourier": cfg["ncoeff"] + 1}[cmd]
        passed = len(lines) == expected
    if passed and cmd == "synth" and cfg["model"] == "crossstitch":
        table = np.loadtxt(files[0], delimiter=",", skiprows=1, ndmin=2)
        gauge = fq.gauge.GaugeParams(a_plus=math.sqrt(cfg["aplus2"]),
                                     p=cfg["p"], omega=cfg["omega"])
        general = fq.synth.general_protocol(
            fq.algebra.uncoupled_chains(cfg["alpha"]),
            fq.algebra.cross_stitch(cfg["alpha"], cfg["delta"]), gauge)
        f0, fx, fy, fz = general.drive_components(table[:, 0], table[:, 1])
        gap = float(np.max(np.abs(table[:, 2:6] - np.stack([fx, fy, fz, f0], axis=1))))
        detail["general_path_gap"] = gap
        passed = gap <= TABLE_AGREEMENT_TOL
    return passed, detail
