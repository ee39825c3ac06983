"""Seeded input generator for the quatspec benchmark.

Every matrix is planted, A = S D S^-1, with S a well-conditioned random
quaternion matrix and D upper bidiagonal in the complex slice (Jordan
blocks J_k(lam)), so each answer has a reference that never touches
quatspec.  A workload is a fixed list of CLI commands over those
matrices; the seed changes the numbers, never the mix, so runs with
different seeds load the program alike.

    python3 perfbench/generate.py --workload calculus --seed 3 --out DIR

writes DIR/m*.json (the only files quatspec reads), DIR/ops.json (the op
list with expected outcomes) and DIR/refs.npz (reference answers).
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

import reference as ref

WORKLOADS = ("spectral", "calculus", "series")
S_MAX_COND = 8.0


# -- plants ------------------------------------------------------------------

def random_s(rng, n: int) -> np.ndarray:
    """chi of S = I + G / (4 sqrt(n)) with G quaternion Gaussian, cond <= 8."""
    while True:
        a, b, c, d = (rng.standard_normal((n, n)) / (4.0 * math.sqrt(n))
                      for _ in range(4))
        chi_s = ref.chi(np.eye(n) + a + 1j * b, c - 1j * d)
        if np.linalg.cond(chi_s) <= S_MAX_COND:
            return chi_s


def plant(rng, blocks) -> dict:
    """A = S D S^-1 for D = blockdiag of J_k(lam); components rounded to JSON floats."""
    n = sum(k for _, k in blocks)
    chi_s = random_s(rng, n)
    D = ref.blocks_matrix(blocks)
    inner = np.block([[D, np.zeros_like(D)], [np.zeros_like(D), np.conj(D)]])
    chi_a = chi_s @ inner @ np.linalg.inv(chi_s)
    comps = ref.components_of_chi(chi_a)
    return {"n": n, "blocks": blocks, "chi_s": chi_s,
            "entries": comps.tolist(), "chi_a": ref.chi_of_components(comps)}


def _grid(rng, count: int, r_lo: float = 0.6, r_hi: float = 1.5,
          theta_lo: float = -0.6 * math.pi, theta_hi: float = 0.6 * math.pi
          ) -> list[complex]:
    """count eigenvalues on a fixed polar grid with a little seeded jitter.

    Radii step evenly through [r_lo, r_hi], so distinct spheres stay at
    least (r_hi - r_lo) / count - 0.01 apart; angles follow the golden
    ratio through [theta_lo, theta_hi].  The default sector keeps every
    point at least 0.5 from the cut (-inf, 0].  A fixed grid keeps the
    contour geometry, and so the quadrature node count, and the gap
    below the spectral radius alike from seed to seed.
    """
    out = []
    for k in range(count):
        r = r_lo + (r_hi - r_lo) * (k + 0.5) / count + rng.uniform(-0.005, 0.005)
        frac = (k * 0.6180339887) % 1.0
        theta = theta_lo + (theta_hi - theta_lo) * frac + rng.uniform(-0.01, 0.01)
        out.append(complex(r * math.cos(theta), r * math.sin(theta)))
    return out


def spectral_blocks(rng, n: int) -> list:
    """n semisimple eigenvalues with repeated spheres and real spheres.

    n / 8 eigenvalues are real, spaced through +-[0.3, 1.5]; n / 8
    spheres appear twice, once as lam and once as conj(lam); the rest
    lie on the grid of _grid in the sector 0.15 pi..0.85 pi, so at least
    0.09 off the real axis.
    """
    reps = n // 8
    reals = [complex((-1) ** k * (0.3 + 1.2 * k / max(reps - 1, 1))
                     + rng.uniform(-0.005, 0.005)) for k in range(reps)]
    rest = _grid(rng, n - 2 * reps, 0.2, 1.5, 0.15 * math.pi, 0.85 * math.pi)
    lams = reals + rest + [lam.conjugate() for lam in rest[-reps:]]
    order = rng.permutation(len(lams))
    return [(lams[i], 1) for i in order]


def calculus_blocks(rng, n: int, shape: str) -> list:
    """Spectra for the calculus workload, all off the log cut.

    generic: n eigenvalues on the jittered grid of _grid.
    near_cut: one sphere about 0.09 above the negative real axis, plus a
      pair 0.1 apart, so contour circles merge and the margin ladder has
      to shrink; the rest on the grid.
    jordan<k>: one Jordan block of size k at lam near 0.45 exp(i pi/3),
      the rest on the grid; sizes 3 and 4 expose the clustering defect
      of s_spectrum.
    """
    if shape == "generic":
        return [(lam, 1) for lam in _grid(rng, n)]
    if shape == "near_cut":
        cut = complex(-0.9 + rng.uniform(-0.01, 0.01), 0.09 + rng.uniform(-0.005, 0.005))
        if n < 3:
            return [(lam, 1) for lam in [cut] + _grid(rng, n - 1)]
        grid = _grid(rng, n - 2)
        twin = grid[-1] * (1.0 - 0.1 / abs(grid[-1]))
        return [(lam, 1) for lam in [cut, *grid, twin]]
    k = int(shape[len("jordan"):])
    theta = math.pi / 3 + rng.uniform(-0.05, 0.05)
    lam = 0.45 * complex(math.cos(theta), math.sin(theta))
    return [(lam, k)] + [(mu, 1) for mu in _grid(rng, n - k)]


def series_blocks(rng, n: int) -> list:
    return [(lam, 1) for lam in _grid(rng, n, 0.2, 1.5, 0.0, 2.0 * math.pi)]


# -- points ------------------------------------------------------------------

def random_unit_quaternion(rng) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def quat_text(q) -> str:
    return ",".join(repr(float(v)) for v in q)


def sphere_distance(q, spheres: np.ndarray) -> float:
    return float(np.min(np.hypot(spheres[:, 0] - q[0],
                                 spheres[:, 1] - math.hypot(*q[1:]))))


def point_off_spectrum(rng, spheres: np.ndarray) -> np.ndarray:
    while True:
        q = random_unit_quaternion(rng) * rng.uniform(0.2, 2.0)
        if sphere_distance(q, spheres) >= 0.1:
            return q


def alpha_off_spectrum(rng, spheres: np.ndarray) -> float:
    while True:
        alpha = float(rng.uniform(-2.0, 2.0))
        if sphere_distance((alpha, 0.0, 0.0, 0.0), spheres) >= 0.1:
            return alpha


# -- workloads ---------------------------------------------------------------

class Builder:
    """Collects matrices, ops and references for one workload."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.ops: list[dict] = []
        self.refs: dict[str, np.ndarray] = {}
        self.plants: list[dict] = []

    def add_plant(self, p: dict, label: str) -> None:
        name = f"m{len(self.plants):03d}.json"
        with open(os.path.join(self.out_dir, name), "w") as fh:
            json.dump({"n": p["n"], "entries": p["entries"]}, fh)
        p["file"] = name
        p["label"] = label
        self.plants.append(p)

    def add_op(self, p: dict, kind: str, argv: list[str], reference,
               expect: dict | None = None) -> None:
        op_id = len(self.ops)
        self.ops.append({
            "id": op_id, "kind": kind, "argv": argv + ["--input", p["file"]],
            "plant": p["label"], "n": p["n"],
            "expect": expect or {"exit": 0},
        })
        if reference is not None:
            self.refs[f"op{op_id}"] = np.asarray(reference)


def build_spectral(b: Builder, rng) -> None:
    # two matrices at n = 32 and 64 and one at 48: 15 of the 40 ops per
    # pass cost under 0.06 s and the next 10 (distance, calculus at 32,
    # exp and pencil-inverse at 64) 0.08 to 0.13 s, so the median falls
    # inside that group instead of on the gap below it
    for n in (32, 32, 48, 64, 64):
        p = plant(rng, spectral_blocks(rng, n))
        b.add_plant(p, f"n{n}")
        spheres = ref.sphere_params(p["blocks"])
        radius = float(np.max(np.hypot(spheres[:, 0], spheres[:, 1])))
        b.add_op(p, "spectrum", ["spectrum"], spheres)
        b.add_op(p, "radius", ["radius", "--method", "eig"], radius)
        b.add_op(p, "radius_power", ["radius", "--method", "power"], radius)
        q = point_off_spectrum(rng, spheres)
        b.add_op(p, "pencil-inverse",
                 ["pencil-inverse", "--at=" + quat_text(q), "--method", "direct"],
                 ref.pencil_inverse(p["chi_a"], q))
        alpha = alpha_off_spectrum(rng, spheres)
        b.add_op(p, "distance", ["distance", "--alpha=" + repr(alpha)],
                 sphere_distance((alpha, 0.0, 0.0, 0.0), spheres))
        f_exp = ref.planted_function(p["chi_s"], "exp", p["blocks"])
        b.add_op(p, "exp", ["exp"], f_exp)
        for method in ("complex_path", "s_contour"):
            b.add_op(p, "calculus",
                     ["calculus", "--fn", "exp", "--method", method], f_exp)


# Function coefficients are fixed, not drawn from the seed: they set the
# node count a quadrature needs, so drawing them would make one seed's
# run cost more than another's.
CALCULUS_FUNCTIONS = (
    "exp", "log", "sqrt", "pow:-1",
    "poly:[0.5, -1.0, 0.25, 0.125]",
    "ratpoly:[1.0, 0.5]/[14.0, 0.0, 1.0]",
    "monoL:[[0.3, -0.7, 0.2, 0.5], 2]",
    "monoR:[[-0.4, 0.1, 0.6, -0.3], 3]",
)
JORDAN_FUNCTIONS = ("exp", "poly:[0.5, -1.0, 0.25, 0.125]")


def build_calculus(b: Builder, rng) -> None:
    # one in four matrices carries a Jordan block (sizes 2, 3, 4, at
    # n = 4, 6, 8); those get exp and poly only, whose values on Jordan
    # blocks have closed forms
    shapes = [(2, "generic"), (3, "near_cut"), (4, "generic"), (4, "jordan2"),
              (5, "near_cut"), (6, "generic"), (6, "jordan3"), (7, "near_cut"),
              (8, "generic"), (8, "jordan4"), (3, "generic"), (2, "near_cut")]
    for n, shape in shapes:
        p = plant(rng, calculus_blocks(rng, n, shape))
        b.add_plant(p, f"n{n}-{shape}")
        jordan = shape.startswith("jordan")
        for fn in JORDAN_FUNCTIONS if jordan else CALCULUS_FUNCTIONS:
            expected = ref.planted_function(p["chi_s"], fn, p["blocks"])
            for method in ("complex_path", "s_contour"):
                b.add_op(p, "calculus",
                         ["calculus", "--fn", fn, "--method", method], expected)
        if jordan:
            continue
        b.add_op(p, "log", ["log"],
                 ref.planted_function(p["chi_s"], "log", p["blocks"]))
        b.add_op(p, "root", ["root", "--n", "3"],
                 ref.planted_function(p["chi_s"], "root3", p["blocks"]))
        if n <= 4:
            b.add_op(p, "verify", ["verify", "--suite", "all"], None)


def log_ratio_grid(lo: float, hi: float, count: int) -> list[float]:
    """count ratios from lo to hi with log(ratio) in geometric steps.

    A series needs about log(tol) / log(ratio) terms, so this grid
    spaces the series lengths, and with them the op costs, evenly on a
    log scale: no percentile of the run falls in a gap between two
    groups of ops of very different cost.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a * (b / a) ** (k / (count - 1))) for k in range(count)]


SERIES_SIZES = (4, 8, 16, 4, 8, 16)
NEUMANN_PER_MATRIX = 7
NEUMANN_RATIOS = log_ratio_grid(1.05, 2.0, NEUMANN_PER_MATRIX * len(SERIES_SIZES))
RESOLVENT_PER_MATRIX = 8
RESOLVENT_RATIOS = log_ratio_grid(1.02, 2.0, 2 * RESOLVENT_PER_MATRIX)


def point_at(rng, radius: float, cos_angle: float) -> np.ndarray:
    """A quaternion of this modulus and real part radius * cos_angle, seeded axis."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    sin_angle = math.sqrt(1.0 - cos_angle ** 2)
    return radius * np.concatenate(([cos_angle], sin_angle * axis))


def build_series(b: Builder, rng) -> None:
    # Every ratio and every angle of a pencil point comes from a fixed
    # grid, with 1% jitter on log(ratio), the quantity the series length
    # is inversely proportional to (1% on the ratio itself would move
    # the length of a series at ratio 1.05 by 20%).  The Neumann
    # coefficients depend on Re q and |q| alone, so the grid, not the
    # seed, sets each op's series length.  The grids are dealt out
    # across the matrices, so no two ops of a pass share a ratio.
    diverges = {"exit": 2, "error": "SeriesDiverges"}
    count = len(NEUMANN_RATIOS)
    for j, n in enumerate(SERIES_SIZES):
        p = plant(rng, series_blocks(rng, n))
        b.add_plant(p, f"n{n}")
        spheres = ref.sphere_params(p["blocks"])
        r_s = float(np.max(np.hypot(spheres[:, 0], spheres[:, 1])))
        for i in range(NEUMANN_PER_MATRIX):
            k = i * len(SERIES_SIZES) + j
            cos_angle = -0.8 + 1.6 * ((k * 13) % count) / (count - 1)
            ratio = NEUMANN_RATIOS[k] ** rng.uniform(1.0, 1.01)
            q = point_at(rng, r_s * ratio, cos_angle)
            b.add_op(p, "pencil-inverse",
                     ["pencil-inverse", "--at=" + quat_text(q), "--method", "neumann"],
                     ref.pencil_inverse(p["chi_a"], q))
        norm = float(np.sqrt(np.sum(np.asarray(p["entries"]) ** 2)))
        half = j // (len(SERIES_SIZES) // 2)  # first or second matrix of this n
        for i in range(RESOLVENT_PER_MATRIX):
            ratio = RESOLVENT_RATIOS[2 * i + half] ** rng.uniform(1.0, 1.01)
            s = random_unit_quaternion(rng) * norm * ratio
            side = "LR"[(i + half) % 2]
            b.add_op(p, "resolvent",
                     ["resolvent", "--at=" + quat_text(s), "--side", side,
                      "--method", "series"],
                     ref.resolvent(p["chi_a"], s, side))
        # one point per matrix inside the radius, where the series must
        # refuse; they alternate between the two commands and sides
        if j % 2 == 0:
            q = random_unit_quaternion(rng) * r_s * 0.5
            b.add_op(p, "pencil-inverse",
                     ["pencil-inverse", "--at=" + quat_text(q), "--method", "neumann"],
                     None, diverges)
        else:
            s = random_unit_quaternion(rng) * norm * 0.8
            b.add_op(p, "resolvent",
                     ["resolvent", "--at=" + quat_text(s), "--side", "LR"[j // 2 % 2],
                      "--method", "series"],
                     None, diverges)


BUILDERS = {"spectral": build_spectral, "calculus": build_calculus,
            "series": build_series}


def build(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's inputs for this seed into out_dir; return the ops."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = Builder(out_dir)
    BUILDERS[workload](b, rng)
    # a seeded shuffle interleaves the kinds of op within a pass, so a
    # slow stretch of the machine does not land on one kind alone
    order = rng.permutation(len(b.ops))
    ops = [b.ops[i] for i in order]
    with open(os.path.join(out_dir, "ops.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops,
                   "plants": [{"file": p["file"], "label": p["label"],
                               "blocks": [[lam.real, lam.imag, k]
                                          for lam, k in p["blocks"]]}
                              for p in b.plants]}, fh, indent=1)
    np.savez(os.path.join(out_dir, "refs.npz"), **b.refs)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    ops = build(args.workload, args.seed, args.out)
    print(f"{len(ops)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
