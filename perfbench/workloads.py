"""The four benchmark workloads.

Each workload builds its geometry in ``setup`` (timed as set-up), derives
what its inputs need from that geometry in ``prepare`` (not timed), makes one
op's inputs from its seeded generator in ``make_input`` (not timed), runs the
op against the library in ``op`` (timed), and checks the op's outputs in
``check`` (not timed), which returns the op's relative error against its
reference (None where none applies) or raises CheckFailed.

Ops call the library through module attributes (``cp.assemble_kv``, not a
name imported into this module), so a tracer that patches the library's
bindings sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

from fluxrec import cli
from fluxrec import completion as cp
from fluxrec import experiments as ex
from fluxrec import fem
from fluxrec import mesh as fm
from fluxrec import postprocess as pp
from fluxrec import regularization as reg

NOISE = 0.01          # relative noise on f and g, as in the paper's tables
EPSILON = 5e-4        # TC1 regularization strength at 1% noise (Table 1)
CASES = ("TC1", "TC2")


class CheckFailed(Exception):
    """An op returned without error but its output is wrong."""


def mesh_sizes(mesh) -> dict:
    b = mesh.boundary
    return {"nodes": mesh.node_count, "triangles": mesh.triangle_count,
            "outer_boundary_nodes": len(b.outer_nodes),
            "inner_boundary_nodes": len(b.inner_nodes)}


def _noisy(rng, clean, p=NOISE):
    """Additive Gaussian noise scaled by each trace's RMS (the twin model)."""
    f, g = clean.f, clean.g
    return (f + p * np.sqrt(np.mean(f ** 2)) * rng.standard_normal(len(f)),
            g + p * np.sqrt(np.mean(g ** 2)) * rng.standard_normal(len(g)))


def _rel_err(u, u_ref) -> float:
    return float(np.abs(u - u_ref).max() / np.abs(u_ref).max())


class _Reconstruction:
    """Shared set-up of stream and lcurve: geometry plus the interface system.

    Set-up assembles the interface system on zero data and runs one solve,
    so all geometry work and the first, lazy solve land in set-up.  The
    twin references are made afterwards, outside set-up time.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def build_mesh(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.mesh = self.build_mesh()
        self.A = fem.assemble_stiffness(self.mesh)
        zero = np.zeros(len(self.mesh.boundary.outer_nodes))
        self.system = cp.assemble_kv(self.mesh, self.A,
                                     cp.CauchyData(zero, zero))
        cp.solve_completion(self.system, EPSILON)

    def prepare(self) -> None:
        self.refs = {}
        for case in CASES:
            psi_ref, clean = ex.generate_reference(self.mesh, self.A,
                                                   ex.TwinSpec(case))
            self.refs[case] = (clean, fem.trace(psi_ref, fm.INNER))

    def make_input(self, i: int):
        # the cases alternate, so that every run has the same mix of them:
        # their errors differ, and a drawn mix moves err_u_p50 between runs
        clean, u_ref = self.refs[CASES[i % len(CASES)]]
        return cp.CauchyData(*_noisy(self.rng, clean)), u_ref


class Stream(_Reconstruction):
    """One time slice: refresh the load, solve at a fixed epsilon."""

    name = "stream"
    setup_repeats = 5
    warmup_ops = 50
    solve_rtol = 1e-8  # u_opt against a dense LU solve of the same system

    def build_mesh(self):
        return ex.iter_like_mesh()

    def op(self, inp):
        data, _ = inp
        system = cp.assemble_kv(self.mesh, self.A, data, reuse=self.system)
        return system, cp.solve_completion(system, EPSILON, data)

    def check(self, inp, out) -> float:
        _, u_ref = inp
        system, res = out
        ref = np.linalg.solve(system.system_matrix(EPSILON), system.load)
        gap = np.linalg.norm(res.u_opt - ref) / np.linalg.norm(ref)
        if not gap <= self.solve_rtol:
            raise CheckFailed(f"u_opt differs from a dense solve by {gap:.2e}")
        if not np.isfinite(res.residual_norm):
            raise CheckFailed("residual_norm is not finite")
        return _rel_err(res.u_opt, u_ref)


class LCurve(_Reconstruction):
    """Regularization choice for a new data set: refresh, sweep, corner."""

    name = "lcurve"
    setup_repeats = 3
    warmup_ops = 3
    mono_rtol = 1e-9  # allowed roundoff against monotone J and R_D

    def build_mesh(self):
        return ex.refined_desk_mesh(2)

    def setup(self) -> None:
        super().setup()
        self.grid = reg.default_grid()

    def op(self, inp):
        data, _ = inp
        system = cp.assemble_kv(self.mesh, self.A, data, reuse=self.system)
        return system, data, reg.sweep(system, data, self.grid)

    def check(self, inp, out) -> float:
        _, u_ref = inp
        system, data, curve = out
        n = len(curve)
        if n < 5:
            raise CheckFailed(f"only {n} L-curve points")
        # epsilons decrease along the curve: J must not grow, R_D not shrink
        slack_j = self.mono_rtol * np.abs(curve.misfits).max()
        slack_r = self.mono_rtol * np.abs(curve.regularizers).max()
        if np.any(np.diff(curve.misfits) > slack_j):
            raise CheckFailed("J is not non-decreasing in epsilon")
        if np.any(np.diff(curve.regularizers) < -slack_r):
            raise CheckFailed("R_D is not non-increasing in epsilon")
        if not 0 < curve.corner_index < n - 1:
            raise CheckFailed(
                f"corner index {curve.corner_index} is not interior")
        res = cp.solve_completion(system, curve.corner_epsilon, data)
        return _rel_err(res.u_opt, u_ref)


class Boundary:
    """Plasma-boundary extraction on loop-flux-plus-vertical-field fields.

    The field is the P1 interpolant of a current loop at the hole centre
    plus the vertical field that puts a saddle at (r_x, 0).  Every fourth op
    runs in limiter mode with a seeded circular limiter well inside the
    separatrix.

    r_x lies in the gap between the two midplane mesh nodes that bracket
    r = 7.8.  The level error oscillates with the saddle's position across
    such a gap (about 0 at a node, up to about 3e-5 of the field range in
    between), so the X-point ops take their positions from a seeded rotation
    of the base-2 van der Corput sequence, whose every prefix spreads evenly
    over the gap: that keeps the median error steady across seeds.
    """

    name = "boundary"
    setup_repeats = 3
    warmup_ops = 4
    limiter_every = 4
    centre = (6.0, 0.0)           # hole centre of the desk geometry
    r_x_near = 7.8                # the outer wall is at 8.9
    psi_p_rtol = 1e-4             # |psi_P - psi(r_x, 0)| / field range

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._bare_loop = ex.loop_flux_field(*self.centre)
        self._offset = self.rng.uniform()
        self._xpoint_ops = 0

    def _field(self, r_x: float):
        gamma = -(self._bare_loop.grad(r_x, 0.0)[0] / r_x) / 2.0
        mf = ex.loop_flux_field(*self.centre, 1.0, gamma)
        return mf, fem.interpolate(self.mesh, mf.psi)

    def setup(self) -> None:
        self.mesh = ex.refined_desk_mesh(2)
        _, fld = self._field(self.r_x_near)
        pp.find_plasma_boundary(fld, self.mesh)

    def prepare(self) -> None:
        nodes = self.mesh.nodes
        mid = np.sort(nodes[np.abs(nodes[:, 1]) < 1e-9, 0])
        k = int(np.searchsorted(mid, self.r_x_near))
        if not 0 < k < len(mid):
            raise RuntimeError("no midplane mesh nodes bracket r = 7.8")
        self.gap = (float(mid[k - 1]), float(mid[k]))

    def _fraction(self) -> float:
        k = self._xpoint_ops
        self._xpoint_ops += 1
        v, den = 0.0, 1.0
        while k:
            den *= 2.0
            v += (k & 1) / den
            k >>= 1
        return (v + self._offset) % 1.0

    def make_input(self, i: int):
        limiter = None
        if i % self.limiter_every == self.limiter_every - 1:
            fraction = self.rng.uniform()
            rho = self.rng.uniform(1.0, 1.4)
            shift = self.rng.uniform(-0.1, 0.1, 2)
            limiter = fm.circle_loop(self.centre[0] + shift[0],
                                     self.centre[1] + shift[1], rho, 64)
        else:
            fraction = self._fraction()
        r_x = self.gap[0] + fraction * (self.gap[1] - self.gap[0])
        mf, fld = self._field(r_x)
        return r_x, mf, fld, limiter

    def op(self, inp):
        _, _, fld, limiter = inp
        return pp.find_plasma_boundary(fld, self.mesh, limiter=limiter)

    def check(self, inp, out) -> float | None:
        r_x, mf, fld, limiter = inp
        psi_p, _, mode = out
        expected = "xpoint" if limiter is None else "limiter"
        if mode != expected:
            raise CheckFailed(f"mode {mode!r}, schedule says {expected!r}")
        if not np.isfinite(psi_p):
            raise CheckFailed("psi_P is not finite")
        if limiter is not None:
            return None
        span = float(fld.values.max() - fld.values.min())
        err = abs(psi_p - float(mf.psi(r_x, 0.0))) / span
        if not err <= self.psi_p_rtol:
            raise CheckFailed(f"psi_P off the analytic saddle by {err:.2e} "
                              "of the field range")
        return err


class BatchCli:
    """One cold batch job per op through the command-line entry point.

    Each op gets its own polyline CSVs, shifted in z by a seeded amount (the
    operator depends on r only, so the problem and the mesh sizes are the
    same, but no two ops read identical files), and a fresh output dir.
    Set-up is writing one job's inputs and running that first job.

    The twin noise seeds cycle through five fixed seeds from a seeded start.
    An op's error is set almost wholly by its noise draw, which moves it by
    about 30%, and a run makes only about 30 ops: free draws moved the run's
    median error by up to 16% between runs.  With five seeds cycled, the
    median is the middle one of their five errors in every run that keeps
    at least 13 ops.
    """

    name = "batch_cli"
    setup_repeats = 3
    warmup_ops = 1
    twin_seeds = 5
    artifacts = {
        "mesh": ("mesh.txt",),
        "twin": ("twin_report.txt", "u_opt.csv", "u_ref.csv", "psi_opt.csv",
                 "field_rel_err.csv", "psi_opt.vtk"),
        "lcurve": ("lcurve.csv",),
        "contour": ("boundary.csv", "boundary_report.txt"),
    }

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._first_twin_seed = int(self.rng.integers(self.twin_seeds))
        self.tracer = None   # set by the runner for traced runs

    def _write_inputs(self, out: str, dz: float, seed: int):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        for which, radius, count in (("outer", 2.9, 220), ("inner", 0.8, 60)):
            loop = fm.circle_loop(6.0, dz, radius, count)
            np.savetxt(os.path.join(out, f"{which}.csv"), loop, delimiter=",",
                       header="r,z", comments="")
        return out, seed

    def setup(self) -> None:
        inp = self._write_inputs(os.path.join(self.workdir, "setup"), 0.0, 0)
        rcs = self.op(inp)
        if any(rcs.values()):
            raise RuntimeError(f"set-up job failed: exit codes {rcs}")

    def prepare(self) -> None:
        self.mesh = fm.load_mesh(
            os.path.join(self.workdir, "setup", "mesh.txt"))
        shutil.rmtree(os.path.join(self.workdir, "setup"))

    def make_input(self, i: int):
        twin_seed = (self._first_twin_seed + i) % self.twin_seeds
        return self._write_inputs(os.path.join(self.workdir, f"op{i}"),
                                  float(self.rng.uniform(-0.5, 0.5)),
                                  twin_seed)

    def _main(self, argv) -> int:
        sink = io.StringIO()
        with (contextlib.redirect_stdout(sink),
              contextlib.redirect_stderr(sink)):
            if self.tracer is None:
                return cli.main(argv)
            rc = self.tracer.call(f"cli.{argv[0]}", cli.main, argv)
            if rc != 0:
                self.tracer.count("cli.nonzero_exits")
            return rc

    def op(self, inp) -> dict:
        out, seed = inp
        mesh = os.path.join(out, "mesh.txt")
        twin = ["--case", "TC1", "--noise", str(NOISE), "--seed", str(seed)]
        jobs = (
            ["mesh", "--outer-csv", os.path.join(out, "outer.csv"),
             "--inner-csv", os.path.join(out, "inner.csv"),
             "--target-h", "0.1"],
            ["twin", "--mesh", mesh, *twin, "--epsilon", str(EPSILON)],
            ["lcurve", "--mesh", mesh, *twin],
            ["contour", "--mesh", mesh, "--field",
             os.path.join(out, "psi_opt.csv"), "--plasma-boundary"],
        )
        rcs = {}
        for argv in jobs:
            rcs[argv[0]] = rc = self._main([*argv, "--output-dir", out])
            if rc != 0:
                break
        return rcs

    def check(self, inp, out) -> float:
        path, _ = inp
        try:
            bad = {cmd: rc for cmd, rc in out.items() if rc != 0}
            if bad or len(out) < len(self.artifacts):
                raise CheckFailed(f"command exit codes {out}")
            missing = [name for names in self.artifacts.values()
                       for name in names
                       if not os.path.isfile(os.path.join(path, name))]
            if missing:
                raise CheckFailed(f"missing artifacts {missing}")
            u_opt, u_ref = (np.loadtxt(os.path.join(path, name), delimiter=",",
                                       skiprows=1, usecols=2, ndmin=1)
                            for name in ("u_opt.csv", "u_ref.csv"))
            return _rel_err(u_opt, u_ref)
        finally:
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Stream, LCurve, Boundary, BatchCli)}

