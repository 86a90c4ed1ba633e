"""The four lintraj benchmark workloads and the correctness checks on them.

Each workload runs *units* of work; the runner times units and loops until the
run's time is spent.  A unit returns its timings, the number of operations it
attempted (``ops``: trajectories, records, or CLI commands) and the number of
trajectories or records it completed (``traj``).  Failed operations (a
``LintrajError``, a nonzero CLI exit, or a failed correctness check) are
counted in ``self.failed``; every check is appended to ``self.checks`` as
``{"name", "passed", "detail"}``.

The library names below are imported into this module on purpose: the tracer
wraps them *as bound here*, next to the names bound in ``lintraj.cli`` and
``lintraj.state_engine``.  See ``NOTES.md`` for why each workload exists and
for the known defects it shows.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import lintraj.cli as cli
from lintraj import errors, state_engine
from lintraj.errors import LintrajError
from lintraj.lie_rep import (
    normal_order_linear,
    povm_blocks,
    reordering_scalar,
    rep_of_generator,
)
from lintraj.oracle_sme import integrate_me
from lintraj.parameterization import compute_generator, compute_noise_couplings
from lintraj.povm import effect_from_blocks
from lintraj.state_engine import (
    EnsemblePropagator,
    EvolutionFactors,
    coherent_state,
    fock_operators,
)
from lintraj.system import builtin_homodyne_thermal, builtin_optomech_squeezing
from lintraj.trajectory import (
    BlockTable,
    TrajectoryIntegrals,
    accumulate_integrals_ensemble,
    sample_conditioned_record_gaussian,
    stochastic_d,
)

HOMODYNE = {"gamma": 1.0, "K": 0.3, "eta": 0.7}
OPTOMECH = {"mu": 1.0, "eta": 1.0, "gamma": 0.4, "K_th": 0.2, "chi": 0.3}

# Names wrapped by the tracer, by the namespace they are bound in.
CLI_TRACED = (
    "main", "spec_from_config", "compute_generator", "BlockTable",
    "povm_blocks", "sample_ostensible_record", "accumulate_integrals",
    "stochastic_d", "record_to_csv", "record_from_csv", "apply_evolution",
    "normalize_and_trace", "state_to_json", "effect_from_blocks",
    "retrodict_posterior", "integrate_backward", "backward_moment_trajectory",
    "crosscheck_against_povm",
)
STATE_ENGINE_TRACED = ("disentangle_quadratic", "normal_order_linear",
                       "reordering_scalar")
WORKLOADS_TRACED = (
    "compute_generator", "BlockTable", "povm_blocks", "EnsemblePropagator",
    "normal_order_linear", "reordering_scalar", "accumulate_integrals_ensemble",
    "sample_conditioned_record_gaussian", "stochastic_d",
)

# Every function the per-layer metrics report, as "<module>.<qualname>".
LAYER_FUNCTIONS = (
    "cli.main",
    "system.spec_from_config",
    "parameterization.compute_generator",
    "trajectory.BlockTable",
    "lie_rep.disentangle_quadratic",
    "lie_rep.normal_order_linear",
    "lie_rep.reordering_scalar",
    "lie_rep.povm_blocks",
    "trajectory.sample_ostensible_record",
    "trajectory.sample_conditioned_record_gaussian",
    "trajectory.accumulate_integrals_ensemble",
    "trajectory.accumulate_integrals",
    "trajectory.stochastic_d",
    "trajectory.record_to_csv",
    "trajectory.record_from_csv",
    "state_engine.apply_evolution",
    "state_engine.normalize_and_trace",
    "state_engine.state_to_json",
    "state_engine.EnsemblePropagator",
    "state_engine.EnsemblePropagator.propagate_vec",
    "povm.effect_from_blocks",
    "povm.retrodict_posterior",
    "adjoint_kalman.integrate_backward",
    "adjoint_kalman.backward_moment_trajectory",
    "adjoint_kalman.crosscheck_against_povm",
)
ERROR_CLASSES = tuple(sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, LintrajError)
    and obj is not LintrajError))
CLI_COMMANDS = ("simulate", "povm", "adjoint")


def span_name(fn) -> str:
    """``<module>.<qualname>`` of a library callable, e.g. ``lie_rep.povm_blocks``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def patch_layers(tracer) -> None:
    """Wrap every traced name in ``lintraj.cli``, ``lintraj.state_engine``
    and this module."""
    this_module = sys.modules[__name__]
    for owner, names in ((cli, CLI_TRACED), (state_engine, STATE_ENGINE_TRACED),
                         (this_module, WORKLOADS_TRACED)):
        for name in names:
            tracer.patch(owner, name, span_name(getattr(owner, name)))


def _seed_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _cli_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(path)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _accumulation_bytes(y: np.ndarray, l_prime: np.ndarray) -> int:
    """Computed, not measured: the record plus the four (S, steps, 2N)
    complex increment streams dl, dr, dl', dr' of one accumulation call."""
    return y.nbytes + 4 * l_prime.size * y.shape[1] * 16


def _read_column(path: Path, column: str) -> np.ndarray:
    with open(path) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return np.array([float(row[column]) for row in rows])


class Workload:
    name = ""
    is_cli = False
    nominal_unit_s = 1.0   # sizes the fixed unit count of a traced run

    def __init__(self, seed: int, workdir: Path, quick: bool):
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.tracer = None   # set by the runner for the traced units
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.checks: list[dict] = []
        self.weights: list[float] = []   # record weights, where defined
        self._dirs = 0
        self.begin_phase()

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.workdir / f"{label}-{self._dirs}"

    def check(self, name: str, passed: bool, detail: str) -> bool:
        self.checks.append({"name": name, "passed": bool(passed),
                            "detail": detail})
        return bool(passed)

    def run_unit(self, k: int) -> dict:
        """Unit ``k`` (its inputs depend only on the seed and ``k``)."""
        result = self.unit(k)
        self.attempted += result["ops"]
        return result

    def tag(self, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.trace_id = trace_id

    def begin_phase(self) -> None:
        """Start a fresh set of samples for :meth:`finish_phase`."""

    def finish_phase(self) -> None:
        """Run the checks that need the whole phase's samples."""


class CliWorkload(Workload):
    """Runs ``lintraj.cli.main`` in process on a generated config."""

    is_cli = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps(
            {"builtin": {"name": "homodyne_thermal", "params": HOMODYNE}}))

    def setup_probe(self, src: Path) -> float:
        """Cold ``import lintraj.cli`` in a fresh interpreter, in seconds."""
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import lintraj.cli; "
                "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def run_cli(self, argv: list[str], trace_id: str) -> tuple[int, str, float]:
        """(exit code, captured stdout, wall seconds) of one CLI command."""
        self.tag(trace_id)
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        wall = perf_counter() - t0
        text = buf.getvalue()
        for line in text.splitlines():
            if line.startswith('{"error"'):
                self.errors[json.loads(line)["error"]] += 1
        return rc, text, wall

    def weights_ok(self, w: np.ndarray, label: str) -> bool:
        return self.check(f"{label} weights finite and positive",
                          np.all(np.isfinite(w)) and np.all(w > 0),
                          f"min {w.min():.6g}, max {w.max():.6g}, n {w.size}")


class CliEnsemble(CliWorkload):
    """``lintraj simulate`` of a small ensemble, the shipped ensemble path."""

    name = "cli-ensemble"
    nominal_unit_s = 2.7

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_traj, fock_dim, t_final = ((2, 14, 0.2) if self.quick
                                          else (6, 20, 1.0))
        self.argv = ["--config", str(self.config), "--dt", "1e-3",
                     "--t-final", str(t_final), "--fock-dim", str(fock_dim),
                     "--initial", "coherent:0.6",
                     "--trajectories", str(self.n_traj)]
        self.digests: dict[int, str] = {}
        self.compared = False

    def unit(self, k: int) -> dict:
        out = self.fresh_dir(f"sim{k}")
        rc, _, wall = self.run_cli(
            ["simulate", *self.argv, "--seed", str(_cli_seed(self.seed, k)),
             "--out", str(out)], f"simulate#{k}")
        ok = rc == 0
        written = _dir_bytes(out) if out.exists() else 0
        if ok:
            w = _read_column(out / "moments.csv", "weight")
            self.weights.extend(w)
            ok = self.weights_ok(w, f"simulate#{k}")
            digest = _dir_digest(out)
            if k in self.digests:
                self.compared = True
                ok = self.check(f"simulate#{k} same-seed rerun byte-identical",
                                digest == self.digests[k], digest[:16]) and ok
            else:
                self.digests[k] = digest
        if not ok:
            self.failed += self.n_traj
        shutil.rmtree(out, ignore_errors=True)
        return {"ops": self.n_traj, "traj": self.n_traj, "wall_s": wall,
                "work_s": wall, "bytes_written": written,
                "cmd_s": {"simulate": wall}}

    def finish_phase(self) -> None:
        if not self.compared:
            self.run_unit(0)   # untimed same-seed rerun: the determinism check


class LongRecord(CliWorkload):
    """README chain simulate -> povm --retrodict -> adjoint on one long record."""

    name = "long-record"
    nominal_unit_s = 9.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dt, t_final, fock_dim = (("1e-3", "0.5", "14") if self.quick
                                 else ("1e-4", "5", "20"))
        self.sim_argv = ["--config", str(self.config), "--trajectories", "1",
                         "--dt", dt, "--t-final", t_final,
                         "--fock-dim", fock_dim, "--initial", "coherent:0.6"]

    def unit(self, k: int) -> dict:
        base = self.fresh_dir(f"long{k}")
        sim = base / "sim"
        record = str(sim / "records.csv")
        cmd_s = {}
        rc, _, cmd_s["simulate"] = self.run_cli(
            ["simulate", *self.sim_argv, "--seed", str(_cli_seed(self.seed, k)),
             "--out", str(sim)], f"simulate#{k}")
        ok = [rc == 0 and self.weights_ok(
            _read_column(sim / "moments.csv", "weight"), f"simulate#{k}")]
        if rc == 0:
            povm_json = base / "povm.json"
            rc, _, cmd_s["povm"] = self.run_cli(
                ["povm", "--config", str(self.config), "--record", record,
                 "--retrodict", "--out", str(povm_json)], f"povm#{k}")
            ok.append(rc == 0 and self.povm_ok(povm_json, k))
            rc, text, cmd_s["adjoint"] = self.run_cli(
                ["adjoint", "--config", str(self.config), "--record", record,
                 "--out", str(base / "adj")], f"adjoint#{k}")
            ok.append(self.check(f"adjoint#{k} exits 0 (cross-check at 1e-8)",
                                 rc == 0, text.strip()))
        self.failed += 3 - sum(ok)
        written = _dir_bytes(base)
        shutil.rmtree(base, ignore_errors=True)
        wall = sum(cmd_s.values())
        return {"ops": 3, "traj": 1, "wall_s": wall, "work_s": wall,
                "bytes_written": written, "cmd_s": cmd_s}

    def povm_ok(self, path: Path, k: int) -> bool:
        payload = json.loads(path.read_text())
        resid = payload["closed_form_residual"]
        ok = self.check(f"povm#{k} closed-form residual < 1e-10",
                        resid < 1e-10, f"{resid:.3e}")
        # Homodyne leaves one quadrature unmeasured: the CLI spells that flat
        # direction's variance "inf".  Everything else must be a finite number.
        post = payload["posterior"]
        cov = post["covariance"]
        informative = [i for i in range(len(cov)) if cov[i][i] != "inf"]
        finite = (all(np.isfinite(v) for v in post["mean_re"] + post["mean_im"])
                  and bool(informative)
                  and all(isinstance(cov[i][j], float) and np.isfinite(cov[i][j])
                          for i in informative for j in informative)
                  and all(cov[i][i] > 0 for i in informative)
                  and all(v == "inf" or isinstance(v, float)
                          for row in cov for v in row))
        return self.check(f"povm#{k} posterior finite on informative directions",
                          finite, json.dumps(post)) and ok


class LibEnsemble(Workload):
    """Criterion-6 path: batched accumulation, normal ordering and the shared
    quadratic propagator, then the weighted photon number."""

    name = "lib-ensemble"
    nominal_unit_s = 2.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = builtin_homodyne_thermal(**HOMODYNE)
        self.dt = 5e-4
        self.dim, self.steps, self.batch = ((10, 200, 50) if self.quick
                                            else (18, 2000, 500))
        self.rho0 = coherent_state(1, self.dim, 0.6)
        self.reference = None

    def setup(self) -> dict:
        gen = compute_generator(self.spec)
        table = BlockTable(rep_of_generator(gen), self.dt, self.steps)
        blocks = table.final_blocks()
        # Part of every ensemble's record-independent build, although this
        # estimator reads no effect parameters.
        povm_blocks(blocks)
        prop = EnsemblePropagator(EvolutionFactors.from_blocks(blocks), self.dim)
        if self.tracer is not None:
            self.tracer.patch(prop, "propagate_vec",
                              span_name(prop.propagate_vec))
        return {"table": table, "blocks": blocks, "prop": prop,
                "couplings": compute_noise_couplings(self.spec)}

    def begin_phase(self) -> None:
        self.samples: list[float] = []
        self.weights: list[float] = []

    def unit(self, k: int) -> dict:
        mask = self.spec.monitored
        y = np.zeros((self.batch, self.steps, 2 * self.spec.n_channels))
        y[:, :, mask] = (_seed_rng(self.seed, k).normal(
            size=(self.batch, self.steps, int(mask.sum()))) / np.sqrt(self.dt))
        _, _, nop = fock_operators(self.dim)
        tr_n = nop.T.reshape(-1, order="F")
        tr_1 = np.eye(self.dim).reshape(-1, order="F")
        v0 = self.rho0.rho.reshape(-1, order="F")

        self.tag(f"batch{k}")
        t0 = perf_counter()
        ctx = self.setup()
        t1 = perf_counter()
        blocks, prop = ctx["blocks"], ctx["prop"]
        l_e, r_e, h_e = accumulate_integrals_ensemble(ctx["table"],
                                                      ctx["couplings"], y)
        for i in range(self.batch):
            self.tag(f"traj{k * self.batch + i}")
            try:
                l_u, r_u = normal_order_linear(blocks, l_e[i], r_e[i])
                sigma = reordering_scalar(blocks, r_e[i])
                v = prop.propagate_vec(v0, l_u[:1], r_u[:1], sigma)
            except LintrajError as exc:
                self.errors[type(exc).__name__] += 1
                self.failed += 1
                continue
            scale = np.exp(h_e[i])
            self.samples.append(float(np.real(scale * (tr_n @ v))))
            self.weights.append(float(np.real(scale * (tr_1 @ v))))
        t2 = perf_counter()
        return {"ops": self.batch, "traj": self.batch, "wall_s": t2 - t0,
                "setup_s": t1 - t0, "work_s": t2 - t1,
                "bytes_computed": _accumulation_bytes(y, l_e)}

    def finish_phase(self) -> None:
        if self.reference is None:
            _, _, nop = fock_operators(self.dim)
            final = integrate_me(self.spec, self.rho0, self.dt * self.steps,
                                 dt=1e-3)
            self.reference = float(np.real(np.trace(nop @ final.rho)))
        # Criterion 6 allows 3 standard errors for one fixed seed.  Here the
        # check runs again with fresh seeds in every benchmark run, so it uses
        # criterion 9's 4: a 3-SE band fails by chance in about 1 run in 370.
        s = np.array(self.samples)
        mean = s.mean()
        se = s.std(ddof=1) / np.sqrt(s.size)
        if not self.check("weighted <n> matches integrate_me within 4 SE",
                          abs(mean - self.reference) < 4 * se,
                          f"{mean:.5f} +- {se:.5f} vs {self.reference:.5f} "
                          f"(z {(mean - self.reference) / se:+.2f}, N {s.size})"):
            self.failed += s.size


class RecordSummary(Workload):
    """Criterion-9 path: conditioned Gaussian records, batched accumulation,
    and the POVM summary vector d of every record."""

    name = "record-summary"
    nominal_unit_s = 3.1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = builtin_optomech_squeezing(**OPTOMECH)
        self.alpha0 = 0.7 - 0.4j
        self.dt = 1e-3
        self.t_final, self.batch = (0.2, 100) if self.quick else (2.0, 1000)
        self.steps = int(round(self.t_final / self.dt))

    def setup(self) -> dict:
        gen = compute_generator(self.spec)
        table = BlockTable(rep_of_generator(gen), self.dt, self.steps)
        return {"table": table, "lpp": povm_blocks(table.final_blocks()),
                "couplings": compute_noise_couplings(self.spec)}

    def begin_phase(self) -> None:
        self.ds: list[complex] = []

    def unit(self, k: int) -> dict:
        mean0 = np.sqrt(2) * np.array([self.alpha0.real, self.alpha0.imag])
        rng = _seed_rng(self.seed, k)
        self.tag(f"batch{k}")
        t0 = perf_counter()
        ctx = self.setup()
        t1 = perf_counter()
        try:
            y = sample_conditioned_record_gaussian(
                self.spec, mean0, 0.5 * np.eye(2), self.dt, self.t_final,
                rng=rng, n_traj=self.batch)
            l_e, r_e, h_e = accumulate_integrals_ensemble(ctx["table"],
                                                          ctx["couplings"], y)
            for i in range(self.batch):
                ints = TrajectoryIntegrals(n_modes=1, t=self.t_final,
                                           l_prime=l_e[i], r_prime=r_e[i],
                                           h=complex(h_e[i]))
                self.ds.append(stochastic_d(ints, ctx["lpp"])[0])
            computed = _accumulation_bytes(y, l_e)
        except LintrajError as exc:
            self.errors[type(exc).__name__] += 1
            self.failed += self.batch
            computed = 0
        t2 = perf_counter()
        return {"ops": self.batch, "traj": self.batch, "wall_s": t2 - t0,
                "setup_s": t1 - t0, "work_s": t2 - t1,
                "bytes_computed": computed}

    def finish_phase(self) -> None:
        ds = np.array(self.ds)
        n = ds.size
        ok = True
        for comp, label in ((ds.real, "Re"), (ds.imag, "Im")):
            c = comp - comp.mean()
            m2 = (c ** 2).mean()
            skew = (c ** 3).mean() / m2 ** 1.5
            kurt = (c ** 4).mean() / m2 ** 2 - 3.0
            ok &= self.check(f"{label} d skewness within 4 SE",
                             abs(skew) < 4 * np.sqrt(6.0 / n),
                             f"{skew:+.4f}, N {n}")
            ok &= self.check(f"{label} d excess kurtosis within 4 SE",
                             abs(kurt) < 4 * np.sqrt(24.0 / n),
                             f"{kurt:+.4f}, N {n}")
        effect0 = effect_from_blocks(self.setup()["lpp"], np.zeros(1, complex))
        want = effect0.d_mean_for(self.alpha0)[0]
        se = np.array([ds.real.std(), ds.imag.std()]) / np.sqrt(n)
        resid = np.array([abs(ds.real.mean() - want.real),
                          abs(ds.imag.mean() - want.imag)])
        ok &= self.check("mean d matches the effect-mean relation at alpha0",
                         (resid < 4 * se + 10 * self.dt).all(),
                         f"{ds.mean():.4f} vs {want:.4f} (se {se[0]:.4f})")
        if not ok:
            self.failed += n


WORKLOADS = {cls.name: cls for cls in (CliEnsemble, LibEnsemble, RecordSummary,
                                       LongRecord)}
