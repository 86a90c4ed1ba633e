"""Config-driven command line: validate | simulate | povm | adjoint | me | compare.

Every run writes a manifest (config, flags, package versions) and stamps its
hash into each output file, so identical manifests reproduce byte-identical
outputs.  Numbers are printed with 17 significant digits (round-trip safe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .adjoint_kalman import (
    backward_moment_trajectory,  # noqa: F401  (bound here for perfbench's layer tracer)
    backward_sweep,
    crosscheck_against_povm,
    integrate_backward,  # noqa: F401  (bound here for perfbench's layer tracer)
    kalman_matrices,
    moments_to_csv,
)
from .errors import ConfigError, DimensionMismatch, LintrajError
from .lie_rep import povm_blocks, rep_of_generator
from .oracle_sme import integrate_linear_sme, integrate_me
from .parameterization import compute_generator, compute_noise_couplings
from .povm import (
    effect_from_blocks,
    effect_to_json,
    homodyne_closed_form,
    optomech_closed_form,
    retrodict_posterior,
)
from .state_engine import (
    EnsemblePropagator,
    EvolutionFactors,
    FockDensityMatrix,
    apply_evolution,
    coherent_state,
    expectation,
    fock_operators,
    fock_state,
    normalize_and_trace,
    state_to_json,
    trace_distance,
    vacuum_state,
)
from .system import spec_from_config
from .trajectory import (
    BlockTable,
    TrajectoryIntegrals,
    accumulate_integrals,
    accumulate_integrals_ensemble,
    integrals_to_json,
    record_from_csv,
    record_to_csv,
    sample_ostensible_record,
    stochastic_d,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_json(path: str, what: str):
    """Parsed JSON of a user-supplied file; ConfigError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except ValueError as exc:     # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


def _load_config(path: str) -> dict:
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return cfg


@lru_cache(maxsize=1)
def _scipy_version() -> str:
    """The installed scipy's version, read from its package metadata: a
    one-mode run never imports scipy itself."""
    from importlib.metadata import version

    return version("scipy")


def _manifest(args, cfg: dict) -> tuple[dict, str]:
    # the output location is not part of the manifest: identical manifests
    # must reproduce byte-identical numeric outputs wherever they are written
    manifest = {
        "command": args.command,
        "config": cfg,
        "seed": getattr(args, "seed", None),
        "dt": getattr(args, "dt", None),
        "t_final": getattr(args, "t_final", None),
        "trajectories": getattr(args, "trajectories", None),
        "fock_dim": getattr(args, "fock_dim", None),
        "initial": getattr(args, "initial", None),
        "versions": {"lintraj": __version__, "numpy": np.__version__,
                     "scipy": _scipy_version()},
    }
    blob = json.dumps(manifest, sort_keys=True, default=str).encode()
    return manifest, hashlib.sha256(blob).hexdigest()[:16]


# scalars that json's C encoder writes as they stand in an indented document
_JSON_LEAVES = frozenset({float, int, str, bool, type(None)})


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=1, sort_keys=True)``, nested at ``indent``.
    Dicts and lists that hold containers are walked here; each list of
    scalars is one call of json's C encoder, whose item separator carries
    the newline and indent (an indented dump runs json's Python encoder on
    every float)."""
    inner = indent + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value))
        return "{\n" + items + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _JSON_LEAVES.issuperset(map(type, value)):
            sep = (",\n" + inner, ": ")
            items = inner + json.dumps(value, separators=sep)[1:-1]
        else:
            items = ",\n".join(inner + _json_text(v, inner) for v in value)
        return "[\n" + items + "\n" + indent + "]"
    return json.dumps(value)


def _write_json(path: str, payload: dict, stamp: str) -> None:
    text = _json_text({"_manifest": stamp, **payload})
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _parse_values(descriptor: str, arg: str, parse):
    try:
        return [parse(s) for s in arg.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse --initial {descriptor!r}") from None


def _initial_state(descriptor: str, n_modes: int, dim: int):
    if dim < 2:
        raise ConfigError(f"--fock-dim must be >= 2, got {dim}")
    kind, _, arg = descriptor.partition(":")
    if kind == "vacuum":
        return vacuum_state(n_modes, dim)
    if kind == "coherent":
        return coherent_state(n_modes, dim, _parse_values(descriptor, arg, complex))
    if kind == "fock":
        return fock_state(n_modes, dim, _parse_values(descriptor, arg, int))
    if kind == "file":
        data = _read_json(arg, "initial state")
        try:
            rho = (np.array(data["rho_re"], dtype=float)
                   + 1j * np.array(data["rho_im"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"initial state {arg!r} needs numeric 'rho_re' "
                              f"and 'rho_im' lists: {exc!r}") from None
        d = dim ** n_modes
        if rho.size != d * d:
            raise DimensionMismatch(
                f"initial state in {arg} has {rho.size} entries; "
                f"{n_modes} mode(s) at --fock-dim {dim} need {d * d}")
        if not np.isfinite(rho).all():
            raise ConfigError(f"initial state in {arg} has non-finite entries")
        return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim,
                                 rho=rho.reshape(d, d))
    raise ConfigError(f"unknown initial state {descriptor!r}")


def _grid_steps(dt: float, t_final: float) -> int:
    """Number of record slices of a sampled run; at least one."""
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError(f"--dt must be a positive number, got {dt}")
    steps = int(round(t_final / dt)) if np.isfinite(t_final) else 0
    if steps < 1:
        raise ConfigError(f"--t-final {t_final} is shorter than one --dt step")
    return steps


def _pipeline_for(spec, dt: float, steps: int):
    gen = compute_generator(spec)
    rep = rep_of_generator(gen)
    table = BlockTable(rep, dt, steps)
    couplings = compute_noise_couplings(spec)
    return table, couplings


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    gen = compute_generator(spec)
    n = spec.n_modes
    resid = max(
        float(np.abs(gen.R - gen.R.T).max()),
        float(np.abs(gen.L - gen.L.T).max()),
        float(np.abs(gen.R[n:, n:] - gen.R[:n, :n].conj()).max()),
        float(np.abs(gen.D[n:, n:] - gen.D[:n, :n].conj()).max()),
    )
    print(f"OK: n_modes={spec.n_modes} n_channels={spec.n_channels} "
          f"efficiencies={[float(e) for e in spec.efficiencies]}")
    print(f"block symmetry residual: {_fmt(resid)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    manifest, stamp = _manifest(args, cfg)
    steps = _grid_steps(args.dt, args.t_final)
    if args.trajectories < 1:
        raise ConfigError(f"--trajectories must be >= 1, got {args.trajectories}")
    rho0 = _initial_state(args.initial, spec.n_modes, args.fock_dim)

    # record-independent work, once per ensemble
    table, couplings = _pipeline_for(spec, args.dt, steps)
    blocks = table.final_blocks()
    lpp_full = povm_blocks(blocks)
    engine = EnsemblePropagator(EvolutionFactors.from_blocks(blocks),
                                args.fock_dim)
    a_op, _, n_op = fock_operators(args.fock_dim)

    seeds = np.random.SeedSequence(args.seed).spawn(args.trajectories)
    records = [sample_ostensible_record(spec, args.dt, args.t_final, seed=None,
                                        rng=np.random.default_rng(seed))
               for seed in seeds]
    # one summary call: the kernels and the scan's M_c serve every record
    l_p, r_p, h = accumulate_integrals_ensemble(
        table, couplings, np.stack([record.y for record in records]))
    integrals = [TrajectoryIntegrals(n_modes=table.n_modes, t=record.t_final,
                                     l_prime=l_p[i], r_prime=r_p[i],
                                     h=complex(h[i]))
                 for i, record in enumerate(records)]
    states = engine.evolve_records(rho0, integrals)

    per_traj, rows, normalized_states = [], [], []
    for i, (record, ints, state) in enumerate(zip(records, integrals, states)):
        normalized, trace = normalize_and_trace(state)
        entry = integrals_to_json(ints, stochastic_d(ints, lpp_full))
        entry["seed"] = {"master": args.seed, "spawn": i}
        per_traj.append(entry)
        row = {
            "traj": i,
            "weight": trace * float(np.exp(np.real(ints.h))),
            "trace": trace,
            "h_re": float(np.real(ints.h)),
            "purity": normalized.purity(),
        }
        if spec.n_modes == 1:
            a = expectation(normalized, a_op)
            row["a_re"] = float(np.real(a))
            row["a_im"] = float(np.imag(a))
            row["n"] = float(np.real(expectation(normalized, n_op)))
        if args.compare_oracle:
            oracle = integrate_linear_sme(spec, rho0, record)
            onorm, _ = normalize_and_trace(oracle)
            row["oracle_tdist"] = trace_distance(normalized.rho, onorm.rho)
        rows.append(row)
        normalized_states.append(normalized)

    # only a run whose numbers are all computed creates its output directory
    os.makedirs(os.path.join(args.out, "states"), exist_ok=True)
    _write_json(os.path.join(args.out, "manifest.json"), manifest, stamp)
    record_to_csv(records[0], os.path.join(args.out, "records.csv"),
                  header_comment=f"manifest {stamp}")
    _write_json(os.path.join(args.out, "integrals.json"),
                {"trajectories": per_traj}, stamp)
    with open(os.path.join(args.out, "moments.csv"), "w") as fh:
        fh.write(f"# manifest {stamp}\n")
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")
    for i, normalized in enumerate(normalized_states):
        _write_json(os.path.join(args.out, "states", f"traj_{i:04d}.json"),
                    state_to_json(normalized), stamp)
    if args.compare_oracle:
        worst = max(row["oracle_tdist"] for row in rows)
        print(f"worst oracle trace distance: {_fmt(worst)}")
    print(f"wrote {args.trajectories} trajectories to {args.out}")
    return 0


def _integrals_from_args(args, spec):
    """(record, final blocks, integrals) of the --record CSV, or of an
    ostensible record sampled over --dt and --t-final when it is omitted."""
    if args.record:
        record = record_from_csv(args.record)
    else:
        _grid_steps(args.dt, args.t_final)
        record = sample_ostensible_record(spec, args.dt, args.t_final,
                                          seed=args.seed)
    table, couplings = _pipeline_for(spec, record.dt, record.steps)
    return record, table.final_blocks(), accumulate_integrals(table, couplings,
                                                              record)


def _effect_from_args(args, spec):
    """(record, final blocks, effect) of the record of
    :func:`_integrals_from_args`."""
    record, blocks, ints = _integrals_from_args(args, spec)
    lpp_full = povm_blocks(blocks)
    d = stochastic_d(ints, lpp_full)
    return record, blocks, effect_from_blocks(lpp_full, d)


def _retrodict_prior(arg: str, n_modes: int) -> dict:
    """retrodict_posterior's prior keywords for a --retrodict argument:
    none for "flat", else prior_mean and prior_cov from 'mean[,..]:variance'."""
    if arg == "flat":
        return {}
    mean_str, _, var_str = arg.partition(":")
    try:
        prior_mean = np.array([complex(z) for z in mean_str.split(",")])
        prior_var = float(var_str or 1.0)
    except ValueError as exc:
        raise ConfigError(f"bad --retrodict prior {arg!r}: {exc}") from None
    if not np.isfinite(prior_mean).all():
        raise ConfigError(f"--retrodict prior mean must be finite, "
                          f"got {mean_str!r}")
    # the prior enters retrodict_posterior through its inverse
    if not (np.isfinite(prior_var) and prior_var > 0
            and np.isfinite(1.0 / prior_var)):
        raise ConfigError(f"--retrodict prior variance must be a positive "
                          f"number with a finite inverse, got {var_str!r}")
    if prior_mean.size != n_modes:
        raise DimensionMismatch(f"--retrodict gives {prior_mean.size} prior "
                                f"mean(s) for {n_modes} mode(s)")
    return {"prior_mean": prior_mean,
            "prior_cov": prior_var * np.eye(2 * n_modes)}


def cmd_povm(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    manifest, stamp = _manifest(args, cfg)
    if args.retrodict is not None:
        prior = _retrodict_prior(args.retrodict, spec.n_modes)
    record, blocks, effect = _effect_from_args(args, spec)
    payload = {"effect": effect_to_json(effect), "t": blocks.t,
               "flat": effect.is_flat}
    # printed once the output is written: a failed run prints its error alone
    notes = []

    builtin = cfg.get("builtin", {})
    if builtin.get("name") == "homodyne_thermal":
        p = builtin["params"]
        lpp_cf, lb_cf, d_cf = homodyne_closed_form(
            p["gamma"], p["K"], p["eta"], blocks.t, record)
        resid = max(abs(effect.Lpp[0, 0] - lpp_cf),
                    abs(effect.Lpp_breve[0, 0] - lb_cf),
                    abs(effect.d[0] - d_cf))
        payload["closed_form_residual"] = float(resid)
        notes.append(f"homodyne closed-form residual: {_fmt(float(resid))}")
    if builtin.get("name") == "optomech_squeezing":
        p = builtin["params"]
        mu_eff = p["mu"] * p["eta"]
        K = p["K_th"] + p["mu"] * (1 - p["eta"]) / p["gamma"]
        cf = optomech_closed_form(mu_eff, p["gamma"], K, p["chi"], blocks.t)
        payload["sigma_x2"] = cf.sigma_x2
        payload["sigma_p2"] = cf.sigma_p2
        notes.append(f"sigma_x^2 = {_fmt(cf.sigma_x2)}  "
                     f"sigma_p^2 = {_fmt(cf.sigma_p2)}")
    if effect.is_flat:
        notes.append("effect is flat (no measurement information)")
    if args.retrodict is not None:
        posterior = retrodict_posterior(effect, **prior)
        payload["posterior"] = {
            "mean_re": posterior.mean.real.tolist(),
            "mean_im": posterior.mean.imag.tolist(),
            "covariance": [[v if np.isfinite(v) else "inf" for v in row]
                           for row in posterior.covariance.tolist()],
        }
    out = args.out or "povm.json"
    _write_json(out, payload, stamp)
    print("\n".join(notes + [f"wrote {out}"]))
    return 0


def cmd_adjoint(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    manifest, stamp = _manifest(args, cfg)
    record, _, effect = _effect_from_args(args, spec)
    taus, xs, vs, moments = backward_sweep(kalman_matrices(spec), record,
                                           n_samples=50)
    report = crosscheck_against_povm(effect, moments)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    moments_to_csv(os.path.join(out, "moments.csv"), taus, xs, vs,
                   header_comment=f"manifest {stamp}")
    _write_json(os.path.join(out, "crosscheck.json"),
                {"report": report,
                 "x": [v if np.isfinite(v) else "inf" for v in moments.x]},
                stamp)
    print(f"crosscheck: {report}")
    return 0


def cmd_me(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    manifest, stamp = _manifest(args, cfg)
    _grid_steps(args.dt, args.t_final)
    rho0 = _initial_state(args.initial, spec.n_modes, args.fock_dim)
    a_op, _, n_op = fock_operators(args.fock_dim)
    obs = {"n": n_op, "a": a_op} if spec.n_modes == 1 else {}
    final, series = integrate_me(spec, rho0, args.t_final, dt=args.dt,
                                 observables=obs or {"trace": np.eye(rho0.dim)})
    out = args.out or "me_moments.csv"
    ts = np.arange(len(next(iter(series.values())))) * args.dt
    with open(out, "w") as fh:
        fh.write(f"# manifest {stamp}\n")
        names = sorted(series)
        fh.write("t," + ",".join(f"{k}_re,{k}_im" for k in names) + "\n")
        for i, t in enumerate(ts):
            vals = []
            for k in names:
                vals += [np.real(series[k][i]), np.imag(series[k][i])]
            fh.write(",".join(_fmt(float(v)) for v in [t] + vals) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    manifest, stamp = _manifest(args, cfg)
    record, blocks, ints = _integrals_from_args(args, spec)
    rho0 = _initial_state(args.initial, spec.n_modes, args.fock_dim)
    normalized, trace = normalize_and_trace(apply_evolution(rho0, blocks, ints))
    oracle = integrate_linear_sme(spec, rho0, record)
    onorm, otrace = normalize_and_trace(oracle)
    tdist = trace_distance(normalized.rho, onorm.rho)
    weight = trace * float(np.exp(np.real(ints.h)))
    payload = {
        "trace_distance": tdist,
        "pipeline_weighted_trace": weight,
        "oracle_trace": otrace,
        "relative_trace_error": abs(weight - otrace) / otrace,
    }
    out = args.out or "compare.json"
    _write_json(out, payload, stamp)
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lintraj",
        description="Conditioned evolution and POVMs for linearly monitored "
                    "bosonic modes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, record=False, seed=True, state=True):
        p.add_argument("--config", required=True, help="system config JSON")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--t-final", dest="t_final", type=float, default=1.0)
        if state:
            p.add_argument("--fock-dim", dest="fock_dim", type=int, default=20)
            p.add_argument("--initial", default="vacuum",
                           help="vacuum | coherent:z[,z2..] | fock:n[,n2..] "
                                "| file:path")
        p.add_argument("--out", default=None)
        if record:
            p.add_argument("--record", default=None,
                           help="record CSV; omit to sample ostensibly")

    p = sub.add_parser("validate", help="check a system config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="sample an ensemble of trajectories")
    common(p)
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--compare-oracle", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("povm", help="effect operator of the compiled measurement")
    common(p, record=True, state=False)
    p.add_argument("--retrodict", nargs="?", const="flat", default=None,
                   metavar="PRIOR",
                   help="emit the posterior; optional Gaussian prior as "
                        "'mean[,mean2..]:variance' (one complex mean per "
                        "mode, per-component variance), default flat")
    p.set_defaults(fn=cmd_povm)

    p = sub.add_parser("adjoint", help="backward filter and POVM crosscheck")
    common(p, record=True, state=False)
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("me", help="unconditioned master equation moments")
    common(p, seed=False)
    p.set_defaults(fn=cmd_me)

    p = sub.add_parser("compare", help="pipeline vs brute-force oracle")
    common(p, record=True)
    p.set_defaults(fn=cmd_compare)
    return parser


def _run(args) -> int:
    """``args.fn(args)``; a LintrajError or an output that cannot be
    written is one JSON line on stdout and exit code 2."""
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except LintrajError as exc:
        error = exc
    except BrokenPipeError:
        raise                   # stdout itself is closed: main handles it
    except OSError as exc:
        # every input file is read behind a ConfigError, so this is an
        # output that cannot be written
        error = ConfigError(f"cannot write {exc.filename or 'an output'}: "
                            f"{exc.strerror}")
    print(json.dumps({"error": type(error).__name__, "message": str(error)}))
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.out is None:
        parser.error("simulate requires --out")
    try:
        code = _run(args)
        # a closed stdout raises here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone (``lintraj ... | head -1``): point stdout
        # at devnull, the Python docs' recipe, so that the final flush
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
