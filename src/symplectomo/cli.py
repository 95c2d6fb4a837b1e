"""Command-line pipeline: tabulate tomograms, simulate measurements, reconstruct, compare.

Every command writes a ``<output>.manifest.json`` recording the full
parameter set, seed, toolkit version and wall-clock duration; rerunning a
deterministic command with the same parameters reproduces its outputs
bit-identically.

Exit codes: 0 success, 2 usage or parse error, 3 numerical-quality failure
(narrow grids, underresolved reconstruction, truncation), 4 I/O error.

The state / settings / scheme mini-languages are documented in FORMATS.md
and in each option's ``--help`` text.  Physical parameters have no defaults:
a spec like ``cat`` without ``a=..,b=..`` is rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    CutoffTooSmall,
    GridTooNarrow,
    GridUnderresolved,
    TomographyError,
    TruncationTooSmall,
)
from .kernels import KernelScale, PolarGrid
from .marginals import QuadratureSetting, circle_settings, tabulate_tomogram
from .measure_sim import (
    GENERATOR_NAME,
    HeterodyneSettingTwoMode,
    SqueezerSetting,
    heterodyne_to_setting,
    importance_schedule,
    sample_campaign,
    sample_marginal,
    squeezer_to_setting,
)
from .reconstruct import (
    PROJECTIONS,
    ReconstructionConfig,
    fidelity,
    reconstruct_from_samples,
    reconstruct_from_tomogram,
    trace_distance,
)
from .twomode import TwoModeConfig, TwoModeSetting, reconstruct_two_mode, tabulate_tilde_tomogram
from . import io as tio
from . import states as st

USAGE_ERROR, QUALITY_ERROR, IO_ERROR = 2, 3, 4

_QUALITY_ERRORS = (GridTooNarrow, GridUnderresolved, CutoffTooSmall, TruncationTooSmall)


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mini-language parsers
# ---------------------------------------------------------------------------


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise SpecError(f"expected key=value, got {item!r}")
            k, v = item.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _take(kv: dict, key: str, conv=float, default=None):
    """Pop and convert ``kv[key]``; a missing key gives ``default`` or, without one, an error."""
    if key not in kv:
        if default is not None:
            return default
        raise SpecError(f"missing required parameter {key!r}")
    try:
        return conv(kv.pop(key))
    except ValueError as exc:
        raise SpecError(f"cannot parse {key}: {exc}") from exc


def _done(kv: dict, what: str):
    if kv:
        raise SpecError(f"unknown parameters for {what}: {', '.join(kv)}")


def parse_state(spec: str):
    """``vacuum`` | ``number:n=1`` | ``coherent:alpha=0.5+0.3j`` | ``cat:a=1,b=1``
    | ``thermal:lambda=0.5`` | ``gauss2:M=diag:...|full:...`` | ``cat2:q1=..,p1=..,q2=..,p2=..``"""
    name, _, body = spec.partition(":")
    if name == "vacuum":
        if body:
            raise SpecError("vacuum takes no parameters")
        return st.Vacuum()
    if name == "number":
        kv = _parse_kv(body)
        n = _take(kv, "n", int)
        _done(kv, "number")
        return st.NumberState(n)
    if name == "coherent":
        kv = _parse_kv(body)
        alpha = _take(kv, "alpha", complex)
        _done(kv, "coherent")
        return st.Coherent(alpha)
    if name == "cat":
        kv = _parse_kv(body)
        a = _take(kv, "a")
        b = _take(kv, "b")
        _done(kv, "cat")
        return st.EvenCat(a, b)
    if name == "thermal":
        kv = _parse_kv(body)
        lam = _take(kv, "lambda")
        _done(kv, "thermal")
        return st.Thermal(lam)
    if name == "gauss2":
        if not body.startswith("M="):
            raise SpecError("gauss2 needs M=diag:... or M=full:...")
        mspec = body[2:]
        kind, _, vals = mspec.partition(":")
        try:
            numbers = [float(v) for v in vals.split(",")]
        except ValueError as exc:
            raise SpecError(f"cannot parse matrix entries: {exc}") from exc
        if kind == "diag" and len(numbers) == 4:
            M = np.diag(numbers)
        elif kind == "full" and len(numbers) == 16:
            M = np.asarray(numbers).reshape(4, 4)
        else:
            raise SpecError("M=diag: needs 4 values, M=full: needs 16")
        return st.GaussianTwoMode(st.CovarianceMatrix(M))
    if name == "cat2":
        kv = _parse_kv(body)
        q1, p1 = _take(kv, "q1"), _take(kv, "p1")
        q2, p2 = _take(kv, "q2"), _take(kv, "p2")
        _done(kv, "cat2")
        A = (np.array([q1, q2]) + 1j * np.array([p1, p2])) / np.sqrt(2)
        return st.TwoModeCat(A)
    raise SpecError(f"unknown state {name!r}")


def parse_settings(spec: str):
    """``circle:8`` | ``circle:8:r=2`` | ``MU,NU[,DELTA]`` (';'-separated) | ``hopf:nt:npsi``."""
    name, _, body = spec.partition(":")
    if name == "circle":
        count, _, extra = body.partition(":")
        kv = _parse_kv(extra)
        radius = _take(kv, "r", default=1.0)
        _done(kv, "circle")
        return circle_settings(_take({"n": count}, "n", int), radius)
    if name == "hopf":
        if body.count(":") != 1:
            raise SpecError("hopf grid is hopf:<n_t>:<n_psi>")
        kv = dict(zip(("n_t", "n_psi"), body.split(":")))
        return ("hopf", _take(kv, "n_t", int), _take(kv, "n_psi", int))
    settings = []
    for chunk in spec.split(";"):
        values = chunk.split(",")
        if len(values) not in (2, 3):
            raise SpecError(f"setting needs mu,nu[,delta]: {chunk!r}")
        kv = dict(zip(("mu", "nu", "delta"), values))
        settings.append(QuadratureSetting(_take(kv, "mu"), _take(kv, "nu"), _take(kv, "delta", default=0.0)))
    return settings


def parse_scheme(spec: str):
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    if name == "direct":
        mu = _take(kv, "mu")
        nu = _take(kv, "nu")
        delta = _take(kv, "delta", default=0.0)
        _done(kv, "direct")
        return QuadratureSetting(mu, nu, delta)
    if name == "squeezer":
        s = _take(kv, "s")
        theta = _take(kv, "theta")
        _done(kv, "squeezer")
        return squeezer_to_setting(SqueezerSetting(s, theta))
    if name == "heterodyne":
        E1 = _take(kv, "E1")
        E2 = _take(kv, "E2")
        phi = _take(kv, "phi")
        th1 = _take(kv, "th1", default=0.0)
        th2 = _take(kv, "th2", default=0.0)
        _done(kv, "heterodyne")
        return heterodyne_to_setting(HeterodyneSettingTwoMode(E1, E2, phi, th1, th2))
    if name == "importance":
        n = _take(kv, "n", int)
        z = _take(kv, "z", default=1.0)
        _done(kv, "importance")
        return ("importance", n, z)
    raise SpecError(f"unknown scheme {name!r}")


def parse_x_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise SpecError(f"x grid is lo:hi:n, got {spec!r}") from exc


def parse_polar_grid(spec: str) -> PolarGrid:
    try:
        r_max, n_r = spec.split(":")
        return PolarGrid(float(r_max), int(n_r))
    except ValueError as exc:
        raise SpecError(f"grid is r_max:n_r, got {spec!r}") from exc


def _manifest(args, command, inputs, outputs, started, seed=None):
    params = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = tio.RunManifest(
        command=command,
        parameters={k: str(v) for k, v in params.items()},
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        seed=seed,
        version=__version__,
        generator=GENERATOR_NAME,
        duration_s=time.monotonic() - started,
    )
    tio.write_manifest(manifest, outputs[0])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_tomogram(args) -> int:
    started = time.monotonic()
    state = parse_state(args.state)
    settings = parse_settings(args.settings)
    x_grid = parse_x_grid(args.x) if args.x else None

    two_mode = isinstance(state, (st.GaussianTwoMode, st.TwoModeCat, st.ProductState))
    if two_mode:
        if isinstance(settings, tuple) and settings[0] == "hopf":
            tomo = tabulate_tilde_tomogram(state, x_grid=x_grid, n_t=settings[1], n_psi=settings[2])
        else:
            if isinstance(settings, tuple):
                raise SpecError("two-mode tomograms need hopf:<n_t>:<n_psi> or explicit settings")
            two_settings = [
                TwoModeSetting(mu=np.array([s.mu, 0.0]), nu=np.array([s.nu, 0.0]), delta=np.array([s.delta, 0.0]))
                for s in settings
            ]
            tomo = tabulate_tilde_tomogram(state, settings=two_settings, x_grid=x_grid)
        tio.save_two_mode_tomogram(tomo, args.out)
        dx = tomo.x1[1] - tomo.x1[0]
        integrals = np.trapezoid(tomo.values, dx=dx, axis=1)
    else:
        if isinstance(settings, tuple):
            raise SpecError("hopf grids apply to two-mode states only")
        tomo = tabulate_tomogram(state, settings, x_grid=x_grid)
        tio.save_tomogram(tomo, args.out)
        integrals = tomo.row_integrals()

    print(
        f"tomogram: {len(tomo.settings)} settings, normalization in "
        f"[{integrals.min():.9f}, {integrals.max():.9f}]"
    )
    _manifest(args, "tomogram", [], [args.out], started)
    return 0


def cmd_sample(args) -> int:
    started = time.monotonic()
    state = parse_state(args.state)
    scheme = parse_scheme(args.scheme)
    if isinstance(scheme, tuple) and scheme[0] == "importance":
        _, n_settings, z = scheme
        schedule = importance_schedule(n_settings, KernelScale(z), seed=args.seed)
        n_per = max(1, args.n // n_settings)
        batches = sample_campaign(state, schedule, n_per, args.seed)
    else:
        batches = [sample_marginal(state, scheme, args.n, args.seed)]
    tio.save_samples(batches, args.out, state_label=args.state)
    total = sum(b.outcomes.size for b in batches)
    print(f"samples: {total} outcomes over {len(batches)} settings (seed {args.seed})")
    _manifest(args, "sample", [], [args.out], started, seed=args.seed)
    return 0


def _sniff_header(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return tio._read_header(fh, path, *tio.HEADERS)


def cmd_reconstruct(args) -> int:
    started = time.monotonic()
    header = _sniff_header(args.input)
    grid = parse_polar_grid(args.grid) if args.grid else None
    scale = KernelScale(args.z)
    if grid is not None and header == tio.SAMPLES_HEADER:
        raise SpecError("sample files take no --grid: circle records use the default radii, campaigns their settings")

    if header in (tio.TILDE_HEADER, tio.VECTOR_HEADER):
        tomo2 = tio.load_two_mode_tomogram(args.input)
        radial = {"r_max": grid.r_max, "n_r": grid.n_r} if grid else {}
        cfg2 = TwoModeConfig(scale=scale, dims=(args.dim, args.dim), projection=args.projection, **radial)
        report = reconstruct_two_mode(tomo2, cfg2)
    else:
        cfg = ReconstructionConfig(scale=scale, dim=args.dim, grid=grid or PolarGrid(), projection=args.projection)
        if header == tio.TOMOGRAM_HEADER:
            report = reconstruct_from_tomogram(tio.load_tomogram(args.input), cfg)
        else:
            # one- or two-mode samples: the estimator refuses two-mode batches
            report = reconstruct_from_samples(tio.load_samples(args.input), cfg)

    tio.save_density(report.rho, args.out)
    report_path = str(args.out) + ".report.json"
    tio.save_report(report, report_path)
    print(
        f"reconstruction: dim {report.rho.dim}, trace error {report.trace_error:.3g}, "
        f"hermiticity {report.hermiticity_residual:.3g}, min eigenvalue {report.min_eigenvalue:.3g}"
    )
    _manifest(args, "reconstruct", [args.input], [args.out, report_path], started)
    return 0


def cmd_compare(args) -> int:
    started = time.monotonic()
    rho_a = tio.load_density(args.a)
    rho_b = tio.load_density(args.b)
    result = {
        "fidelity": fidelity(rho_a, rho_b),
        "trace_distance": trace_distance(rho_a, rho_b),
        "max_elementwise_deviation": float(np.max(np.abs(rho_a.entries - rho_b.entries))),
    }
    print(json.dumps(result, indent=1))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        _manifest(args, "compare", [args.a, args.b], [args.out], started)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symplectomo",
        description="Quadrature tomography pipeline: tabulate, sample, reconstruct, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tomogram", help="tabulate marginal distributions to CSV")
    p.add_argument("--state", required=True, help="e.g. vacuum | cat:a=1,b=1 | thermal:lambda=0.5 | gauss2:M=diag:...")
    p.add_argument("--settings", required=True, help="circle:8 | mu,nu[,delta];... | hopf:nt:npsi")
    p.add_argument("--x", default=None, help="x grid lo:hi:n (default: auto)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tomogram)

    p = sub.add_parser("sample", help="simulate measurement outcomes to CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--scheme", required=True, help="direct:mu=..,nu=.. | squeezer:s=..,theta=.. | heterodyne:E1=..,E2=..,phi=.. | importance:n=32")
    p.add_argument("--n", type=int, required=True, help="total number of samples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="reconstruct a density matrix from tomogram or sample CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--z", type=float, default=1.0, help="kernel Fourier component (homodyne: --z 1 --grid 12:64)")
    p.add_argument("--dim", type=int, default=12, help="Fock truncation (per mode for two-mode input)")
    p.add_argument("--grid", default=None, help="radial grid r_max:n_r (the angles come from the tomogram's settings)")
    p.add_argument("--projection", choices=PROJECTIONS, default="hermitize")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("compare", help="fidelity / trace distance between two density files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def _absorb_dashed_values(argv):
    """Join ``--opt -6:6:601`` into ``--opt=-6:6:601`` so argparse accepts it."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--x", "--grid") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_absorb_dashed_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _QUALITY_ERRORS as exc:
        print(f"numerical-quality failure: {exc}", file=sys.stderr)
        return QUALITY_ERROR
    except TomographyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
