"""Command-line front end.

Verbs: ``kernel`` (matrices, factors, log-determinants), ``maxent-verify``
(closed-form kernels against their max-entropy completion), ``fit``
(single-dataset hyperparameter tuning), ``mc`` (Monte Carlo studies) and
``psd`` (spectral dumps).  Exit codes: 0 success, 1 runtime or domain
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import DecompositionError, StableKernError
from .estimator import Dataset, fit_hyperparameters
from .kernels import (
    KernelSpec,
    build_inverse,
    build_kernel,
    inverse_cholesky,
    matrix_to_csv,
    parse_family,
)
from .maxent import BandSpec, maxent_completion
from .simulation import ExperimentConfig, run_monte_carlo
from .spectral import low_frequency_mass, psd, stationary_part

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1; got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive; got {value}")
    return value


def _sigma2_arg(text: str) -> float | None:
    if text == "estimate":
        return None
    return _positive_float(text)


def _spec_args(parser: argparse.ArgumentParser, family_required: bool = True):
    parser.add_argument("--family", required=family_required,
                        help="kernel family, e.g. TC, DC2, TCd, HF3, SS, DI")
    parser.add_argument("--beta", type=float, help="decay parameter in (0,1)")
    parser.add_argument("--alpha", type=float, help="correlation parameter")
    parser.add_argument("--gamma", type=float, help="SS decay parameter")
    parser.add_argument("--delta", type=int, help="kernel order")


def _spec_from_args(args) -> KernelSpec:
    return KernelSpec.from_name(args.family, beta=args.beta, alpha=args.alpha,
                                delta=args.delta, gamma=args.gamma)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _write_matrix(M: np.ndarray, out: str | None) -> None:
    if out is None:
        matrix_to_csv(M, sys.stdout)
    else:
        with open(out, "w") as fh:
            matrix_to_csv(M, fh)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    spec = _spec_from_args(args)
    if args.logdet:
        factor = inverse_cholesky(spec, args.dim)
        _emit(_fmt(factor.logdet_K), args.out)
    elif args.cholesky:
        factor = inverse_cholesky(spec, args.dim)
        _write_matrix(factor.to_dense(), args.out)
    elif args.inverse:
        _write_matrix(build_inverse(spec, args.dim), args.out)
    else:
        _write_matrix(build_kernel(spec, args.dim), args.out)
    return 0


def cmd_maxent_verify(args) -> int:
    spec = _spec_from_args(args)
    bw = spec.bandwidth
    if bw is None:
        raise DecompositionError(
            f"{spec.display_name} has no banded-inverse characterization"
        )
    K = build_kernel(spec, args.dim)
    M = K.copy()
    if args.perturb:
        t, s = 0, min(bw, args.dim - 1)
        M[t, s] += args.perturb
        M[s, t] = M[t, s]
    band = BandSpec.from_matrix(M, bw)
    completed = maxent_completion(band).matrix
    deviation = float(np.max(np.abs(completed - K)))
    print(f"max deviation {_fmt(deviation)}")
    return 0 if deviation < args.tol else 1


def cmd_fit(args) -> int:
    dataset = Dataset.from_csv(args.data)
    family = parse_family(args.family, args.delta)
    result = fit_hyperparameters(dataset, family, T=args.T, sigma2=args.sigma2)
    _emit(result.to_json(), args.out)
    return 0


def _resolve_threads(flag: int | None) -> int:
    env = os.environ.get("STABLEKERN_THREADS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise StableKernError(f"STABLEKERN_THREADS is not an integer: {env!r}")
        if workers < 1:
            raise StableKernError(f"STABLEKERN_THREADS must be >= 1; got {workers}")
        return workers
    if flag is not None:
        return flag
    return os.cpu_count() or 1


def cmd_mc(args) -> int:
    estimators = ()
    if args.estimators:
        estimators = tuple(p for p in args.estimators.split(",") if p)
    config = ExperimentConfig(
        study=args.study,
        runs=args.runs,
        N=args.N,
        T=args.T,
        seed=args.seed,
        estimators=estimators,
        snr=args.snr,
        f_c=args.fc,
        sigma2_mode=args.sigma2_mode,
    )
    result = run_monte_carlo(config, workers=_resolve_threads(args.threads))
    if args.out is None:
        result.to_csv(sys.stdout, include_timing=args.timing)
    else:
        with open(args.out, "w") as fh:
            result.to_csv(fh, include_timing=args.timing)
    for name, med in result.median_airf().items():
        print(f"median airf {name} {_fmt(med)}")
    if all(r.error is not None for r in result.rows):
        print("error: all estimator fits failed", file=sys.stderr)
        return 1
    return 0


def cmd_psd(args) -> int:
    if args.sweep_delta:
        family, _ = parse_family(args.family, args.delta)
        if family in ("DI", "SS"):
            raise StableKernError(
                f"family {args.family!r} has no order sweep"
            )
        lines = []
        for d in range(1, args.sweep_delta + 1):
            spec = KernelSpec.from_name(family, beta=args.beta,
                                        alpha=args.alpha, delta=d)
            spectrum = psd(stationary_part(spec), M=args.grid,
                           normalize=args.normalize)
            low = low_frequency_mass(spectrum, math.pi / 4)
            high = 1.0 - low_frequency_mass(spectrum, 3 * math.pi / 4)
            lines.append(
                f"delta={d} low_mass={_fmt(low)} high_mass={_fmt(high)}"
            )
        _emit("\n".join(lines), args.out)
        return 0
    spec = _spec_from_args(args)
    spectrum = psd(stationary_part(spec), M=args.grid,
                   normalize=args.normalize)
    if args.out is None:
        spectrum.to_csv(sys.stdout)
    else:
        with open(args.out, "w") as fh:
            spectrum.to_csv(fh)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablekern",
        description="Kernel-based impulse response estimation toolbox",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("kernel", help="emit kernel matrices and factors")
    _spec_args(p)
    p.add_argument("--dim", type=_positive_int, required=True,
                   help="matrix dimension T")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--inverse", action="store_true",
                      help="emit the kernel inverse")
    mode.add_argument("--cholesky", action="store_true",
                      help="emit the lower Cholesky factor of the inverse")
    mode.add_argument("--logdet", action="store_true",
                      help="emit log det of the kernel")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("maxent-verify",
                       help="check a kernel against its max-entropy completion")
    _spec_args(p)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="tamper the outermost leading band entry by this amount")
    p.set_defaults(func=cmd_maxent_verify)

    p = sub.add_parser("fit", help="fit hyperparameters on a dataset")
    p.add_argument("--data", required=True, help="CSV file with t,u,y columns")
    _spec_args(p)
    p.add_argument("--T", type=_positive_int, default=50,
                   help="impulse response length")
    p.add_argument("--sigma2", type=_sigma2_arg, default="estimate",
                   help="noise variance, or 'estimate' (default)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mc", help="run a Monte Carlo study")
    p.add_argument("--study", type=int, choices=(1, 2), required=True)
    p.add_argument("--runs", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="",
                   help="comma-separated family names (default: study set)")
    p.add_argument("--N", type=_positive_int, default=500)
    p.add_argument("--T", type=_positive_int, default=50)
    p.add_argument("--snr", type=_positive_float, default=1.0)
    p.add_argument("--fc", type=_positive_float, default=0.2)
    p.add_argument("--sigma2-mode", choices=("true", "estimated"),
                   default="estimated", dest="sigma2_mode")
    p.add_argument("--timing", action="store_true",
                   help="include wall-time seconds in the CSV")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker processes (STABLEKERN_THREADS overrides)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("psd", help="emit power spectral density data")
    _spec_args(p)
    p.add_argument("--grid", type=_positive_int, default=512,
                   help="number of frequency grid points")
    p.add_argument("--normalize", action="store_true",
                   help="normalize the peak to one")
    p.add_argument("--sweep-delta", type=_positive_int, default=0,
                   dest="sweep_delta", metavar="MAX",
                   help="summarize band mass for orders 1..MAX")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_psd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StableKernError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
