"""Spans around the calls one stablekern layer makes into the next.

The program is not modified: :class:`Tracer` replaces module attributes of
``stablekern`` with thin wrappers and puts the originals back afterwards.
Each wrapper appends one span (name, start, end, parent, exception, tag) to
an in-memory list; nothing is written until the run ends.  A wrapped name
that the program no longer has is reported as absent and skipped.

Only in-process calls are seen.  Fits that run inside worker processes of
``run_monte_carlo`` (the pool phase of ``mc-serial``) record their spans in
the worker and are lost; the pool's per-layer numbers come from the
``MCRow`` timings instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


def _kernel_tag(args, kwargs, out):
    spec = args[0] if args else kwargs.get("spec")
    dim = args[1] if len(args) > 1 else kwargs.get("dim")
    return (kernel_class(spec), dim)


def _minimize_tag(args, kwargs, out):
    x0 = args[1] if len(args) > 1 else kwargs.get("x0")
    if out is None:
        return None
    return (list(map(float, x0)), list(map(float, out.x)), int(out.nfev))


def _fit_tag(args, kwargs, out):
    return str(args[1] if len(args) > 1 else kwargs.get("template"))


#: (module, attribute, span name, tag function).  The estimator and spectral
#: modules import kernel functions by name, so their own bindings are the
#: ones the layer above actually calls.
WRAPPED = (
    ("simulation", "fit_hyperparameters", "estimator.fit", _fit_tag),
    ("simulation", "sample_impulse_response", "simulation.datagen.system", None),
    ("simulation", "generate_input", "simulation.datagen.input", None),
    ("simulation", "simulate_output", "simulation.datagen.output", None),
    ("estimator", "_cached_factor", "estimator.factor", None),
    ("estimator", "leading_variance", "kernels.leading_variance", None),
    ("estimator", "_nll_from_stack", "estimator.qr_nll", None),
    ("estimator", "minimize", "estimator.minimize", _minimize_tag),
    ("kernels", "inverse_cholesky", "kernels.factor", _kernel_tag),
    ("kernels", "build_kernel", "kernels.build", _kernel_tag),
    ("kernels", "build_inverse", "kernels.inverse", _kernel_tag),
    ("kernels", "leading_variance", "kernels.leading_variance", None),
    ("maxent", "maxent_completion", "maxent.completion", None),
    ("maxent", "check_feasibility", "maxent.feasibility", None),
    ("maxent", "one_step_extension", "maxent.one_step", None),
    ("spectral", "stationary_part", "spectral.stationary", None),
    ("spectral", "psd", "spectral.psd", None),
    ("spectral", "build_kernel", "kernels.build", _kernel_tag),
)


def kernel_class(spec) -> str:
    """``closed`` (inverse bandwidth <= 2), ``series`` (orders >= 3) or
    ``dense`` (no banded inverse, i.e. SS)."""
    bw = getattr(spec, "bandwidth", None)
    if bw is None:
        return "dense"
    return "closed" if bw <= 2 else "series"


@dataclass(frozen=True)
class Span:
    name: str
    t0: float
    t1: float
    parent: int
    error: type | None
    tag: object

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs the wrappers of :data:`WRAPPED` for the length of a phase."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, span_name, tagger in WRAPPED:
            try:
                module = importlib.import_module(f"stablekern.{mod_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, tagger))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, tagger):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out, error = None, None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                tag = tagger(args, kwargs, out) if tagger is not None else None
                spans[idx] = Span(name, t0, t1, parent, error, tag)

        return wrapper

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, exception, tag."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                err = s.error.__name__ if s.error is not None else None
                tag = s.tag if isinstance(s.tag, (str, tuple, list)) else None
                fh.write(json.dumps([i, s.name, s.t0, s.t1, s.parent, err, tag]) + "\n")
