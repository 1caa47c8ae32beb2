"""In-memory span tracer that wraps jitterlab's public functions from outside.

Each target is found by its public name and every `jitterlab.*` module
attribute bound to that object is replaced by a wrapper, because
`from .x import f` gives each importing module its own binding.  A wrapper
records one span per call: name, start, end, parent span, a work count
(samples, iterations, columns, bytes or objective evaluations) and an
optional tag.  Spans stay in memory until `dump`.

The wrappers call the original functions with the original arguments (the
scalar solver gets a problem whose objective counts its calls and returns
the same values), so tracing does not change a computed number.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from time import perf_counter
from typing import Callable


def _arg(sig: inspect.Signature, args: tuple, kwargs: dict, name: str):
    return sig.bind_partial(*args, **kwargs).arguments[name]


def _columns(arg_name: str):
    def hook(rec, sig, args, kwargs):
        rec[4] = _arg(sig, args, kwargs, arg_name).shape[1]
        return args, kwargs
    return hook


def _int_arg(arg_name: str):
    def hook(rec, sig, args, kwargs):
        rec[4] = int(_arg(sig, args, kwargs, arg_name))
        return args, kwargs
    return hook


def _train(rec, sig, args, kwargs):
    config = _arg(sig, args, kwargs, "config")
    rec[4] = config.n_iterations
    rec[5] = config.objective
    return args, kwargs


def _text_bytes(rec, sig, args, kwargs):
    rec[4] = len(_arg(sig, args, kwargs, "text").encode("utf-8"))
    return args, kwargs


def _count_evals(rec, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    problem = bound.arguments["problem"]
    objective = problem.objective

    def counted(x):
        rec[4] += 1
        return objective(x)

    bound.arguments["problem"] = dataclasses.replace(problem, objective=counted)
    return bound.args, bound.kwargs


# (metric prefix, public name, module searched first, pre-call hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "main", "cli", None),
    ("model.draw_latents", "draw_latents", "model", _int_arg("count")),
    ("model.rng_stream", "rng_stream", "model", None),
    ("model.au_svd", "ForwardOperator.au_svd", "model", None),
    ("attack.pgd_perturb_batch", "pgd_perturb_batch", "attack", _columns("x")),
    ("training.train", "train", "training", _train),
    ("risk.residuals", "residuals", "risk", _int_arg("n_samples")),
    ("risk.dual_values_batch", "dual_values_batch", "risk", _columns("v")),
    ("risk.robust_risk_mode_form", "robust_risk_mode_form", "risk", None),
    ("scalar.minimize_convex", "minimize_convex", "scalar", _count_evals),
    ("estimators.conjectured_robust_estimator", "conjectured_robust_estimator", "estimators", None),
    ("estimators.optimal_jittering_estimator", "optimal_jittering_estimator", "estimators", None),
    ("experiments.best_jitter_level_analytic", "best_jitter_level_analytic", "experiments", None),
    ("experiments.write_atomic", "write_atomic", "experiments", _text_bytes),
)

# Span name of the experiment driver; the benchmark's child wraps it itself.
DRIVER = "experiments.driver"


def _jitterlab_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "jitterlab" or name.startswith("jitterlab."))
    ]


def _resolve(public: str, preferred: str):
    """(owner, attribute, object) for a public name, or None if it is gone."""
    owner_name, _, attr = public.rpartition(".")
    modules = _jitterlab_modules()
    modules.sort(key=lambda mod: mod.__name__ != f"jitterlab.{preferred}")
    for mod in modules:
        owner = getattr(mod, owner_name, None) if owner_name else mod
        obj = getattr(owner, attr, None) if owner is not None else None
        if callable(obj):
            return owner, attr, obj
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, work, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            if hook is not None:
                args, kwargs = hook(rec, sig, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every binding of every target inside the loaded jitterlab modules."""
        for metric, public, preferred, hook in TARGETS:
            found = _resolve(public, preferred)
            if found is None:
                self.missing.append(metric)
                continue
            owner, attr, obj = found
            traced = self.wrap(obj, metric, hook)
            if inspect.isclass(owner):
                setattr(owner, attr, traced)
                continue
            for mod in _jitterlab_modules():
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)
