"""In-memory span tracer around the public functions of kronchaos.

A traced function is replaced by a wrapper in every loaded kronchaos module
that binds it, so names bound by ``from .montecarlo import ...`` in suites,
bounds and cli are traced as well as the defining module.  Each call records
one span (name, start, end, parent) and its work counts; spans stay in memory
and every original attribute is restored when the tracer is closed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


CountFn = Callable[["Tracer", Span, inspect.BoundArguments, object], None]


class Tracer:
    """Records nested spans and work counts of one process; single threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name: str, count: CountFn | None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, self.spans[idx], bound, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Patch each (owner, attribute, span name, counter) target.

        A module-level function is patched in every loaded kronchaos module
        that holds the same object; a method is patched on its class.
        """
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            if inspect.isclass(owner):
                holders = [owner]
            else:
                holders = [m for key, m in list(sys.modules.items())
                           if (key == "kronchaos" or key.startswith("kronchaos."))
                           and getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """The (holder, attribute, original) triples currently patched."""
        return list(self._patches)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return dict(out)


# ---------------------------------------------------------------------------
# kronchaos targets and their work counts


def _count_lp(tr, span, a, result):
    tr.counts["montecarlo.estimate_lp.calls"] += 1
    gathers = a.arguments["resamples"] * a.arguments["batch"].count
    tr.counts["montecarlo.estimate_lp.gathers"] += gathers


def _count_sampler(tr, span, a, result):
    tr.counts["montecarlo.sampler.calls"] += 1
    sampler = a.arguments["self"]
    tr.counts["montecarlo.sampler.uniforms"] += a.arguments["count"] * sampler.stride_blocks * 4


def _count_kron(tr, span, a, result):
    mats = a.arguments["factor_mats"]
    width, flops = mats[0].shape[1], 0
    for m in mats[1:]:
        width *= m.shape[1]
        flops += mats[0].shape[0] * width
    tr.counts["montecarlo.statistic.flops_computed"] += flops


def _count_chaos(tr, span, a, result):
    S, N = result.shape[0], np.shape(a.arguments["A"])[1]
    tr.counts["montecarlo.statistic.flops_computed"] += 2 * S * N * N + 2 * S * N


def _count_norm(tr, span, a, result):
    S, (M, N) = result.shape[0], np.shape(a.arguments["A"])
    tr.counts["montecarlo.statistic.flops_computed"] += 2 * S * M * N + 2 * S * M


def _count_semi(tr, span, a, result):
    # one multiply-add per entry of the pair-tied array per sample
    mats, I = a.arguments["factor_mats"], set(a.arguments["I"])
    entries = 1
    for l, m in enumerate(mats, start=1):
        entries *= m.shape[1] if l in I else m.shape[1] ** 2
    tr.counts["montecarlo.statistic.flops_computed"] += 2 * mats[0].shape[0] * entries


def _count_tensor_norm(tr, span, a, result):
    tr.counts["norms.tensor_norm.calls"] += 1
    if result.method == "als":
        span.name = "norms.tensor_norm.als"
        tr.counts["norms.tensor_norm.als.calls"] += 1
        tr.counts["norms.als.restarts"] += result.restarts_used
        tr.counts["norms.als.iterations"] += result.iterations
        tr.counts["norms.als.unconverged"] += int(not result.converged)
    elif result.method.endswith("-exact"):
        span.name = "norms.tensor_norm.exact"


def _count_table(tr, span, a, result):
    # gram_norm_table builds its table with main_norm_table: that call is the Gram table's
    if span.parent >= 0 and tr.spans[span.parent].name == "bounds.gram_norm_table":
        span.name = "bounds.gram_norm_table"
        return
    tr.counts["bounds.main_norm_table.rows"] += len(result)


def _count_write(tr, span, a, result):
    slot, _ = result
    tr.counts["cli.write_report.bytes"] += sum(p.stat().st_size for p in Path(slot).iterdir())


def kronchaos_targets() -> list:
    """Every traced kronchaos function: (owner, attribute, span name, counter)."""
    from kronchaos import bounds, cli, montecarlo, norms, suites

    report_level = [(suites, name, "suites", None) for name in (
        "verify_decoupling", "verify_gaussian_decoupling", "verify_main_lower",
        "verify_ax_tail", "verify_hanson_wright")]
    return report_level + [
        (bounds, "compute_bound_report", "suites", None),
        (montecarlo, "estimate_lp", "montecarlo.estimate_lp", _count_lp),
        (montecarlo.FactorSampler, "batch", "montecarlo.sampler", _count_sampler),
        (montecarlo, "kronecker_batch", "montecarlo.kronecker_batch", _count_kron),
        (montecarlo, "chaos_batch", "montecarlo.chaos_batch", _count_chaos),
        (montecarlo, "norm_batch", "montecarlo.norm_batch", _count_norm),
        (montecarlo, "semi_decoupled_batch", "montecarlo.semi_decoupled_batch", _count_semi),
        (montecarlo, "estimate_tail", "montecarlo.estimate_tail", None),
        (norms, "tensor_norm", "norms.tensor_norm.other", _count_tensor_norm),
        (bounds, "main_norm_table", "bounds.main_norm_table", _count_table),
        (bounds, "gram_norm_table", "bounds.gram_norm_table", None),
        (bounds, "build_reduced_array", "bounds.build_reduced_array", None),
        (bounds, "symmetrize", "bounds.symmetrize", None),
        (bounds, "mp_main", "bounds.mp", None),
        (bounds, "mp_norm", "bounds.mp", None),
        (bounds, "tail_bound_ax", "bounds.tail_bound_ax", None),
        (cli, "write_report", "cli.write_report", _count_write),
    ]
