"""Per-layer tracing from outside the program.

The traced run wraps the public functions at each layer boundary of the
imputation pipeline and the serving parent, times every call, and keeps
the counts the per-layer metrics are ratios of. Nothing under ``src/`` is
changed: the wrappers are installed on the classes (or on one pool
instance) for the duration of a ``with tracer.installed(...)`` block and
removed afterwards.

Self time: each wrapper charges its whole interval, including the time
its own bookkeeping hook takes, to the enclosing wrapped call. A layer's
self time is therefore its total time minus the wrapped calls made inside
it, and the hooks' cost lands in no layer's self time.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.constraints import SpatialConstraints
from repro.core.detokenization import Detokenizer
from repro.core.imputation import BeamSearchImputer, SegmentImputer
from repro.core.kamel import Kamel
from repro.core.partitioning import ModelRepository
from repro.core.tokenization import Tokenizer
from repro.mlm.counting import CountingMaskedLM

# Layer name -> (owner class, attribute). These are the public entry points
# of each pipeline layer on the imputation path.
PIPELINE_LAYERS: dict[str, tuple[type, str]] = {
    "kamel": (Kamel, "impute"),
    "partitioning": (ModelRepository, "retrieve"),
    "tokenization": (Tokenizer, "token_for_point"),
    "imputation": (SegmentImputer, "impute_segment"),
    "mlm": (CountingMaskedLM, "predict_masked"),
    "constraints": (SpatialConstraints, "filter"),
    "detokenization": (Detokenizer, "detokenize_interior"),
}


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def per_call_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


@dataclass
class _Search:
    """The segment search currently running (one ``impute_segment``)."""

    width: int
    sequences: set = field(default_factory=set)


class LayerTracer:
    """Times wrapped calls and keeps the counts behind the layer ratios."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list[float]] = []
        self.candidates_in = 0
        self.candidates_out = 0
        self.queries: set = set()
        self.model_calls = 0
        self.expansions = 0
        self.unique_expansions = 0
        self.lookup_misses = 0
        self._searches: list[_Search] = []

    def stat(self, layer: str) -> LayerStat:
        return self.stats.setdefault(layer, LayerStat())

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        unwind: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``. ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` keep counts; ``unwind()`` runs
        instead of ``after`` when ``fn`` raises."""
        stat = self.stat(layer)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if unwind is not None:
                    unwind()
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.calls += 1
                stat.total_s += t1 - t0
                stat.child_s += frame[0]
                if stack:
                    stack[-1][0] += t1 - start
            if after is not None:
                after(args, kwargs, out)
                if stack:
                    stack[-1][0] += clock() - t1
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks that keep the layer counts ------------------------------------

    def _segment_begins(self, args, kwargs) -> None:
        imputer = args[0]
        width = imputer.config.beam_size if isinstance(imputer, BeamSearchImputer) else 1
        self._searches.append(_Search(width))

    def _segment_ends(self, args, kwargs, result) -> None:
        search = self._searches.pop()
        self.unique_expansions += len(search.sequences)
        self.model_calls += result.model_calls

    def _segment_unwinds(self) -> None:
        # A search that raised (deadline, open circuit) has no result; its
        # expansions still count as attempted work.
        search = self._searches.pop()
        self.unique_expansions += len(search.sequences)

    def _filtered(self, args, kwargs, out) -> None:
        _, candidates, _, segment, insert_pos = args
        self.candidates_in += len(candidates)
        self.candidates_out += len(out)
        if not self._searches:
            return
        search = self._searches[-1]
        head = tuple(segment[: insert_pos + 1])
        tail = tuple(segment[insert_pos + 1 :])
        for token, _ in out[: search.width]:
            search.sequences.add(head + (token,) + tail)
            self.expansions += 1

    def _predicted(self, args, kwargs, out) -> None:
        model, tokens, position = args[0], args[1], args[2]
        top_k = args[3] if len(args) > 3 else kwargs.get("top_k", 10)
        self.queries.add((id(model), tuple(tokens), position, top_k))

    def _looked_up(self, args, kwargs, out) -> None:
        if out is None:
            self.lookup_misses += 1

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, pool=None) -> Iterator["LayerTracer"]:
        """Wrap the pipeline layers (and, given a pool, its parent-side
        routing and submit); restore the originals on exit."""
        hooks = {
            "imputation": (self._segment_begins, self._segment_ends, self._segment_unwinds),
            "constraints": (None, self._filtered, None),
            "mlm": (None, self._predicted, None),
            "partitioning": (None, self._looked_up, None),
        }
        patched: list[tuple[object, str, object]] = []
        try:
            for layer, (owner, attr) in PIPELINE_LAYERS.items():
                original = owner.__dict__[attr]
                before, after, unwind = hooks.get(layer, (None, None, None))
                setattr(owner, attr, self.wrap(layer, original, before, after, unwind))
                patched.append((owner, attr, original))
            if pool is not None:
                strategy = pool.strategy
                strategy.shard_for = self.wrap("serve.route", strategy.shard_for)
                patched.append((strategy, "shard_for", None))
                pool.submit = self.wrap("serve.submit", pool.submit)
                patched.append((pool, "submit", None))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- the per-layer metrics ---------------------------------------------------

    def pipeline_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the imputation pipeline (see README.md)."""
        filt = self.stat("constraints")
        predict = self.stat("mlm")
        segment = self.stat("imputation")
        tokenize = self.stat("tokenization")
        detok = self.stat("detokenization")
        impute = self.stat("kamel")
        lookup = self.stat("partitioning")
        segments = segment.calls
        return {
            "constraints.filter_calls": float(filt.calls),
            "constraints.filter_us": filt.per_call_us(),
            "constraints.accept_ratio": _ratio(self.candidates_out, self.candidates_in),
            "mlm.predict_calls": float(predict.calls),
            "mlm.predict_us": predict.per_call_us(),
            "mlm.distinct_query_ratio": _ratio(len(self.queries), predict.calls),
            "imputation.segments": float(segments),
            "imputation.calls_per_segment": _ratio(self.model_calls, segments),
            "imputation.beam_self_ms_per_segment": _ratio(segment.self_s * 1e3, segments),
            "imputation.unique_expansion_ratio": _ratio(
                self.unique_expansions, self.expansions
            ),
            "tokenization.calls": float(tokenize.calls),
            "tokenization.us_per_call": tokenize.per_call_us(),
            "detokenization.calls": float(detok.calls),
            "detokenization.us_per_call": detok.per_call_us(),
            "kamel.impute_self_ms": _ratio(impute.self_s * 1e3, impute.calls),
            "partitioning.lookup_calls": float(lookup.calls),
            "partitioning.lookup_us": lookup.per_call_us(),
            "partitioning.lookup_miss_ratio": _ratio(self.lookup_misses, lookup.calls),
        }

    def serve_metrics(self) -> dict[str, float]:
        """Parent-side routing and submit cost per request."""
        return {
            "serve.route_us": self.stat("serve.route").per_call_us(),
            "serve.submit_us": self.stat("serve.submit").per_call_us(),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
