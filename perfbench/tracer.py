"""Outside-in span tracer for relaysim.

A ``Tracer`` replaces public functions of the relaysim modules with timing
wrappers for the length of a ``with`` block, then puts the originals back.
Every module attribute bound to a wrapped function is rebound, so aliases
such as ``canonical_digest`` in ``chain``, ``crypto`` and ``protocol`` or the
names ``cli`` imports from ``chain`` are timed under the right layer, and
calls inside a module (``append_block`` -> ``block_digest``) go through the
wrapper because they look the name up in the module's globals.

Spans are kept in memory as ``(span_id, parent_id, name, start, end)``
tuples, with parent 0 for a span no traced span encloses; ``layer_metrics``
derives per-layer counts and self times from them afterwards.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict

# Span names are "<module>.<attribute path>" inside the relaysim package.
SPANS = (
    "serialize.digest",
    "chain.block_digest",
    "chain.append_block",
    "chain.validate_block",
    "chain.chain_to_jsonl",
    "chain.chain_from_jsonl",
    "chain.verify_chain_dump",
    "crypto.verify_submission",
    "crypto.fhe_eval",
    "crypto.fhe_encrypt",
    "crypto.evaluate",
    "crypto.performance_index",
    "crypto.model_digest",
    "crypto.ciphertext_digest",
    "protocol.run_round",
    "protocol.allocate_roles",
    "protocol.settle",
    "protocol.collect_verified",
    "protocol.rank_and_select",
    "auction.match_round",
    "auction.trainer_bid",
    "sim.simulate_run",
    "sim.Metrics.to_csv",
    "sim.summary_json",
    "economics.evaluate_conditions",
    "economics.minimal_rewards",
    "economics.minimal_miner_rewards",
    "economics.citation_reward_bounds",
    "economics.strategy_utility",
)

# Layers whose call count is reported beside their self time.
COUNTED = (
    "serialize.digest",
    "chain.block_digest",
    "crypto.verify_submission",
    "crypto.fhe_eval",
    "crypto.fhe_encrypt",
    "protocol.run_round",
    "auction.trainer_bid",
    "economics.evaluate_conditions",
    "economics.strategy_utility",
)


def _resolve(span: str):
    """(owner object, attribute name) that holds the function ``span`` names."""
    module_name, *path = span.split(".")
    owner = importlib.import_module(f"relaysim.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Time calls to the named relaysim functions while the block runs."""

    def __init__(self, spans=SPANS):
        self.names = tuple(spans)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        # Import every module that may hold an alias before scanning for them.
        importlib.import_module("relaysim.cli")
        ids = itertools.count(1)
        stack = [0]
        for name in self.names:
            owner, attr = _resolve(name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, ids, stack)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [
                    module for key, module in list(sys.modules.items())
                    if (key == "relaysim" or key.startswith("relaysim."))
                    and getattr(module, "__dict__", None) is not None
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, ids, stack):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced


def layer_metrics(spans, stats: dict[str, int]) -> dict[str, float]:
    """Per-layer counts, self seconds and ratios of one traced job.

    ``stats`` holds the job's simulated statistics; ``protocol.verified`` is
    the base of ``crypto.accept_ratio``.
    """
    child_s: dict[int, float] = defaultdict(float)
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    for span_id, parent, name, start, end in spans:
        child_s[parent] += (end - start)
        parent_of[span_id] = parent
        name_of[span_id] = name
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    digests_in_rounds = 0
    for span_id, parent, name, start, end in spans:
        calls[name] += 1
        total_s[name] += (end - start)
        self_s[name] += (end - start) - child_s[span_id]
        if name == "chain.block_digest":
            ancestor = parent
            while ancestor and name_of[ancestor] != "protocol.run_round":
                ancestor = parent_of[ancestor]
            digests_in_rounds += bool(ancestor)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {f"{name}.calls": float(calls[name]) for name in COUNTED}
    metrics.update({f"{name}.self_s": self_s[name] for name in SPANS})
    metrics["chain.digests_per_block"] = ratio(
        digests_in_rounds, calls["chain.append_block"])
    metrics["crypto.encrypts_per_submission"] = ratio(
        calls["crypto.fhe_encrypt"], calls["crypto.verify_submission"])
    metrics["crypto.us_per_case"] = 1e6 * ratio(
        total_s["crypto.verify_submission"], calls["crypto.fhe_eval"])
    metrics["crypto.accept_ratio"] = ratio(
        stats.get("protocol.verified", 0), calls["crypto.verify_submission"])
    return metrics


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over jobs."""
    return {key: statistics.median(job[key] for job in per_job) for key in per_job[0]}
