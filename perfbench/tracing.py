"""Span recorder for traced runs: rebinds the names callers import.

install() replaces selected public functions, under the module attributes
their callers look them up by, with wrappers that record one span per call
(name, start, end, parent span, case id) plus a few counters measured at the
same boundary.  The program's own files are not touched.  Spans stay in
memory until flush(), which the runners call at the end of a pass (pool
workers: after each task), and summarize()
turns the written span files into per-layer metrics with self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

LAYERS = ("catalog", "qseries", "expr", "congruence", "polyring", "padic", "arith", "cli")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent span, case]
        self.stack = [-1]
        self.case = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, int] = defaultdict(int)
        self.last_sample: tuple[int, int | None] = (-1, None)  # (case, seed)
        self.seen_parse: set[str] = set()
        self.seen_gamma: set[tuple] = set()

    def wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            sid = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1], self.case]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def flush(self, path: Path):
        """Append buffered spans and counter deltas to path; clear buffers."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("#names\t" + json.dumps(self.names) + "\n")
            handle.writelines(
                f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\n" for s in self.spans
            )
            counters = {"counts": dict(self.counts), "maxes": dict(self.maxes)}
            handle.write("#counters\t" + json.dumps(counters) + "\n")
        self.spans.clear()
        self.counts.clear()
        self.maxes.clear()


# -- counters measured at the wrapped boundaries --------------------------------


def _on_prefixes(rec, spec, orders):
    orders = list(orders)
    if orders:
        rec.counts["qseries.truncated_sum_prefixes.terms"] += max(orders) + 1


def _on_parse(rec, text, *args, **kwargs):
    if text in rec.seen_parse:
        rec.counts["expr.parse_expr.repeats"] += 1
    else:
        rec.seen_parse.add(text)


def _after_congruent(rec, result):
    rec.counts["congruence.congruent.verified" if result.verified else "congruence.congruent.failed"] += 1


def _on_sample(stride):
    """A draw whose seed is the previous draw's in the same case plus the
    catalog's resample stride re-draws after an unlucky denominator."""

    def before(rec, *args, seed=0, **kwargs):
        case, last = rec.last_sample
        if case == rec.case and last is not None and seed == last + stride:
            rec.counts["catalog.resamples"] += 1
        rec.last_sample = (rec.case, seed)

    return before


def _after_sample(rec, sample):
    rec.counts["catalog.sample_params.draws"] += sample.rejection_count + 1


def _coeff_bits(f) -> int:
    nums = f._nums
    if not nums:
        return 0
    return max(abs(max(nums)), abs(min(nums))).bit_length()


def _on_gcd(rec, f, g):
    rec.counts["polyring.poly_gcd.in_degree_sum"] += max(f.degree, 0) + max(g.degree, 0)
    bits = max(_coeff_bits(f), _coeff_bits(g))
    if bits > rec.maxes["polyring.poly_gcd.max_coeff_bits"]:
        rec.maxes["polyring.poly_gcd.max_coeff_bits"] = bits


def _on_divrem(rec, f, g):
    if not (g._den == 1 and g._nums and g._nums[-1] == 1):
        rec.counts["polyring.poly_divrem.rational"] += 1


def _on_gamma(rec, x, p, precision, *args, **kwargs):
    x = Fraction(x)
    modulus = p**precision
    if x.denominator % p == 0:
        return
    r = x.numerator * pow(x.denominator, -1, modulus) % modulus
    key = (p, precision, r or modulus)
    if key in rec.seen_gamma:
        rec.counts["padic.gamma_p.repeats"] += 1
    else:
        rec.seen_gamma.add(key)


def install() -> Recorder:
    """Rebind the traced names; returns the recorder collecting their spans."""
    from qcongruence import arith, catalog, congruence, padic, polyring

    rec = Recorder()
    gcd = rec.wrap("polyring.poly_gcd", polyring.poly_gcd, before=_on_gcd)
    divrem = rec.wrap("polyring.poly_divrem", polyring.poly_divrem, before=_on_divrem)
    valuation = rec.wrap("arith.padic_valuation", arith.padic_valuation)
    bindings = [
        (catalog, "run_statement", rec.wrap("catalog.run_statement", catalog.run_statement)),
        (catalog, "instantiate", rec.wrap("catalog.instantiate", catalog.instantiate)),
        (catalog, "verify_instance", rec.wrap("catalog.verify_instance", catalog.verify_instance)),
        (
            catalog,
            "truncated_sum_prefixes",
            rec.wrap("qseries.truncated_sum_prefixes", catalog.truncated_sum_prefixes, before=_on_prefixes),
        ),
        (catalog, "eval_expr", rec.wrap("expr.eval_expr", catalog.eval_expr)),
        (catalog, "parse_expr", rec.wrap("expr.parse_expr", catalog.parse_expr, before=_on_parse)),
        (catalog, "congruent", rec.wrap("congruence.congruent", catalog.congruent, after=_after_congruent)),
        (
            catalog,
            "sample_params",
            rec.wrap(
                "catalog.sample_params",
                catalog.sample_params,
                before=_on_sample(catalog._RESAMPLE_STRIDE),
                after=_after_sample,
            ),
        ),
        (polyring, "poly_gcd", gcd),
        (congruence, "poly_gcd", gcd),
        (polyring, "poly_divrem", divrem),
        (congruence, "poly_divrem", divrem),
        (padic, "gamma_p", rec.wrap("padic.gamma_p", padic.gamma_p, before=_on_gamma)),
        (padic, "padic_valuation", valuation),
        (arith, "padic_valuation", valuation),
        (padic, "verify_classical", rec.wrap("padic.verify_classical", padic.verify_classical)),
    ]
    for module, attr, wrapper in bindings:
        setattr(module, attr, wrapper)
    return rec


# -- summary ------------------------------------------------------------------------


def _read_chunks(path: Path):
    names, spans = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#names\t"):
                names = json.loads(line.split("\t", 1)[1])
                spans = []
            elif line.startswith("#counters\t"):
                yield names, spans, json.loads(line.split("\t", 1)[1])
                spans = []
            else:
                nid, start, end, parent, _case = line.split("\t")
                spans.append((int(nid), float(start), float(end), int(parent)))


def summarize(span_files: list[Path]) -> dict:
    """Busy time, self time and counters per traced name and per layer."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    maxes: dict[str, int] = defaultdict(int)
    total_spans = 0
    for path in span_files:
        for names, spans, counters in _read_chunks(path):
            total_spans += len(spans)
            child = [0.0] * len(spans)
            for nid, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (nid, start, end, parent) in enumerate(spans):
                name = names[nid]
                duration = end - start
                calls[name] += 1
                busy[name] += duration
                self_time[name] += duration - child[i]
            for key, value in counters["counts"].items():
                counts[key] += value
            for key, value in counters["maxes"].items():
                maxes[key] = max(maxes[key], value)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value
    return {
        "busy": dict(busy),
        "calls": dict(calls),
        "self": dict(self_time),
        "layer_self": layer_self,
        "counts": dict(counts),
        "maxes": dict(maxes),
        "spans": total_spans,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by the names listed in BENCHMARK.json."""
    busy, calls, counts = summary["busy"], summary["calls"], summary["counts"]
    out = {
        "qseries.truncated_sum_prefixes.busy_s": (busy.get("qseries.truncated_sum_prefixes", 0.0), "s"),
        "qseries.truncated_sum_prefixes.calls": (calls.get("qseries.truncated_sum_prefixes", 0), "count"),
        "qseries.truncated_sum_prefixes.terms": (counts.get("qseries.truncated_sum_prefixes.terms", 0), "count"),
        "expr.eval_expr.busy_s": (busy.get("expr.eval_expr", 0.0), "s"),
        "expr.parse_expr.calls": (calls.get("expr.parse_expr", 0), "count"),
        "expr.parse_repeat_ratio": (
            _ratio(counts.get("expr.parse_expr.repeats", 0), calls.get("expr.parse_expr", 0)),
            "ratio",
        ),
        "congruence.congruent.busy_s": (busy.get("congruence.congruent", 0.0), "s"),
        "congruence.congruent.calls": (calls.get("congruence.congruent", 0), "count"),
        "congruence.congruent.verified": (counts.get("congruence.congruent.verified", 0), "count"),
        "congruence.congruent.failed": (counts.get("congruence.congruent.failed", 0), "count"),
        "polyring.poly_gcd.busy_s": (busy.get("polyring.poly_gcd", 0.0), "s"),
        "polyring.poly_gcd.calls": (calls.get("polyring.poly_gcd", 0), "count"),
        "polyring.poly_gcd.in_degree_sum": (counts.get("polyring.poly_gcd.in_degree_sum", 0), "count"),
        "polyring.poly_gcd.max_coeff_bits": (summary["maxes"].get("polyring.poly_gcd.max_coeff_bits", 0), "bits"),
        "polyring.poly_divrem.busy_s": (busy.get("polyring.poly_divrem", 0.0), "s"),
        "polyring.poly_divrem.calls": (calls.get("polyring.poly_divrem", 0), "count"),
        "polyring.poly_divrem.rational_share": (
            _ratio(counts.get("polyring.poly_divrem.rational", 0), calls.get("polyring.poly_divrem", 0)),
            "ratio",
        ),
        "catalog.sample_params.calls": (calls.get("catalog.sample_params", 0), "count"),
        "catalog.sample_accept_ratio": (
            _ratio(calls.get("catalog.sample_params", 0), counts.get("catalog.sample_params.draws", 0)),
            "ratio",
        ),
        "catalog.resamples": (counts.get("catalog.resamples", 0), "count"),
        "padic.gamma_p.busy_s": (busy.get("padic.gamma_p", 0.0), "s"),
        "padic.gamma_p.calls": (calls.get("padic.gamma_p", 0), "count"),
        "padic.gamma_p.repeat_ratio": (
            _ratio(counts.get("padic.gamma_p.repeats", 0), calls.get("padic.gamma_p", 0)),
            "ratio",
        ),
        "padic.exact_sum_s": (summary["self"].get("padic.verify_classical", 0.0), "s"),
        "arith.padic_valuation.calls": (calls.get("arith.padic_valuation", 0), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["layer_self"][layer], "s")
    out["trace.spans"] = (summary["spans"], "count")
    return out
