"""Run one cosegal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cosegalify_chq --seed 1 \
        --seconds 30 --trace 0

The run repeats *passes* until `--seconds` have gone by (and at least
MIN_PASSES passes ran). A pass generates a fresh set of inputs from the
seed and the pass number (set-up, with every input validated; an
untraced pass sets up SETUP_REPEATS times, with other coordinates each
time, and keeps the median), runs the algorithm on each (compute) and
checks every output with the package's oracles (verify). Each instance
starts from a collected heap, and no result outlives its instance, so
one instance's garbage does not slow the next.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: medians over passes of the per-pass set-up,
compute, verify and run (compute plus verify) times in nominal seconds
(see `reference_loop`), and the peak resident memory of the process.
With `--trace 1` the passes alternate between untraced and traced, and
the metrics are the per-layer wall self times and work counters,
averaged over the traced passes, plus the tracing overhead. The line
before the result holds a digest of the problem sizes of the first pass
and the median wall times. The exit code is 1 when any instance failed
its oracles and 2 when the cosegal sources are not found.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
SETUP_REPEATS = 5
# the nominal duration of reference_loop(), which sets the clock of the
# end-to-end times (see reference_loop), and its fixed sparse matrix
REFERENCE_S = 0.06
REFERENCE_MATRIX = tuple(
    tuple(Fraction((i - j) % 5 - 2, 1 + i * j % 3) if (i + 3 * j) % 7 == 0
          else Fraction(0) for j in range(10)) for i in range(10))
# every time is in nominal seconds (see reference_loop); setup_s keeps the
# unit "s", which the benchmark format requires of it
END_TO_END = (("run_s", "nominal_s"), ("compute_s", "nominal_s"),
              ("verify_s", "nominal_s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
ROOTS = ("bench.setup", "bench.compute", "bench.verify")

# per-layer metrics read off the spans: (span name, fields)
SPAN_METRICS = (
    ("ratmat.kron", ("calls", "self_s")),
    ("ratmat.madd", ("calls", "self_s")),
    ("ratmat.matmul", ("calls", "self_s")),
    ("ratmat.rref", ("calls", "self_s")),
    ("ratmat.cokernel", ("self_s",)),
    ("ratmat.solve_matrix", ("self_s",)),
    ("base.tensor", ("calls", "self_s")),
    ("base.tensor_mor", ("calls", "self_s")),
    ("base.then", ("calls", "self_s")),
    ("base.eq", ("calls", "self_s")),
    ("base.chq_obj", ("self_s",)),
    ("base.chq_map", ("self_s",)),
    ("base.factorize", ("self_s",)),
    ("colim.coproduct", ("self_s",)),
    ("colim.copair", ("self_s",)),
    ("colim.coequalizer", ("calls", "self_s")),
    ("precat.validate", ("calls", "self_s")),
    ("precat.check_unital", ("self_s",)),
    ("precat.validate_morphism", ("self_s",)),
    ("adjoints.unitalize", ("self_s",)),
    ("adjoints.precat_colimit", ("self_s",)),
    ("adjoints.point", ("self_s",)),
    ("adjoints.gamma", ("self_s",)),
    ("adjoints.upsilon", ("self_s",)),
    ("adjoints.realize", ("self_s",)),
    ("adjoints.psi", ("self_s",)),
    ("homotopy.cosegalify_two_constant", ("self_s",)),
    ("homotopy.k_injectivity_report", ("self_s",)),
    ("homotopy.is_cosegal", ("self_s",)),
    ("homotopy.two_constant_transfer", ("self_s",)),
)
# per-layer metrics computed from the work counters: name -> unit
COUNTER_METRICS = (
    ("ratmat.kron.entries", "count"), ("ratmat.kron.nnz_frac", "ratio"),
    ("ratmat.matmul.madds", "count"), ("ratmat.matmul.nnz_frac", "ratio"),
    ("ratmat.rref.entries", "count"), ("base.tensor.repeat_frac", "ratio"),
)
TRACE_METRICS = (
    ("shapes.calls", "count"),
    ("bench.self_s", "s"), ("trace.counters.self_s", "s"),
    ("trace.run_s", "s"), ("trace.setup_s", "s"),
    ("trace.accounted_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in report order."""
    out = [("%s.%s" % (span, f), "count" if f == "calls" else "s")
           for span, fields in SPAN_METRICS for f in fields]
    out += list(COUNTER_METRICS)
    out += [("%s.self_s" % layer, "s") for layer in tracing.LAYERS]
    out += [("%s.run_frac" % layer, "ratio") for layer in tracing.LAYERS]
    out += list(TRACE_METRICS)
    return out


def load_package():
    """Import cosegal from the sources next to the benchmark, never from
    anywhere else on the path."""
    if not (SRC / "cosegal" / "base.py").is_file():
        print("cosegal sources not found under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cosegal.base
    if Path(cosegal.base.__file__).resolve().parent != SRC / "cosegal":
        print("imported cosegal from %s, not from %s"
              % (cosegal.base.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def reference_loop():
    """Time fixed pure-Python work that uses nothing of the package.

    The host this benchmark was defined on runs the same code up to twice
    as slowly from one minute to the next. Each pass times this work next
    to every set-up and every instance, and the end-to-end times are
    reported at nominal speed: wall seconds times REFERENCE_S over the
    pass's mean reference time. A change to the package moves them as it
    moves wall time; a slower host slows the reference as well and
    cancels out. The work is an integer loop, which follows the speed of
    the processor, and a dense Kronecker product of Fractions built from
    tuples, which also follows the memory system, like the package's own
    exact arithmetic.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    m = REFERENCE_MATRIX
    n = len(m)
    kron = tuple(tuple(m[i // n][j // n] * m[i % n][j % n]
                       for j in range(n * n)) for i in range(n * n))
    doubled = tuple(tuple(x + y for x, y in zip(row, row)) for row in kron)
    if doubled == kron:
        raise AssertionError("reference product is zero")
    return time.perf_counter() - t0


@dataclass
class Pass:
    """Wall times of one pass, and the reference loop times taken in it."""

    setup_s: float = 0.0
    compute_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)

    @property
    def run_s(self):
        return self.compute_s + self.verify_s

    @property
    def speed(self):
        """Nominal seconds per wall second in this pass."""
        return REFERENCE_S / statistics.fmean(self.reference_s)


def run_pass(build, seed, index, tracer=None):
    """Set up, compute and verify one pass of instances."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = time.perf_counter
    out = Pass()
    # set-up is short, so an untraced pass repeats it and keeps the median;
    # each repetition draws other coordinates, so that no cache in the
    # package can serve a repetition from the one before it
    times = []
    for rep in range(1 if tracer else SETUP_REPEATS):
        rng = random.Random("%d:%d:%d" % (seed, index, rep))
        out.reference_s.append(reference_loop())
        t0 = clock()
        try:
            with span("bench.setup"):
                instances = build(rng)
        except Exception:
            traceback.print_exc()
            out.attempted = out.failed = 1
            return out
        times.append(clock() - t0)
    out.setup_s = statistics.median(times)
    for inst in instances:
        out.attempted += 1
        result = None
        gc.collect()
        out.reference_s.append(reference_loop())
        try:
            t0 = clock()
            with span("bench.compute"):
                result = inst.compute()
            t1 = clock()
            with span("bench.verify"):
                problems = inst.verify(result)
            t2 = clock()
            out.digests.append([inst.name, inst.digest(result)])
        except Exception:
            problems = [traceback.format_exc()]
        del result
        if problems:
            out.failed += 1
            print("FAILED %s (seed %d, pass %d): %s"
                  % (inst.name, seed, index, problems[:5]), file=sys.stderr)
            continue
        out.compute_s += t1 - t0
        out.verify_s += t2 - t1
    return out


def digest_line(p):
    text = json.dumps(p.digests, sort_keys=True)
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "instances": len(p.digests), "sizes": p.digests}


def wall_times(passes):
    """Median wall seconds per pass, unscaled, for the record."""
    return {name: statistics.median([getattr(p, name) for p in passes])
            for name in ("run_s", "compute_s", "verify_s", "setup_s")}


def end_to_end(passes):
    """Median nominal seconds per pass, and the peak memory."""
    values = {name: statistics.median([getattr(p, name) * p.speed
                                       for p in passes])
              for name in ("run_s", "compute_s", "verify_s", "setup_s")}
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def layer_values(tracer, traced):
    """Per-layer values of one traced pass."""
    by_name, by_root = tracer.self_times()
    counts = tracer.counts
    v = {}
    for span, fields in SPAN_METRICS:
        calls, self_s = by_name.get(span, (0, 0.0))
        for f in fields:
            v["%s.%s" % (span, f)] = calls if f == "calls" else self_s

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    v["ratmat.kron.entries"] = counts["ratmat.kron.entries"]
    v["ratmat.kron.nnz_frac"] = ratio("ratmat.kron.nnz",
                                      "ratmat.kron.entries")
    v["ratmat.matmul.madds"] = counts["ratmat.matmul.madds"]
    v["ratmat.matmul.nnz_frac"] = ratio("ratmat.matmul.operand_nnz",
                                        "ratmat.matmul.operand_entries")
    v["ratmat.rref.entries"] = counts["ratmat.rref.entries"]
    tensor_calls = by_name.get("base.tensor", (0, 0.0))[0]
    v["base.tensor.repeat_frac"] = (counts["base.tensor.repeats"]
                                    / tensor_calls if tensor_calls else 0.0)
    run_s = traced.run_s
    for layer in tracing.LAYERS + ("bench", "trace.counters"):
        total = sum(by_root[r].get(layer, 0.0) for r in ROOTS)
        v["%s.self_s" % layer] = total
        in_run = sum(by_root[r].get(layer, 0.0) for r in ROOTS[1:])
        v["%s.run_frac" % layer] = in_run / run_s if run_s else 0.0
    v["shapes.calls"] = sum(c for name, (c, _) in by_name.items()
                            if name.startswith("shapes."))
    v["trace.run_s"] = run_s
    v["trace.setup_s"] = traced.setup_s
    v["trace.accounted_frac"] = sum(
        v["%s.run_frac" % layer] for layer in tracing.LAYERS)
    return v


def per_layer(traced_values, untraced, traced):
    names = per_layer_metrics()
    out = {}
    for name, unit in names:
        if name == "trace.overhead_frac":
            # each traced pass against the untraced pass just before it
            ratios = [t.run_s * t.speed / (u.run_s * u.speed)
                      for u, t in zip(untraced, traced) if u.run_s]
            value = statistics.median(ratios) - 1.0 if ratios else 0.0
        else:
            value = statistics.fmean(v[name] for v in traced_values)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    import workloads
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    deadline = time.perf_counter() + args.seconds
    untraced, traced, traced_values = [], [], []
    index = 0
    while True:
        if args.trace and index % 2:
            t = tracing.Tracer()
            with t:
                p = run_pass(build, args.seed, index, tracer=t)
            traced.append(p)
            traced_values.append(layer_values(t, p))
        else:
            untraced.append(run_pass(build, args.seed, index))
        index += 1
        if args.trace:
            enough = min(len(untraced), len(traced)) >= 2
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() >= deadline:
            break
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps(dict(digest_line(passes[0]),
                          wall_s=wall_times(untraced)), sort_keys=True))
    metrics = (per_layer(traced_values, untraced, traced) if args.trace
               else end_to_end(untraced))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
