"""One fresh process of the benchmark, started by run.py.

    worker.py setup
        Time the set-up every CLI invocation pays: import ziminwords.cli and
        fill the lazy caches through public calls.  Prints one JSON object.

    worker.py work WORKLOAD SEED SECONDS TRACE TRACE_PATH
        Set up, build the workload's inputs from SEED, then repeat its task
        list until SECONDS are used.  Each task is timed (wall and process
        CPU) and scaled to the reference host speed (hostspeed.py).  Answers
        are checked between tasks, outside the timed region.  With TRACE=1,
        untraced and traced repetitions alternate, the per-layer metrics are
        the medians over the traced ones, and the spans of the last traced
        one go to TRACE_PATH.  Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from hostspeed import REF_S, HostSpeed, reference_time


def set_up() -> dict:
    before = reference_time()[0]
    t0 = time.perf_counter()
    import ziminwords.cli  # noqa: F401
    from ziminwords.coding import language_dfas, parses
    from ziminwords.counters import counter

    t1 = time.perf_counter()
    language_dfas()
    t2 = time.perf_counter()
    parses("")  # also builds the reversed R automaton
    for i in range(16):
        counter(i, 3)
    t3 = time.perf_counter()
    scale = 2 * REF_S / (before + reference_time()[0])
    return {"setup_s": (t3 - t0) * scale, "setup_raw_s": t3 - t0, "dfa_build_ms": 1e3 * (t2 - t1) * scale}


def _repetition(workload, call, host: HostSpeed) -> tuple[list, int, int]:
    """Run the task list once: the (start, end, wall, cpu) of each task,
    with the host-speed samples taken during it left out, and the items
    attempted and failed."""
    spans = []
    attempted = failed = 0
    for task in workload.tasks:
        p0 = tuple(host.paused)
        w0, c0 = time.perf_counter(), time.process_time()
        output = task.run(call)
        w1, c1 = time.perf_counter(), time.process_time()
        spans.append((w0, w1, w1 - w0 - (host.paused[0] - p0[0]), c1 - c0 - (host.paused[1] - p0[1])))
        a, f = task.check(output)
        del output
        attempted += a
        failed += f
        if f:
            print(f"task {task.label}: {f} of {a} outputs differ from the pinned answers", file=sys.stderr)
    return spans, attempted, failed


def _scaled(spans: list, host: HostSpeed) -> list[tuple[float, float]]:
    """Each task's (wall, cpu) scaled to the reference speed."""
    out = []
    for w0, w1, wall, cpu in spans:
        f_wall, f_cpu = host.scale(w0, w1)
        out.append((wall * f_wall, cpu * f_cpu))
    return out


def work(name: str, seed: int, seconds: float, trace: bool, trace_path: str) -> dict:
    from tracing import Tracer, direct_call, layer_metrics, wrapped_methods
    from workloads import build

    set_up()
    workload = build(name, seed)
    began = time.perf_counter()
    reps = {False: [], True: []}  # task spans of each repetition, by traced
    layers = []
    attempted = failed = 0
    tracer = None
    traced = False
    with HostSpeed() as host:
        while True:
            if traced:
                tracer = Tracer()
                with wrapped_methods(tracer):
                    spans, a, f = _repetition(workload, tracer.call, host)
                scaled_wall = sum(w for w, _ in _scaled(spans, host))
                layers.append(layer_metrics(tracer, scaled_wall / sum(t[2] for t in spans)))
            else:
                spans, a, f = _repetition(workload, direct_call, host)
            reps[traced].append(spans)
            attempted += a
            failed += f
            if trace:
                traced = not traced
            elapsed = time.perf_counter() - began
            done = len(reps[False]) >= 1 and (not trace or len(reps[True]) >= 1)
            last = (reps[traced] or reps[False])[-1]
            if done and elapsed + last[-1][1] - last[0][0] > seconds:
                break
    tasks = {kind: [_scaled(r, host) for r in runs] for kind, runs in reps.items()}
    walls = {kind: [sum(w for w, _ in r) for r in runs] for kind, runs in tasks.items()}
    for label, check in workload.validity:
        attempted += 1
        if not check():
            failed += 1
            print(f"validity check failed: {label}", file=sys.stderr)
    result = {
        "tasks": tasks[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "walls": walls[False],
        "raw_walls": [sum(t[2] for t in r) for r in reps[False]],
        "ref_median_s": statistics.median(s[1] for s in host.samples),
    }
    if trace:
        untraced, traced_wall = statistics.median(walls[False]), statistics.median(walls[True])
        result["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        result["layers"]["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        result["traced_walls"] = walls[True]
        tracer.write(trace_path)
    return result


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"]:
        out = set_up()
    elif argv[:1] == ["work"] and len(argv) == 6:
        name, seed, seconds, trace, trace_path = argv[1:]
        out = work(name, int(seed), float(seconds), trace == "1", trace_path)
    else:
        sys.exit(f"usage: {__doc__}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
