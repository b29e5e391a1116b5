"""Run one flowelm command in-process with every public function timed.

    python3 perfbench/tracer.py SPANS_OUT ARG...

wraps the public functions of the eight flowelm modules (and every name
another module imported from them), calls ``flowelm.cli.main(ARG...)`` and,
when it returns, writes the spans it kept in memory to SPANS_OUT as JSON.
A span is [name, start, end, parent, cpu_start, cpu_end, extra], times from
``time.perf_counter`` and ``time.thread_time``; parent is the index of the
enclosing span or -1; extra holds counts taken from the call's arguments and
result. Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "dataio", "preprocess", "rng", "elm", "linalg", "metrics", "model_select")
EPS = float(np.finfo(np.float64).eps)


def _counts(name, args, kwargs, result):
    """Per-call counts for the per-layer metrics; None when there are none."""
    if name == "dataio.load_csv":
        return {"rows": result.n_samples}
    if name == "preprocess.clean":
        return {"dropped": args[0].n_samples - result.n_samples}
    if name == "elm.init_random":
        return {"draws": int(result[0].size + result[1].size)}
    if name == "elm.hidden_layer":
        activation = args[3] if len(args) > 3 else kwargs["activation"]
        return {"activation": activation.value}
    if name == "elm.score":
        return {"rows": int(np.shape(args[1])[0])}
    if name == "linalg.lstsq":
        m, n = np.shape(args[0])
        return {"flops": m * n * n}
    if name == "linalg.svd":
        a = np.shape(args[0])
        sigma = result.singular_values
        rank = int((sigma > EPS * max(a) * sigma[0]).sum()) if sigma[0] > 0 else 0
        return {"rank_ratio": rank / a[1]}
    if name == "model_select.grid_search":
        p = float(np.mean(args[0].labels))
        all_attack_f1 = 2 * p / (1 + p)
        useful = sum(1 for e in result.entries if e.error is None and e.mean > all_attack_f1)
        return {"useful": useful, "configs": len(result.entries)}
    return None


def install(spans: list, csv_calls: list) -> dict:
    """Wrap the public functions; returns {qualified name: original}.

    csv_calls receives the (args, kwargs) of every load_csv call.
    """
    import flowelm

    modules = {layer: importlib.import_module(f"flowelm.{layer}") for layer in LAYERS}
    stack: list[int] = []
    originals, wrappers = {}, {}

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1,
                          time.thread_time(), None, None])
            stack.append(index)
            if name == "dataio.load_csv":
                csv_calls.append((args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[index]
                span[2] = time.perf_counter()
                span[5] = time.thread_time()
            span[6] = _counts(name, args, kwargs, result)
            return result

        return traced

    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == module.__name__:
                originals[f"{layer}.{attr}"] = value
                wrappers[id(value)] = wrap(f"{layer}.{attr}", value)
    # Rebind every module-level name bound to an original, including names
    # that one module imported from another (model_select.fit_scaler, ...).
    for module in list(modules.values()) + [flowelm]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    return originals


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    spans: list = []
    csv_calls: list = []
    originals = install(spans, csv_calls)
    from flowelm import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    probe = {}
    if csv_calls:
        # Peak Python allocation of one load_csv call, measured after the
        # command so that tracemalloc's own cost stays out of every span.
        args, kwargs = csv_calls[0]
        started = time.perf_counter()
        tracemalloc.start()
        originals["dataio.load_csv"](*args, **kwargs)
        probe["load_csv_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        probe["probe_seconds"] = time.perf_counter() - started
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "probe": probe, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
