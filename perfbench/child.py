"""Run one `memassoc` CLI command in this fresh interpreter and report on it.

Usage: python child.py SRC_DIR TRACE CLI_ARG...

SRC_DIR is the checkout's `src` directory, TRACE is 0 or 1.  The last line
of standard output is one JSON object:

  imported_at  time.monotonic() right after `memassoc.cli` was imported
               (the parent subtracts its own clock reading taken before it
               started this process, giving the set-up time);
  exit         the CLI's return code;
  run_s        wall time of `console_main`, after import;
  rss_kb       this process's peak resident set size;
  spans        with TRACE 1: [name, start_s, end_s, parent_index, work]
               for every call into a wrapped layer function.

With TRACE 1 the module attributes through which the CLI reaches each layer
are replaced by wrappers that record a span per call.  `device.step` is not
wrapped: it runs 10^5 to 10^6 times per command, so a per-call wrapper would
distort it.  Device work is counted from the arguments and results of the
spans that integrate (chain, objective replay, grid pulse, label pulse).
"""

import time
import sys

sys.path.insert(0, sys.argv[1])
import memassoc.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, module, attr, name, work=None):
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if work is not None:
                record[4] = work(args, result)
            return result

        setattr(module, attr, wrapper)


def _chain_work(args, trace):
    return {"rows": len(trace.t), "stage_steps": len(trace.t) * len(trace.stages)}


def _trace_bytes(args, result):
    return {"bytes": Path(args[1]).stat().st_size}


def _replay_work(args, result):
    return {"steps": len(args[1]) - 1}


def _pulse_work(args, result):
    array, cfg = args[0], args[3]
    pulses = int(round(cfg.pulse_dt / cfg.dt))
    return {"grid_steps": pulses, "cell_steps": pulses * array.w.size}


def _label_work(args, result):
    cfg = args[2]
    return {"label_steps": int(round(cfg.label_pulse_s / cfg.dt))}


def _fit_work(args, result):
    return {"iterations": result.iterations}


def install(tracer):
    import memassoc.fit
    import memassoc.vision

    for attr in ("cmd_fit", "cmd_pavlov", "cmd_vision"):
        tracer.wrap(cli, attr, "cli.cmd")
    tracer.wrap(cli, "load_config", "cli.parse")
    for attr in ("build_device", "build_chain", "build_fit_config",
                 "build_train_config", "build_infer_config"):
        tracer.wrap(cli, attr, "cli.build")
    tracer.wrap(cli, "run_chain", "circuit.run_chain", _chain_work)
    tracer.wrap(cli, "metrics", "circuit.metrics")
    tracer.wrap(cli, "write_sim_trace_csv", "circuit.write_trace", _trace_bytes)
    tracer.wrap(cli, "read_trace_csv", "fit.read_trace")
    tracer.wrap(cli, "fit", "fit.fit", _fit_work)
    tracer.wrap(memassoc.fit, "simulate_current", "fit.simulate", _replay_work)
    tracer.wrap(memassoc.fit, "central_difference_gradient", "fit.gradient")
    tracer.wrap(memassoc.fit, "rmse", "fit.rmse")
    tracer.wrap(cli, "load_image", "vision.load")
    tracer.wrap(cli, "train_many", "vision.train")
    tracer.wrap(memassoc.vision, "train_pair", "vision.train_pair", _pulse_work)
    tracer.wrap(cli, "classify", "vision.classify", _label_work)
    tracer.wrap(cli, "write_state_csv", "vision.write_state")


def main():
    tracer = Tracer()
    if sys.argv[2] == "1":
        install(tracer)
    start = time.perf_counter()
    code = cli.console_main(sys.argv[3:])
    run_s = time.perf_counter() - start
    print(json.dumps({
        "imported_at": IMPORTED_AT,
        "exit": code,
        "run_s": run_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }))


if __name__ == "__main__":
    main()
