"""Re-pin golden.json: output hashes and work counts at the default seed.

    python3 perfbench/pin.py

Runs each workload's jobs at the default seed once traced, and the shipped
configs once, and records the SHA-256 of their pinned outputs and the
pinned work counts.  Re-pin only in a change that is meant to move results,
and say why in that change.
"""

import json
import shutil

import run
import workloads


def main() -> None:
    golden = {"seed": run.DEFAULT_SEED, "shipped": {}, "workloads": {}}
    for workload in run.WORKLOADS:
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK.mkdir(parents=True)
        runner = run.Runner({}, {})
        try:
            jobs = run.prepare(workload, run.DEFAULT_SEED, runner)
            for job in jobs:
                runner.run(job, trace=True)
            shipped = workloads.shipped_jobs(workload, run.ROOT)
            for job in shipped:
                runner.run(job, trace=False)
        finally:
            run.remove_work()
        if runner.failures:
            raise SystemExit("\n".join(runner.failures))
        golden["workloads"][workload] = {
            job.name: {"sha256": runner.hash_pins[job.name],
                       "counts": runner.count_pins[job.name]} for job in jobs}
        golden["shipped"].update({job.name: runner.hash_pins[job.name]
                                  for job in shipped})
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
