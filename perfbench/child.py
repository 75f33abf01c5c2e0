"""One benchmark job in a fresh interpreter, as a user's CLI call would be.

    python3 perfbench/child.py --result FILE --out DIR [--trace JOB_ID] -- ARGS...

ARGS is a gevreylab CLI argv without ``--out`` (``eigen --p 2 --q 3``) or a
library job (``oracle 2,3``).  The child writes FILE as JSON: the monotonic
clock when ``gevreylab.cli`` finished importing, the import time, the exit
code and, with ``--trace``, the spans and counters of the job.  Its exit
code is the job's.
"""

import time

T_START = time.monotonic()

import gevreylab.cli  # noqa: E402  (the import is what setup_s measures)

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", metavar="JOB_ID")
    parser.add_argument("job", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    job_args = tuple(a for a in args.job if a != "--")
    out = Path(args.out)

    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.trace, clock=time.monotonic)
        spans.install(tracer)

    record = {"t_imported": T_IMPORTED, "import_s": T_IMPORTED - T_START, "rc": 1}
    try:
        if job_args[0] in jobs.LIBRARY_KINDS:
            out.mkdir(parents=True, exist_ok=True)
            root = tracer.open(f"lib.{job_args[0]}") if tracer else None
            try:
                jobs.run_library_job(job_args, out)
            finally:
                if tracer:
                    tracer.close(root)
            record["rc"] = 0
        else:
            record["rc"] = gevreylab.cli.main([*job_args, "--out", str(out)])
    finally:
        if tracer:
            record.update(tracer.dump())
        Path(args.result).write_text(json.dumps(record))
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
