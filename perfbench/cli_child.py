"""Start one traced ``ql`` process.

The harness runs ``python cli_child.py <ql argv...>`` with PYTHONPATH
pointing at the checkout's src/ and PERFBENCH_TRACE_OUT naming a file.
The spans are installed before ``cli.main`` runs and dumped to that file
when it returns; stdout, stderr and the exit code are those of ``ql``.
"""

import json
import os
import sys

import tracing
from quadliaison import cli

tracer = tracing.Tracer()
tracing.install(tracer)
try:
    code = tracer.run_op(0, "".join(sys.argv[1:2]), cli.main, sys.argv[1:])
finally:
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
raise SystemExit(code)
