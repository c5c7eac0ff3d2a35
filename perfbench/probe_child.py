"""One-shot measurements in a fresh process, printed as one JSON line.

    python probe_child.py import            time of ``import quadliaison.cli``
    python probe_child.py classify LO HI    E-type synthesis of the (8,4) curve
                                            with twist bounds LO..HI, cold
    python probe_child.py tables WIDTH      ideal row, full grid and its text
                                            rendering of (8,4) in P4 on 0..WIDTH-1

PYTHONPATH must point at the checkout's src/.
"""

import json
import re
import sys
import time

mode = sys.argv[1]
start = time.perf_counter()
import quadliaison.cli  # noqa: E402,F401

import_ms = (time.perf_counter() - start) * 1e3
from quadliaison import ambient, classify, curves  # noqa: E402

if mode == "import":
    print(json.dumps({"ms": import_ms}))
elif mode == "classify":
    lo, hi = int(sys.argv[2]), int(sys.argv[3])
    curve = curves.CurveClass(ambient.QUADRIC3, 8, 4)
    start = time.perf_counter()
    try:
        _, found = classify.etype_candidates(curve, twist_lo=lo, twist_hi=hi)
        record = {"capped": 0, "candidates": 0, "matches": len(found)}
    except Exception as exc:  # only the candidate cap is an expected refusal
        if type(exc).__name__ != "RangeTooLarge":
            raise
        count = getattr(exc, "count", None)
        if count is None:
            count = int(re.findall(r"\d+", str(exc))[0])
        record = {"capped": 1, "candidates": count, "matches": 0}
    record["ms"] = (time.perf_counter() - start) * 1e3
    print(json.dumps(record))
else:
    width = int(sys.argv[2])
    curve = curves.CurveClass(ambient.P4, 8, 4)
    window = (0, width - 1)
    record = {}
    start = time.perf_counter()
    curves.ideal_h0_table(curve, window)
    record["ideal_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    table = curves.full_ideal_table(curve, window)
    record["full_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    text = table.render_grid()
    record["render_ms"] = (time.perf_counter() - start) * 1e3
    record["render_bytes"] = len(text)
    print(json.dumps(record))
