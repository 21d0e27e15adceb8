"""Time the one-off set-up of a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py SRC_DIR SPEC_JSON``. SPEC_JSON
lists base fields ``[p, m]`` and lifts ``[p, m, ext_m]``. The probe
imports netcode from SRC_DIR, then makes every field ready (build_field
plus the first multiply, which builds the log/exp tables under the table
cap) and every embedding (the root scan of ``embed``). It prints one JSON
object: the total, the parts by field and by lift, and ``ref_s``, the
median time of the calibration reference block (see calibrate.py) timed
before and after the set-up.
"""

import json
import sys
import time

from calibrate import reference

refs = [reference() for _ in range(5)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import netcode.cli  # noqa: E402  (imports every module of the package)
from netcode.galois import FieldElement, build_field, embed  # noqa: E402

t_import = time.perf_counter() - t0
spec = json.loads(sys.argv[2])
fields = {}
built = {}


def ready(p: int, m: int):
    key = f"gf{p}_{m}"
    if key not in built:
        t = time.perf_counter()
        f = build_field(p, m)
        t_build = time.perf_counter() - t
        g = FieldElement(f, min(p, f.q - 1))  # x, or a unit in a prime field
        t = time.perf_counter()
        g * g
        fields[key] = {"build_s": t_build, "first_mul_s": time.perf_counter() - t}
        built[key] = f
    return built[key]


for p, m in spec["fields"]:
    ready(p, m)
lifts = {}
for p, m, ext in spec["lifts"]:
    sub, sup = ready(p, m), ready(p, ext)
    t = time.perf_counter()
    embed(sub, sup)
    lifts[f"gf{p}_{m}-gf{p}_{ext}"] = time.perf_counter() - t
total = time.perf_counter() - t0
refs += [reference() for _ in range(5)]
print(json.dumps({"total_s": total, "import_s": t_import, "fields": fields, "lifts": lifts,
                  "ref_s": sorted(refs)[len(refs) // 2]}))
