"""Benchmark worker: one process, one caller, a closed loop over one workload.

bench/run.py starts it as `python3 bench/worker.py '<json config>'`.  The
worker imports what the workload needs, warms up and prints `ready`; then
it reads `go` or `exit` from stdin.  After `go` it generates the inputs,
runs the timed loop, checks every answer outside the timed calls, and
prints one JSON line with the results.
"""

import json
import os
import sys


def warm_up(workload: str) -> None:
    """The workload's imports plus one small call of each kind it makes."""
    from fiveclass import algebra, bordism, bundle, forms, parsing

    if workload == "bundle-small":
        form, ks = forms.manifold_from_json({"form": {"blocks": ["1", "H"]}, "ks": 0})
        form.signature()
        bundle.classify(bundle.BundleInput(form, ks, forms.CohomologyClass([2, 2, 0])))
    else:
        e = parsing.parse_expression("X(1) #~ S2xRP3 # CP2xS1")
        algebra.equivalent(algebra.invariants(e), algebra.normalize(e), algebra.Level.HOMEO)
        elt = bordism.parse_element("pinc:(1,1)")
        bordism.canonicalize(bordism.add(elt, elt))


def main() -> int:
    cfg = json.loads(sys.argv[1])
    warm_up(cfg["workload"])
    import fiveclass

    src = os.path.join(cfg["root"], "src", "")
    if not os.path.abspath(fiveclass.__file__).startswith(src):
        print(f"fiveclass imported from {fiveclass.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    from measure import measure

    print(json.dumps(measure(cfg)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
