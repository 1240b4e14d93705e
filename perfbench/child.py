"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py [--trace FILE] solve-ld EPS
    python3 perfbench/child.py --trace FILE cli ARG...

``solve-ld`` calls ``solve_nanopteron`` in longdouble (the CLI has no dtype
flag) and prints its outputs as one JSON line.  ``cli`` runs
``dimerwave.cli.dispatch`` with ARG...; untraced CLI ops run ``python3 -m
dimerwave.cli`` directly instead, so only traced ones come through here.
With ``--trace`` the layer entry points are wrapped first, and the per-layer
metrics are written to FILE as JSON when the op ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def solve_ld(eps_text):
    import numpy as np

    from dimerwave import DimerParams, nanopteron

    eps = np.longdouble(eps_text)
    state, _, diag = nanopteron.solve_nanopteron(
        DimerParams(2.0, 1.0), eps, nanopteron.NanopteronConfig(dtype=np.longdouble)
    )
    print(json.dumps({
        "a": float(state.a),
        "residual_rel": diag.residual_rel,
        "converged": diag.converged,
        "iterations": diag.iterations,
        "ripple_solves": diag.ripple_solves,
        "grid_n": state.eta1.grid.n,
        "corrector_ratio": max(diag.eta_sup) / float(eps),
    }))
    return 0


def main(argv):
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
        import tracer

        rec = tracer.install(tracer.Recorder())
    mode, rest = argv[0], argv[1:]
    if mode == "solve-ld":
        code = solve_ld(*rest)
    elif mode == "cli":
        from dimerwave import cli

        code = cli.dispatch(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if trace_file is not None:
        Path(trace_file).write_text(json.dumps(tracer.layer_metrics(rec)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
