"""The benchmark's workloads: inputs drawn from a seed, the op each runs, and
the checks every op's outputs must pass.

Seed 0 reproduces the documented inputs exactly.  Other seeds move each eps
by a uniform relative offset within the workload's ``band``, chosen small
enough that every gate keeps its seed-0 outcome.  Every op is checked for its
exit code, its gates and rerun determinism; on the documented inputs the
physics outputs are also compared with reference values recorded from the
package as it stood when the benchmark was introduced, within rounding-level
bounds.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

# Bounds on the reference comparison: |value - reference| may be at most
# RTOL[name] * |reference| + ATOL[dtype].  Each RTOL is about 100x the change
# that a one-ulp perturbation of eps (solver outputs) or a 1e-15 relative
# perturbation of the initial ring data (lattice outputs) produces, and ATOL
# is about ten units of rounding of the dtype, so a reordering of
# floating-point sums passes and a change of method does not.
ATOL = {"float64": 1e-15, "longdouble": 1e-18}
RTOL = {
    "a": 1e-7,
    "residual_rel": 1e-4,
    "shape_error": 1e-6,
    "energy_drift": 0.05,
    "peak_ratio_dev": 1e-6,
}

# Seed-0 outputs of the package when this benchmark was introduced.
SOLVE_REFERENCE = {
    "0.2": {"a": -0.0032804477713921213, "residual_rel": 4.5504311970333303e-07},
    "0.15": {"a": -0.00021321073896928965, "residual_rel": 2.222959329841877e-08},
    "0.1": {"a": -5.600174486679101e-07, "residual_rel": 3.1364478442906436e-11},
}
LD_REFERENCE = {"0.05": {"a": -2.3692104690059797e-15, "residual_rel": 1.8464132404017591e-16}}
RING_REFERENCE = {
    "ring-long": {
        "shape_error": 3.187707869372445e-07,
        "energy_drift": 2.185509642900063e-12,
        "peak_ratio_dev": 0.0054337271382804975,
    },
}

# Gate failures that are known defects of the package, with their cause.
# Their outputs are not reference values: fixing the defect changes them.
_PHANTOM_CORES = ("the ring is wider than the solution's line window (2L/eps sites), "
                  "so sampling puts periodic images of the core on it")
KNOWN_CAUSES = {
    ("ring-4096", "shape_error"): _PHANTOM_CORES,
    ("ring-4096", "peak_ratio"): _PHANTOM_CORES,
}


@dataclass
class Outcome:
    """What the checks found in one op's outputs."""

    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    fingerprint: str = ""
    wrong: bool = False  # an output missed its reference value


def read_record(path):
    """Sections of a run record as ``{section: {key: raw value}}``."""
    sections, current = {}, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None and " = " in line:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


def deterministic_bytes(path):
    """File content that must repeat across reruns (records lose ``[timings]``)."""
    data = Path(path).read_bytes()
    if path.name.endswith("_record.txt"):
        data = data.split(b"\n[timings]\n", 1)[0]
    return data


def compare(outcome, name, value, reference, dtype="float64"):
    bound = RTOL[name.split("[", 1)[0]] * abs(reference) + ATOL[dtype]
    if not abs(value - reference) <= bound:
        outcome.wrong = True
        outcome.failures.append(
            f"{name} = {value!r} is off the reference {reference!r} by more than {bound:.3g}"
        )


def check_gates(outcome, workload, record):
    for gate, text in record.get("gates", {}).items():
        if not text.startswith("PASS"):
            cause = KNOWN_CAUSES.get((workload, gate))
            outcome.failures.append(
                f"gate {gate} = {text}" + (f"; known cause: {cause}" if cause else "")
            )


def check_nanopteron_record(outcome, workload, path, eps, reference_check):
    """Gates of one ``nanopteron`` record, plus its reference values if asked."""
    if not path.is_file():
        outcome.failures.append(f"missing {path.name}")
        return
    record = read_record(path)
    check_gates(outcome, workload, record)
    summary = record.get("summary", {})
    for name in ("a", "residual_rel"):
        if name not in summary:
            outcome.failures.append(f"{path.name} has no {name}")
            continue
        value = float(summary[name])
        outcome.outputs[f"{name}[eps={eps}]"] = value
        if reference_check:
            compare(outcome, f"{name}[eps={eps}]", value, SOLVE_REFERENCE[eps][name])
    for name in ("iterations", "ripple_solves"):
        outcome.outputs[f"{name}[eps={eps}]"] = int(summary.get(name, -1))


class Workload:
    """One benchmark workload; subclasses define the op and its checks."""

    name = ""
    base_eps = ()
    band = 0.0

    def eps_values(self, seed):
        """The op's eps values as text, as they are passed to the program."""
        if seed == DEFAULT_SEED:
            return list(self.base_eps)
        rng = random.Random(f"{self.name}:{seed}")
        return [f"{float(e) * (1 + self.band * rng.uniform(-1, 1)):.6g}"
                for e in self.base_eps]

    def prepare(self, run):
        """Work done before the timed ops, beyond the import probe."""

    def argv(self, run, out, trace_file=None):
        raise NotImplementedError

    def check(self, run, out, code, stdout):
        raise NotImplementedError

    def _cli(self, run, args, trace_file):
        if trace_file is None:
            return [run.python, "-m", "dimerwave.cli", *args]
        return [run.python, run.child, "--trace", str(trace_file), "cli", *args]


class Sweep(Workload):
    name = "sweep-f64"
    base_eps = ("0.2", "0.15", "0.1")
    band = 0.01

    def argv(self, run, out, trace_file=None):
        return self._cli(run, ["nanopteron", "--sweep", ",".join(run.eps),
                               "--out", str(out)], trace_file)

    def check(self, run, out, code, stdout):
        outcome = Outcome()
        if code != 0:
            outcome.failures.append(f"exit code {code}")
        digest = hashlib.sha256()
        for eps in run.eps:
            tag = f"eps{float(eps):g}"
            check_nanopteron_record(outcome, self.name, out / f"nanopteron_{tag}_record.txt",
                                    eps, run.documented)
            for name in (f"nanopteron_{tag}_record.txt", f"nanopteron_{tag}.csv"):
                if (out / name).is_file():
                    digest.update(deterministic_bytes(out / name))
        residuals = [v for k, v in outcome.outputs.items() if k.startswith("residual_rel")]
        if residuals:
            outcome.outputs["residual_rel"] = max(residuals)
        outcome.fingerprint = digest.hexdigest()
        return outcome


class SolveLongdouble(Workload):
    name = "solve-ld"
    base_eps = ("0.05",)
    band = 0.01

    def argv(self, run, out, trace_file=None):
        head = [run.python, run.child]
        if trace_file is not None:
            head += ["--trace", str(trace_file)]
        return head + ["solve-ld", run.eps[0]]

    def check(self, run, out, code, stdout):
        outcome = Outcome(fingerprint=hashlib.sha256(stdout.encode()).hexdigest())
        if code != 0:
            outcome.failures.append(f"exit code {code}")
            return outcome
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            outcome.failures.append("no JSON result line on standard output")
            return outcome
        eps = run.eps[0]
        if not result["converged"]:
            outcome.failures.append("solver reports no convergence")
        if not result["residual_rel"] <= 1e-6:
            outcome.failures.append(f"residual_rel {result['residual_rel']:.3e} > 1e-6")
        if not result["corrector_ratio"] <= 2.0:
            outcome.failures.append(f"sup(eta)/eps {result['corrector_ratio']:.3f} > 2")
        for name in ("a", "residual_rel"):
            outcome.outputs[name] = result[name]
            if run.documented:
                compare(outcome, name, result[name], LD_REFERENCE[eps][name], "longdouble")
        for name in ("iterations", "ripple_solves", "grid_n"):
            outcome.outputs[name] = result[name]
        return outcome


class Ring(Workload):
    """``simulate`` on a ring initialized from a solved nanopteron archive."""

    sites = 0
    extra = ()

    def prepare(self, run):
        """Solve and save the initial profile; its record is checked like a sweep's."""
        setup = run.work / "setup"
        code, stdout = run.call([run.python, "-m", "dimerwave.cli", "nanopteron",
                                 "--eps", run.eps[0], "--out", str(setup)])
        tag = f"eps{float(run.eps[0]):g}"
        outcome = Outcome()
        if code != 0:
            outcome.failures.append(f"exit code {code}: {stdout.strip()[-500:]}")
        check_nanopteron_record(outcome, self.name, setup / f"nanopteron_{tag}_record.txt",
                                run.eps[0], run.documented)
        run.archive = setup / f"nanopteron_{tag}.npz"
        return outcome

    def argv(self, run, out, trace_file=None):
        return self._cli(run, ["simulate", "--init", str(run.archive),
                               "--sites", str(self.sites), *self.extra,
                               "--out", str(out)], trace_file)

    def check(self, run, out, code, stdout):
        outcome = Outcome()
        path = out / "simulate_record.txt"
        if not path.is_file():
            outcome.failures.append(f"exit code {code}, no simulate_record.txt")
            return outcome
        record = read_record(path)
        check_gates(outcome, self.name, record)
        if code != 0 and not outcome.failures:
            outcome.failures.append(f"exit code {code} with every gate passing")
        summary = record.get("summary", {})
        try:
            kappa = float(record["config"]["kappa"])
            ratios = (float(summary["ratio_min"]), float(summary["ratio_max"]))
            outcome.outputs = {
                "shape_error": float(summary["shape_error"]),
                "energy_drift": float(summary["energy_drift"]),
                "peak_ratio_dev": max(abs(r - kappa) for r in ratios) / kappa,
            }
        except (KeyError, ValueError) as exc:
            outcome.failures.append(f"simulate_record.txt lacks a readable {exc}")
            outcome.wrong = True
            return outcome
        reference = RING_REFERENCE.get(self.name)
        if reference is not None and run.documented:
            for name, value in outcome.outputs.items():
                compare(outcome, name, value, reference[name])
        digest = hashlib.sha256(deterministic_bytes(path))
        if (out / "trajectory.csv").is_file():
            digest.update((out / "trajectory.csv").read_bytes())
        outcome.fingerprint = digest.hexdigest()
        return outcome


class Ring4096(Ring):
    name = "ring-4096"
    base_eps = ("0.2",)
    # No band: the shape_error gate flips erratically with eps (it passes at
    # 0.1996 and 0.201, fails by 35% at 0.2004), so every seed runs eps = 0.2.
    band = 0.0
    sites = 4096


class RingLong(Ring):
    name = "ring-long"
    base_eps = ("0.1",)
    band = 0.01
    sites = 1024
    extra = ("--T", "345", "--snap-every", "500")


WORKLOADS = {w.name: w for w in (Sweep(), SolveLongdouble(), Ring4096(), RingLong())}
