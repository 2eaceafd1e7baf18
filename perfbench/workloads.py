"""The four batch workloads of the etfforge benchmark.

Every workload is closed-loop: one caller, one operation at a time.  It
has a set-up that builds its inputs from the seed, a pass (the timed
section) that calls etfforge through module attributes so that the
tracer's wrappers see every call, and a check that sorts each
operation's output into one of three outcomes:

- "ok": the output passed the benchmark's independent re-check;
- "honest": the program reported that it could not do the job
  (CertificationError, no convergence, the d = 4 sweep row);
- "wrong": an output marked good that fails the re-check, an error the
  operation should not raise, or a d = 4 trial that did not round.

Each check also returns a fingerprint of the pass's outputs; passes of
one run must agree on it exactly.
"""

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from etfforge import certify as nk
from etfforge import cli, frames, harmonic, solver
from etfforge.constructions import is_odd_prime_power
from etfforge.errors import CertificationError, ToolkitError

HONEST_REASONS = ("rank", "infeasible", "no-convergence")
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Outcome:
    item: str
    status: str  # "ok", "honest" or "wrong"
    note: str = ""
    nk_defect: Optional[float] = None  # A of a verified NK certificate


def certificate_problem(cert, d):
    """Re-check a certificate document independently of the code that
    made it.  Returns None when it holds, else what is wrong with it."""
    if cert.get("d") != d or cert.get("verified") is not True:
        return "certificate is not a verified certificate for d=%d" % d
    if not cert["lhs_upper"] < cert["rhs_lower"]:
        return "lhs_upper %r is not below rhs_lower %r" % (cert["lhs_upper"], cert["rhs_lower"])
    if cert["kernel_dim"] != math.ceil(3 * d / 2):
        return "kernel_dim %r is not ceil(3d/2)" % cert["kernel_dim"]
    x0 = np.asarray(cert["x0"], dtype=float)
    if x0.shape != (4 * d + 1,):
        return "x0 has %d entries, not 4d+1" % x0.size
    pair = frames.CirculantPair(
        d=d, x=x0[:d] + 1j * x0[d : 2 * d], y=x0[2 * d : 3 * d] + 1j * x0[3 * d : 4 * d]
    )
    report = frames.check_etf(frames.assemble_2circulant(pair), tol=1e-10)
    if not report.verdict:
        return "frame from x0 fails check_etf at 1e-10"
    return None


def _certificate_outcome(item, cert, d):
    problem = certificate_problem(cert, d)
    if problem is not None:
        return Outcome(item, "wrong", problem)
    return Outcome(item, "ok", nk_defect=float(cert["bound_ST_minus_I"]))


class Workload:
    """Interface of a workload.  `modules` lists what a fresh interpreter
    imports during set-up."""

    modules = ()

    def setup(self, seed):
        """Build the inputs from the seed (timed as set-up)."""
        raise NotImplementedError

    def prepare(self, inputs):
        """Untimed work before each pass."""

    def run(self, inputs, tracer):
        """One pass of the timed section; tracer is None when untraced."""
        raise NotImplementedError

    def check(self, inputs, output):
        """(list of Outcome, fingerprint) for one pass."""
        raise NotImplementedError


@dataclass
class Sweep(Workload):
    """`etfforge sweep --d lo..hi --jobs 1` through cli.main, in-process."""

    d_lo: int = 2
    d_hi: int = 30
    out_dir: str = os.path.join(WORK_DIR, "sweep")
    modules: tuple = ("etfforge.cli", "etfforge.certify", "etfforge.solver")

    def setup(self, seed):
        return [
            "sweep", "--d", "%d..%d" % (self.d_lo, self.d_hi), "--seed", str(seed),
            "--jobs", "1", "--out-dir", self.out_dir,
        ]

    def prepare(self, argv):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, argv, tracer):
        if tracer is not None:
            tracer.item = " ".join(argv[:3])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, argv, output):
        code, _ = output
        items = ["d=%d" % d for d in range(self.d_lo, self.d_hi + 1)]
        try:
            with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return [Outcome(i, "wrong", "no summary: %s" % exc) for i in items], None
        outcomes = []
        for d, item in zip(range(self.d_lo, self.d_hi + 1), items):
            path = os.path.join(self.out_dir, "certificate_d%03d.json" % d)
            try:
                with open(path, encoding="utf-8") as fh:
                    row = json.load(fh)
            except (OSError, ValueError) as exc:
                outcomes.append(Outcome(item, "wrong", "unreadable result: %s" % exc))
                continue
            if row.get("verified"):
                outcomes.append(_certificate_outcome(item, row.get("certificate") or {}, d))
            elif row.get("failure_reason") in HONEST_REASONS:
                outcomes.append(Outcome(item, "honest", row["failure_reason"]))
            else:
                outcomes.append(Outcome(item, "wrong", "unexplained failure %r" % row.get("failure_reason")))
        verified = sum(o.status == "ok" for o in outcomes)
        expected_code = 0 if verified == len(items) else 1
        if code != expected_code or summary.get("verified_count") != verified:
            outcomes = [Outcome(o.item, "wrong", "exit code %r or summary count disagrees" % code)
                        if o.status == "ok" else o for o in outcomes]
        return outcomes, summary.get("manifest", {}).get("digest")


@dataclass
class CertifyLarge(Workload):
    """certify.certify on LM solutions at fixed large d; the solves are set-up."""

    dims: tuple = (60, 100)
    modules: tuple = ("etfforge.certify", "etfforge.solver")

    def setup(self, seed):
        return seed, [(d, solver.solve(d, seed=seed)) for d in self.dims]

    def run(self, inputs, tracer):
        seed, solved = inputs
        results = []
        for d, sol in solved:
            if tracer is not None:
                tracer.item = "d=%d" % d
            if not sol.converged:
                results.append((d, "no-convergence", sol.residual_inf))
                continue
            try:
                results.append((d, nk.certify(sol.pair, seed=seed), None))
            except CertificationError as exc:
                results.append((d, exc.reason, exc.detail))
            except ToolkitError as exc:
                results.append((d, "error", str(exc)))
        return results

    def check(self, inputs, results):
        outcomes = []
        fingerprint = []
        for d, got, detail in results:
            item = "d=%d" % d
            if isinstance(got, nk.Certificate):
                outcomes.append(_certificate_outcome(item, got.to_obj(), d))
                fingerprint.append((d, got.bound_ST_minus_I, got.epsilon))
            elif got in HONEST_REASONS:
                outcomes.append(Outcome(item, "honest", "%s (%r)" % (got, detail)))
                fingerprint.append((d, got, detail))
            else:
                outcomes.append(Outcome(item, "wrong", "%s: %s" % (got, detail)))
                fingerprint.append((d, got, detail))
        return outcomes, tuple(fingerprint)


@dataclass
class D4Projections(Workload):
    """solver.d4_uniqueness_experiment at a reduced trial count."""

    trials: int = 8
    iterations: int = 10000
    modules: tuple = ("etfforge.solver",)

    def setup(self, seed):
        return seed

    def run(self, seed, tracer):
        if tracer is not None:
            tracer.item = "trials=%d" % self.trials
        return solver.d4_uniqueness_experiment(
            trials=self.trials, iterations=self.iterations, seed=seed
        )

    def check(self, seed, report):
        records = report.records
        consistent = (
            report.trials == self.trials
            and len(records) == self.trials
            and [rec.trial for rec in records] == list(range(self.trials))
            and report.all_rounded == all(rec.rounding_ok for rec in records)
            and report.worst_re == max(rec.max_abs_re for rec in records)
        )
        outcomes = []
        for rec in records:
            item = "trial=%d" % rec.trial
            if not consistent:
                outcomes.append(Outcome(item, "wrong", "report disagrees with its records"))
            elif rec.rounding_ok:
                outcomes.append(Outcome(item, "ok"))
            else:
                outcomes.append(Outcome(item, "wrong", "did not round (max |Re| %.3g)" % rec.max_abs_re))
        return outcomes, tuple((rec.max_abs_re, rec.rounding_ok) for rec in records)


def _odd_prime_powers(lo, hi):
    return tuple(q for q in range(lo, hi + 1) if is_odd_prime_power(q))


@dataclass
class ConstructDetect(Workload):
    """Symmetry, circulantization and generator recovery for the two
    symplectic families.  Deterministic: the seed is not used."""

    qs: tuple = field(default_factory=lambda: _odd_prime_powers(5, 81))
    families: tuple = ("paley_plus", "double_paley_plus")
    modules: tuple = ("etfforge.harmonic", "etfforge.frames")

    def setup(self, seed):
        return [(family, q) for family in self.families for q in self.qs]

    def run(self, items, tracer):
        results = []
        for family, q in items:
            item = "%s/q=%d" % (family, q)
            if tracer is not None:
                tracer.item = item
            try:
                gram, witness = harmonic.family_automorphism(family, q)
                block, _, _ = harmonic.circulantize(gram, witness)
                devs = harmonic.check_regular_representation(block)
                gens = harmonic.generators_from_blockgram(block)
                pair = frames.CirculantPair(d=block.m, x=gens[0], y=gens[1])
                report = frames.check_etf(frames.assemble_2circulant(pair))
            except ToolkitError as exc:
                results.append((item, "%s: %s" % (type(exc).__name__, exc), None, None, None))
                continue
            results.append((item, None, pair, devs, report))
        return results

    def check(self, items, results):
        outcomes = []
        fingerprint = []
        for item, error, pair, devs, report in results:
            if error is not None:
                outcomes.append(Outcome(item, "wrong", error))
                fingerprint.append((item, error))
                continue
            recheck = frames.check_etf(frames.assemble_2circulant(pair), tol=1e-10)
            if not (report.verdict and recheck.verdict):
                outcomes.append(Outcome(item, "wrong", "recovered pair fails check_etf at 1e-10"))
            elif max(devs) > 1e-8:
                outcomes.append(Outcome(item, "wrong", "regular-representation deviation %.3e" % max(devs)))
            else:
                outcomes.append(Outcome(item, "ok"))
            fingerprint.append((item, pair.d, tuple(devs), recheck.max_equi_dev))
        return outcomes, tuple(fingerprint)


WORKLOADS = {
    "sweep_2_30": Sweep,
    "certify_large": CertifyLarge,
    "d4_projections": D4Projections,
    "construct_detect": ConstructDetect,
}
