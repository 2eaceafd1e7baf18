"""Command-line surface: construct, check, solve, certify, sweep, detect,
circulantize.

Every command that writes files embeds a run manifest (command line,
seeds, tool version, input/output digests, wall time).  The manifest
digest covers everything except the wall time, so identical flags and
seeds reproduce identical digests on a fixed BLAS build and thread count
(from d = 39 up the LM solve's bits depend on the thread count).

Exit codes: 0 success, 1 semantic failure (check/detection/certification
negative), 2 invalid parameters or unreadable input, 3 construction or
internal numeric invariant failure.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    CertificationError,
    ConstructionError,
    InconsistentWitnessError,
    InvalidArgumentError,
    NumericFailureError,
    ToolkitError,
    UnsupportedInputError,
)
from .serialize import (
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    pair_to_obj,
    read_json,
    sha256_text,
    witness_from_obj,
    witness_to_obj,
    write_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN = 3

FAMILIES = (
    "paley-plus",
    "double-paley",
    "double-paley-plus",
    "renes-strohmer",
    "steiner",
    "family-3x6",
    "zauner-2x4",
)


class Run:
    """Collects inputs/outputs of one command and stamps the manifest."""

    def __init__(self, argv, seeds=()):
        self.argv = [str(a) for a in argv]
        self.seeds = [int(s) for s in seeds]
        self.started = time.time()
        self.inputs = {}
        self.staged = []

    def read(self, path):
        try:
            obj = read_json(path)
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise InvalidArgumentError("cannot read %s: %s" % (path, exc)) from exc
        if not isinstance(obj, dict):
            raise InvalidArgumentError(
                "%s: top-level JSON value must be an object, got %s" % (path, type(obj).__name__)
            )
        # the digest a writer records under outputs: the document without
        # its own manifest, whose wall time differs on every run.  dumps
        # refuses NaN, infinities and deep nesting, which no document
        # written here holds; such an input gets no digest, and each
        # command's own checks refuse it where they read it.
        body = {key: value for key, value in obj.items() if key != "manifest"}
        try:
            self.inputs[str(path)] = sha256_text(dumps(body))
        except (InvalidArgumentError, RecursionError):
            self.inputs[str(path)] = None
        return obj

    def stage(self, path, payload):
        self.staged.append((str(path), payload))

    def manifest_core(self):
        outputs = {path: sha256_text(dumps(payload)) for path, payload in self.staged}
        return {
            "command": self.argv,
            "seeds": self.seeds,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": outputs,
        }

    def flush(self):
        """Write all staged files; returns the manifest digest."""
        core = self.manifest_core()
        digest = sha256_text(dumps(core))
        manifest = dict(core)
        manifest["wall_time"] = time.time() - self.started
        manifest["digest"] = digest
        for path, payload in self.staged:
            doc = dict(payload)
            doc["manifest"] = manifest
            write_json(path, doc)
        return digest

    def write(self, path, payload, *lines):
        """Stage payload at path and flush, then print lines and the
        "wrote" line; a failed write prints none of them."""
        self.stage(path, payload)
        digest = self.flush()
        for line in lines:
            print(line)
        print("wrote %s (manifest %s)" % (path, digest[:16]))


def _report_line(report):
    return "etf d=%d n=%d gamma=%.12g norm_dev=%.3e tight_dev=%.3e equi_dev=%.3e verdict=%s" % (
        report.d,
        report.n,
        report.gamma,
        report.max_norm_dev,
        report.max_tight_dev,
        report.max_equi_dev,
        "pass" if report.verdict else "fail",
    )


def _require(cond, message):
    if not cond:
        raise InvalidArgumentError(message)


def _doc_field(obj, key, kind, default=None):
    """obj[key] converted by kind (int or float); a missing key reads as
    default."""
    value = obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(
            "document field %r must be %s, got %r" % (key, kind.__name__, value)
        ) from exc


def _build_construction(family, q, m, epsilon):
    """Returns (payload_without_manifest, report)."""
    from . import constructions as cons
    from . import harmonic
    from .frames import CirculantPair, assemble_2circulant, check_etf, frame_from_gram, gram_of_signature
    from .linalg import dft_matrix

    params = {}
    gram = None
    frame = None
    pair = None
    witness = None

    if family in ("paley-plus", "double-paley-plus"):
        _require(q is not None, "--q is required for %s" % family)
        key = "paley_plus" if family == "paley-plus" else "double_paley_plus"
        gram, wit = harmonic.family_automorphism(key, q)
        frame = frame_from_gram(gram, gram.shape[0] // 2)
        cycles = wit.cycles()
        witness = witness_to_obj(wit.sigma, wit.c, m=len(cycles[0]), t=len(cycles))
        params = {"q": int(q)}
    elif family == "double-paley":
        _require(q is not None, "--q is required for double-paley")
        eps = 1 if epsilon is None else epsilon
        d = int(q)
        if d % 4 == 1:
            graph = cons.paley_graph(d)
            built = cons.synthesize_doubled_frame(graph, eps)
            sig = cons.double_conference_graph(graph, eps)
            gram = gram_of_signature(sig, d)
            if isinstance(built, CirculantPair):
                pair = built
                frame = assemble_2circulant(built)
            else:
                frame = built
        elif d % 4 == 3:
            sig = cons.double_renes_strohmer_signature(d, eps)
            gram = gram_of_signature(sig, d)
            frame = frame_from_gram(gram, d)
        else:
            raise InvalidArgumentError("double-paley needs an odd prime power order")
        params = {"q": d, "epsilon": eps}
    elif family == "renes-strohmer":
        _require(q is not None, "--q is required for renes-strohmer")
        gram = cons.renes_strohmer_gram(q)
        d = (q + 1) // 2
        frame = frame_from_gram(gram, d)
        params = {"q": int(q)}
    elif family == "steiner":
        _require(m is not None, "--m is required for steiner")
        diff_set = cons.planar_difference_set(m)  # checks m before the DFT needs it
        k = int(m) + 1
        hadamard = dft_matrix(k + 1) * math.sqrt(k + 1)
        frame = cons.steiner_circulant(m, hadamard, diff_set)
        gram = frame.conj().T @ frame
        params = {"m": int(m), "difference_set": [int(x) for x in diff_set]}
    elif family == "family-3x6":
        sig = cons.family_3x6(1.0)
        gram = gram_of_signature(sig, 3)
        frame = frame_from_gram(gram, 3)
        params = {"alpha_re": 1.0, "alpha_im": 0.0}
    elif family == "zauner-2x4":
        sig = cons.zauner_2x4_signature()
        gram = gram_of_signature(sig, 2)
        frame = frame_from_gram(gram, 2)
        params = {}
    else:
        raise InvalidArgumentError(
            "unknown family %r (choose from %s)" % (family, ", ".join(FAMILIES))
        )

    report = check_etf(frame, tol=1e-10)
    if not report.verdict:
        raise ConstructionError("constructed frame misses ETF tolerances: %r" % (report,))
    payload = {
        "kind": "construction",
        "family": family,
        "params": params,
        "d": int(report.d),
        "n": int(report.n),
        "gram": matrix_to_obj(gram, "gram"),
        "frame": matrix_to_obj(frame, "frame"),
        "pair": None if pair is None else pair.to_obj(),
        "witness": witness,
        "etf_report": report.to_obj(),
    }
    return payload, report


def cmd_construct(args, argv):
    run = Run(argv)
    payload, report = _build_construction(args.family, args.q, args.m, args.epsilon)
    run.write(args.out, payload, _report_line(report))
    return EXIT_OK


def _frame_from_payload(obj):
    from .frames import CirculantPair, assemble_2circulant, frame_from_gram

    kind = obj.get("kind")
    if kind == "construction":
        if obj.get("frame"):
            return matrix_from_obj(obj["frame"])[0]
        if obj.get("pair"):
            return assemble_2circulant(CirculantPair.from_obj(obj["pair"]))
        if obj.get("gram"):
            g, _ = matrix_from_obj(obj["gram"])
            return frame_from_gram(g, _doc_field(obj, "d", int))
        raise InvalidArgumentError("construction document carries no frame data")
    if kind == "circulant-generators":
        return assemble_2circulant(CirculantPair.from_obj(obj))
    raise InvalidArgumentError("unsupported document kind %r" % kind)


def _gram_from_payload(obj):
    """The document's Gram, or a^H a of its frame a.  Bad input when a^H a
    or a a^H overflows."""
    if obj.get("kind") == "construction" and obj.get("gram"):
        return matrix_from_obj(obj["gram"])[0]
    from .frames import frame_products

    return frame_products(_frame_from_payload(obj))[1]


def _pair_from_payload(obj):
    from .frames import CirculantPair

    if obj.get("kind") == "circulant-generators":
        return CirculantPair.from_obj(obj), obj
    if obj.get("kind") == "construction" and obj.get("pair"):
        return CirculantPair.from_obj(obj["pair"]), obj
    raise InvalidArgumentError("document carries no circulant generator pair")


def cmd_check(args, argv):
    from .frames import check_etf

    run = Run(argv)
    obj = run.read(args.in_path)
    report = check_etf(_frame_from_payload(obj), tol=args.tol)
    print(_report_line(report))
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_solve(args, argv):
    from .solver import solve

    d = _parse_single_d(args.d)
    run = Run(argv, seeds=[args.seed])
    result = solve(d, seed=args.seed, tol=args.tol, max_iter=args.max_iter)
    print(
        "solve d=%d seed=%d iterations=%d residual=%.3e converged=%s"
        % (d, args.seed, result.iterations, result.residual_inf, result.converged)
    )
    if args.out:
        run.write(args.out, result.to_obj())
    return EXIT_OK if result.converged else EXIT_FAIL


def cmd_certify(args, argv):
    from .certify import METHOD_EXACT, certify, exact_constructions
    from .galois import within_line_system_cap

    run = Run(argv)
    obj = run.read(args.in_path)
    pair, doc = _pair_from_payload(obj)
    w = _doc_field(doc, "w", float, 0.5)
    _require(math.isfinite(4 * w), "document field 'w' must be finite, with 4*w finite; got %r" % w)
    seed = _doc_field(doc, "seed", int, -1)
    run.seeds = [seed] if seed >= 0 else []
    try:
        cert = certify(pair, delta=args.delta, w=w, seed=seed)
    except CertificationError as exc:
        message = str(exc)
        if any(within_line_system_cap(q) for _, q in exact_constructions(pair.d)):
            # the exact route proves a constructed point, not this one
            message += "; d=%d is proved by %s: etfforge sweep --d %d" % (
                pair.d, METHOD_EXACT, pair.d)
        print("certification failed: reason=%s %s" % (exc.reason, message))
        if args.out:
            run.stage(
                args.out,
                {
                    "kind": "certificate",
                    "d": pair.d,
                    "verified": False,
                    "reason": exc.reason,
                    "message": message,
                },
            )
            run.flush()
        return EXIT_FAIL
    print(
        "certificate d=%d verified epsilon=%.6e kernel_dim=%d lhs=%.6e rhs=%.6e"
        % (cert.d, cert.epsilon, cert.kernel_dim, cert.lhs_upper, cert.rhs_lower)
    )
    if args.out:
        run.write(args.out, cert.to_obj())
    return EXIT_OK


def _parse_single_d(text):
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError("--d expects an integer, got %r" % text) from exc


def _parse_d_range(text):
    """Either "lo..hi" (inclusive) or a single integer."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise InvalidArgumentError("--d range must be lo..hi integers") from exc
        if lo > hi:
            raise InvalidArgumentError("--d range %s is empty (lo > hi)" % text)
        return lo, hi
    d = _parse_single_d(text)
    return d, d


def cmd_sweep(args, argv):
    from .certify import METHOD_EXACT, certify_range

    d_lo, d_hi = _parse_d_range(args.d)
    seeds = tuple(range(args.seed, args.seed + 5))
    run = Run(argv, seeds=seeds)
    results = certify_range(
        d_lo,
        d_hi,
        seeds=seeds,
        delta=args.delta,
        jobs=args.jobs,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for rr in results:
        path = os.path.join(args.out_dir, "certificate_d%03d.json" % rr.d)
        run.stage(path, rr.to_obj())
        rows.append(
            {
                "d": rr.d,
                "verified": rr.verified,
                "method": rr.certificate.method if rr.certificate else None,
                "epsilon": rr.certificate.epsilon if rr.certificate else None,
                "kernel_dim": rr.certificate.kernel_dim if rr.certificate else None,
                "failure_reason": rr.failure_reason,
            }
        )
    verified = sum(1 for rr in results if rr.verified)
    summary = {
        "kind": "sweep-summary",
        "d_lo": d_lo,
        "d_hi": d_hi,
        "delta": args.delta,
        "verified_count": verified,
        "total": len(results),
        "rows": rows,
    }
    run.stage(os.path.join(args.out_dir, "summary.json"), summary)
    digest = run.flush()
    for row in rows:
        if not row["verified"]:
            print("d=%d FAILED reason=%s" % (row["d"], row["failure_reason"]))
        elif row["method"] == METHOD_EXACT:
            print("d=%d verified method=%s kernel_dim=%d" % (row["d"], row["method"], row["kernel_dim"]))
        else:
            print("d=%d verified epsilon=%.3e kernel_dim=%d" % (row["d"], row["epsilon"], row["kernel_dim"]))
    print("%d/%d verified (manifest %s)" % (verified, len(results), digest[:16]))
    return EXIT_OK if verified == len(results) else EXIT_FAIL


def _witness_from_payload(obj):
    """(witness, m, t) of a construction document, or three Nones; bad
    input when m and t are not sigma's cycle type m^t."""
    from .harmonic import AutomorphismWitness

    if obj.get("kind") == "construction" and obj.get("witness"):
        sigma, c, m, t = witness_from_obj(obj["witness"])
        witness = AutomorphismWitness(sigma=tuple(sigma), c=c)
        lengths = witness.cycle_type()
        _require(len(lengths) == t and set(lengths) == {m},
                 "witness m=%d, t=%d disagree with sigma: %d cycles of lengths %s"
                 % (m, t, len(lengths), sorted(set(lengths))))
        return witness, m, t
    return None, None, None


def cmd_detect(args, argv):
    from .harmonic import check_regular_representation, circulantize, detect_harmonic_gram

    run = Run(argv)
    obj = run.read(args.in_path)
    gram = _gram_from_payload(obj)
    witness, wit_m, wit_t = _witness_from_payload(obj)
    m = args.m if args.m is not None else wit_m
    _require(m is not None, "--m is required when the input has no witness")
    _require(m >= 1 and gram.shape[0] % m == 0,
             "--m must be a positive divisor of the Gram order %d, got %d" % (gram.shape[0], m))
    try:
        if witness is not None and m == wit_m:
            block, _, _ = circulantize(gram, witness, tol=args.tol)
            print("witness: pass (reindexed through %d cycles of length %d)" % (wit_t, wit_m))
        else:
            block = detect_harmonic_gram(gram, m, tol=args.tol)
        print("stability: pass (m=%d, t=%d)" % (block.m, block.t))
        print("psd: pass (all %d frequency components)" % block.m)
        dev_sq, dev_tight = check_regular_representation(block, tol=args.tol)
        print("regular-representation: pass (G^2-tG %.3e, block trace %.3e)" % (dev_sq, dev_tight))
    except (UnsupportedInputError, InconsistentWitnessError, NumericFailureError) as exc:
        print("detect: FAIL %s" % exc)
        return EXIT_FAIL
    return EXIT_OK


def cmd_circulantize(args, argv):
    from .harmonic import check_regular_representation, circulantize, generators_from_blockgram

    run = Run(argv)
    obj = run.read(args.in_path)
    gram = _gram_from_payload(obj)
    witness, _, wit_t = _witness_from_payload(obj)
    _require(witness is not None, "input document must embed an automorphism witness")
    _require(wit_t == 2, "circulantize needs a witness of 2 cycles, got %d" % wit_t)
    try:
        block, diag, perm = circulantize(gram, witness, tol=args.tol)
        check_regular_representation(block, tol=args.tol)
        gens = generators_from_blockgram(block, tol=args.tol)
    except (UnsupportedInputError, InconsistentWitnessError, NumericFailureError) as exc:
        print("circulantize: FAIL %s" % exc)
        return EXIT_FAIL
    payload = pair_to_obj(block.m, gens[0], gens[1])
    payload["perm"] = [int(p) for p in perm]
    payload["diag_re"] = [float(v) for v in np.real(diag)]
    payload["diag_im"] = [float(v) for v in np.imag(diag)]
    run.write(args.out, payload, "circulantize: pass (m=%d, t=%d)" % (block.m, block.t))
    return EXIT_OK


def _resolve_jobs(flag):
    """--jobs when given, else ETFFORGE_THREADS, else 1; either must be >= 1."""
    if flag is not None:
        source, jobs = "--jobs", flag
    else:
        source, env = "ETFFORGE_THREADS", os.environ.get("ETFFORGE_THREADS")
        if env is None:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise InvalidArgumentError("ETFFORGE_THREADS must be an integer") from exc
    if jobs < 1:
        raise InvalidArgumentError("%s must be >= 1" % source)
    return jobs


def _check_flags(args):
    """Bounds argparse leaves open: --tol finite and >= 0, --seed >= 0,
    --max-iter >= 1, 0 < --delta < 1, on the commands that take them."""
    flags = vars(args)
    tol, seed, max_iter = flags.get("tol", 0.0), flags.get("seed", 0), flags.get("max_iter", 1)
    delta = flags.get("delta", 0.5)
    _require(math.isfinite(tol) and tol >= 0, "--tol must be finite and >= 0, got %r" % tol)
    _require(0 < delta < 1, "--delta must be finite with 0 < delta < 1, got %r" % delta)
    _require(seed >= 0, "--seed must be >= 0, got %d" % seed)
    _require(max_iter >= 1, "--max-iter must be >= 1, got %d" % max_iter)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="etfforge",
        description="construct, detect, solve, and certify d x 2d equiangular tight frames",
    )
    parser.add_argument("--version", action="version", version="etfforge " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named frame family and write its bundle")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--epsilon", type=int, choices=(-1, 1))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="measure ETF deviations of a stored frame")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="numerically solve the 2-circulant system")
    p.add_argument("--d", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="emit an existence certificate for stored generators")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="solve and certify a dimension range")
    p.add_argument("--d", required=True, help="single d or inclusive range lo..hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: ETFFORGE_THREADS, else 1)")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detect", help="detect block-circulant harmonic structure in a Gram")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("circulantize", help="straighten a witnessed symmetry into generators")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_circulantize)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        if hasattr(args, "jobs"):
            args.jobs = _resolve_jobs(args.jobs)
        return args.func(args, argv)
    except InvalidArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BROKEN
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an input too large to allocate for
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
