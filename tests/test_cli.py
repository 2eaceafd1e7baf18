import contextlib
import copy
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import etfforge
from etfforge import certify as certify_module
from etfforge import cli
from etfforge.errors import CertificationError, ConstructionError, InvalidArgumentError
from etfforge.serialize import pair_to_obj, read_json
from etfforge.solver import require_sizable, residual_count


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("family", ["paley-plus", "double-paley-plus"])
def test_round_trip_construct_check_detect_circulantize(tmp_path, family, q):
    bundle = tmp_path / "bundle.json"
    gens = tmp_path / "gens.json"
    assert run_cli("construct", "--family", family, "--q", q, "--out", bundle) == 0
    assert run_cli("check", "--in", bundle) == 0
    assert run_cli("detect", "--in", bundle) == 0
    assert run_cli("circulantize", "--in", bundle, "--out", gens) == 0
    assert run_cli("check", "--in", gens, "--tol", "1e-8") == 0


def test_construct_double_paley_q5_embeds_pair(tmp_path):
    out = tmp_path / "dp5.json"
    assert run_cli("construct", "--family", "double-paley", "--q", 5, "--out", out) == 0
    doc = read_json(out)
    assert doc["d"] == 5 and doc["n"] == 10
    assert doc["pair"] is not None
    assert doc["pair"]["d"] == 5
    assert run_cli("check", "--in", out) == 0


def test_construct_double_paley_q7_skew_path(tmp_path):
    out = tmp_path / "dp7.json"
    assert run_cli("construct", "--family", "double-paley", "--q", 7, "--out", out) == 0
    doc = read_json(out)
    assert doc["d"] == 7 and doc["n"] == 14
    assert run_cli("check", "--in", out) == 0


def test_construct_other_families(tmp_path):
    cases = [
        (["--family", "renes-strohmer", "--q", 7], 4, 7),
        (["--family", "steiner", "--m", 2], 7, 28),
        (["--family", "family-3x6"], 3, 6),
        (["--family", "zauner-2x4"], 2, 4),
    ]
    for extra, d, n in cases:
        out = tmp_path / ("f_%d_%d.json" % (d, n))
        assert run_cli("construct", *extra, "--out", out) == 0
        doc = read_json(out)
        assert doc["d"] == d and doc["n"] == n
        assert run_cli("check", "--in", out) == 0


def test_construct_paley_plus_q17_shape(tmp_path):
    out = tmp_path / "pp17.json"
    assert run_cli("construct", "--family", "paley-plus", "--q", 17, "--out", out) == 0
    doc = read_json(out)
    assert doc["d"] == 9 and doc["n"] == 18


def test_check_flags_perturbed_bundle(tmp_path):
    out = tmp_path / "z.json"
    run_cli("construct", "--family", "zauner-2x4", "--out", out)
    doc = read_json(out)
    doc["frame"]["re"][0][0] += 1e-6
    with open(out, "w") as fh:
        json.dump(doc, fh)
    assert run_cli("check", "--in", out) == 1
    # impossible tolerance also fails
    out2 = tmp_path / "z2.json"
    run_cli("construct", "--family", "zauner-2x4", "--out", out2)
    assert run_cli("check", "--in", out2, "--tol", "0") == 1


def test_solve_then_certify_round_trip(tmp_path):
    solved = tmp_path / "s3.json"
    cert = tmp_path / "c3.json"
    assert run_cli("solve", "--d", 3, "--out", solved) == 0
    doc = read_json(solved)
    assert doc["kind"] == "circulant-generators"
    assert doc["converged"] is True
    assert run_cli("certify", "--in", solved, "--out", cert) == 0
    cdoc = read_json(cert)
    assert cdoc["verified"] is True
    assert cdoc["kernel_dim"] == 5  # ceil(3*3/2)
    assert cdoc["seed"] == doc["seed"]


def test_certify_corrupted_generators_fails(tmp_path):
    solved = tmp_path / "s3.json"
    run_cli("solve", "--d", 3, "--out", solved)
    doc = read_json(solved)
    doc["x_re"][0] += 1e-2
    bad = tmp_path / "bad.json"
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    failed = tmp_path / "failed.json"
    assert run_cli("certify", "--in", bad, "--out", failed) == 1
    fdoc = read_json(failed)
    assert fdoc["verified"] is False
    assert fdoc["reason"] == "infeasible"


def test_certify_at_d4_fails_and_names_the_exact_route(tmp_path, capsys):
    solved = tmp_path / "s4.json"
    failed = tmp_path / "f4.json"
    assert run_cli("solve", "--d", 4, "--out", solved) == 0
    capsys.readouterr()
    # Newton-Kantorovich cannot close at the stored point; the exact route
    # proves a constructed point, so certify still fails
    assert run_cli("certify", "--in", solved, "--out", failed) == 1
    hint = "d=4 is proved by exact-construction: etfforge sweep --d 4"
    out = capsys.readouterr().out
    assert out.startswith("certification failed: reason=infeasible") and hint in out
    fdoc = read_json(failed)
    assert fdoc["verified"] is False and hint in fdoc["message"]


def test_certify_hint_needs_a_construction_within_the_line_system_cap(
        tmp_path, capsys, monkeypatch):
    # d = 999 lists paley_plus at q = 1997, past the line-system cap, so
    # sweep cannot prove it either and the failure names no route
    def refuse(pair, **kwargs):
        raise CertificationError("infeasible", "injected failure")

    monkeypatch.setattr(certify_module, "certify", refuse)
    for d, hinted in ((999, False), (4, True)):
        doc = tmp_path / ("g%d.json" % d)
        with open(doc, "w") as fh:
            json.dump(pair_to_obj(d, np.full(d, 0.01), np.full(d, 0.01)), fh)
        assert run_cli("certify", "--in", doc) == 1
        out = capsys.readouterr().out
        assert out.startswith("certification failed: reason=infeasible injected failure")
        assert ("is proved by exact-construction" in out) == hinted


@pytest.mark.parametrize("field, value", [("x_re", 1e300), ("w", 1e300)])
def test_certify_refuses_a_far_point_in_one_short_line(tmp_path, capsys, field, value):
    doc = _generator_doc()
    if field == "w":
        doc["w"] = value
    else:
        doc[field][0] = value
    gens = tmp_path / "far.json"
    gens.write_text(json.dumps(doc))
    assert run_cli("certify", "--in", gens) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].startswith("certification failed: reason=infeasible point infinity norm 1.000e+300")


def test_construct_steiner_names_a_bad_m(tmp_path, capsys):
    assert run_cli("construct", "--family", "steiner", "--m", -2, "--out", tmp_path / "s.json") == 2
    assert capsys.readouterr().err == "error: m must be >= 1\n"


def test_solve_then_detect_two_circulant_structure(tmp_path):
    solved = tmp_path / "s4.json"
    assert run_cli("solve", "--d", 4, "--out", solved) == 0
    # the generator document has no witness; --m names the block size
    assert run_cli("detect", "--in", solved, "--m", 4, "--tol", "1e-8") == 0


def test_detect_wrong_block_size_fails(tmp_path):
    bundle = tmp_path / "pp5.json"
    run_cli("construct", "--family", "paley-plus", "--q", 5, "--out", bundle)
    assert run_cli("detect", "--in", bundle, "--m", 2) == 1


def test_detect_without_witness_needs_m(tmp_path):
    solved = tmp_path / "s5.json"
    run_cli("solve", "--d", 5, "--out", solved)
    assert run_cli("detect", "--in", solved) == 2


def test_solve_nonconvergence_exit(tmp_path):
    assert run_cli("solve", "--d", 12, "--max-iter", 1) == 1


def test_sweep_small_range(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--d", "2..3", "--out-dir", out_dir) == 0
    text = capsys.readouterr().out
    assert "2/2 verified" in text
    summary = read_json(out_dir / "summary.json")
    assert summary["verified_count"] == 2 and summary["total"] == 2
    for d in (2, 3):
        doc = read_json(out_dir / ("certificate_d%03d.json" % d))
        assert doc["verified"] is True
        assert doc["certificate"]["kernel_dim"] == -(-3 * d // 2)


def test_sweep_with_d4_reports_partial(tmp_path, capsys, monkeypatch):
    # d=4 is proved by the exact route, so 3..4 verifies in full
    out_dir = tmp_path / "sweep4"
    assert run_cli("sweep", "--d", "3..4", "--out-dir", out_dir) == 0
    text = capsys.readouterr().out
    assert "2/2 verified" in text
    assert "d=4 verified method=exact-construction kernel_dim=6" in text
    doc = read_json(out_dir / "certificate_d004.json")
    assert doc["verified"] is True
    assert doc["certificate"]["method"] == "exact-construction"
    summary = read_json(out_dir / "summary.json")
    assert [row["method"] for row in summary["rows"]] == [
        "newton-kantorovich", "exact-construction"]
    # an NK failure at d=11, which has no Gaussian-integer construction,
    # leaves a partial sweep
    real_certify = certify_module.certify

    def certify_failing_at_11(pair, **kwargs):
        if pair.d == 11:
            raise CertificationError("infeasible", "injected failure at d=11")
        return real_certify(pair, **kwargs)

    monkeypatch.setattr(certify_module, "certify", certify_failing_at_11)
    out_dir = tmp_path / "sweep11"
    assert run_cli("sweep", "--d", "10..11", "--jobs", 1, "--out-dir", out_dir) == 1
    text = capsys.readouterr().out
    assert "1/2 verified" in text
    doc = read_json(out_dir / "certificate_d011.json")
    assert doc["verified"] is False
    assert doc["failure_reason"] == "infeasible"


def test_sweep_writes_the_same_documents_with_one_and_two_jobs(tmp_path):
    # --jobs 2 keeps a bounded window of dimensions in a process pool and
    # takes the results in order; every document but its manifest (which
    # records the command line) is the same as with --jobs 1
    docs = {}
    for jobs in (1, 2):
        out_dir = tmp_path / ("jobs%d" % jobs)
        assert run_cli("sweep", "--d", "2..12", "--jobs", jobs, "--out-dir", out_dir) == 0
        docs[jobs] = {path.name: {k: v for k, v in read_json(path).items() if k != "manifest"}
                      for path in sorted(out_dir.iterdir())}
    assert len(docs[1]) == 12 and docs[1]["summary.json"]["verified_count"] == 11
    assert docs[1] == docs[2]


def test_sweep_verdicts_agree_on_one_and_two_blas_threads(tmp_path):
    # at d >= 39 the LM solve's bits depend on the BLAS thread count, so
    # digests are only reproducible at a fixed count; the verdicts are not
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH", "")) if p)
    rows = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env.pop("ETFFORGE_THREADS", None)
        out_dir = tmp_path / ("threads%s" % threads)
        run = subprocess.run(
            [sys.executable, "-m", "etfforge.cli", "sweep", "--d", "2..30",
             "--jobs", "1", "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr
        summary = read_json(out_dir / "summary.json")
        rows[threads] = [(row["d"], row["verified"], row["method"]) for row in summary["rows"]]
    assert len(rows["1"]) == 29
    assert rows["1"] == rows["2"]


def test_sweep_manifest_is_the_same_on_one_and_two_blas_threads(tmp_path):
    # below d = 39 the LM solve's bits do not move with the BLAS thread
    # count, so sweep --d 2..30 writes the same digests on 1 and 2
    # threads.  That was measured with the OpenBLAS 0.3.31 build numpy
    # 2.4 ships; a BLAS that splits smaller products over threads may
    # move bits at a smaller d.  The manifest hashes the --out-dir
    # string, so each run writes "out" in a working directory of its own.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH", "")) if p)
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env.pop("ETFFORGE_THREADS", None)
        cwd = tmp_path / ("threads%s" % threads)
        cwd.mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "etfforge.cli", "sweep", "--d", "2..30",
             "--jobs", "1", "--out-dir", "out"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr
        digests[threads] = read_json(cwd / "out" / "summary.json")["manifest"]["digest"]
    assert digests["1"] == digests["2"]
    assert digests["1"] == SWEEP_2_30_MANIFEST


# sha256 manifest digest of `sweep --d 2..30 --jobs 1 --out-dir out` on one
# BLAS thread: the bits of every certificate and of the summary
SWEEP_2_30_MANIFEST = "6888e7474495150874cc061e0c57d12da82c0f5e0f32154239052e3b82748f41"

README_SWEEP_MANIFEST = "fde6d318838f2b10"


def _readme_cli(argv, cwd):
    """`etfforge argv` in a fresh interpreter in cwd, on two BLAS threads
    (as the pinned certify digest)."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    env.pop("ETFFORGE_THREADS", None)
    run = subprocess.run([sys.executable, "-m", "etfforge.cli", *argv],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout.splitlines()


def _readme_examples():
    """(argv, documented stdout lines) of each `$ etfforge` line of the
    README, in order: the lines up to the next blank line or fence."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    return [(command.split(), output.splitlines()) for command, output in
            re.findall(r"^\$ etfforge (.*)\n((?:[^$`\n].*\n)*)", readme, re.M)]


def test_readme_sweep_example_prints_its_manifest(tmp_path):
    # the README's `etfforge sweep --d 2..3 --out-dir sweep23`, run as
    # written, prints the README's lines and manifest digest
    examples = dict((" ".join(argv), lines) for argv, lines in _readme_examples())
    documented = examples["sweep --d 2..3 --out-dir sweep23"]
    assert documented[-1] == "2/2 verified (manifest %s)" % README_SWEEP_MANIFEST
    assert _readme_cli(["sweep", "--d", "2..3", "--out-dir", "sweep23"], tmp_path) == documented


def test_readme_command_examples_print_their_lines(tmp_path):
    # the README's construct, detect, solve and certify lines, run in order
    # in one directory (detect reads construct's file, certify solve's),
    # print the README's lines, manifest digests included
    examples = [(argv, lines) for argv, lines in _readme_examples() if argv[0] != "sweep"]
    assert [argv[0] for argv, _ in examples] == ["construct", "detect", "solve", "certify"]
    for argv, documented in examples:
        assert _readme_cli(argv, tmp_path) == documented


def test_sweep_single_d_syntax(tmp_path):
    out_dir = tmp_path / "single"
    assert run_cli("sweep", "--d", "2", "--out-dir", out_dir) == 0
    assert (out_dir / "certificate_d002.json").exists()


def test_delta_too_small_to_move_x0_is_infeasible(tmp_path, capsys):
    # 1e-17 is below half an ulp of x0's larger coordinates (w = 0.5 among
    # them), so no secant step moves x0: certify refuses as infeasible and
    # the sweep goes on to the exact route where there is one
    assert run_cli("sweep", "--d", "2..3", "--delta=1e-17", "--out-dir", tmp_path / "a") == 0
    out = capsys.readouterr().out
    assert "d=2 verified method=exact-construction" in out
    assert "d=3 verified method=exact-construction" in out
    assert run_cli("sweep", "--d", "11..11", "--delta=1e-17", "--out-dir", tmp_path / "b") == 1
    assert "d=11 FAILED reason=infeasible" in capsys.readouterr().out
    row = read_json(tmp_path / "b" / "certificate_d011.json")
    assert "too small to move x0" in row["failure_message"]
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(_generator_doc()))
    assert run_cli("certify", "--in", gens, "--delta=1e-300") == 1
    assert capsys.readouterr().out.startswith("certification failed: reason=infeasible delta")


# manifest digests of construct: they move with any written value or its spelling
CONSTRUCT_DIGESTS = [
    (["--family", "paley-plus", "--q", "13"], "8bead54789b3c580"),
    (["--family", "double-paley-plus", "--q", "9"], "a80a4efca853cb70"),
    (["--family", "double-paley", "--q", "5"], "5bdac76d71140dbe"),
    (["--family", "double-paley", "--q", "9"], "c01de46a7f54a8cd"),
    (["--family", "double-paley", "--q", "7"], "0566766183c7091c"),
    (["--family", "renes-strohmer", "--q", "11"], "f4b316cd90341aee"),
    (["--family", "steiner", "--m", "2"], "0b4a28dba74140a8"),
    (["--family", "family-3x6"], "47d97d274c9de8f7"),
    (["--family", "zauner-2x4"], "3ac750ab5e70cea0"),
]


@pytest.mark.parametrize("flags, digest", CONSTRUCT_DIGESTS)
def test_construct_manifest_digest_pinned(tmp_path, monkeypatch, flags, digest):
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", *flags, "--out", "o.json") == 0
    assert read_json(tmp_path / "o.json")["manifest"]["digest"].startswith(digest)


def test_manifest_digest_deterministic_across_directories(tmp_path, monkeypatch):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    monkeypatch.chdir(dir_a)
    assert run_cli("solve", "--d", 3, "--seed", 1, "--out", "gen.json") == 0
    monkeypatch.chdir(dir_b)
    assert run_cli("solve", "--d", 3, "--seed", 1, "--out", "gen.json") == 0
    doc_a = read_json(dir_a / "gen.json")
    doc_b = read_json(dir_b / "gen.json")
    assert doc_a["manifest"]["digest"] == doc_b["manifest"]["digest"]
    assert doc_a["manifest"]["outputs"] == doc_b["manifest"]["outputs"]
    # everything except the wall time is reproducible
    doc_a["manifest"].pop("wall_time")
    doc_b["manifest"].pop("wall_time")
    assert doc_a == doc_b


@pytest.mark.parametrize("writer, reader", [
    (["solve", "--d", "5"], ["certify"]),
    (["construct", "--family", "paley-plus", "--q", "5"], ["circulantize"]),
])
def test_reading_command_manifest_reproduces(tmp_path, monkeypatch, capsys, writer, reader):
    # the reader's input digest is the writer's output digest, which leaves
    # out the written manifest and its wall time, so the whole pipeline
    # prints the same lines on every run
    monkeypatch.chdir(tmp_path)
    printed = []
    for _ in range(2):
        assert run_cli(*writer, "--out", "in.json") == 0
        assert run_cli(*reader, "--in", "in.json", "--out", "out.json") == 0
        printed.append(capsys.readouterr().out)
        written = read_json(tmp_path / "in.json")["manifest"]["outputs"]["in.json"]
        assert read_json(tmp_path / "out.json")["manifest"]["inputs"] == {"in.json": written}
    assert printed[0] == printed[1]
    # a key this tool never writes (NaN, nesting past what dumps can
    # emit) leaves the input without a digest, and the command runs
    doc = read_json(tmp_path / "in.json")
    doc["note"] = [math.nan, functools.reduce(lambda inner, _: [inner], range(600), [])]
    (tmp_path / "odd.json").write_text(json.dumps(doc))
    assert run_cli(*reader, "--in", "odd.json", "--out", "out.json") == 0
    assert read_json(tmp_path / "out.json")["manifest"]["inputs"] == {"odd.json": None}


def test_manifest_structure(tmp_path):
    out = tmp_path / "z.json"
    run_cli("construct", "--family", "zauner-2x4", "--out", out)
    man = read_json(out)["manifest"]
    for key in ["command", "seeds", "version", "inputs", "outputs", "wall_time", "digest"]:
        assert key in man
    assert str(out) in man["outputs"]


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("construct", "--family", "paley-plus", "--out", tmp_path / "x.json") == 2
    assert run_cli("construct", "--family", "steiner", "--out", tmp_path / "x.json") == 2
    assert run_cli("sweep", "--d", "a..b", "--out-dir", tmp_path / "s") == 2
    assert run_cli("solve", "--d", "nope") == 2
    assert run_cli("check", "--in", tmp_path / "missing.json") == 2
    assert run_cli("certify", "--in", tmp_path / "missing.json") == 2


def test_certify_needs_generator_document(tmp_path):
    out = tmp_path / "rs.json"
    run_cli("construct", "--family", "renes-strohmer", "--q", 7, "--out", out)
    assert run_cli("certify", "--in", out) == 2  # no circulant pair embedded


def test_circulantize_needs_witness(tmp_path):
    out = tmp_path / "z.json"
    run_cli("construct", "--family", "zauner-2x4", "--out", out)
    assert run_cli("circulantize", "--in", out, "--out", tmp_path / "g.json") == 2


def test_witness_m_t_must_match_its_sigma(tmp_path, capsys):
    # paley-plus q = 13: sigma has two 7-cycles, the document claims 7 2-cycles
    bundle = tmp_path / "pp13.json"
    assert run_cli("construct", "--family", "paley-plus", "--q", 13, "--out", bundle) == 0
    doc = read_json(bundle)
    assert (doc["witness"]["m"], doc["witness"]["t"]) == (7, 2)
    doc["witness"].update(m=2, t=7)
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps(doc))
    out = tmp_path / "gens.json"
    for extra in (["detect"], ["detect", "--m", 2], ["circulantize", "--out", out]):
        capsys.readouterr()
        assert run_cli(extra[0], "--in", lying, *extra[1:]) == 2
        err = capsys.readouterr().err
        assert "witness m=2, t=7 disagree with sigma: 2 cycles of lengths [7]" in err
    assert not out.exists()


def test_circulantize_refuses_a_witness_of_four_cycles(tmp_path, capsys):
    # steiner m = 2: a 7 x 28 frame of four circulant blocks, witnessed by
    # the shift inside each block
    payload, _ = cli._build_construction("steiner", None, 2, None)
    i = np.arange(28)
    payload["witness"] = {"sigma": (i - i % 7 + (i + 1) % 7).tolist(), "c_re": [1.0] * 28,
                          "c_im": [0.0] * 28, "m": 7, "t": 4}
    bundle = tmp_path / "steiner.json"
    bundle.write_text(json.dumps(payload))
    out = tmp_path / "gens.json"
    assert run_cli("detect", "--in", bundle) == 0
    assert "reindexed through 4 cycles of length 7" in capsys.readouterr().out
    assert run_cli("circulantize", "--in", bundle, "--out", out) == 2
    assert "needs a witness of 2 cycles, got 4" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_family_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("construct", "--family", "mystery", "--out", tmp_path / "x.json")
    assert err.value.code == 2


def test_threads_env_controls_jobs(tmp_path, monkeypatch):
    monkeypatch.setenv("ETFFORGE_THREADS", "2")
    out_dir = tmp_path / "par"
    assert run_cli("sweep", "--d", "2..3", "--out-dir", out_dir) == 0
    monkeypatch.setenv("ETFFORGE_THREADS", "zero")
    assert run_cli("sweep", "--d", "2..2", "--out-dir", tmp_path / "x") == 2
    monkeypatch.setenv("ETFFORGE_THREADS", "0")
    assert run_cli("sweep", "--d", "2..2", "--out-dir", tmp_path / "y") == 2


def test_construction_invariant_failure_exits_3(tmp_path, monkeypatch):
    from etfforge import constructions

    def boom():
        raise ConstructionError("synthetic invariant failure")

    monkeypatch.setattr(constructions, "zauner_2x4_signature", boom)
    assert run_cli("construct", "--family", "zauner-2x4", "--out", tmp_path / "x.json") == 3


def test_check_accepts_generator_documents(tmp_path):
    solved = tmp_path / "s6.json"
    run_cli("solve", "--d", 6, "--out", solved)
    assert run_cli("check", "--in", solved, "--tol", "1e-10") == 0


@pytest.mark.parametrize("command", ["check", "certify", "detect", "circulantize"])
def test_non_object_json_exits_2_without_traceback(tmp_path, capsys, command):
    doc = tmp_path / "list.json"
    doc.write_text("[1, 2]")
    extra = ["--out", tmp_path / "out.json"] if command == "circulantize" else []
    assert run_cli(command, "--in", doc, *extra) == 2
    err = capsys.readouterr().err
    assert "must be an object" in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", [0, -3])
def test_nonpositive_jobs_exits_2(tmp_path, capsys, jobs):
    out_dir = tmp_path / "s"
    assert run_cli("sweep", "--d", "2..2", "--jobs", jobs, "--out-dir", out_dir) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_empty_range_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "s"
    assert run_cli("sweep", "--d", "5..3", "--out-dir", out_dir) == 2
    assert "empty" in capsys.readouterr().err
    assert not out_dir.exists()


FLAG_REFUSALS = [(cmd, "--tol", value, "--tol must be finite and >= 0")
                 for cmd in ("check", "detect", "circulantize", "solve", "sweep")
                 for value in ("nan", "inf", "-inf", "-1e-9")]
FLAG_REFUSALS += [(cmd, flag, value, message)
                  for cmd in ("solve", "sweep")
                  for flag, value, message in (("--seed", -1, "--seed must be >= 0"),
                                               ("--max-iter", 0, "--max-iter must be >= 1"))]
FLAG_REFUSALS += [(cmd, "--delta", value, "--delta must be finite with 0 < delta < 1")
                  for cmd in ("certify", "sweep")
                  for value in ("nan", "inf", "0", "1", "-1e-9")]
# the paley-plus q = 5 Gram has order 6
FLAG_REFUSALS += [("detect", "--m", value, "--m must be a positive divisor of the Gram order 6")
                  for value in (0, -1, 4, 7)]


@pytest.mark.parametrize("command, flag, value, message", FLAG_REFUSALS)
def test_out_of_range_flags_exit_2_without_traceback(tmp_path, capsys, command, flag, value, message):
    bundle = tmp_path / "pp5.json"
    assert run_cli("construct", "--family", "paley-plus", "--q", 5, "--out", bundle) == 0
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(_generator_doc()))
    out = tmp_path / "out"
    rest = {
        "check": ["--in", bundle],
        "certify": ["--in", gens, "--out", out],
        "detect": ["--in", bundle],
        "circulantize": ["--in", bundle, "--out", out],
        "solve": ["--d", 3, "--out", out],
        "sweep": ["--d", "2..2", "--out-dir", out],
    }[command]
    capsys.readouterr()
    # "--tol=-inf": argparse takes a bare "-inf" for an option name
    assert run_cli(command, *rest, "%s=%s" % (flag, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def _generator_doc():
    from etfforge.solver import solve

    return solve(3, seed=0).to_obj()


def _gram_only_construction_doc():
    payload, _ = cli._build_construction("paley-plus", 5, None, None)
    return dict(payload, frame=None, pair=None)


MALFORMED_DOCUMENTS = {
    # JSON 1e400 parses to inf, and int(inf) overflows
    "d_1e400": (_generator_doc, {"d": "1e400"}, "malformed generator JSON"),
    "w_text": (_generator_doc, {"w": '"q"'}, "'w'"),
    "w_null": (_generator_doc, {"w": "null"}, "'w'"),
    "w_inf": (_generator_doc, {"w": "Infinity"}, "'w' must be finite"),
    "w_minus_inf": (_generator_doc, {"w": "-Infinity"}, "'w' must be finite"),
    # finite, but 4*w overflows
    "w_1e308": (_generator_doc, {"w": "1e308"}, "'w' must be finite"),
    "seed_text": (_generator_doc, {"seed": '"s"'}, "'seed'"),
    "gram_d_text": (_gram_only_construction_doc, {"d": '"x"'}, "'d'"),
    "nan_entry": (_generator_doc, {"x_re": "[NaN, 0.5, 0.5]"}, "non-finite"),
    # finite entries whose Gram overflows when it is formed
    "huge_entries": (_generator_doc, {"x_re": "[1e308, 1e308, 1e308]",
                                      "y_re": "[1e308, 1e308, 1e308]"}, "overflows"),
    # a length-1 part would broadcast against its length-d partner
    "x_re_length_1": (_generator_doc, {"x_re": "[0.5]"}, "length disagrees"),
    "pair_text": (_gram_only_construction_doc, {"pair": '"a"'}, "expected an object"),
    # refused as it is read, before the scalars are formed
    "witness_nan": (_gram_only_construction_doc, {"witness": (
        '{"sigma": [1, 2, 0, 4, 5, 3], "c_re": [NaN, 1, 1, 1, 1, 1],'
        ' "c_im": [0, 0, 0, 0, 0, 0], "m": 3, "t": 2}')}, "non-finite"),
    # nested past the interpreter's recursion limit: json raises RecursionError
    "kind_deep": (_generator_doc, {"kind": "[" * 100000 + "]" * 100000}, "cannot read"),
}


@pytest.mark.parametrize("case, command", [
    ("d_1e400", "check"),
    ("d_1e400", "certify"),
    ("d_1e400", "detect"),
    ("d_1e400", "circulantize"),
    ("w_text", "certify"),
    ("w_null", "certify"),
    ("w_inf", "certify"),
    ("w_minus_inf", "certify"),
    ("w_1e308", "certify"),
    ("seed_text", "certify"),
    ("gram_d_text", "check"),
    ("nan_entry", "detect"),
    ("huge_entries", "detect"),
    ("huge_entries", "check"),
    ("x_re_length_1", "certify"),
    ("pair_text", "check"),
    ("pair_text", "certify"),
    ("witness_nan", "detect"),
    ("witness_nan", "circulantize"),
    ("kind_deep", "check"),
    ("kind_deep", "certify"),
    ("kind_deep", "detect"),
    ("kind_deep", "circulantize"),
])
def test_malformed_document_exits_2_without_traceback(tmp_path, capsys, case, command):
    build, fields, message = MALFORMED_DOCUMENTS[case]
    doc = build()
    # each field is spliced in as raw JSON text, which json.dumps cannot write
    doc.update({key: "@%s@" % key for key in fields})
    text = json.dumps(doc)
    for key, raw in fields.items():
        text = text.replace('"@%s@"' % key, raw)
    path = tmp_path / "doc.json"
    path.write_text(text)
    extra = {"detect": ["--m", 1], "circulantize": ["--out", tmp_path / "out.json"]}
    assert run_cli(command, "--in", path, *extra.get(command, [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def _cli_subprocess(*argv, code=None):
    """Run `python -m etfforge.cli argv` (or `python -c code argv`) on this
    checkout's src/; returns the CompletedProcess."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH", "")) if p)
    head = ["-c", code] if code is not None else ["-m", "etfforge.cli"]
    return subprocess.run([sys.executable, *head, *[str(a) for a in argv]],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_non_finite_witness_scalar_is_refused_before_any_arithmetic(tmp_path):
    # an infinite c_im once reached c_re + 1j * c_im, and numpy warned on
    # stderr before the refusal; the only stderr line is the refusal now
    bundle = tmp_path / "pp5.json"
    assert run_cli("construct", "--family", "paley-plus", "--q", 5, "--out", bundle) == 0
    doc = read_json(bundle)
    doc["witness"]["c_im"][0] = math.inf
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command, extra in (("detect", []), ("circulantize", ["--out", tmp_path / "out.json"])):
        run = _cli_subprocess(command, "--in", bad, *extra)
        assert run.returncode == 2, run.stderr
        assert run.stderr.splitlines() == ["error: witness JSON has non-finite entries"]
    assert not (tmp_path / "out.json").exists()


def test_solve_too_large_to_allocate_exits_2(capsys, monkeypatch):
    # d = 10^15: its Jacobian has more bytes than numpy can size, so it is
    # refused before anything is allocated
    assert run_cli("solve", "--d", 10 ** 15) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: d = 1000000000000000 is too large") and len(err.splitlines()) == 1
    # an allocation that fails is still a one-line exit 2
    def out_of_memory(d, **kwargs):
        raise MemoryError("Unable to allocate 8.00 PiB")

    monkeypatch.setattr("etfforge.solver.solve", out_of_memory)
    assert run_cli("solve", "--d", 6) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_a_d_numpy_cannot_size_is_refused_before_any_allocation(tmp_path, capsys):
    # refused by the size bound, not by numpy's ValueError ("Maximum
    # allowed dimension exceeded"); a sweep checks its range's hi before
    # it lists the range
    huge = "99999999999999999999"
    for argv in (["solve", "--d", huge],
                 ["sweep", "--d", "%s..%s" % (huge, huge), "--out-dir", tmp_path / "x"]):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: d = %s is too large: its 249999999999999999998 x 399999999999999999996"
            " float64 Jacobian exceeds numpy's largest array" % huge]
    assert not (tmp_path / "x").exists()
    # the bound is where residual_count(d) x 4d float64 outgrows np.intp
    largest = 339546978
    assert residual_count(largest) * 4 * largest * 8 <= np.iinfo(np.intp).max
    require_sizable(largest)
    with pytest.raises(InvalidArgumentError, match="too large"):
        require_sizable(largest + 1)


SCIPY_GUARD = """
import importlib, os, pkgutil, sys
import etfforge
from etfforge import cli
for info in pkgutil.iter_modules(etfforge.__path__):
    importlib.import_module("etfforge." + info.name)
tmp = sys.argv[1]
bundle, gens, solved, cert, sweep = (os.path.join(tmp, name) for name in (
    "pp5.json", "gens.json", "s3.json", "c3.json", "sweep"))
codes = [cli.main(argv) for argv in (
    ["construct", "--family", "paley-plus", "--q", "5", "--out", bundle],
    ["check", "--in", bundle],
    ["detect", "--in", bundle],
    ["circulantize", "--in", bundle, "--out", gens],
    ["solve", "--d", "3", "--out", solved],
    ["certify", "--in", solved, "--out", cert],
    ["sweep", "--d", "2..3", "--jobs", "1", "--out-dir", sweep],
)]
assert codes == [0] * 7, codes
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
pools = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
               or m.startswith("concurrent.futures"))
assert not pools, pools
"""


def test_no_command_loads_scipy(tmp_path):
    # every module, and every command certify and sweep included, runs on
    # numpy alone; and with --jobs 1 no process pool is loaded
    run = _cli_subprocess(tmp_path, code=SCIPY_GUARD)
    assert run.returncode == 0, run.stdout + run.stderr


# Malformed-document fuzzing.  A mutation is (path, value): value replaces
# the entry at path (dict keys and list indices), or _DROP deletes it.  A
# case is a valid document, mutations that spoil fields the listed
# commands must read, and a little noise on other top-level keys; each
# listed command has to refuse it with exit 1 or 2, never a traceback.
_DROP = object()
_LETTERS = st.text(alphabet="abcxyz", max_size=4)  # never int()- or float()-able
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JUNK = st.one_of(
    st.none(),
    _LETTERS,
    _NON_FINITE,
    st.lists(_LETTERS, min_size=1, max_size=3),
    st.dictionaries(_LETTERS, st.integers(-3, 3), min_size=1, max_size=2),
)
_JUNK_OR_DROP = st.one_of(st.just(_DROP), _JUNK)
ALL_COMMANDS = ("check", "detect", "circulantize", "certify")


def _not_int(value):
    """A value int() rejects or reads as an integer other than value,
    huge and negative ones included; or the key dropped."""
    return st.one_of(
        _JUNK_OR_DROP,
        st.integers(-10 ** 30, 10 ** 30).filter(lambda k: k != value),
        st.just(10 ** 400),
    )


def _bad_vector(length):
    """Junk, a list of the wrong length, or one with a non-finite entry."""
    wrong_length = st.lists(_FLOATS, max_size=2 * length).filter(lambda v: len(v) != length)
    non_finite = st.tuples(
        st.lists(_FLOATS, min_size=length, max_size=length),
        st.integers(0, length - 1),
        _NON_FINITE,
    ).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
    return st.one_of(_JUNK_OR_DROP, wrong_length, non_finite)


def _bad_matrix(name, mat):
    """One mutation that breaks the matrix payload doc[name]."""
    rows, cols = mat["rows"], mat["cols"]
    grid = st.sampled_from(["re", "im"])
    return st.one_of(
        st.tuples(st.just((name,)), _JUNK_OR_DROP),
        st.tuples(st.sampled_from([(name, "rows"), (name, "cols")]), _not_int(rows)),
        st.tuples(grid.map(lambda g: (name, g)), _bad_vector(rows)),
        st.tuples(st.tuples(st.just(name), grid, st.integers(0, rows - 1)), _bad_vector(cols)),
    )


def _generator_doc_pair_broken(doc):
    d = doc["d"]
    return st.one_of(
        st.tuples(st.just(("kind",)), _JUNK_OR_DROP),
        st.tuples(st.just(("d",)), _not_int(d)),
        st.tuples(st.just(("t",)), _not_int(2).filter(lambda v: v is not _DROP)),
        st.tuples(st.sampled_from([("x_re",), ("x_im",), ("y_re",), ("y_im",)]), _bad_vector(d)),
    ).map(lambda m: [m])


def _construction_doc_frame_broken(doc):
    # check reads the frame first and detect the Gram, each falling back
    # on the other, so both are broken
    kind = st.tuples(st.just(("kind",)), _JUNK_OR_DROP).map(lambda m: [m])
    both = st.tuples(_bad_matrix("frame", doc["frame"]), _bad_matrix("gram", doc["gram"]))
    return st.one_of(kind, both.map(list))


def _construction_doc_rank_broken(doc):
    # with no frame, check factors the Gram at the document's d
    return _not_int(doc["d"]).map(lambda v: [(("frame",), _DROP), (("d",), v)])


def _construction_doc_witness_broken(doc):
    n = len(doc["witness"]["sigma"])
    sigma = doc["witness"]["sigma"]
    return st.one_of(
        st.tuples(st.just(("witness",)), _JUNK_OR_DROP),
        st.tuples(st.just(("witness", "sigma")), st.one_of(
            _JUNK_OR_DROP,
            st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=n + 2).filter(lambda s: s != sigma),
        )),
        st.tuples(st.sampled_from([("witness", "c_re"), ("witness", "c_im")]), _bad_vector(n)),
        st.tuples(st.sampled_from([("witness", "m"), ("witness", "t")]), _JUNK_OR_DROP),
    ).map(lambda m: [m])


def _generator_doc_scalars_broken(doc):
    return st.tuples(st.sampled_from([("w",), ("seed",)]), _JUNK).map(lambda m: [m])


@functools.lru_cache(maxsize=None)
def _fuzz_bases():
    from etfforge.certify import certify

    generators = _generator_doc()
    construction, _ = cli._build_construction("paley-plus", 5, None, None)
    construction = json.loads(json.dumps(construction))
    pair, _ = cli._pair_from_payload(generators)
    certificate = json.loads(json.dumps(certify(pair, seed=0).to_obj()))
    return [
        (generators, _generator_doc_pair_broken, ALL_COMMANDS),
        (construction, _construction_doc_frame_broken, ALL_COMMANDS),
        (construction, _construction_doc_rank_broken, ("check",)),
        (construction, _construction_doc_witness_broken, ("circulantize",)),
        (generators, _generator_doc_scalars_broken, ("certify",)),
        # no command reads a certificate, whatever its fields hold
        (certificate, lambda doc: st.just([]), ALL_COMMANDS),
    ]


def _mutate(doc, mutations):
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value is _DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation already replaced the parent
    return doc


@st.composite
def _malformed_cases(draw):
    base, breaker, commands = draw(st.sampled_from(_fuzz_bases()))
    mutations = draw(breaker(base))
    spoiled = {path[0] for path, _ in mutations}
    others = sorted(key for key in base if key not in spoiled)
    noise = draw(st.lists(st.tuples(st.sampled_from(others).map(lambda k: (k,)), _JUNK_OR_DROP),
                          max_size=2))
    return _mutate(base, mutations + noise), commands


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_malformed_cases())
def test_fuzzed_malformed_documents_exit_1_or_2_without_traceback(case):
    doc, commands = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        extra = {"detect": ["--m", "3"], "circulantize": ["--out", os.path.join(tmp, "out.json")]}
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--in", path, *extra.get(command, [])])
            assert code in (1, 2), (command, code, out.getvalue(), err.getvalue())
            assert "Traceback" not in err.getvalue()
