"""Command-line interface: outputs, exit codes, seeds, guards."""

import json
import os
import subprocess
import sys

import pytest

import entrokit
from entrokit.cli import main

pytestmark = pytest.mark.usefixtures("outdir")


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROKIT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_enumerate_json(outdir):
    assert main(["enumerate", "--d", "2", "--n", "2"]) == 0
    records = read_lines(outdir / "corpus_d2_n2.json")
    assert len(records) == 31
    rec = records[0]
    assert set(rec) == {"index", "d", "n", "generators", "quantum", "classical"}
    assert len(rec["quantum"]["entries"]) == 3
    # records are assembled from serialized blocks: each line must be the sorted-key dump
    with open(outdir / "corpus_d2_n2.json") as fh:
        for line in fh:
            assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"


def test_enumerate_guard(outdir, capsys):
    assert main(["enumerate", "--d", "7", "--n", "5"]) == 2
    assert "guard" in capsys.readouterr().err


def test_verify_pass_and_fail(outdir):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    assert main(["verify", "--corpus", corpus, "--family", "ssa"]) == 0
    report = read_lines(outdir / "report.json")[0]
    assert report["passed"] and report["states_checked"] == 31
    # monotonicity fails on quantum vectors but holds classically
    assert main(["verify", "--corpus", corpus, "--family", "monotonicity"]) == 1
    assert main(["verify", "--corpus", corpus, "--family", "monotonicity", "--kind", "classical"]) == 0


def test_verify_balanced_only_drops_unbalanced(outdir, capsys):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    # every monotonicity instance is unbalanced, so nothing is left
    assert main(["verify", "--corpus", corpus, "--family", "monotonicity", "--balanced-only"]) == 2
    assert "no inequalities" in capsys.readouterr().err


def test_verify_inequality_file(outdir):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    path = outdir / "ineqs.json"
    path.write_text('{"n": 2, "name": "ssa", "nu": {"1": 1, "2": 1, "3": -1}}\n')
    assert main(["verify", "--corpus", corpus, "--inequality", str(path)]) == 0


def test_verify_rejects_mixed_corpus(outdir, capsys):
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    assert main(["enumerate", "--d", "2", "--n", "1", "--out", str(outdir / "small.json")]) == 0
    with open(corpus, "a") as fh:
        fh.write((outdir / "small.json").read_text().splitlines()[0] + "\n")
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reports_every_state_of_a_shared_vector(outdir):
    # two records with one vector but different index and generators: the
    # vector is evaluated once, and the report lists violations for both states
    from entrokit import inequalities as ineq
    from entrokit.cli import _corpus_vectors

    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    # |M_1| = |M_2| = 1 and |M| = 4: maximally entangled, so S_1 = 1 > S_12 = 0
    entangled = [line for line in lines if [e["order"] for e in json.loads(line)["quantum"]["entries"]] == [1, 1, 4]]
    twins, other = entangled[:2], lines[0]
    corpus.write_text("\n".join([twins[0], other, twins[1]]) + "\n")
    first, third = json.loads(twins[0]), json.loads(twins[1])
    assert first["index"] != third["index"] and first["generators"] != third["generators"]
    assert main(["verify", "--corpus", str(corpus), "--family", "monotonicity"]) == 1
    report = read_lines(outdir / "report.json")[0]
    vectors = list(_corpus_vectors(str(corpus), "quantum"))
    assert vectors[0] is vectors[2]
    expected = [
        {"state": k, "inequality": q.name, "lhs": str(lhs), "rhs": str(rhs)}
        for k, vec in enumerate(vectors)
        for q in ineq.instances("monotonicity", 2)
        for ok, lhs, rhs in [ineq.evaluate_exact(q, vec)]
        if not ok
    ]
    assert report["violations"] == expected
    states = [v["state"] for v in expected]
    assert 0 in states and 2 in states and states == sorted(states)


def test_verify_rejects_inequality_arity_mismatch(outdir, capsys):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    path = outdir / "ineqs.json"
    path.write_text('{"n": 3, "name": "ssa", "nu": {"1": 1, "2": 1, "3": -1}}\n')
    assert main(["verify", "--corpus", corpus, "--inequality", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: rec["quantum"]["entries"].pop(1),
        lambda rec: rec.pop("quantum"),
        lambda rec: rec["quantum"]["entries"][0].update(order=0),
        lambda rec: rec["quantum"]["entries"][0].update(order=10**30),
        lambda rec: '{"d": 2, ' + json.dumps(rec)[1:],
        lambda rec: rec["quantum"]["entries"][0].update(mask=True),
        lambda rec: rec["classical"]["entries"][0].update(size=True),
        lambda rec: rec["classical"]["entries"][0].update(order=2 * rec["classical"]["entries"][0]["order"]),
        lambda rec: next(e for e in rec["quantum"]["entries"] if e["mask"] == 3).update(order=3),
    ],
    ids=[
        "missing-entry",
        "missing-quantum",
        "order-0",
        "order-1e30",
        "repeated-d",
        "bool-mask",
        "bool-size",
        "classical-breaks-identity",
        "quantum-not-a-divisor",
    ],
)
def test_verify_rejects_malformed_record(outdir, capsys, edit):
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    rec = json.loads(lines[5])
    edited = edit(rec)  # a str is the whole new line
    lines[5] = edited if isinstance(edited, str) else json.dumps(rec)
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err.startswith("error: record 5: ")
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize(
    "line",
    [
        '{"n": 2, "nu": {"1": 0.5, "3": -1}}',
        '{"n": "2", "nu": {"1": 1, "3": -1}}',
        '{"n": 2, "nu": [1, 2]}',
        "[1, 2]",
        '{"n": 2, "nu": {"1": true, "3": -1}}',
        '{"n": 2, "nu": {"x": 1, "3": -1}}',
        '{"n": 0, "nu": {"1": 1}}',
        '{"n": 2, "nu": {"1": 1, "01": 1, "3": -1}}',
        '{"n": 2, "nu": {"1": -5, "2": 1, "3": -1, "1": 1}}',
    ],
    ids=[
        "float-coefficient",
        "string-n",
        "list-nu",
        "bare-list",
        "bool-coefficient",
        "bad-mask",
        "n-0",
        "repeated-mask",
        "repeated-key",
    ],
)
def test_verify_rejects_malformed_inequality(outdir, capsys, line):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    path = outdir / "ineqs.json"
    path.write_text('{"n": 2, "name": "ssa", "nu": {"1": 1, "2": 1, "3": -1}}\n' + line + "\n")
    capsys.readouterr()
    assert main(["verify", "--corpus", corpus, "--inequality", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: inequality 1: ")
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize(
    "line",
    [
        '{"n": 2, "nu": {"1_0": 1, "3": -1}}',
        '{"n": 2, "nu": {" 3 ": 1, "1": -1}}',
        '{"n": 2, "nu": {"\u0663": 1, "1": -1}}',
        '{"n": 2, "nu": {"01": 1, "3": -1}}',
        '{"n": 2, "nu": {"+1": 1, "3": -1}}',
        '{"n": 2, "nu": {"": 1, "3": -1}}',
        '{"n": 2, "name": ["ssa"], "nu": {"1": 1, "2": 1, "3": -1}}',
        '{"n": 2, "name": {"a": 1}, "nu": {"1": 1, "2": 1, "3": -1}}',
        '{"n": 2, "name": null, "nu": {"1": 1, "2": 1, "3": -1}}',
        '{"n": 2, "name": 7, "nu": {"1": 1, "2": 1, "3": -1}}',
    ],
    ids=[
        "underscore-mask",
        "spaced-mask",
        "arabic-indic-mask",
        "leading-zero-mask",
        "signed-mask",
        "empty-mask",
        "list-name",
        "object-name",
        "null-name",
        "int-name",
    ],
)
def test_verify_rejects_non_canonical_inequality(outdir, capsys, line):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    path = outdir / "ineqs.json"
    path.write_text(line + "\n")
    capsys.readouterr()
    assert main(["verify", "--corpus", corpus, "--inequality", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: inequality 0: ")
    assert not (outdir / "report.json").exists()


def test_enumerate_builds_no_complement(outdir, monkeypatch):
    # classical orders come from the order identity, so the pipeline needs no M_perp
    import entrokit.phasespace as phsp

    calls = []
    complement = phsp.symplectic_complement
    monkeypatch.setattr(phsp, "symplectic_complement", lambda ps, M: calls.append(M) or complement(ps, M))
    assert main(["enumerate", "--d", "2", "--n", "2"]) == 0
    assert len(read_lines(outdir / "corpus_d2_n2.json")) == 31
    assert calls == []


@pytest.mark.parametrize("d,n,states,chains", [(2, 3, 514, 3), (4, 2, 517, 2)])
def test_enumerate_makes_one_kernel_run_per_state(outdir, monkeypatch, d, n, states, chains):
    # one subsystem_orders run on M per state: C(n, floor(n/2)) chain orders, the
    # identity's HNF being M.basis itself
    import entrokit.zmod as zmod

    calls = []
    hermite = zmod._hermite_rows
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: calls.append(a) or hermite(*a))
    assert main(["enumerate", "--d", str(d), "--n", str(n)]) == 0
    assert len(read_lines(outdir / f"corpus_d{d}_n{n}.json")) == states
    assert len(calls) == states * (chains - 1)


def test_verify_missing_corpus(outdir, capsys):
    assert main(["verify", "--corpus", str(outdir / "nope.json"), "--family", "ssa"]) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_check(outdir):
    assert main(["oracle-check", "--d", "2", "--n", "1"]) == 0
    report = read_lines(outdir / "oracle_check_d2_n1.json")[0]
    assert report["passed"] and report["states"] == 4
    # d = 6 holds a state whose generators' +1 eigenspaces are disjoint
    assert main(["oracle-check", "--d", "6", "--n", "1"]) == 0
    report = read_lines(outdir / "oracle_check_d6_n1.json")[0]
    assert report["passed"] and report["states"] == 20
    assert main(["oracle-check", "--d", "5", "--n", "6"]) == 2  # dense guard


def test_oracle_check_fails_cleanly_on_a_state_it_cannot_validate(outdir, monkeypatch, capsys):
    import numpy as np

    from entrokit import oracle

    # the zero matrix in place of every projector: rho = P / tr P cannot be formed
    monkeypatch.setattr(oracle, "projector", lambda states: np.zeros((len(states), 9, 9), dtype=complex))
    out = outdir / "o.json"
    assert main(["oracle-check", "--d", "3", "--n", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: projector has zero trace\n"
    assert not out.exists()


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (4, 2)])
def test_oracle_check_report_does_not_depend_on_chunking(outdir, monkeypatch, d, n):
    from entrokit import oracle

    assert main(["oracle-check", "--d", str(d), "--n", str(n), "--out", "default.json"]) == 0
    sizes = []
    cross_check = oracle.cross_check
    monkeypatch.setattr(oracle, "cross_check", lambda states: sizes.append(len(states)) or cross_check(states))
    per_state = 16 * d * d ** (2 * n)  # bytes of one state's d Weyl powers
    for size in (1, 7):
        monkeypatch.setattr(oracle, "CHUNK_BYTES", size * per_state)
        sizes.clear()
        assert main(["oracle-check", "--d", str(d), "--n", str(n), "--out", f"chunk{size}.json"]) == 0
        assert set(sizes[:-1]) == {size} and 0 < sizes[-1] <= size
        assert (outdir / f"chunk{size}.json").read_bytes() == (outdir / "default.json").read_bytes()


def test_gaussian_verify(outdir):
    assert main(["gaussian", "verify", "--n", "2", "--trials", "5", "--seed", "1"]) == 0
    report = read_lines(outdir / "gaussian_verify.json")[0]
    assert report["passed"] and report["max_error"] < 1e-10


def test_gaussian_mc(outdir):
    assert main(["gaussian", "mc", "--fixture", "thermal", "--samples", "100000", "--seed", "2"]) == 0
    report = read_lines(outdir / "gaussian_mc.json")[0]
    assert report["passed"]
    assert abs(report["estimate"] - report["exact"]) <= max(3 * report["stderr"], 0.01 * abs(report["exact"]))
    assert main(["gaussian", "mc", "--fixture", "bogus", "--samples", "100000", "--seed", "2"]) == 2


def test_gaussian_ingleton_search(outdir):
    assert main(["gaussian", "ingleton-search", "--seed", "11", "--iters", "3000"]) == 0
    report = read_lines(outdir / "gaussian_ingleton-search.json")[0]
    assert report["found"] and report["ingleton_value"] < -1e-6


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    code = "import sys, entrokit.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_seed_is_required(outdir):
    assert main(["gaussian", "mc", "--fixture", "vacuum"]) == 2
    assert main(["gaussian", "ingleton-search"]) == 2
    assert main(["gaussian", "verify"]) == 2


def test_bad_arguments(outdir, capsys):
    assert main(["enumerate", "--d", "1", "--n", "1"]) == 2
    assert main(["enumerate", "--d", "2", "--n", "0"]) == 2
    assert main(["gaussian", "mc", "--samples", "-5", "--seed", "1"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["gaussian", "ingleton-search", "--seed", "1", "--iters", "10", "--strategy", "bogus"]) == 2
    assert "unknown strategy 'bogus'" in capsys.readouterr().err
    assert main(["gaussian", "mc", "--samples", "5000", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: need at least 10^4 samples")
    for argv in (
        ["gaussian", "verify", "--n", "1", "--trials", "1", "--seed", "-1"],
        ["gaussian", "mc", "--samples", "10000", "--seed", "-1"],
        ["gaussian", "ingleton-search", "--seed", "-3", "--iters", "10"],
    ):
        assert main(argv + ["--out", str(outdir / "neg.json")]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
    # no rc-2 path leaves a report behind
    assert not list(outdir.iterdir())
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    bad = str(outdir / "missing" / "x.json")
    for argv in (
        ["enumerate", "--d", "2", "--n", "1"],
        ["verify", "--corpus", corpus, "--family", "ssa"],
        ["oracle-check", "--d", "2", "--n", "1"],
        ["gaussian", "verify", "--n", "1", "--trials", "1", "--seed", "1"],
        ["gaussian", "mc", "--samples", "10000", "--seed", "1"],
        ["gaussian", "ingleton-search", "--seed", "1", "--iters", "10"],
    ):
        capsys.readouterr()
        assert main(argv + ["--out", bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_oracle_check_opens_out_before_the_work(outdir, monkeypatch, capsys):
    from entrokit import oracle

    calls = []
    monkeypatch.setattr(oracle, "cross_check", lambda states: calls.append(states) or {})
    assert main(["oracle-check", "--d", "4", "--n", "2", "--out", str(outdir / "missing" / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_verify_opens_out_before_the_work(outdir, monkeypatch, capsys):
    from entrokit import inequalities

    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    calls = []
    monkeypatch.setattr(inequalities, "verify_batch", lambda *a: calls.append(a))
    bad = str(outdir / "missing" / "x.json")
    assert main(["verify", "--corpus", corpus, "--family", "ssa", "--out", bad]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_verify_refuses_to_overwrite_its_input(outdir, capsys):
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    before = corpus.read_text()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa", "--out", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert corpus.read_text() == before


def test_output_dir_env_respected(outdir, tmp_path_factory):
    other = tmp_path_factory.mktemp("elsewhere")
    os.environ["ENTROKIT_OUTPUT_DIR"] = str(other)
    try:
        assert main(["enumerate", "--d", "2", "--n", "1"]) == 0
        assert (other / "corpus_d2_n1.json").exists()
    finally:
        os.environ["ENTROKIT_OUTPUT_DIR"] = str(outdir)
