"""Command-line interface: outputs, exit codes, seeds, guards."""

import json
import os
import subprocess
import sys

import pytest
from conftest import reference_pair

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


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "3", "--n", "3000000"],
        ["oracle-check", "--d", "2", "--n", "20000"],
        ["verify", "--corpus", "huge.json", "--family", "ssa"],
    ],
    ids=["enumerate", "oracle-check", "verify"],
)
def test_a_huge_size_is_one_guard_error_line(outdir, capsys, argv):
    # d^(2n) at d = 3, n = 3 000 000 has far more than the 4 300 digits an int may print with
    record = {"classical": {}, "d": 3, "generators": [], "index": 0, "n": 3000000, "quantum": {}}
    (outdir / "huge.json").write_text(json.dumps(record) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "guard" in err
    assert os.listdir(outdir) == ["huge.json"]


def test_a_guard_error_leaves_an_existing_out_untouched(outdir, capsys):
    out = outdir / "kept.json"
    out.write_text("kept\n")
    for argv in (["enumerate", "--d", "7", "--n", "5"], ["oracle-check", "--d", "5", "--n", "6"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert "guard" in capsys.readouterr().err
        assert out.read_text() == "kept\n"


def test_verify_pass_and_fail(outdir):
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    assert main(["verify", "--corpus", corpus, "--family", "ssa"]) == 0
    report = read_lines(outdir / "report.json")[0]
    assert report["passed"] and report["states_checked"] == 31
    # monotonicity fails on quantum vectors but holds classically
    assert main(["verify", "--corpus", corpus, "--family", "monotonicity"]) == 1
    assert main(["verify", "--corpus", corpus, "--family", "monotonicity", "--kind", "classical"]) == 0


def test_verify_prints_an_exact_min_slack(outdir):
    # log(lhs) - log(rhs) over log 2 read 1.9999999999999998 for the exact slack of 2
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", corpus]) == 0
    assert main(["verify", "--corpus", corpus, "--family", "weak_monotonicity", "--kind", "classical"]) == 0
    with open(outdir / "report.json") as fh:
        assert '"min_slack": 2.0,' in fh.read()


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


@pytest.mark.parametrize(
    "choice,message",
    [
        ([], "one of the arguments --family --inequality is required"),
        (["--family", "ssa", "--inequality", "ineqs.json"], "argument --inequality: not allowed with argument --family"),
    ],
    ids=["neither", "both"],
)
def test_verify_takes_exactly_one_of_family_and_inequality(outdir, capsys, choice, message):
    # argparse exits 2 before --out is opened: no report is left behind
    corpus = str(outdir / "corpus.json")
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", corpus]) == 0
    (outdir / "ineqs.json").write_text('{"n": 2, "name": "ssa", "nu": {"1": 1, "2": 1, "3": -1}}\n')
    capsys.readouterr()
    assert main(["verify", "--corpus", corpus, *choice, "--out", str(outdir / "report.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


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
        for ok, lhs, rhs in [reference_pair(q, vec)]
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
        lambda rec: rec["quantum"]["entries"].reverse(),
        lambda rec: rec["quantum"]["entries"][0].update(z=0),
        lambda rec: rec["classical"].update(z=0),
        lambda rec: rec["quantum"]["entries"][0].update(entropy_log_d=7.5),
        lambda rec: rec["quantum"].update(kind="classical"),
        lambda rec: rec.update(d=2.0),
        lambda rec: rec.update(n=2.0),
        lambda rec: rec.update(x=0),
        lambda rec: rec.pop("generators"),
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
        "entries-reordered",
        "extra-entry-key",
        "extra-block-key",
        "entropy-off",
        "kind-swapped",
        "float-d",
        "float-n",
        "extra-top-key",
        "missing-generators",
    ],
)
def test_verify_rejects_malformed_record(outdir, capsys, edit):
    # "bool-mask" to "float-n" passed while the reader checked the blocks field by field,
    # not as the text enumerate writes, and type-checked only record 0's (d, n); the last
    # two passed while the full read, which a repeated record with a bad middle fell back
    # to, checked no top-level keys
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


def repeated_record(lines):
    """The index of the first record whose two block texts repeat an earlier record's."""
    seen = set()
    for k, line in enumerate(lines):
        head, rest = line.split(', "d": ', 1)
        blocks = (head, rest.rsplit(', "quantum": ', 1)[1])
        if blocks in seen:
            return k
        seen.add(blocks)


@pytest.mark.parametrize(
    "old,new",
    [
        (', "index": {k},', ', "index": {k}, "index": {k},'),
        (', "d": 2,', ', "d": 3,'),
        (', "n": 2,', ","),
        # a key repeated across the record, not within its middle: its last quantum block is still the kept one
        (', "n": 2,', ', "n": 2, "quantum": {{"entries": [], "kind": "quantum"}},'),
        (', "d": 2,', ', "d": 2.0,'),
        (', "n": 2,', ', "n": 2, "x": 0,'),
        (', "index": {k},', ","),
    ],
    ids=["repeated-index", "d-3", "missing-n", "repeated-quantum", "float-d", "extra-middle-key", "missing-index"],
)
def test_verify_checks_the_middle_of_a_repeated_record(outdir, capsys, old, new):
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    k = repeated_record(lines)
    assert k is not None
    old, new = old.format(k=k), new.format(k=k)
    assert lines[k].count(old) == 1
    lines[k] = lines[k].replace(old, new)
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err.startswith(f"error: record {k}: ")
    assert not (outdir / "report.json").exists()


def test_verify_places_a_syntax_error_in_a_repeated_record_in_its_own_line(outdir, capsys):
    # only the middle of a repeated record is parsed, but the column is the one in the whole line
    from entrokit.inequalities import strict_json

    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    k = repeated_record(lines)
    lines[k] = lines[k].replace('"index":', '"index"')
    corpus.write_text("\n".join(lines) + "\n")
    with pytest.raises(json.JSONDecodeError) as exc:
        strict_json.decode(lines[k])
    assert (k, exc.value.colno) == (3, 512)
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err == f"error: record 3: {exc.value}\n"


def test_verify_keeps_no_block_text_cut_inside_a_block(outdir, capsys):
    # record 0's first ', "d": ' lies inside its classical block, and record 1 repeats the text
    # around that cut and is not JSON.  Record 0's extra "z" key makes its block differ from
    # the one enumerate writes, so it is rejected itself; a record that passes is kept under
    # its canonical texts, which hold no ', "d": ', so no kept cut can fall inside a block
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    line = corpus.read_text().splitlines()[0]
    first = line.replace('"kind": "classical"}', '"kind": "classical", "z": {"y": 0, "d": 2}}', 1)
    head = first.split(', "d": ', 1)[0]
    second = head + ', "d": 2, "generators": [], "index": 1, "n": 2, "quantum": ' + line.rsplit(', "quantum": ', 1)[1]
    corpus.write_text(first + "\n" + second + "\n")
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err.startswith("error: record 0: classical block ")


def test_verify_parses_each_repeated_record_only_in_its_middle(outdir, monkeypatch):
    import entrokit.cli as cli

    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", str(corpus)]) == 0
    blocks, decode = cli._blocks, cli.ineq.strict_json.decode
    calls, parsed = [], []
    monkeypatch.setattr(cli, "_blocks", lambda *a: calls.append(a[2]) or blocks(*a))
    monkeypatch.setattr(cli.ineq.strict_json, "decode", lambda text: parsed.append(text[:6]) or decode(text))
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 0
    assert read_lines(outdir / "report.json")[0]["states_checked"] == 514
    assert len(calls) == len(set(calls)) == 26  # the blocks of each of the 26 distinct vectors, once
    assert parsed.count('{"clas') == 26 and parsed.count('{"d": ') == 514 - 26  # the others only in the middle


def test_verify_report_does_not_depend_on_the_corpus_layout(outdir, capsys):
    # reversed keys and compact separators: no record takes the repeated-block path
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", str(corpus)]) == 0
    other = outdir / "other.json"
    with open(other, "w") as fh:
        for rec in read_lines(corpus):
            fh.write(json.dumps(dict(reversed(rec.items())), separators=(",", ":")) + "\n")
    reports = 0
    for family in ("monotonicity", "ssa", "weak_monotonicity", "ingleton", "zhang_yeung"):
        for kind in ("quantum", "classical"):
            runs = []
            for path in (corpus, other):
                out = outdir / f"{path.stem}_{family}_{kind}.json"
                rc = main(["verify", "--corpus", str(path), "--family", family, "--kind", kind, "--out", str(out)])
                runs.append((rc, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
            assert runs[0] == runs[1]
            reports += runs[0][2] is not None
    assert reports == 6  # ingleton needs n >= 4 and zhang_yeung n = 4


@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["enumerate-layout", "compact"])
def test_verify_rejects_a_record_without_index_in_any_layout(outdir, capsys, separators):
    # the first record is read in full in either layout; in the compact one every record is
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", str(corpus)]) == 0
    records = read_lines(corpus)
    del records[0]["index"]
    corpus.write_text("".join(json.dumps(rec, separators=separators) + "\n" for rec in records))
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err.startswith("error: record 0: ")
    assert not (outdir / "report.json").exists()


def reversed_keys(obj):
    """``obj`` with the keys of every object in it in reverse order."""
    if isinstance(obj, dict):
        return {k: reversed_keys(v) for k, v in reversed(obj.items())}
    return [reversed_keys(v) for v in obj] if isinstance(obj, list) else obj


def test_verify_reads_blocks_in_any_key_order(outdir):
    # a block is compared with enumerate's text after sorting its keys, at every depth
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "3", "--out", str(corpus)]) == 0
    other = outdir / "other.json"
    other.write_text("".join(json.dumps(reversed_keys(rec)) + "\n" for rec in read_lines(corpus)))
    assert other.read_text().startswith('{"quantum": {"kind": "quantum", "entries": [{"size": 1, ')
    for kind in ("quantum", "classical"):
        reports = []
        for path in (corpus, other):
            out = outdir / f"{path.stem}_{kind}.json"
            assert main(["verify", "--corpus", str(path), "--family", "ssa", "--kind", kind, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("k", [0, 3])
def test_verify_rejects_a_bool_n(outdir, capsys, k):
    # true == 1, so only a type check tells "n": true from "n": 1; record 3 repeats record 2's blocks
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "1", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    assert lines[3].split(', "d": ')[0] == lines[2].split(', "d": ')[0]
    lines[k] = lines[k].replace(', "n": 1,', ', "n": true,')
    corpus.write_text("\n".join(lines) + "\n")
    (outdir / "ineqs.json").write_text('{"n": 1, "nu": {"1": 1}}\n')
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--inequality", str(outdir / "ineqs.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: record {k}: (d, n) = (2, True) is not a valid size")


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


@pytest.mark.parametrize("d,n,states", [(2, 3, 514), (4, 2, 517)])
def test_enumerate_makes_one_kernel_run_per_state(outdir, monkeypatch, d, n, states):
    # one subsystem_orders run on each enumerated M, and neither kernel path
    # computes an HNF: nothing in enumerate calls _hermite_rows
    import entrokit.cli as cli
    import entrokit.zmod as zmod

    runs, hnfs = [], []
    kernel, hermite = cli.subsystem_orders, zmod._hermite_rows
    monkeypatch.setattr(cli, "subsystem_orders", lambda ps, M: runs.append(M) or kernel(ps, M))
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: hnfs.append(a) or hermite(*a))
    assert main(["enumerate", "--d", str(d), "--n", str(n)]) == 0
    records = read_lines(outdir / f"corpus_d{d}_n{n}.json")
    assert len(records) == len(runs) == len(set(runs)) == states
    assert [M.generators() for M in runs] == [[tuple(g) for g in r["generators"]] for r in records]
    assert hnfs == []


def test_isotropy_is_checked_by_oracle_check_alone(outdir, monkeypatch):
    # the enumerator's subgroups are isotropic by construction; only the states
    # handed to the dense oracle are checked again, one call each
    import entrokit.phasespace as phsp

    calls = []
    isotropic = phsp.is_isotropic
    monkeypatch.setattr(phsp, "is_isotropic", lambda ps, M: calls.append(M) or isotropic(ps, M))
    for d, n, states in ((2, 3, 514), (6, 2, 2511)):
        assert main(["enumerate", "--d", str(d), "--n", str(n)]) == 0
        assert len(read_lines(outdir / f"corpus_d{d}_n{n}.json")) == states
    assert calls == []
    assert main(["oracle-check", "--d", "3", "--n", "1"]) == 0
    assert read_lines(outdir / "oracle_check_d3_n1.json")[0]["states"] == len(calls) == 5


def test_verify_rejects_a_byte_order_mark(outdir, capsys):
    corpus = outdir / "corpus.json"
    assert main(["enumerate", "--d", "2", "--n", "2", "--out", str(corpus)]) == 0
    corpus.write_text("\ufeff" + corpus.read_text())
    path = outdir / "ineqs.json"
    path.write_text('\ufeff{"n": 2, "name": "ssa", "nu": {"1": 1, "2": 1, "3": -1}}\n')
    capsys.readouterr()
    assert main(["verify", "--corpus", str(corpus), "--family", "ssa"]) == 2
    assert capsys.readouterr().err.startswith("error: record 0: ")
    corpus.write_text(corpus.read_text()[1:])
    assert main(["verify", "--corpus", str(corpus), "--inequality", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: inequality 0: ")
    assert not (outdir / "report.json").exists()


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


def test_oracle_check_reports_a_nan_error_from_an_early_chunk(outdir, monkeypatch):
    import numpy as np

    from entrokit import oracle

    cross_check, calls = oracle.cross_check, []

    def nan_first(states):
        errs = cross_check(states)
        if not calls:
            errs["entropy"] = np.full(len(states), np.nan)
        calls.append(len(states))
        return errs

    monkeypatch.setattr(oracle, "cross_check", nan_first)
    assert main(["oracle-check", "--d", "2", "--n", "3"]) == 1
    assert len(calls) > 1  # the NaN chunk is followed by finite ones
    report = read_lines(outdir / "oracle_check_d2_n3.json")[0]
    assert not report["passed"] and np.isnan(report["entropy"])


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
    # against the bare interpreter's modules: what site loads differs by host
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    code = "import sys; bare = set(sys.modules); import entrokit.cli; print(*sorted(set(sys.modules) - bare))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "entrokit.cli" in added
    assert not added & {"numpy", "dataclasses", "inspect"}


def test_enumerate_and_verify_run_without_numpy(outdir):
    # the import cost that keeps numpy out of inequalities: neither command loads it
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    code = (
        "import sys\n"
        "from entrokit.cli import main\n"
        "codes = [main(['enumerate', '--d', '2', '--n', '2', '--out', 'c.json']),\n"
        "         main(['verify', '--corpus', 'c.json', '--family', 'ssa', '--out', 'ssa.json']),\n"
        "         main(['verify', '--corpus', 'c.json', '--family', 'monotonicity', '--out', 'mono.json'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 1] False"
    assert read_lines(outdir / "ssa.json")[0]["passed"] and not read_lines(outdir / "mono.json")[0]["passed"]


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
    assert "unrecognized arguments: --strategy bogus" in capsys.readouterr().err
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


def test_verify_input_error_leaves_an_existing_out_untouched(outdir, capsys):
    out = outdir / "keep.json"
    out.write_bytes(b'{"an": "earlier report"}\n')
    (outdir / "bad.json").write_text("not json\n")
    assert main(["verify", "--corpus", "bad.json", "--family", "ssa", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: record 0: ")
    assert out.read_bytes() == b'{"an": "earlier report"}\n'
    assert sorted(os.listdir(outdir)) == ["bad.json", "keep.json"]


def test_oracle_check_failure_leaves_an_existing_out_untouched(outdir, monkeypatch, capsys):
    import numpy as np

    from entrokit import oracle

    monkeypatch.setattr(oracle, "projector", lambda states: np.zeros((len(states), 9, 9), dtype=complex))
    out = outdir / "o.json"
    out.write_text("kept\n")
    assert main(["oracle-check", "--d", "3", "--n", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: projector has zero trace\n"
    assert out.read_text() == "kept\n"
    assert os.listdir(outdir) == ["o.json"]


def test_an_interrupt_leaves_an_existing_out_untouched(outdir, monkeypatch):
    import entrokit.cli as cli

    kernel, runs = cli.subsystem_orders, []

    def interrupted(ps, M):
        runs.append(M)
        if len(runs) == 5:
            raise KeyboardInterrupt
        return kernel(ps, M)

    monkeypatch.setattr(cli, "subsystem_orders", interrupted)
    out = outdir / "corpus.json"
    out.write_text("kept\n")
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "--d", "2", "--n", "2", "--out", str(out)])
    assert len(runs) == 5
    assert out.read_text() == "kept\n"
    assert os.listdir(outdir) == ["corpus.json"]


def test_a_fifo_out_is_refused_before_the_work(outdir):
    # at a FIFO, open(out, "w") would wait for a reader forever: the child runs under a timeout
    fifo = outdir / "fifo"
    os.mkfifo(fifo)
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    argv = ["enumerate", "--d", "2", "--n", "1", "--out", str(fifo)]
    code = f"import sys; from entrokit.cli import main; sys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 2
    assert out.stderr == f"error: --out {fifo} is not a regular file\n"
    assert out.stdout == ""
    assert os.listdir(outdir) == ["fifo"]


def test_a_symlinked_out_is_written_through(outdir, capsys):
    real = outdir / "real.json"
    real.write_text("old\n")
    link = outdir / "link.json"
    link.symlink_to(real)
    assert main(["enumerate", "--d", "2", "--n", "1", "--out", str(link)]) == 0
    assert capsys.readouterr().out == f"{link}\n"
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert len(read_lines(real)) == 4
    assert sorted(os.listdir(outdir)) == ["link.json", "real.json"]


def test_a_bad_out_directory_is_named_as_given(outdir, capsys):
    # the error names the --out path, never the temporary created beside it
    bad = os.path.join("missing", "x.json")
    for argv in (
        ["enumerate", "--d", "2", "--n", "1"],
        ["oracle-check", "--d", "2", "--n", "1"],
        ["gaussian", "ingleton-search", "--seed", "1", "--iters", "10"],
    ):
        assert main(argv + ["--out", bad]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{bad}'\n"
    assert os.listdir(outdir) == []
