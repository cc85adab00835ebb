"""Tests for the benchmark's own checks: each corrupted output must be rejected.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    item = wl.certify_pool(7, tmp_path_factory.mktemp("certify"))[0]
    reference = wl.certify_reference(item)
    rc, out, err = wl.certify_op(item)
    assert wl.certify_check(item, reference, (rc, out, err)) == []
    return item, reference, json.loads(out)


def _with_verdicts(doc, **changes):
    doc = json.loads(json.dumps(doc))
    doc["verdicts"].update(changes)
    return 0, json.dumps(doc), ""


def test_scaled_d_entry_breaks_the_stein_test(certified):
    item, reference, doc = certified
    M = reference["M"]
    d = np.asarray(doc["verdicts"]["d"])
    # shrink the entry whose column of M carries the most weight
    i = int(np.argmax((M * M).T @ d / d))
    d[i] *= 1e-6
    problems = wl.certify_check(item, reference, _with_verdicts(doc, d=d.tolist()))
    assert any("Cholesky" in p for p in problems)


def test_compound_radius_must_be_the_eigenvalue_product(certified):
    item, reference, doc = certified
    bad = doc["verdicts"]["compound_spectral_radius"] * 1.001
    problems = wl.certify_check(item, reference, _with_verdicts(doc, compound_spectral_radius=bad))
    assert any("compound radius" in p for p in problems)


@pytest.fixture(scope="module")
def verdict_case(tmp_path_factory):
    pool = wl.verdict_pool(3, tmp_path_factory.mktemp("verdict"))
    item = next(i for i in pool if i["name"] == "tri-k2-n5")
    reference = wl.verdict_reference(item)
    out = wl.verdict_op(item)
    assert wl.verdict_check(item, reference, out) == []
    assert out["classify"].verdict == "SR"
    return item, reference, out


def test_flipped_verdict_is_rejected(verdict_case):
    item, reference, out = verdict_case
    sc = dataclasses.replace(out["classify"], verdict="SSR")
    assert wl.verdict_check(item, reference, dict(out, classify=sc))


def test_flipped_signature_is_rejected(verdict_case):
    item, reference, out = verdict_case
    sc = dataclasses.replace(out["classify"], signature=-out["classify"].signature)
    assert wl.verdict_check(item, reference, dict(out, classify=sc))


def test_witness_must_be_the_minor_it_names(verdict_case):
    item, reference, out = verdict_case
    sc = out["classify"]
    # keep the named rows and columns, report the largest minor's value
    wrong = dataclasses.replace(sc.witness_min, value=float(np.max(reference["minors"])))
    problems = wl.verdict_check(item, reference, dict(out, classify=dataclasses.replace(sc, witness_min=wrong)))
    assert any("is not the minor" in p for p in problems)


@pytest.fixture(scope="module")
def wedge_run(tmp_path_factory):
    # the n = 6, k = 3 table system
    system = wl.wedge_pool(5, tmp_path_factory.mktemp("wedge"))[0]["systems"][3]
    reference = wl.wedge_reference({"systems": [system]})[0]
    rc, out, err = wl._run_cli(system["argv"])
    assert wl.check_wedge_run(system, reference, (rc, out, err)) == []
    return system, reference, (rc, out, err)


@pytest.mark.parametrize("step", [1, 1000, wl.WEDGE_STEPS])
def test_perturbed_v_in_csv_is_rejected(wedge_run, step):
    system, reference, (rc, out, err) = wedge_run
    lines = out.splitlines()
    j, v = lines[step + 1].split(",")
    assert int(j) == step and float(v) > 1e-300
    lines[step + 1] = f"{j},{float(v) * (1 + 1e-6)!r}"
    problems = wl.check_wedge_run(system, reference, (rc, "\n".join(lines) + "\n", err))
    assert any(f"V({step})" in p for p in problems)


def test_every_verdict_is_reached_and_only_named_faults_fail(tmp_path):
    for seed in (1, 2):
        pool = wl.verdict_pool(seed, tmp_path)
        seen, wrong, faulted = set(), [], []
        for item in pool:
            out = wl.verdict_op(item)
            if wl.verdict_check(item, wl.verdict_reference(item), out):
                wrong.append(item["name"])
            if wl.verdict_faults(item, out):
                faulted.append(item["name"])
                continue
            seen.add(out["classify"].verdict)
            if "certify" in out:
                seen.add(getattr(out["certify"], "reason", "CERTIFIED"))
                seen.add("SCREEN_PASS" if out["screen"].passed else "SCREEN_FAIL")
        assert wrong == []
        assert faulted == ["ex1-x1e-06", "ex3-x1e-06", "ex4-x1e-06"]
        assert seen >= {"SSR", "SR", "NONE", "CERTIFIED", "NOT_SIGN_REGULAR",
                        "COMPOUND_NOT_SCHUR", "SCREEN_PASS", "SCREEN_FAIL"}


@pytest.fixture(scope="module")
def verdict_round(tmp_path_factory):
    pool = wl.verdict_pool(4, tmp_path_factory.mktemp("round"))
    first = [wl.verdict_op(item) for item in pool]
    problems, failed = run.check_outputs(wl.WORKLOADS["verdict-batch"], pool, first, [], 2 * len(pool))
    assert (problems, failed) == ([], 2 * 3)
    return pool, first


def _corrupt(verdict_round, name, **changes):
    """Problems and failed count of two rounds whose second round has one corrupted op."""
    pool, first = verdict_round
    index = next(i for i, item in enumerate(pool) if item["name"] == name)
    out = first[index]
    bad = dict(out, classify=dataclasses.replace(out["classify"], **changes))
    differing = [(len(pool) + index, index, bad)]
    return run.check_outputs(wl.WORKLOADS["verdict-batch"], pool, first, differing, 2 * len(pool))


@pytest.mark.parametrize("name, change", [("ex1-x1e+06", {"verdict": "SR"}),
                                          ("ex3-x1e+06", {"signature": -1})])
def test_wrong_output_on_a_large_scaled_copy_is_incorrect(verdict_round, name, change):
    problems, failed = _corrupt(verdict_round, name, **change)
    assert problems and failed == 2 * 3


def test_small_scaled_copy_fails_only_by_the_named_faults(verdict_round):
    pool, first = verdict_round
    index = next(i for i, item in enumerate(pool) if item["name"] == "ex4-x1e-06")
    assert first[index]["classify"].verdict == "ALL_ZERO"
    # a verdict other than ALL_ZERO is not the named fault: the run is incorrect
    problems, failed = _corrupt(verdict_round, "ex4-x1e-06", verdict="NONE")
    assert problems and failed == 2 * 3 - 1


def test_own_minors_match_a_permutation_sum():
    A = np.random.default_rng(0).standard_normal((5, 4))
    table = ref.minor_table(A, 3)
    rows, cols = ref.index_sets(5, 3), ref.index_sets(4, 3)
    from itertools import permutations

    def leibniz(S):
        total = 0.0
        for perm in permutations(range(3)):
            inv = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
            total += (-1) ** inv * np.prod([S[i, perm[i]] for i in range(3)])
        return total

    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert abs(table[i, j] - leibniz(A[np.ix_(r, c)])) < 1e-12


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "wedge-sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
