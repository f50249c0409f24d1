"""The benchmark's output checks must reject wrong answers.

Each check is fed a real output of the engine, which it must accept, and
hand-made wrong answers, which it must reject, so that a check that cannot
fail does not pass silently.  Runs in a few seconds:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import workloads  # noqa: E402
from uqsl2.elements import Element, Monomial, xplus  # noqa: E402
from uqsl2.family import expand_general_commutator, family_E_neg, family_E_pos  # noqa: E402
from uqsl2.coeff import q_pow  # noqa: E402


def nf_json(word):
    status, text = workloads.call_cli(
        ["nf", workloads.word_text(word), "--mode", "strict", "--format", "json"]
    )
    assert status == 0
    return json.loads(text)


def term(word, coeff=("1", "1"), kexp=0):
    return {
        "coeff": {"num": coeff[0], "den": coeff[1]},
        "word": [{"g": g, "k": k} for g, k in word],
        "kexp": kexp,
    }


# a short mixed word whose normal form has correction terms
WORD = (("x-", 1), ("a", 1), ("x+", 0), ("a", -1))


def test_word_scanner():
    assert checks.word_problem((("x+", 1), ("x+", 0), ("x-", 2), ("a", -1), ("a", 3))) is None
    assert checks.word_problem((("x-", 0), ("x+", 0)))
    assert checks.word_problem((("a", 1), ("x-", 0)))
    assert checks.word_problem((("x+", 0), ("a", 2), ("a", 1)))
    assert checks.word_problem((("a", 0),))


def test_nf_check_accepts_engine_output():
    obj = nf_json(WORD)
    assert len(obj["terms"]) > 1
    assert checks.nf_problems(WORD, obj) == []


def test_nf_check_rejects_non_canonical_word():
    obj = nf_json(WORD)
    obj["terms"].append(term((("x-", 1), ("x+", 0)), ("3", "1")))
    assert any("block" in p for p in checks.nf_problems(WORD, obj))


def test_nf_check_rejects_wrong_loop_degree():
    obj = nf_json(WORD)
    obj["terms"].append(term((("x+", 1), ("x-", 1)), ("3", "1")))
    assert any("loop degree" in p for p in checks.nf_problems(WORD, obj))


def test_nf_check_rejects_wrong_charge():
    obj = nf_json(WORD)
    obj["terms"].append(term((("x+", 0), ("x+", 1), ("x-", 0)), ("3", "1")))
    assert any("charge" in p for p in checks.nf_problems(WORD, obj))


def test_nf_check_rejects_missing_or_scaled_leading_term():
    obj = nf_json(WORD)
    lead = checks.canonical_reorder(WORD)
    dropped = copy.deepcopy(obj)
    dropped["terms"] = [t for t in obj["terms"] if checks.letters(t["word"]) != lead]
    assert len(dropped["terms"]) == len(obj["terms"]) - 1
    assert checks.nf_problems(WORD, dropped)
    for t in obj["terms"]:
        if checks.letters(t["word"]) == lead:
            t["coeff"]["num"] = "2"
    assert checks.nf_problems(WORD, obj)


def test_nf_check_commuting_a_word_is_one_term():
    word = (("a", 3), ("a", 2), ("a", 1))
    obj = nf_json(word)
    assert checks.nf_problems(word, obj) == []
    obj["terms"].append(term((), ("1", "1")))
    assert checks.nf_problems(word, obj)


def test_bracket_check():
    args = (1, 2, 0, -1, 1, 2, 1, "+")
    n, k, m, l, eta, theta, p, sign = args
    a, b = family_E_pos(n, m, eta, sign), family_E_neg(k, l, theta, sign)
    kp = Element.k_power(p)
    product = a * kp * b - b * kp * a
    expected = expand_general_commutator(*args)
    assert checks.bracket_agrees(product, expected)
    mono, coeff = next(iter(expected.terms.items()))
    less = Element({m2: c for m2, c in expected.terms.items() if m2 != mono})
    more = expected + Element({Monomial((xplus(9),), 0): q_pow(1)})
    changed = expected + Element({mono: coeff})
    for wrong in (less, more, changed):
        assert not checks.bracket_agrees(product, wrong)


SMALL = (["EP", "EM", "COMMC", "OMEGA_E", "REFLECT"], 2, 2, (-1, 0), (0, 1))


def small_verify():
    claims, n_max, k_max, (m0, m1), (p0, p1) = SMALL
    argv = [
        "verify", "--claims", "ep,em,commc,omega,reflect",
        "--n-max", str(n_max), "--k-max", str(k_max),
        f"--m-range={m0}:{m1}", f"--p-range={p0}:{p1}",
        "--mode", "strict", "--format", "json",
    ]
    status, text = workloads.call_cli(argv)
    return status, json.loads(text)


def test_verify_check_accepts_engine_report():
    status, doc = small_verify()
    attempted, failed, problems = checks.verify_doc_check(doc, status, *SMALL)
    assert attempted == len(doc["reports"]) > 0
    assert (failed, problems) == (0, [])


def test_verify_check_rejects_count_off_by_one():
    status, doc = small_verify()
    missing = copy.deepcopy(doc)
    missing["reports"].pop(3)
    missing["summary"] = checks.recount(missing["reports"])
    _, failed, problems = checks.verify_doc_check(missing, status, *SMALL)
    assert failed == 1 and problems
    extra = copy.deepcopy(doc)
    extra["reports"].append(extra["reports"][0])
    extra["summary"] = checks.recount(extra["reports"])
    _, failed, problems = checks.verify_doc_check(extra, status, *SMALL)
    assert failed == 1 and problems


def test_verify_check_rejects_wrong_tally_and_exit_status():
    status, doc = small_verify()
    doc["summary"]["expectations_met"] += 1
    assert checks.verify_doc_check(doc, status, *SMALL)[2]
    status, doc = small_verify()
    assert checks.verify_doc_check(doc, 1 - status, *SMALL)[2]


def test_verify_check_rejects_bad_instances():
    status, doc = small_verify()
    ep = next(r for r in doc["reports"] if r["claim"] == "EP")
    ep["verdict"]["value"]["terms"].append(term((("a", 1),), ("1", "1")))
    om = next(r for r in doc["reports"] if r["claim"] == "OMEGA_E")
    om["paper_match"] = False
    om["discrepancy"]["terms"].append(term((("x+", 0),)))
    rf = next(r for r in doc["reports"] if r["claim"] == "REFLECT")
    rf["paper_expected"]["terms"].append(term((("x-", 0), ("x+", 0))))
    cm = next(r for r in doc["reports"] if r["claim"] == "COMMC")
    cm["verdict"]["value"]["terms"].append(term((("x+", 0), ("x-", 1)), kexp=1))
    assert any("grade" in p for p in checks.report_problems(cm))
    _, failed, _ = checks.verify_doc_check(doc, status, *SMALL)
    assert failed == 4


def test_workload_inputs():
    assert workloads.build_nf(7) == workloads.build_nf(7)
    words = [workloads.build_nf(s)["words"] for s in range(40)]
    assert len({w[0] for w in words}) > 5
    # the shift keeps every x-[i] x+[j] index sum of the template
    for ws in words:
        for w, t in zip(ws, workloads.NF_TEMPLATES):
            sums = lambda v: sorted(i + j for g, i in v if g == "x-" for h, j in v if h == "x+")
            assert sums(w) == sums(t)
        assert ws[-1] == workloads.A_WORD
    bracket = workloads.build_bracket(3)
    assert bracket["size"] == len(list(itertools.product(*bracket["axes"]))) == 2 * 4 * 4 * 5**5
    claims = workloads.build_verify(5)["claims"]
    grid = (workloads.VERIFY_WIDTH, workloads.VERIFY_WIDTH) + (workloads.VERIFY_RANGE,) * 2
    # EP and EM: 136 (n, k) pairs each; COMMC 17*5*4; OMEGA_E and REFLECT 17*5*5*2
    assert sum(len(checks.claim_grid(c, *grid)) for c in claims) == 2 * 3400 + 340 + 2 * 850


def test_benchmark_json_matches_the_code():
    import layers
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
