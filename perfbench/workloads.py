"""The three workloads: seeded inputs, the timed operations, and the checks
applied to their outputs.

Each workload has ``build(seed)`` (set-up: the inputs), ``run(inputs)`` (the
timed operations, one caller, each starting when the previous one has
returned) and ``check(inputs, outputs)``, which returns
``(attempted, failed, problems)``.  An operation fails when it raises or when
its output fails a check; ``problems`` are faults of the run as a whole.
Everything runs in Strict mode.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import checks
from uqsl2 import cli
from uqsl2.elements import Element, el_mul
from uqsl2.family import (
    expand_general_commutator,
    expand_specialized_commutator,
    family_E_neg,
    family_E_pos,
)
from uqsl2.rewrite import RelationMode, normal_form

STRICT = RelationMode.STRICT


def call_cli(argv):
    """``uqsl2 <argv>`` in this process: (exit status or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except Exception as exc:  # counted as a failed operation
        status = exc
    return status, out.getvalue()


# --- verify-wide -------------------------------------------------------

VERIFY_CLAIMS = ("EP", "EM", "COMMC", "OMEGA_E", "REFLECT")
_CLI_NAME = {"EP": "ep", "EM": "em", "COMMC": "commc", "OMEGA_E": "omega", "REFLECT": "reflect"}
VERIFY_WIDTH = 16
VERIFY_RANGE = (-2, 2)


def build_verify(seed):
    # the seed orders the claims; every claim's work is done once whatever
    # the order (the caches are unbounded at this width), so cost does not
    # depend on it
    claims = list(VERIFY_CLAIMS)
    random.Random(seed).shuffle(claims)
    lo, hi = VERIFY_RANGE
    argv = [
        "verify",
        "--claims", ",".join(_CLI_NAME[c] for c in claims),
        "--n-max", str(VERIFY_WIDTH),
        "--k-max", str(VERIFY_WIDTH),
        f"--m-range={lo}:{hi}",
        f"--p-range={lo}:{hi}",
        "--mode", "strict",
        "--format", "json",
    ]
    return {"claims": claims, "argv": argv}


def run_verify(inputs):
    return call_cli(inputs["argv"])


def check_verify(inputs, outputs):
    claims = inputs["claims"]
    grid = (claims, VERIFY_WIDTH, VERIFY_WIDTH, VERIFY_RANGE, VERIFY_RANGE)
    attempted = sum(len(checks.claim_grid(c, *grid[1:])) for c in claims)
    status, text = outputs
    if isinstance(status, Exception):
        return attempted, attempted, [f"verify raised {status!r}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return attempted, attempted, [f"report is not JSON: {exc}"]
    return checks.verify_doc_check(doc, status, *grid)


# --- nf-long-words -----------------------------------------------------

# Long mixed words, 8 letters each (9 letters take 8-22 s and up to 550 MB
# apiece).  The seed applies one shift s to all of them:
# x+[k] -> x+[k+s], x-[k] -> x-[k-s], a's unchanged.  That map keeps every
# sum i+j of an x-[i] x+[j] pair and every a-x index sum, so each shifted
# word has the same rewrite tree as its template and the cost of a round does
# not depend on the seed; random words differ in cost by about 100x.
NF_TEMPLATES = (
    (("x-", 0), ("x-", 1), ("x-", 2), ("x-", 3), ("x+", 0), ("x+", -1), ("x+", -2), ("x+", -3)),
    (("x-", 3), ("x-", 1), ("x-", 0), ("x-", 2), ("x+", -2), ("x+", 0), ("x+", -3), ("x+", -1)),
    (("x-", 2), ("a", -1), ("x-", 0), ("x-", 1), ("a", 2), ("x+", -1), ("x+", -2), ("x+", 0)),
    (("a", 2), ("a", -1), ("x-", 0), ("x-", 1), ("x-", 2), ("x+", 0), ("x+", -1), ("x+", -2)),
    (("a", 3), ("a", -2), ("a", 1), ("x-", 0), ("x-", 1), ("x-", 2), ("x+", -1), ("x+", 0)),
)
NF_SHIFT = 10
# a[50]*a[49]*...*a[1]: fails every time while the rewrite recursion takes
# one Python frame per step (RecursionError past about 990 steps)
A_WORD = tuple(("a", i) for i in range(50, 0, -1))


def word_text(word):
    return "*".join(f"{kind}[{idx}]" for kind, idx in word)


def shifted(word, s):
    step = {"x+": s, "x-": -s, "a": 0}
    return tuple((kind, idx + step[kind]) for kind, idx in word)


def build_nf(seed):
    s = random.Random(seed).randint(-NF_SHIFT, NF_SHIFT)
    words = [shifted(w, s) for w in NF_TEMPLATES] + [A_WORD]
    return {"words": words, "texts": [word_text(w) for w in words]}


def run_nf(inputs):
    return [
        call_cli(["nf", text, "--mode", "strict", "--format", "json"])
        for text in inputs["texts"]
    ]


def check_nf(inputs, outputs):
    failed = 0
    for word, (status, text) in zip(inputs["words"], outputs):
        if status != 0:
            failed += 1
            continue
        try:
            obj = json.loads(text)
        except ValueError:
            failed += 1
            continue
        if checks.nf_problems(word, obj):
            failed += 1
    return len(inputs["words"]), failed, []


# --- bracket-grid ------------------------------------------------------

# Acceptance criterion 4's grid: 2 signs x 4 n x 4 k x 5^5 (m, l, eta, theta,
# p) = 100,000 brackets.  The seed offsets n and k together, which changes
# only gamma exponents: every coefficient stays a monomial.
BRACKET_SPAN = range(-2, 3)
BRACKET_OFFSET = 8


def build_bracket(seed):
    o = random.Random(seed).randint(0, BRACKET_OFFSET)
    nk = range(o, o + 4)
    R = BRACKET_SPAN
    # the grid is generated while it runs: building 100,000 tuples here
    # would put the benchmark's own work, and its collections, in setup_s
    axes = ("+-", nk, nk, R, R, R, R, R)
    # the specialized closed form is stated for n < k with sign + and
    # n > k with sign -
    special = [
        (n, k, m, p, "+" if n < k else "-")
        for m in R
        for p in R
        for n in nk
        for k in nk
        if n != k
    ]
    return {"axes": axes, "size": math.prod(map(len, axes)), "special": special}


def run_bracket(inputs):
    kp = {p: Element.k_power(p) for p in BRACKET_SPAN}
    done = failed = 0
    for sign, n, k, m, l, eta, theta, p in itertools.product(*inputs["axes"]):
        done += 1
        try:
            a = family_E_pos(n, m, eta, sign)
            b = family_E_neg(k, l, theta, sign)
            raw = el_mul(el_mul(a, kp[p]), b) - el_mul(el_mul(b, kp[p]), a)
            ok = checks.bracket_agrees(
                raw, expand_general_commutator(n, k, m, l, eta, theta, p, sign)
            )
        except Exception:  # counted as a failed operation
            ok = False
        failed += not ok
    special = [
        normal_form(expand_specialized_commutator(*args), STRICT)
        for args in inputs["special"]
    ]
    return done, failed, special


def check_bracket(inputs, outputs):
    done, failed, special = outputs
    problems = []
    if done != inputs["size"]:
        problems.append(f"{done} brackets computed, the grid has {inputs['size']}")
    nonzero = sum(1 for el in special if el.terms)
    if nonzero:
        problems.append(f"{nonzero} specialized closed forms do not vanish in regime")
    return inputs["size"], failed, problems


WORKLOADS = {
    "verify-wide": (build_verify, run_verify, check_verify),
    "nf-long-words": (build_nf, run_nf, check_nf),
    "bracket-grid": (build_bracket, run_bracket, check_bracket),
}
