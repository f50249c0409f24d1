"""Output checks for the benchmark workloads.

Every check reads the JSON the CLI printed (or, for the bracket grid, the
two elements being compared) and decides from the method's own invariants,
never from a stored copy of an earlier output.  Nothing here imports
``uqsl2``: the word scanner, the loop degree, the charge, the claim grid and
the summary recount are all computed from the printed JSON alone.

A letter is a ``(kind, index)`` pair with kind ``"x+"``, ``"x-"`` or ``"a"``.
"""

from __future__ import annotations

SIGNS = ("+", "-")
CONVENTIONS = ("literal", "matching")

# the canonical word: an x+ block, then an x- block, then ascending a's
_KIND_RANK = {"x+": 0, "x-": 1, "a": 2}


def letters(json_word):
    """``[{"g": "x+", "k": 0}, ...]`` as a tuple of ``(kind, index)``."""
    return tuple((l["g"], l["k"]) for l in json_word)


def word_problem(word):
    """None when ``word`` has the canonical shape, else what is wrong."""
    rank = 0
    last_a = None
    for kind, idx in word:
        r = _KIND_RANK.get(kind)
        if r is None:
            return f"unknown generator {kind!r}"
        if not isinstance(idx, int):
            return f"non-integer index {idx!r}"
        if r < rank:
            return f"{kind}[{idx}] after a later block"
        rank = r
        if kind == "a":
            if idx == 0:
                return "a[0] is not a generator"
            if last_a is not None and idx < last_a:
                return f"a[{idx}] after a[{last_a}]: a block not ascending"
            last_a = idx
    return None


def canonical_reorder(word):
    """The canonical word with the letters of ``word``: x+'s and x-'s keep
    their relative order (no rule swaps two same-sign x's), a's ascend."""
    xp = [g for g in word if g[0] == "x+"]
    xm = [g for g in word if g[0] == "x-"]
    aa = sorted((g for g in word if g[0] == "a"), key=lambda g: g[1])
    return tuple(xp + xm + aa)


def loop_degree(word) -> int:
    return sum(idx for _, idx in word)


def charge(word) -> int:
    return sum(1 if kind == "x+" else -1 if kind == "x-" else 0 for kind, _ in word)


def is_unit_coeff(coeff) -> bool:
    return coeff["num"] == "1" and coeff["den"] == "1"


def element_problems(obj):
    """Shape problems of one printed element: every word canonical, no
    stored zero coefficient, no monomial twice."""
    problems = []
    seen = set()
    for t in obj["terms"]:
        word = letters(t["word"])
        p = word_problem(word)
        if p:
            problems.append(p)
        if t["coeff"]["num"] == "0":
            problems.append("zero coefficient stored")
        key = (word, t["kexp"])
        if key in seen:
            problems.append(f"monomial {key} printed twice")
        seen.add(key)
    return problems


# --- nf-long-words -----------------------------------------------------


def commutes_freely(word) -> bool:
    """Only a's, and no pair a[k], a[-k]: R2 then swaps without a central
    term, so the normal form is the single reordered word."""
    idx = {i for kind, i in word if kind == "a"}
    return all(kind == "a" for kind, _ in word) and not any(-i in idx for i in idx)


def nf_problems(word, obj):
    """Problems of the printed normal form ``obj`` of the input ``word``.

    Every rule keeps the loop degree (sum of indices) and the charge
    (#x+ - #x-); the fully reordered input word arises with coefficient 1
    and K^0 and no other term can cancel it, because every correction has
    fewer x's or fewer a's.  A word of freely commuting a's normal-forms
    to that one term alone.
    """
    problems = element_problems(obj)
    deg, ch = loop_degree(word), charge(word)
    target = canonical_reorder(word)
    lead = False
    for t in obj["terms"]:
        w = letters(t["word"])
        if loop_degree(w) != deg:
            problems.append(f"term of loop degree {loop_degree(w)}, input has {deg}")
        if charge(w) != ch:
            problems.append(f"term of charge {charge(w)}, input has {ch}")
        if w == target and t["kexp"] == 0 and is_unit_coeff(t["coeff"]):
            lead = True
    if not lead:
        problems.append("reordered input word missing or its coefficient is not 1")
    if commutes_freely(word) and len(obj["terms"]) != 1:
        problems.append(f"{len(obj['terms'])} terms where a single word is due")
    return problems


# --- verify-wide -------------------------------------------------------

GRID_KEYS = {
    "EP": ("n", "k", "m", "p"),
    "EM": ("n", "k", "m", "p"),
    "COMMC": ("n", "m", "sign", "convention"),
    "OMEGA_E": ("n", "m", "p", "sign"),
    "REFLECT": ("n", "m", "eta", "sign"),
}


def claim_grid(claim, n_max, k_max, m_range, p_range):
    """Every parameter tuple (in GRID_KEYS order) a sweep of ``claim``
    must report, computed from the ranges alone."""
    ns = range(n_max + 1)
    ms = range(m_range[0], m_range[1] + 1)
    ps = range(p_range[0], p_range[1] + 1)
    if claim in ("EP", "EM"):
        keep = (lambda n, k: n < k) if claim == "EP" else (lambda n, k: n > k)
        return [
            (n, k, m, p)
            for n in ns
            for k in range(k_max + 1)
            if keep(n, k)
            for m in ms
            for p in ps
        ]
    if claim == "COMMC":
        return [(n, m, s, c) for n in ns for m in ms for s in SIGNS for c in CONVENTIONS]
    if claim == "OMEGA_E":
        return [(n, m, p, s) for n in ns for m in ms for p in ps for s in SIGNS]
    if claim == "REFLECT":
        return [(n, m, e, s) for n in ns for m in ms for e in ms for s in SIGNS]
    raise ValueError(f"unknown claim {claim!r}")


def classify(obj) -> str:
    terms = obj["terms"]
    if not terms:
        return "exact_zero"
    if all(not t["word"] and t["kexp"] == 0 for t in terms):
        return "central"
    return "residual"


def grade(word) -> int:
    """2 x loop degree + charge.  x-[i] x+[j] and its correction psi/phi_(i+j)
    have the same grade, and so does every other relation: the bracket of two
    family elements is homogeneous although its terms differ in charge."""
    return 2 * loop_degree(word) + charge(word)


def claim_grade(claim, params) -> int:
    """The grade of every term of a claim instance: EP/EM bracket x+_n
    against x-_(-k); COMMC is the case k = n; OMEGA_E and REFLECT carry
    x+_(-n-1) and x-_(-n)."""
    if claim in ("EP", "EM"):
        return 2 * (params["n"] - params["k"])
    if claim == "COMMC":
        return 0
    return -2 * params["n"] - 1


def has_x_free_term(obj) -> bool:
    return any(all(l["g"] == "a" for l in t["word"]) for t in obj["terms"])


def expectation(report) -> bool:
    """EP/EM in Strict mode: the residual has no x-free term.  Every other
    claim: the engine's value equals the stated one."""
    if report["claim"] in ("EP", "EM"):
        return not has_x_free_term(report["verdict"]["value"])
    return report["paper_match"]


def report_problems(report):
    """Problems of one claim instance of the verify report."""
    problems = []
    value = report["verdict"]["value"]
    due = claim_grade(report["claim"], report["params"])
    for name, obj in (
        ("value", value),
        ("paper_expected", report["paper_expected"]),
        ("discrepancy", report["discrepancy"]),
    ):
        problems.extend(f"{name}: {p}" for p in element_problems(obj))
        if any(grade(letters(t["word"])) != due for t in obj["terms"]):
            problems.append(f"{name}: a term of grade other than {due}")
    if report["mode"] != "strict":
        problems.append(f"mode {report['mode']!r}")
    if report["verdict"]["kind"] != classify(value):
        problems.append(f"verdict {report['verdict']['kind']!r}, value is {classify(value)}")
    if report["paper_match"] != (not report["discrepancy"]["terms"]):
        problems.append("paper_match disagrees with the discrepancy")
    if report["claim"] in ("EP", "EM") and has_x_free_term(value):
        problems.append("x-free term in an EP/EM residual")
    if report["claim"] == "OMEGA_E" and not report["paper_match"]:
        problems.append("omega(E) differs from the stated image")
    if report["expectation_met"] != expectation(report):
        problems.append("expectation_met disagrees with the claim's rule")
    return problems


def recount(reports):
    """The summary tally, recounted from the reports."""
    counts = {"exact_zero": 0, "central": 0, "residual": 0, "paper_mismatch": 0}
    met = 0
    for r in reports:
        counts[classify(r["verdict"]["value"])] += 1
        if not r["paper_match"]:
            counts["paper_mismatch"] += 1
        if expectation(r):
            met += 1
    counts["reports"] = len(reports)
    counts["expectations_met"] = met
    return counts


def verify_doc_check(doc, exit_code, claims, n_max, k_max, m_range, p_range):
    """Check a verify report against the grid it was asked for.

    Returns ``(attempted, failed, problems)``: one operation per claim
    instance of the grid; an instance fails when its report is missing or
    has a problem.  ``problems`` lists what is wrong with the document as
    a whole (counts, tally, exit status).
    """
    problems = []
    failed = 0
    attempted = 0
    for claim in claims:
        grid = claim_grid(claim, n_max, k_max, m_range, p_range)
        attempted += len(grid)
        keys = GRID_KEYS[claim]
        got = {}
        for r in doc["reports"]:
            if r["claim"] == claim:
                got.setdefault(tuple(r["params"].get(k) for k in keys), []).append(r)
        n_reports = sum(len(v) for v in got.values())
        if n_reports != len(grid):
            problems.append(f"{claim}: {n_reports} reports, the grid has {len(grid)}")
        for key in grid:
            rs = got.pop(key, [])
            if len(rs) != 1 or report_problems(rs[0]):
                failed += 1
        if got:
            problems.append(f"{claim}: {len(got)} reports outside the grid")
    unknown = {r["claim"] for r in doc["reports"]} - set(claims)
    if unknown:
        problems.append(f"reports for unrequested claims {sorted(unknown)}")
    tally = recount(doc["reports"])
    if doc["summary"] != tally:
        problems.append(f"summary {doc['summary']} differs from recount {tally}")
    due = 0 if tally["expectations_met"] == tally["reports"] else 1
    if exit_code != due:
        problems.append(f"exit status {exit_code}, the tally calls for {due}")
    return attempted, failed, problems


# --- bracket-grid ------------------------------------------------------


def bracket_agrees(product, expected) -> bool:
    """The el_mul bracket has exactly the monomials of the group-by-group
    expansion, each with an equal coefficient."""
    pt, et = product.terms, expected.terms
    return pt.keys() == et.keys() and all(pt[m] == c for m, c in et.items())
