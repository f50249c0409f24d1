"""Command-line front end: expression commands and the verification suite.

Exit codes: 0 all expectations met, 1 discrepancies found, 2 usage, parse
or configuration error.  UQSL2_MODE sets the default relation mode; an
optional JSON config file supplies verify defaults (flags win).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .elements import Element
from .expr import (
    Call,
    EvalError,
    ParseError,
    Product,
    RationalLiteral,
    SignLit,
    eval_ast,
    parse,
)
from .family import SIGNS
from .render import element_to_obj, print_element
from .rewrite import RelationMode
from .verify import CLAIMS, VerdictReport, expectation_met, sweep_claim


class ConfigError(ValueError):
    pass


_CLI_CLAIMS = {c.cli_name: name for name, c in CLAIMS.items() if c.cli_name}
_DEFAULT_CLAIMS = ",".join(_CLI_CLAIMS)


def _mode_from_name(name: str) -> RelationMode:
    try:
        return RelationMode(name)
    except ValueError:
        raise ConfigError(f"unknown mode {name!r} (use strict or abelianx)")


def _default_mode() -> str:
    return os.environ.get("UQSL2_MODE", "strict")


def _parse_range(text):
    """An "a:b" string, or an [a, b] pair from a config file."""
    if not isinstance(text, str):
        return int(text[0]), int(text[1])
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"bad range {text!r}, expected a:b")
    if lo > hi:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


@dataclass
class SuiteConfig:
    claims: list
    n_max: int = 4
    k_max: int = 4
    m_range: tuple = (-2, 2)
    p_range: tuple = (-2, 2)
    mode: RelationMode = RelationMode.STRICT
    format: str = "text"


@dataclass
class ReportDoc:
    version: str
    mode: str
    ranges: dict
    reports: list
    summary: dict = field(default_factory=dict)

    def tally(self):
        counts = {"exact_zero": 0, "central": 0, "residual": 0, "paper_mismatch": 0}
        met = 0
        for r in self.reports:
            counts[r.verdict.kind] += 1
            if not r.paper_match:
                counts["paper_mismatch"] += 1
            if expectation_met(r):
                met += 1
        counts["reports"] = len(self.reports)
        counts["expectations_met"] = met
        self.summary = counts
        return counts


def run_verify_suite(config: SuiteConfig) -> ReportDoc:
    """Run every configured claim sweep and assemble the report document."""
    ranges = {
        "n_max": config.n_max,
        "k_max": config.k_max,
        "m_range": config.m_range,
        "p_range": config.p_range,
    }
    reports = []
    for claim in config.claims:
        claim_reports = sweep_claim(claim, ranges, config.mode)
        if not claim_reports:
            raise ConfigError(
                f"claim {claim} has no valid parameter tuples in the given ranges"
            )
        reports.extend(claim_reports)
    doc = ReportDoc(
        version=__version__, mode=config.mode.value, ranges=ranges, reports=reports
    )
    doc.tally()
    return doc


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


def report_doc_text(doc: ReportDoc) -> str:
    lines = [
        f"uqsl2 verify report (version {doc.version}, mode {doc.mode})",
        "ranges: n=0..{n_max} k=0..{k_max} m={m_range[0]}..{m_range[1]} "
        "p={p_range[0]}..{p_range[1]}".format(**doc.ranges),
    ]
    for r in doc.reports:
        line = (
            f"claim={r.claim} {_params_text(r.params)} verdict={r.verdict.kind} "
            f"paper_match={'yes' if r.paper_match else 'no'} "
            f"expectation={'met' if expectation_met(r) else 'FAILED'}"
        )
        if not r.paper_match:
            line += f" discrepancy={print_element(r.discrepancy)}"
        lines.append(line)
    s = doc.summary
    lines.append(
        "summary: reports={reports} exact_zero={exact_zero} central={central} "
        "residual={residual} paper_mismatch={paper_mismatch} "
        "expectations_met={expectations_met}/{reports}".format(**s)
    )
    return "\n".join(lines)


def _report_to_obj(r: VerdictReport) -> dict:
    return {
        "claim": r.claim,
        "params": {k: v for k, v in sorted(r.params.items())},
        "mode": r.mode.value,
        "verdict": {"kind": r.verdict.kind, "value": element_to_obj(r.verdict.value)},
        "paper_match": r.paper_match,
        "paper_expected": element_to_obj(r.paper_expected),
        "discrepancy": element_to_obj(r.discrepancy),
        "expectation_met": expectation_met(r),
    }


def report_doc_json(doc: ReportDoc) -> str:
    obj = {
        "version": doc.version,
        "mode": doc.mode,
        "ranges": {
            "n_max": doc.ranges["n_max"],
            "k_max": doc.ranges["k_max"],
            "m_range": list(doc.ranges["m_range"]),
            "p_range": list(doc.ranges["p_range"]),
        },
        "summary": doc.summary,
        "reports": [_report_to_obj(r) for r in doc.reports],
    }
    return json.dumps(obj, separators=(",", ":"))


# element subcommands: help text, then the arguments of the evaluator call
# each one builds, in order ("mul" builds a product instead); a "--" name is
# an integer option defaulting to 0
_ELEMENT_COMMANDS = {
    "nf": ("normal form of an expression", ("expr",)),
    "mul": ("product of two expressions", ("left", "right")),
    "comm": ("commutator of two expressions", ("left", "right")),
    "dcomm": ("K^p-deformed commutator", ("left", "right", "--p")),
    "psi": ("current component psi_m", ("m",)),
    "phi": ("current component phi_m", ("m",)),
    "E": ("family element E(sign, p, m, index)", ("sign", "p", "m", "index")),
    "c": ("stated central value c(sign, n, m)", ("sign", "n", "m")),
    "omega": ("apply the automorphism omega", ("expr",)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uqsl2",
        description="Exact computations in the loop presentation of the "
        "quantized affine sl2 and verification of its Heisenberg-type family.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for cmd, (help_text, names) in _ELEMENT_COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        for name in names:
            if name in ("expr", "left", "right"):
                p.add_argument(name)
            elif name == "sign":
                p.add_argument(name, choices=SIGNS)
            elif name.startswith("--"):
                p.add_argument(name, type=int, default=0)
            else:
                p.add_argument(name, type=int)
        p.add_argument("--mode", default=None, choices=("strict", "abelianx"))
        p.add_argument("--format", default="text", choices=("text", "latex", "json"))

    p = sub.add_parser("verify", help="run claim verification sweeps")
    p.add_argument("--claims", default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--m-range", default=None)
    p.add_argument("--p-range", default=None)
    p.add_argument("--mode", default=None, choices=("strict", "abelianx"))
    p.add_argument("--format", default=None, choices=("text", "json"))
    p.add_argument("--config", default=None, help="JSON file with verify defaults")
    return ap


def _verify_config(args) -> SuiteConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in file_cfg:
            return file_cfg[key]
        return default

    claims_raw = pick(args.claims, "claims", _DEFAULT_CLAIMS)
    if isinstance(claims_raw, str):
        claim_names = [c.strip() for c in claims_raw.split(",") if c.strip()]
    else:
        claim_names = list(claims_raw)
    claims = []
    for name in claim_names:
        key = name.lower()
        if key not in _CLI_CLAIMS:
            raise ConfigError(f"unknown claim {name!r} (use {','.join(_CLI_CLAIMS)})")
        claims.append(_CLI_CLAIMS[key])
    if not claims:
        raise ConfigError("no claims selected")

    n_max = pick(args.n_max, "n_max", 4)
    k_max = pick(args.k_max, "k_max", 4)
    if n_max < 0 or k_max < 0:
        raise ConfigError("n-max and k-max must be nonnegative")

    m_range = _parse_range(pick(args.m_range, "m_range", "-2:2"))
    p_range = _parse_range(pick(args.p_range, "p_range", "-2:2"))
    if m_range[0] > m_range[1] or p_range[0] > p_range[1]:
        raise ConfigError("ranges must be nonempty")

    mode = _mode_from_name(pick(args.mode, "mode", _default_mode()))
    fmt = pick(args.format, "format", "text")
    if fmt not in ("text", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    return SuiteConfig(
        claims=claims,
        n_max=n_max,
        k_max=k_max,
        m_range=m_range,
        p_range=p_range,
        mode=mode,
        format=fmt,
    )


def _arg_node(name: str, value):
    if name == "sign":
        return SignLit(value)
    if isinstance(value, int):
        return RationalLiteral(Fraction(value))
    return parse(value)


def _element_command(args) -> Element:
    mode = _mode_from_name(args.mode or _default_mode())
    if args.command == "mul":
        product = Product((("*", parse(args.left)), ("*", parse(args.right))))
        return eval_ast(product, mode)
    names = _ELEMENT_COMMANDS[args.command][1]
    nodes = tuple(_arg_node(n, getattr(args, n.lstrip("-"))) for n in names)
    return eval_ast(Call(args.command, nodes), mode)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            config = _verify_config(args)
            doc = run_verify_suite(config)
            if config.format == "json":
                print(report_doc_json(doc))
            else:
                print(report_doc_text(doc))
            met = doc.summary["expectations_met"] == doc.summary["reports"]
            return 0 if met else 1
        element = _element_command(args)
        print(print_element(element, args.format))
        return 0
    # RecursionError: the rewrite recursion outgrew the stack on a long word
    except (ParseError, EvalError, ConfigError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
