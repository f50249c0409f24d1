"""Command-line front end: the verification suite and one element command
per call of the expression language (``expr.CALLS``, whose argument names
become the command's operands), with "mul" added.  The command reads each
element operand with ``expr.evaluate`` and applies the table's function to
the operands' values.

Exit codes: 0 all expectations met, 1 discrepancies found, 2 usage, parse
or configuration error, or a sweep worker that died, 141 (128 + SIGPIPE)
stdout closed by its reader before the output was written, as in ``uqsl2
verify | head``, with no traceback.  Every command computes in full mode,
in U_q(sl2-hat) under all of Drinfeld's relations (see ``rewrite``),
unless ``--mode strict`` leaves out the same-sign x relation.  A sweep is
set up by ``verify``'s flags alone, whose defaults are
``SuiteConfig._field_defaults``.

``verify`` streams its document to stdout in one pass: the head, then the
reports in sweep order, then the summary, which comes last in both
formats.  Each claim's sweep is cut into chunks of ``_CHUNK`` instances,
and no instance depends on another.  A chunk is checked and rendered in
one call of ``_check_chunk``, with a ``render.Printer`` of its own, so
each distinct coefficient and word is rendered once per chunk; the call
returns each report's text with its verdict kind, paper match and
expectation.  With more than one CPU and more than one chunk, this process
forks one worker per CPU (at most one per chunk), each with a pipe of its
own; otherwise, or where there is no ``os.fork``, the chunks run one after
another in this process.  Of W workers, worker w cuts the sweep into chunks
itself and checks chunks w, w + W, ...; it sends each one's rows down its
pipe as a length-prefixed pickled frame, or the engine's error as one, and
a None frame after its last chunk.  This process never lists the chunks.
It reads the pipes in turn, so it writes every report in sweep order, and
counts the summary.  A worker whose pipe is full blocks, so it runs ahead
of the written reports by at most the chunk it is checking and a pipe's
worth of frames (64 KiB on Linux), and a wide sweep holds a few chunks'
reports at a time.  On every way out of the sweep, an error or a closed
stdout included, this process kills and reaps its workers, so no worker
outlives ``main``; and if this process is killed, its workers meet a
closed pipe at their next write and leave, so none outlives it by more
than a chunk.
Every usage error is raised before the first byte is written; an engine
error in the middle of a sweep, in a worker or here, or a worker killed
by a signal, leaves a truncated document on stdout and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from itertools import cycle, islice

from . import __version__
from .elements import Element, el_mul
from .expr import CALLS, ELEMENT_ARGS, CallSpec, EvalError, ParseError, evaluate
from .family import SIGNS
from .render import FORMATS, Printer, print_element
from .rewrite import RelationMode
from .verify import CLAIMS, VerdictReport, expectation_met, sweep_params, verify_claim


class ConfigError(ValueError):
    pass


class WorkerDied(RuntimeError):
    """A sweep worker ended without returning its chunk, as one killed by a
    signal (the out-of-memory killer's SIGKILL, say) does."""


_CLI_CLAIMS = {c.cli_name: name for name, c in CLAIMS.items() if c.cli_name}
_DEFAULT_CLAIMS = ",".join(_CLI_CLAIMS)
_MODES = tuple(m.value for m in RelationMode)


def _parse_range(text: str) -> tuple:
    """An "a:b" string as its (a, b) pair."""
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"bad range {text!r}, expected a:b")
    if lo > hi:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


class SuiteConfig(
    namedtuple(
        "SuiteConfig",
        ("claims", "n_max", "k_max", "m_range", "p_range", "mode", "format"),
        defaults=(4, 4, (-2, 2), (-2, 2), RelationMode.FULL, "text"),
    )
):
    """One sweep: its claims, ranges, mode and format.  The defaults of
    every field but ``claims`` are ``verify``'s flags' defaults."""

    __slots__ = ()

    def ranges(self) -> dict:
        """The sweep ranges, as ``verify.sweep_params`` reads them."""
        return {
            "n_max": self.n_max,
            "k_max": self.k_max,
            "m_range": self.m_range,
            "p_range": self.p_range,
        }


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


def _report_text(r: VerdictReport, met: bool, printer: Printer) -> str:
    line = (
        f"claim={r.claim} {_params_text(r.params)} verdict={r.verdict.kind} "
        f"paper_match={'yes' if r.paper_match else 'no'} "
        f"expectation={'met' if met else 'FAILED'}"
    )
    if not r.paper_match:
        line += f" discrepancy={printer.element(r.discrepancy)}"
    return line


# one encoder for the document's head and summary: json.dumps with
# separators builds a new one per call
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _json_params(params: dict) -> str:
    """The JSON object of a report's params, keys sorted.  Each value is
    an int, one of the fixed sign and convention strings (``family.SIGNS``,
    ``verify.CONVENTIONS``), which need no escaping, or None."""
    out = []
    for k in sorted(params):
        v = params[k]
        if v.__class__ is str:
            out.append(f'"{k}":"{v}"')
        else:
            out.append(f'"{k}":{"null" if v is None else v}')
    return "{" + ",".join(out) + "}"


def _report_json(r: VerdictReport, met: bool, printer: Printer) -> str:
    """The report's JSON, the bytes of one compact ``json.dumps`` of it,
    written by string formatting: the claim, mode and verdict kind are
    fixed names, and the elements are JSON already."""
    value = printer.element(r.verdict.value)
    # a zero stated value (EP/EM) makes the residual its own discrepancy
    if r.discrepancy is r.verdict.value:
        discrepancy = value
    else:
        discrepancy = printer.element(r.discrepancy)
    return (
        f'{{"claim":"{r.claim}","params":{_json_params(r.params)},"mode":"{r.mode.value}",'
        f'"verdict":{{"kind":"{r.verdict.kind}","value":{value}}},'
        f'"paper_match":{"true" if r.paper_match else "false"},'
        f'"paper_expected":{printer.element(r.paper_expected)},'
        f'"discrepancy":{discrepancy},"expectation_met":{"true" if met else "false"}}}'
    )


def _head_text(mode: str, ranges: dict) -> str:
    return (
        f"uqsl2 verify report (version {__version__}, mode {mode})\n"
        "ranges: n=0..{n_max} k=0..{k_max} m={m_range[0]}..{m_range[1]} "
        "p={p_range[0]}..{p_range[1]}\n".format(**ranges)
    )


def _tail_text(counts: dict) -> str:
    # the newline that ends the last report's line, then the summary line
    return (
        "\nsummary: reports={reports} exact_zero={exact_zero} central={central} "
        "residual={residual} paper_mismatch={paper_mismatch} "
        "expectations_met={expectations_met}/{reports}\n".format(**counts)
    )


def _head_json(mode: str, ranges: dict) -> str:
    # the ranges' (lo, hi) tuples encode as JSON arrays; "reports" is left
    # open for the reports to follow
    head = {"schema_version": 1, "version": __version__, "mode": mode, "ranges": ranges}
    return _compact_json(head)[:-1] + ',"reports":['


def _tail_json(counts: dict) -> str:
    return '],"summary":' + _compact_json(counts) + "}\n"


# each verify format: its report renderer, the text written between two
# reports, and the document's head and tail
_VERIFY_FORMATS = {
    "text": (_report_text, "\n", _head_text, _tail_text),
    "json": (_report_json, ",", _head_json, _tail_json),
}


# instances per chunk: a chunk is one task of a sweep worker
_CHUNK = 48


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(config: SuiteConfig):
    """The tasks of ``_check_chunk``: each claim's sweep in sweep order, cut
    into chunks of at most ``_CHUNK`` parameter dicts."""
    ranges = config.ranges()
    for claim in config.claims:
        params = sweep_params(claim, ranges)
        while chunk := list(islice(params, _CHUNK)):
            yield claim, chunk, config.mode, config.format


def _check_chunk(task) -> list:
    """Check and render one chunk: a (text, verdict kind, paper_match,
    expectation met) tuple per instance, in sweep order."""
    claim, params, mode, fmt = task
    render = _VERIFY_FORMATS[fmt][0]
    printer = Printer(fmt)
    rows = []
    for p in params:
        r = verify_claim(claim, p, mode)
        met = expectation_met(r)
        rows.append((render(r, met, printer), r.verdict.kind, r.paper_match, met))
    return rows


def _send(fd: int, data: bytes) -> None:
    """Write one frame to a pipe: the length of ``data`` in 8 bytes, then
    ``data``."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes from a worker's pipe; end of file before them
    means that the worker died."""
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            raise WorkerDied("a sweep worker died before returning its chunk")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _error_frame(exc: Exception) -> bytes:
    """``exc`` pickled, or, if it does not survive the round trip (its class
    is local, say, or an argument cannot be pickled), the nearest class of
    its MRO that does, made with its message.  ``Exception`` always
    does, so ``main`` prints the same ``error:`` line as on one CPU."""
    import pickle

    for cls in type(exc).__mro__:
        try:
            data = pickle.dumps(exc if cls is type(exc) else cls(str(exc)))
            pickle.loads(data)
            return data
        except Exception:
            continue


def _work(config: SuiteConfig, w: int, workers: int, reads: list, fd: int):
    """The body of sweep worker ``w`` of ``workers``, in a forked child: it
    checks chunks w, w + workers, ... and sends each one's rows, or the
    engine's error, as a frame down the pipe ``fd``, then a None frame.  It
    never returns: it leaves by ``os._exit``, so it runs none of the
    parent's exit handlers and flushes none of its buffers."""
    try:
        import pickle

        # the read ends of this and the earlier workers' pipes
        for r in reads:
            os.close(r)
        for task in islice(_chunks(config), w, None, workers):
            try:
                rows = _check_chunk(task)
            except Exception as exc:
                _send(fd, _error_frame(exc))
                return
            # a write that fills the pipe blocks until the parent reads
            _send(fd, pickle.dumps(rows))
        _send(fd, pickle.dumps(None))
    finally:
        # a closed pipe (a dead parent) raises BrokenPipeError, and ends here
        os._exit(0)


def _from_workers(config: SuiteConfig, workers: int):
    """The rows of each chunk of the sweep, in sweep order, from ``workers``
    forked workers, one pipe each.  Worker w checks chunks w, w + workers,
    ..., so the frames are read from the pipes in turn.  However the caller
    stops reading, every worker is killed and reaped."""
    # imported here, before the workers fork: no other command uses them
    import pickle
    import signal

    reads, pids = [], []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            reads.append(r)
            if (pid := os.fork()) == 0:
                _work(config, w, workers, reads, fd)
            pids.append(pid)
            os.close(fd)
        for r in cycle(reads):
            frame = pickle.loads(_read(r, int.from_bytes(_read(r, 8), "little")))
            if frame is None:
                # the chunk due from this worker is past the last one
                return
            if isinstance(frame, Exception):
                raise frame
            yield frame
    finally:
        for r in reads:
            os.close(r)
        # where SIGCHLD is ignored, the kernel reaps each worker as it ends,
        # so a worker that ended is neither found nor waited for
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def run_verify_suite(config: SuiteConfig, write) -> dict:
    """Write the verify document through ``write`` in one pass: the head,
    then the reports in sweep order, each chunk's as soon as it is checked,
    then the summary.  Returns the summary counts."""
    _, sep, head, tail = _VERIFY_FORMATS[config.format]
    # without fork (on Windows) the chunks run here
    workers = sum(1 for _ in islice(_chunks(config), _cpus())) if hasattr(os, "fork") else 1
    counts = dict.fromkeys(
        ("exact_zero", "central", "residual", "paper_mismatch", "reports", "expectations_met"), 0
    )

    def write_reports(results):
        for rows in results:
            for text, kind, paper_match, met in rows:
                if counts["reports"]:
                    write(sep)
                counts[kind] += 1
                counts["paper_mismatch"] += not paper_match
                counts["reports"] += 1
                counts["expectations_met"] += met
                write(text)

    write(head(config.mode.value, config.ranges()))
    if workers == 1:
        write_reports(map(_check_chunk, _chunks(config)))
    else:
        results = _from_workers(config, workers)
        try:
            write_reports(results)
        finally:
            # by any way out, a failed write included: the workers go now
            results.close()
    write(tail(counts))
    return counts


# the element subcommands: every call of the expression language, and "mul"
# second (spreading CALLS over the dict keeps "nf" in first place)
_COMMANDS = {
    "nf": CALLS["nf"],
    "mul": CallSpec(
        "product of two expressions", ("left", "right"), lambda mode, a, b: el_mul(a, b)
    ),
    **CALLS,
}


class _SubcommandParser(argparse.ArgumentParser):
    """Reads a word that begins with a single "-" as an operand unless it is
    one of the parser's own option strings, so that an expression such as
    "-x+[0]*K", which is how a negative result prints, needs no "--"."""

    def _parse_optional(self, arg_string):
        if (
            arg_string[:1] == "-"
            and arg_string[1:2] != "-"
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uqsl2",
        description="Exact computations in the loop presentation of the "
        "quantized affine sl2 and verification of its Heisenberg-type family.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    defaults = SuiteConfig._field_defaults
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    for cmd, spec in _COMMANDS.items():
        p = sub.add_parser(cmd, help=spec.help)
        for name in spec.args:
            if name in ELEMENT_ARGS:
                p.add_argument(name)
            elif name == "sign":
                p.add_argument(name, choices=SIGNS)
            else:
                # only an option such as "--p" uses the default
                p.add_argument(name, type=int, default=0)
        p.add_argument("--mode", default=defaults["mode"].value, choices=_MODES)
        p.add_argument("--format", default="text", choices=FORMATS)

    p = sub.add_parser("verify", help="run claim verification sweeps")
    p.add_argument("--claims", default=_DEFAULT_CLAIMS)
    p.add_argument("--n-max", type=int, default=defaults["n_max"])
    p.add_argument("--k-max", type=int, default=defaults["k_max"])
    p.add_argument("--m-range", default="{}:{}".format(*defaults["m_range"]))
    p.add_argument("--p-range", default="{}:{}".format(*defaults["p_range"]))
    p.add_argument("--mode", default=defaults["mode"].value, choices=_MODES)
    p.add_argument("--format", default=defaults["format"], choices=_VERIFY_FORMATS)
    return ap


def _verify_config(args) -> SuiteConfig:
    claims = []
    for name in filter(None, (c.strip() for c in args.claims.split(","))):
        if name.lower() not in _CLI_CLAIMS:
            raise ConfigError(f"unknown claim {name!r} (use {','.join(_CLI_CLAIMS)})")
        claims.append(_CLI_CLAIMS[name.lower()])
    if not claims:
        raise ConfigError("no claims selected")
    if args.n_max < 0 or args.k_max < 0:
        raise ConfigError("n-max and k-max must be nonnegative")
    config = SuiteConfig(
        # a claim named twice is swept once
        claims=list(dict.fromkeys(claims)),
        n_max=args.n_max,
        k_max=args.k_max,
        m_range=_parse_range(args.m_range),
        p_range=_parse_range(args.p_range),
        mode=RelationMode(args.mode),
        format=args.format,
    )
    # raised here, before the document's first byte is written
    for claim in config.claims:
        if next(sweep_params(claim, config.ranges()), None) is None:
            raise ConfigError(f"claim {claim} has no valid parameter tuples in the given ranges")
    return config


def _element_command(args) -> Element:
    mode = RelationMode(args.mode)
    spec = _COMMANDS[args.command]
    values = []
    for name in spec.args:
        value = getattr(args, name.lstrip("-"))
        values.append(evaluate(value, mode) if name in ELEMENT_ARGS else value)
    return spec.fn(mode, *values)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            counts = run_verify_suite(_verify_config(args), sys.stdout.write)
            return 0 if counts["expectations_met"] == counts["reports"] else 1
        element = _element_command(args)
        print(print_element(element, args.format))
        return 0
    # RecursionError: the parser takes a few frames per nesting level, so
    # deeply nested input outgrows the stack
    except (ParseError, EvalError, ConfigError, ValueError, RecursionError, WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; the sweep's workers are gone already.  What
        # is still buffered goes to devnull, so that the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
