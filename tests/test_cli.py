import contextlib
import decimal
import fcntl
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from uqsl2 import __version__
from uqsl2 import cli
from uqsl2.cli import _COMMANDS, SuiteConfig, main, run_verify_suite
from uqsl2.coeff import RatFunc
from uqsl2.elements import Element
from uqsl2.expr import CALLS, ELEMENT_ARGS, evaluate
from uqsl2.render import FORMATS, print_element
from uqsl2.rewrite import RelationMode, commutator, deformed_commutator, normal_form
from uqsl2.verify import CLAIMS, expectation_met, verify_claim

from helpers import element_to_obj, equals, json_to_element, rand_element, sweep_claim

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv, env=None, monkeypatch=None):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_version_flag_prints_the_package_version():
    assert run_cli(["--version"]) == (0, f"{__version__}\n", "")


def test_psi_command():
    code, out, _ = run_cli(["psi", "1"])
    assert code == 0
    assert out.strip() == "(q - q^-1)*a[1]*K"


def test_nf_command():
    code, out, _ = run_cli(["nf", "q^2*x+[0]*K - K*x+[0]"])
    assert code == 0
    assert out.strip() == "0"


def test_a_digit_that_is_not_decimal_exits_2_at_its_offset():
    assert run_cli(["nf", "x+[²]"]) == (2, "", "error: expected integer, found '²' at offset 3\n")


def test_mul_and_comm():
    code, out, _ = run_cli(["mul", "K", "x+[0]"])
    assert code == 0
    assert out.strip() == "q^2*x+[0]*K"
    code, out, _ = run_cli(["comm", "K", "a[5]"])
    assert code == 0
    assert out.strip() == "0"


def test_dcomm_command():
    # EP at n = 0, k = 1 in full mode: not 0 but a sum of same-sign pairs
    # whose coefficients vanish at q = 1
    code, out, _ = run_cli(
        ["dcomm", "E(+,0,0,0)", "E(+,0,0,-2)", "--p", "0", "--mode", "full"]
    )
    assert code == 0
    assert out.strip() == (
        "(-u^3 + q^-2*u^3)*x-[-1]*x-[1] + (-u^3 + q^-2*u^3)*x-[0]*x-[0]"
        " + (q^2*u - u)*x+[-2]*x+[0] + (q^2*u - u)*x+[-1]*x+[-1]"
    )


def test_e_and_c_commands():
    code, out, _ = run_cli(["E", "+", "1", "0", "-1"])
    assert code == 0
    assert out.strip() == "u*x-[0]*K^-2 + x+[-1]"
    code, out, _ = run_cli(["c", "+", "0", "1"])
    assert code == 0
    assert "gamma" in out


def test_omega_command():
    code, out, _ = run_cli(["omega", "x+[2]"])
    assert code == 0
    assert out.strip() == "x-[-2]"


def test_json_format():
    code, out, _ = run_cli(["psi", "0", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][0]["kexp"] == 1


def test_exit_code_0_all_expectations_met():
    code, out, _ = run_cli(
        [
            "verify",
            "--claims",
            "ep",
            "--n-max",
            "1",
            "--k-max",
            "2",
            "--m-range",
            "0:0",
            "--p-range",
            "0:0",
            "--mode",
            "full",
        ]
    )
    assert code == 0
    assert "expectations_met=3/3" in out


def test_exit_code_1_discrepancies():
    code, out, _ = run_cli(
        [
            "verify",
            "--claims",
            "commc",
            "--n-max",
            "0",
            "--m-range",
            "0:0",
            "--p-range",
            "0:0",
            "--mode",
            "full",
        ]
    )
    assert code == 1
    assert "paper_match=no" in out


def test_exit_code_2_bad_config():
    # EP with no valid n < k pair in range
    code, out, err = run_cli(
        ["verify", "--claims", "ep", "--n-max", "2", "--k-max", "0", "--m-range", "0:0", "--p-range", "0:0"]
    )
    assert (code, out) == (2, "")
    assert "error: claim EP has no valid parameter tuples" in err
    code, _, err = run_cli(["verify", "--claims", "nonsense"])
    assert code == 2
    code, _, err = run_cli(["verify", "--m-range", "5:1"])
    assert code == 2
    code, _, err = run_cli(["nf", "x+["])
    assert code == 2
    # a divisor other than c q^a u^b (q - q^-1)^k
    code, out, err = run_cli(["nf", "x-[1]/(q^2+1)"])
    assert (code, out) == (2, "")
    assert "c*q^a*u^b*(q - q^-1)^k" in err


def test_mode_flag_selects_the_relation_mode():
    # full mode, the default, applies x+_1 x+_0 = q^2 x+_0 x+_1; Strict
    # leaves the word
    assert run_cli(["nf", "x+[1]*x+[0]"]) == (0, "q^2*x+[0]*x+[1]\n", "")
    assert run_cli(["nf", "x+[1]*x+[0]", "--mode", "strict"]) == (0, "x+[1]*x+[0]\n", "")
    code, out, _ = run_cli(["nf", "x+[0]", "--mode", "bogus"])
    assert (code, out) == (2, "")


def test_every_entry_point_decides_in_full_mode_by_default():
    # x+_1 x+_0 = q^2 x+_0 x+_1 holds in U_q(sl2-hat), by the same-sign x
    # relation that Strict mode leaves out
    full, strict = RelationMode.FULL, RelationMode.STRICT
    word = evaluate("x+[1]*x+[0]", full)
    sorted_word = evaluate("q^2*x+[0]*x+[1]", full)
    assert normal_form(word) == sorted_word != normal_form(word, strict)
    a, b = evaluate("x+[1]", full), evaluate("x+[0]", full)
    assert commutator(a, b) == commutator(a, b, full) != commutator(a, b, strict)
    assert deformed_commutator(a, b, 1) == deformed_commutator(a, b, 1, full)
    assert deformed_commutator(a, b, 1) != deformed_commutator(a, b, 1, strict)
    assert equals(word, sorted_word) and not equals(word, sorted_word, strict)
    assert verify_claim("EP", {"n": 0, "k": 1, "m": 0, "p": 0}).mode is full
    assert evaluate("nf(x+[1]*x+[0])") == sorted_word
    assert run_cli(["nf", "x+[1]*x+[0]"]) == (0, "q^2*x+[0]*x+[1]\n", "")
    small = ["--n-max", "1", "--k-max", "1", "--m-range", "0:0", "--p-range", "0:0"]
    code, out, _ = run_cli(["verify", "--claims", "ep", *small])
    assert out.startswith(f"uqsl2 verify report (version {__version__}, mode full)\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-max", "-1"],
        ["--k-max", "x"],
        ["--m-range", "1"],
        ["--m-range", "2:1"],
        ["--p-range", "0:1.0"],
        ["--format", "yaml"],
        ["--claims", ","],
        # a sweep is set up by its flags alone
        ["--config", "c.json"],
    ],
)
def test_a_bad_verify_flag_exits_2_with_nothing_on_stdout(flags):
    code, out, err = run_cli(["verify", *flags])
    assert (code, out) == (2, "")
    assert err


def test_the_verify_flags_default_to_the_suite_config():
    config = cli._verify_config(cli.build_parser().parse_args(["verify"]))
    assert config == SuiteConfig(claims=["EP", "EM", "COMMC", "OMEGA_E", "REFLECT"])


def test_verify_json_report():
    code, out, _ = run_cli(
        [
            "verify",
            "--claims",
            "omega",
            "--n-max",
            "1",
            "--m-range",
            "0:0",
            "--p-range",
            "0:1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["reports"] == len(doc["reports"])
    counts = doc["summary"]
    assert counts["exact_zero"] + counts["central"] + counts["residual"] == counts["reports"]
    assert all(r["paper_match"] for r in doc["reports"])


def test_verify_output_deterministic():
    argv = [
        "verify",
        "--claims",
        "commc",
        "--n-max",
        "1",
        "--m-range",
        "-1:1",
        "--p-range",
        "0:0",
        "--mode",
        "full",
        "--format",
        "json",
    ]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


_SMALL = {"n_max": 2, "k_max": 2, "m_range": (-1, 1), "p_range": (-1, 0)}
_SWEPT = [name for name, c in CLAIMS.items() if c.cli_name]


def _whole_document(mode, fmt):
    # the report built from every report at once: one json.dumps of the
    # whole document, or one line per report
    reports = [r for claim in _SWEPT for r in sweep_claim(claim, _SMALL, mode)]
    counts = {"exact_zero": 0, "central": 0, "residual": 0, "paper_mismatch": 0}
    for r in reports:
        counts[r.verdict.kind] += 1
        counts["paper_mismatch"] += not r.paper_match
    counts["reports"] = len(reports)
    counts["expectations_met"] = sum(map(expectation_met, reports))
    if fmt == "json":
        obj = {
            "schema_version": 1,
            "version": __version__,
            "mode": mode.value,
            "ranges": {k: list(v) if isinstance(v, tuple) else v for k, v in _SMALL.items()},
            "reports": [
                {
                    "claim": r.claim,
                    "params": dict(sorted(r.params.items())),
                    "mode": r.mode.value,
                    "verdict": {"kind": r.verdict.kind, "value": element_to_obj(r.verdict.value)},
                    "paper_match": r.paper_match,
                    "paper_expected": element_to_obj(r.paper_expected),
                    "discrepancy": element_to_obj(r.discrepancy),
                    "expectation_met": expectation_met(r),
                }
                for r in reports
            ],
            "summary": counts,
        }
        return json.dumps(obj, separators=(",", ":"))
    lines = [
        f"uqsl2 verify report (version {__version__}, mode {mode.value})",
        "ranges: n=0..2 k=0..2 m=-1..1 p=-1..0",
    ]
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        line = (
            f"claim={r.claim} {params} verdict={r.verdict.kind} "
            f"paper_match={'yes' if r.paper_match else 'no'} "
            f"expectation={'met' if expectation_met(r) else 'FAILED'}"
        )
        if not r.paper_match:
            line += f" discrepancy={print_element(r.discrepancy)}"
        lines.append(line)
    lines.append(
        "summary: reports={reports} exact_zero={exact_zero} central={central} "
        "residual={residual} paper_mismatch={paper_mismatch} "
        "expectations_met={expectations_met}/{reports}".format(**counts)
    )
    return "\n".join(lines)


@pytest.mark.parametrize("mode", list(RelationMode))
def test_verify_prints_the_whole_document_byte_for_byte(mode):
    claims = ",".join(CLAIMS[name].cli_name for name in _SWEPT)
    for fmt in ("json", "text"):
        argv = ["verify", "--claims", claims, "--n-max", "2", "--k-max", "2"]
        argv += ["--m-range=-1:1", "--p-range=-1:0", "--mode", mode.value, "--format", fmt]
        _, out, _ = run_cli(argv)
        assert out == _whole_document(mode, fmt) + "\n"


class _Writes(io.StringIO):
    """stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_streams_the_document(fmt):
    # the document goes out piece by piece: the head, each report with a
    # separator between two, and the tail, so it is never one string; the
    # command writes exactly these pieces to stdout
    pieces = []
    counts = run_verify_suite(SuiteConfig(claims=_SWEPT, **_SMALL, format=fmt), pieces.append)
    assert len(pieces) == 2 * counts["reports"] + 1 > 3
    assert set(pieces[2:-1:2]) == {"," if fmt == "json" else "\n"}
    assert max(map(len, pieces)) == max(map(len, pieces[1:-1:2]))
    assert "".join(pieces) == _whole_document(RelationMode.FULL, fmt) + "\n"
    claims = ",".join(CLAIMS[name].cli_name for name in _SWEPT)
    argv = ["verify", "--claims", claims, "--n-max", "2", "--k-max", "2"]
    argv += ["--m-range=-1:1", "--p-range=-1:0", "--format", fmt]
    out = _Writes()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert out.sizes == list(map(len, pieces))


def _count_worker_checks(monkeypatch, tmp_path):
    """A function that returns how many chunks sweep workers have checked.
    The patched ``_check_chunk``, which the workers inherit when they fork,
    appends a byte to a file for each chunk it checks in another process."""
    parent = os.getpid()
    path = tmp_path / "checked"
    path.write_bytes(b"")
    check = cli._check_chunk

    def counting(task):
        rows = check(task)
        if os.getpid() != parent:
            with open(path, "ab") as fh:
                fh.write(b".")
        return rows

    monkeypatch.setattr(cli, "_check_chunk", counting)
    return lambda: path.stat().st_size


def _no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _small_argv(fmt, mode=RelationMode.FULL):
    claims = ",".join(CLAIMS[name].cli_name for name in _SWEPT)
    argv = ["verify", "--claims", claims, "--n-max", "2", "--k-max", "2"]
    return argv + ["--m-range=-1:1", "--p-range=-1:0", "--mode", mode.value, "--format", fmt]


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_worker_and_many_write_the_same_document(cpus, monkeypatch, tmp_path):
    # with one CPU the chunks are checked here, one after another; with two
    # two forked workers check them and this process writes the reports
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    checked = _count_worker_checks(monkeypatch, tmp_path)
    chunks = len(list(cli._chunks(SuiteConfig(claims=_SWEPT, **_SMALL))))
    assert chunks > 2
    for mode in RelationMode:
        for fmt in ("json", "text"):
            code, out, err = run_cli(_small_argv(fmt, mode))
            assert (code, out, err) == (1, _whole_document(mode, fmt) + "\n", "")
    assert checked() == (0 if cpus == 1 else 4 * chunks)
    assert _no_child_left()


def test_without_fork_the_chunks_run_here(monkeypatch, tmp_path):
    # where there is no os.fork (Windows), a sweep that would have workers
    # checks its chunks in this process and writes the same document
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    checked = _count_worker_checks(monkeypatch, tmp_path)
    assert len(list(cli._chunks(SuiteConfig(claims=_SWEPT, **_SMALL)))) > 2
    for fmt in ("json", "text"):
        assert run_cli(_small_argv(fmt)) == (1, _whole_document(RelationMode.FULL, fmt) + "\n", "")
    assert checked() == 0


def _uqsl2(argv, **kwargs):
    """``python3 -m uqsl2.cli ARGV`` in a child process."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen([sys.executable, "-m", "uqsl2.cli", *argv], env=env, **kwargs)


def test_a_child_process_writes_the_document_once(tmp_path):
    # stdout is a file, so the head is still in its buffer when the workers
    # fork: a worker that flushed its copy of the buffer would write the
    # head twice
    argv = _small_argv("json")
    path = tmp_path / "doc.json"
    with open(path, "w") as fh:
        assert _uqsl2(argv, stdout=fh).wait(timeout=120) == 1
    assert path.read_text() == run_cli(argv)[1]


@pytest.mark.parametrize(
    "argv, chunks",
    [
        # 40 EP instances, about 200 KB of JSON: more than a pipe holds
        (["--claims", "ep", "--n-max", "0", "--k-max", "40", "--m-range=0:0", "--p-range=0:0"], 1),
        # the default sweep, 1,100 instances, about 1.3 MB
        ([], 27),
    ],
    ids=["one-chunk", "many-chunks"],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv, chunks):
    argv = ["verify", *argv, "--format", "json"]
    config = cli._verify_config(cli.build_parser().parse_args(argv))
    assert len(list(cli._chunks(config))) == chunks
    proc = _uqsl2(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert (first, err) == (b'{"schema_v', b"")


def test_a_killed_parent_leaves_no_worker():
    # SIGKILL runs no handler in the CLI, so its workers must leave on their
    # own: each meets a closed pipe at its next write.  The CLI leads a
    # session of its own, so only it and its workers are in its group
    proc = _uqsl2(["verify", "--n-max", "24"], stdout=subprocess.PIPE, start_new_session=True)
    try:
        # the reports come after the workers fork
        assert len(proc.stdout.read(1 << 16)) == 1 << 16
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 30
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived its killed parent by 30 s"
            time.sleep(0.05)
    finally:
        proc.stdout.close()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_no_worker_outlives_main(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    code, _, _ = run_cli(_small_argv("text"))
    assert code == 1
    assert _no_child_left()


def test_a_sweep_runs_where_sigchld_is_ignored(monkeypatch):
    # a process that inherits an ignored SIGCHLD has its children reaped by
    # the kernel, so waiting for a killed worker finds no child to wait for
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        result = run_cli(_small_argv("json"))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert result == (1, _whole_document(RelationMode.FULL, "json") + "\n", "")
    assert _no_child_left()


def _recursion_error():
    return RecursionError("maximum recursion depth exceeded")


def _unpicklable_error():
    # pickle finds a class by its qualified name, which a local class's
    # "<locals>" step cannot resolve
    class Unpicklable(ValueError):
        pass

    return Unpicklable("no value for this instance")


@pytest.mark.parametrize("error", [_recursion_error, _unpicklable_error])
@pytest.mark.parametrize("cpus", [1, 2])
def test_an_engine_error_in_a_sweep_exits_2_with_its_message(cpus, error, monkeypatch):
    # an engine error at one OMEGA_E instance, raised here or in a worker
    # (the workers fork after the patch, so they inherit it), gives the same
    # status and error line, even where the error cannot be pickled
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    argv = _small_argv("text")
    whole = run_cli(argv)[1]
    instance = CLAIMS["OMEGA_E"].instance
    exc = error()

    def failing(params, mode):
        if params == {"n": 1, "m": 0, "p": 0, "sign": "+"}:
            raise exc
        return instance(params, mode)

    monkeypatch.setitem(CLAIMS, "OMEGA_E", CLAIMS["OMEGA_E"]._replace(instance=failing))
    code, out, err = run_cli(argv)
    assert (code, err) == (2, f"error: {exc}\n")
    assert whole.startswith(out)
    assert "claim=COMMC " in out and "claim=OMEGA_E " not in out
    assert _no_child_left()


def test_a_dead_worker_fails_the_sweep_and_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    argv = _small_argv("text")
    whole = run_cli(argv)[1]
    # SIGKILL, as the out-of-memory killer sends, to the worker that checks
    # one OMEGA_E instance: the workers fork after the patch, so they
    # inherit it, and this process never runs it
    instance = CLAIMS["OMEGA_E"].instance
    parent = os.getpid()

    def killed(params, mode):
        if os.getpid() != parent and params == {"n": 1, "m": 0, "p": 0, "sign": "+"}:
            os.kill(os.getpid(), signal.SIGKILL)
        return instance(params, mode)

    monkeypatch.setitem(CLAIMS, "OMEGA_E", CLAIMS["OMEGA_E"]._replace(instance=killed))

    def hung(signum, frame):
        raise TimeoutError("the sweep did not exit within 30 s of a worker's death")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code, out, err = run_cli(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, err) == (2, "error: a sweep worker died before returning its chunk\n")
    # the chunks in flight with the lost one fail with it
    assert whole.startswith(out) and "claim=OMEGA_E " not in out
    assert _no_child_left()


def _settled(count, quiet=1.0, limit=60.0):
    """``count()`` once it has not changed for ``quiet`` seconds."""
    deadline = time.monotonic() + limit
    last, since = count(), time.monotonic()
    while time.monotonic() - since < quiet:
        assert time.monotonic() < deadline, f"still changing after {limit} s"
        time.sleep(0.05)
        if (now := count()) != last:
            last, since = now, time.monotonic()
    return last


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_stalled_writer_stalls_the_workers(fmt, monkeypatch, tmp_path):
    # a worker whose pipe is full blocks, so the reports of a wide sweep
    # never pile up behind a slow writer.  While the first report's write
    # stalls, worker w has checked at most: the chunks this process has
    # read from it, the next ones whose frames fit in the pipe together,
    # and the one whose frame it is writing.  A frame holds its reports'
    # text and more, so the text's length bounds how many fit
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    checked = _count_worker_checks(monkeypatch, tmp_path)
    config = SuiteConfig(claims=_SWEPT, format=fmt)
    sizes = [len(task[1]) for task in cli._chunks(config)]
    assert len(sizes) == 27
    r, w = os.pipe()
    capacity = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ)
    os.close(r)
    os.close(w)
    pieces, stalled = [], []

    def write(s):
        # the head, then the first report
        if len(pieces) == 1:
            stalled.append(_settled(checked))
        pieces.append(s)

    counts = run_verify_suite(config, write)
    assert counts["reports"] == sum(sizes) and len(pieces) == 2 * sum(sizes) + 1
    reports = iter(pieces[1:-1:2])
    text = [sum(len(next(reports)) for _ in range(size)) for size in sizes]
    bound = 0
    # this process has read worker 0's first frame, and none of worker 1's
    for worker, read in ((0, 1), (1, 0)):
        frames = text[worker::2]
        fit = max(k for k in range(len(frames) + 1) if sum(frames[read : read + k]) <= capacity)
        bound += read + fit + 1
    assert stalled[0] <= bound < 27
    assert checked() == 27
    assert _no_child_left()


def test_a_claim_named_twice_is_swept_once():
    small = ["--n-max", "1", "--k-max", "1", "--m-range", "0:0", "--p-range", "0:0"]
    once = run_cli(["verify", "--claims", "ep,commc", *small])
    assert once[0] == 1 and once[1].count("claim=EP") == 1
    assert run_cli(["verify", "--claims", "ep,EP,commc,ep", *small]) == once


# an operand for each argument name of a call of the language
_CALL_OPERANDS = {
    "expr": "x+[1]*x-[0] - gamma*a[-1]*K",
    "left": "x-[1]*K",
    "right": "x+[0] + (q - 1)/2*a[1]",
    "sign": "-",
    "--p": "-1",
    "p": "1",
    "m": "-2",
    "n": "1",
    "index": "-2",
}


@pytest.mark.parametrize("name", CALLS)
def test_each_call_of_the_language_prints_as_its_command(name):
    values = [_CALL_OPERANDS[arg] for arg in CALLS[name].args]
    operands = []
    for arg, value in zip(CALLS[name].args, values):
        operands += [arg, value] if arg.startswith("--") else [value]
    call = evaluate(f"{name}({', '.join(values)})")
    for fmt in FORMATS:
        code, out, err = run_cli([name, *operands, "--format", fmt])
        assert (code, out, err) == (0, print_element(call, fmt) + "\n", ""), fmt


def test_engine_recursion_error_is_a_usage_error(monkeypatch):
    from uqsl2 import expr

    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(expr, "normal_form", deep)
    code, out, err = run_cli(["nf", "a[2]*a[1]"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_input_is_a_usage_error():
    # the parser recurses a few frames deep per nesting level
    code, out, err = run_cli(["nf", "(" * 400 + "x+[0]" + ")" * 400])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_long_commuting_word_nf():
    word = "*".join(f"a[{i}]" for i in range(50, 0, -1))
    code, out, _ = run_cli(["nf", word])
    assert code == 0
    assert out == "*".join(f"a[{i}]" for i in range(1, 51)) + "\n"


# an operand that begins with "-" for each argument name of an element
# command; integers not listed here take "-1", and c's index n must be >= 0
_MINUS_OPERANDS = {"expr": "-x+[0]*K", "left": "-x+[1]", "right": "-a[1]*K", "sign": "-", "n": "0"}


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
def test_element_commands_take_operands_that_begin_with_minus(cmd):
    operands = []
    reference = []  # the same operands, each expression in parentheses
    for name in _COMMANDS[cmd].args:
        value = _MINUS_OPERANDS.get(name, "-1")
        if name.startswith("--"):
            operands += [name, value]
            reference += [name, value]
        else:
            operands.append(value)
            reference.append(f"({value})" if name in ELEMENT_ARGS else value)
    code, expected, err = run_cli([cmd, *reference, "--format", "json"])
    assert code == 0, err
    # --mode and --format before, between and after the operands
    for argv in (
        [cmd, "--mode", "strict", "--format", "json", *operands],
        [cmd, operands[0], "--format", "json", *operands[1:], "--mode", "strict"],
        [cmd, *operands, "--mode", "strict", "--format", "json"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (0, expected, ""), argv


def test_printed_negative_result_feeds_back_to_nf():
    rng = random.Random(41)
    negative = 0
    for _ in range(40):
        code, printed, _ = run_cli(["nf", "--", print_element(rand_element(rng, max_len=3))])
        assert code == 0
        printed = printed.strip()
        if not printed.startswith("-"):
            continue
        negative += 1
        code, again, err = run_cli(["nf", printed])
        assert (code, again.strip(), err) == (0, printed, "")
    code, out, _ = run_cli(["nf", "x-[0]*x+[1] - x+[1]*x-[0]"])
    assert (code, out.strip()) == (0, "-u*a[1]*K")
    assert run_cli(["nf", out.strip()])[1] == out
    assert negative >= 5


def test_integers_past_the_conversion_limit_print_and_parse_exactly():
    # Python refuses int <-> str past 4,300 digits unless told otherwise;
    # the engine prints and parses such coefficients without touching that
    # interpreter-wide limit
    want = Element.from_coeff(RatFunc.from_int(2**20000))
    code, out, _ = run_cli(["nf", "2^20000"])
    text = out.strip()
    assert code == 0 and text.isdigit() and len(text) == 6021
    with decimal.localcontext() as ctx:
        ctx.prec = 7000
        assert decimal.Decimal(text) == decimal.Decimal(2) ** 20000
    assert evaluate(text) == want
    code, out, _ = run_cli(["nf", "2^20000", "--format", "json"])
    assert code == 0 and json_to_element(json.loads(out)) == want
    digits = "7" * 5000
    code, out, _ = run_cli(["nf", digits + "*x+[0]"])
    assert code == 0 and out.strip() == digits + "*x+[0]"
