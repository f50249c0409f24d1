import io
import json
import contextlib

import pytest

from uqsl2.cli import main


def run_cli(argv, env=None, monkeypatch=None):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_psi_command():
    code, out, _ = run_cli(["psi", "1"])
    assert code == 0
    assert out.strip() == "(q - q^-1)*a[1]*K"


def test_nf_command():
    code, out, _ = run_cli(["nf", "q^2*x+[0]*K - K*x+[0]"])
    assert code == 0
    assert out.strip() == "0"


def test_mul_and_comm():
    code, out, _ = run_cli(["mul", "K", "x+[0]"])
    assert code == 0
    assert out.strip() == "q^2*x+[0]*K"
    code, out, _ = run_cli(["comm", "K", "a[5]"])
    assert code == 0
    assert out.strip() == "0"


def test_dcomm_command():
    code, out, _ = run_cli(
        ["dcomm", "E(+,0,0,0)", "E(+,0,0,-2)", "--p", "0", "--mode", "abelianx"]
    )
    assert code == 0
    assert out.strip() == "0"


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
            "abelianx",
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
            "abelianx",
        ]
    )
    assert code == 1
    assert "paper_match=no" in out


def test_exit_code_2_bad_config():
    # EP with no valid n < k pair in range
    code, _, err = run_cli(
        ["verify", "--claims", "ep", "--n-max", "2", "--k-max", "0", "--m-range", "0:0", "--p-range", "0:0"]
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(["verify", "--claims", "nonsense"])
    assert code == 2
    code, _, err = run_cli(["verify", "--m-range", "5:1"])
    assert code == 2
    code, _, err = run_cli(["nf", "x+["])
    assert code == 2


def test_env_var_default_mode(monkeypatch):
    monkeypatch.setenv("UQSL2_MODE", "abelianx")
    code, out, _ = run_cli(["nf", "x+[1]*x+[0]"])
    assert code == 0
    assert out.strip() == "x+[0]*x+[1]"
    monkeypatch.setenv("UQSL2_MODE", "strict")
    code, out, _ = run_cli(["nf", "x+[1]*x+[0]"])
    assert out.strip() == "x+[1]*x+[0]"
    monkeypatch.setenv("UQSL2_MODE", "bogus")
    code, _, err = run_cli(["nf", "x+[0]"])
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("UQSL2_MODE", raising=False)
    cfg = tmp_path / "verify.json"
    cfg.write_text(
        json.dumps(
            {
                "claims": "ep",
                "n_max": 1,
                "k_max": 2,
                "m_range": "0:0",
                "p_range": "0:0",
                "mode": "abelianx",
            }
        )
    )
    code, out, _ = run_cli(["verify", "--config", str(cfg)])
    assert code == 0
    assert "mode abelianx" in out
    # flags win over the config file
    code, out, _ = run_cli(["verify", "--config", str(cfg), "--mode", "strict"])
    assert "mode strict" in out
    assert code == 0  # EP in strict: residuals have empty x-free projection


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
        "abelianx",
        "--format",
        "json",
    ]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


def test_explicit_claims_flag_beats_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("UQSL2_MODE", raising=False)
    cfg = tmp_path / "verify.json"
    cfg.write_text(
        json.dumps(
            {"claims": "commc", "n_max": 1, "k_max": 1, "m_range": "0:0", "p_range": "0:0"}
        )
    )

    def claims(argv):
        _, out, _ = run_cli(["verify", "--config", str(cfg)] + argv)
        return {line.split()[0] for line in out.splitlines() if line.startswith("claim=")}

    assert claims([]) == {"claim=COMMC"}
    # the flag's value equals the default, and it still wins
    assert claims(["--claims", "ep,em,commc,omega,reflect"]) == {
        f"claim={c}" for c in ("EP", "EM", "COMMC", "OMEGA_E", "REFLECT")
    }


def test_engine_recursion_error_is_a_usage_error(monkeypatch):
    from uqsl2 import expr

    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(expr, "normal_form", deep)
    code, out, err = run_cli(["nf", "a[2]*a[1]"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
