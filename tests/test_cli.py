import json
import os
import resource
import subprocess
import sys
from contextlib import contextmanager

import pytest

import fibpart
from fibpart.chi_analysis import count_zero_chi, h_rec
from fibpart.cli import main
from fibpart.contfrac import parse_word
from fibpart.counting import chi, count_F
from fibpart.enumeration import psi
from fibpart.fibcore import fib, zeckendorf
from fibpart.orbits import theta

RECORD_KEYS = {"n", "zeckendorf", "word", "F", "chi", "essential"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_record(capsys):
    code, out, _ = run(capsys, "info", "37")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == RECORD_KEYS
    assert rec == {"n": 37, "zeckendorf": [3, 8], "word": "1/2*1/3",
                   "F": 6, "chi": 0, "essential": True}


def test_info_record_consistency(capsys):
    for n in (0, 1, 24, 63, 100, 707):
        code, out, _ = run(capsys, "info", str(n), "--poly")
        rec = json.loads(out)
        assert code == 0
        assert set(rec) == RECORD_KEYS | {"poly"}
        assert rec["chi"] in (-1, 0, 1)
        assert sum(rec["poly"]) == rec["F"]
        word = rec["word"]
        dens = [int(tok.split("/")[1]) for tok in word.split("*")] if word != "1" else []
        prod = 1
        for d in dens:
            prod *= d
        assert prod == rec["F"]


def test_poly(capsys):
    code, out, _ = run(capsys, "poly", "100")
    assert code == 0 and json.loads(out) == [0, 0, 0, 1, 2, 3, 2, 1]


def test_chi(capsys):
    code, out, _ = run(capsys, "chi", "100")
    assert code == 0 and out.strip() == "-1"


def test_word_and_theta_round_trip(capsys):
    code, out, _ = run(capsys, "word", "63")
    assert code == 0 and out.strip() == "3/8"
    code, out, _ = run(capsys, "theta", "3/8")
    assert code == 0 and out.strip() == "63"
    code, out, _ = run(capsys, "theta", "1")
    assert code == 0 and out.strip() == "0"


def test_essential(capsys):
    code, out, _ = run(capsys, "essential", "24")
    assert code == 0 and json.loads(out) == {"n": 24, "essential": True, "m": 6}
    code, out, _ = run(capsys, "essential", "4")
    assert code == 0 and json.loads(out) == {"n": 4, "essential": False, "m": None}


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "3", "--apply", "tau")
    assert code == 0 and json.loads(out)["result"] == 6
    code, out, _ = run(capsys, "orbit", "24", "--apply", "omega,S,S")
    rec = json.loads(out)
    assert code == 0 and rec["n"] == 24 and rec["apply"] == "omega,S,S"


def test_orbit_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "orbit", "0", "--apply", "tau")
    assert code == 1 and "tau" in err and not out


def test_orbit_unknown_generator_exits_2(capsys):
    code, _, err = run(capsys, "orbit", "3", "--apply", "rho")
    assert code == 2 and "rho" in err


def test_psi_and_enumerate(capsys):
    code, out, _ = run(capsys, "psi", "12")
    assert code == 0 and out.strip() == "22"
    code, out, _ = run(capsys, "psi-sigma", "4")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "enumerate", "5")
    assert code == 0 and out.split() == ["24", "29", "55", "87"]


def test_minimal(capsys):
    code, out, _ = run(capsys, "minimal", "8")
    assert code == 0 and json.loads(out) == {"k": 8, "M": 63, "word": "3/8"}


def test_stability(capsys):
    code, out, _ = run(capsys, "stability", "12", "6")
    assert code == 0 and out.strip() == "12"


def test_zeros(capsys):
    code, out, _ = run(capsys, "zeros", "7")
    assert code == 0 and json.loads(out) == {"N": 7, "zeros": 3, "X": 4}


def test_runs(capsys):
    code, out, _ = run(capsys, "runs", "0", "30")
    assert code == 0
    reports = json.loads(out)
    assert reports[0] == {"start": 1, "length": 2, "kind": "nonzero", "values": [-1, -1]}
    starts = [r["start"] for r in reports]
    assert starts == sorted(starts)
    for rep in reports:
        assert ("values" in rep) == (rep["kind"] == "nonzero")


def test_hull(capsys):
    code, out, _ = run(capsys, "hull", "9")
    rec = json.loads(out)
    assert code == 0 and rec["match"] is True
    assert rec["predicted"] == rec["computed"]
    assert rec["predicted"][0] == [55, 5]


def test_plot_row_count(capsys):
    code, out, _ = run(capsys, "plot", "5", "25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,F,chi"
    assert len(lines) == 1 + (25 - 5 + 1)
    assert lines[1] == "5,2,0"


def test_plot_runs_the_codec_once_per_row(capsys, codec_calls):
    code, out, _ = run(capsys, "plot", "100", "140")
    assert code == 0
    assert codec_calls == list(range(100, 141))
    for line in out.strip().split("\n")[1:]:
        n, F, c = map(int, line.split(","))
        assert (F, c) == (count_F(n), chi(n))


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "500")
    assert code == 0 and "501 values" in out


def test_word_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "theta", "2/4")
    assert code == 2 and "2/4" in err
    code, _, err = run(capsys, "theta", "5/3")
    assert code == 2 and "5/3" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["info", "-5"])
    assert exc.value.code == 2


def test_a_200_bit_scan_is_refused_and_one_row_answers(capsys):
    n = 1 << 200
    code, out, err = run(capsys, "runs", "0", str(n))
    assert code == 2 and not out and "HI=<201 bits>" in err
    # one row of a 200-bit n, four 64-bit words of the budget
    code, out, _ = run(capsys, "plot", str(n), str(n))
    assert code == 0 and out.split() == ["n,F,chi", "%d,%d,%d" % (n, count_F(n), chi(n))]


def test_zeros_is_not_capped(capsys):
    N = 1 << 200
    code, out, _ = run(capsys, "zeros", str(N))
    zeros = count_zero_chi(N)
    assert code == 0 and json.loads(out) == {"N": N, "zeros": zeros, "X": N - zeros}


def test_closed_form_paths_ignore_the_cap(capsys):
    # a 200-bit number works on the paths whose work does not grow with it
    n = (1 << 200) + 7
    code, out, _ = run(capsys, "info", str(n))
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == n and rec["F"] >= 1
    code, out, _ = run(capsys, "theta", "13/89")
    assert code == 0 and int(out) > 0


# ---------------------------------------------------------------------------
# the CLI as its own process

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fibpart.__file__)))


def _argv(*args):
    return [sys.executable, "-m", "fibpart.cli", *args]


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))


def run_process(*args, timeout=60):
    return subprocess.run(_argv(*args), capture_output=True, text=True,
                          timeout=timeout, env=_env())


def _cap_address_space():
    # at 1 GiB a Fibonacci table out to f_200001 (about 1.7 GB) cannot be
    # built: the child fails fast instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@contextmanager
def _no_digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    old = get() if get else None
    if get:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if get:
            sys.set_int_max_str_digits(old)


def test_zeros_answers_at_40_bits():
    proc = run_process("zeros", str(10 ** 12), timeout=5)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["N"] == 10 ** 12 and rec["zeros"] + rec["X"] == 10 ** 12
    N = fib(58) - 1
    proc = run_process("zeros", str(N), timeout=5)
    assert proc.returncode == 0 and json.loads(proc.stdout)["zeros"] == h_rec(58)


@pytest.mark.parametrize("argv", [("stability", "200000", "2"), ("hull", "200000")])
def test_over_cap_index_is_refused_at_once(argv):
    proc = subprocess.run(_argv(*argv), capture_output=True, text=True, timeout=5,
                          env=_env(), preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and "R=200000" in proc.stderr
    assert "Traceback" not in proc.stderr


# every input whose work passes its budget, with the argument its message names
REFUSED = [
    (("hull", "60"), "R=60"),
    (("hull", "200000"), "R=200000"),
    (("stability", "200000", "2"), "R=200000"),
    (("runs", "0", "1000000000000"), "HI=1000000000000"),
    (("plot", "0", "1000000000000"), "HI=1000000000000"),
    (("oracle-check", "200000"), "N=200000"),
    (("stability", "180", "1000"), "K=1000"),
    (("minimal", "720720"), "K=720720"),
    (("psi", "2305843009213693951"), "K=2305843009213693951"),
    (("psi-sigma", "2305843009213693951"), "K=2305843009213693951"),
    (("enumerate", "5040"), "K=5040"),
]


@pytest.mark.parametrize("argv, named", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_over_budget_input_is_refused_at_once(argv, named):
    proc = subprocess.run(_argv(*argv), capture_output=True, text=True, timeout=2,
                          env=_env(), preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and not proc.stdout
    assert named in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def _plot_is_right(out):
    rows = [tuple(map(int, line.split(","))) for line in out.split()[1:]]
    return len(rows) == 100000 and all(rows[n] == (n, count_F(n), chi(n))
                                       for n in range(0, 100000, 9999))


# inputs inside the budget, each with a check of its answer
ANSWERED = [
    (("hull", "25"), lambda out: json.loads(out)["match"] is True),
    (("plot", "0", "99999"), _plot_is_right),
    (("runs", "0", "100000"), lambda out: sum(r["length"] for r in json.loads(out)) == 99999),
    (("minimal", "55440"), lambda out: count_F(json.loads(out)["M"]) == 55440),
    (("stability", "200", "100"), lambda out: int(out) == 2 * psi(100)),
    (("stability", "183", "30"), lambda out: int(out) == 2 * psi(30)),
    (("psi-sigma", "1099511627776"), lambda out: int(out) == 118487640825155),
]


@pytest.mark.parametrize("argv, check", ANSWERED, ids=[" ".join(a) for a, _ in ANSWERED])
def test_input_inside_the_budget_answers(argv, check):
    proc = run_process(*argv, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert check(proc.stdout)


def test_psi_of_a_large_k_answers_at_once():
    proc = run_process("psi", str(10 ** 11), timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == psi(10 ** 11)


def test_minimal_of_a_large_k_answers_at_once():
    proc = run_process("minimal", "5040", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert count_F(json.loads(proc.stdout)["M"]) == 5040


@pytest.mark.parametrize("k, count", [(5040, "4401936"), (10 ** 30, "sqrt(K/2)")])
def test_enumerate_over_budget_is_refused_at_once(k, count):
    proc = run_process("enumerate", str(k), timeout=2)
    assert proc.returncode == 2 and not proc.stdout
    assert "K=%d" % k in proc.stderr and count in proc.stderr
    assert "Traceback" not in proc.stderr


def test_enumerate_within_budget_answers():
    proc = run_process("enumerate", "720", timeout=30)
    assert proc.returncode == 0, proc.stderr
    numbers = [int(tok) for tok in proc.stdout.split()]
    assert len(numbers) == psi(720) == 75624
    assert all(count_F(n) == 720 for n in numbers[:50] + numbers[-50:])


def test_psi_sigma_of_a_large_k_answers_at_once():
    proc = run_process("psi-sigma", "720720", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 335122560


# the multiset walk that psi_sigma ran before its divisor DP gives the same
# values, in 4 to 7 s each
@pytest.mark.parametrize("k, count", [(73513440, 567536117760),
                                      (10 ** 12, 2595562554126848)])
def test_psi_sigma_of_a_highly_composite_k_answers_at_once(k, count):
    proc = run_process("psi-sigma", str(k), timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == count


def test_psi_sigma_of_6720_divisors_answers():
    # the pin is checked against a second route in test_enumeration
    proc = run_process("psi-sigma", "963761198400", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 3002294805455278080


def test_poly_output_past_its_budget_is_refused_at_once():
    with _no_digit_limit():
        n = str(3 ** 20000)
    for argv in (("poly", n), ("info", n, "--poly")):
        proc = run_process(*argv, timeout=2)
        assert proc.returncode == 2 and not proc.stdout
        assert "= 190360709 digits" in proc.stderr and "budget" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_refusal_names_a_wide_argument_by_its_bit_length():
    with _no_digit_limit():
        n = str(3 ** 20000)
        k = str(10 ** 90)
    for argv, named in ((("poly", n), "N=<31700 bits>"),
                        (("psi", k), "K=<299 bits>: isqrt(K) = <150 bits>")):
        proc = run_process(*argv, timeout=2)
        assert proc.returncode == 2 and not proc.stdout
        assert len(proc.stderr) < 300 and named in proc.stderr, proc.stderr[:300]


def test_poly_output_inside_its_budget_answers():
    n = 3 ** 5000
    with _no_digit_limit():
        proc = run_process("poly", str(n), timeout=30)
        assert proc.returncode == 0, proc.stderr
        poly = json.loads(proc.stdout)
        assert sum(poly) == count_F(n) and len(poly) <= zeckendorf(n)[-1] + 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the two cost ~12 ms of the ~30 ms the import takes
    code = "import sys, fibpart.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=30, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_pipe_exits_quietly():
    # about 160 kB of output, more than a pipe holds, so the writer meets
    # the closed end
    proc = subprocess.Popen(_argv("poly", str(3 ** 1000)), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert head.startswith(b"[0, 0")
    assert b"Traceback" not in err and not err


def test_integers_past_4300_digits():
    n = fib(24000) - 1             # 5016 digits; chi is +-1 on f_r - 1
    word = "*".join(["1/89"] * 150)
    with _no_digit_limit():
        arg = str(n)
        proc = run_process("chi", arg)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == chi(n) != 0
        proc = run_process("theta", word)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip()) > 4300
        assert int(proc.stdout) == theta(parse_word(word))


def test_main_restores_the_digit_limit(capsys):
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    assert main(["chi", "100"]) == 0
    assert (get() if get else None) == before
    assert capsys.readouterr().out.strip() == "-1"
