"""Command-line front end.

Single-answer queries print JSON, range queries print CSV, words use the
a/b*c/d grammar.  Exit codes: 0 success, 1 domain error (the message goes
to stderr), 2 usage error; output cut short by a closed pipe ends quietly
with 1.
"""

import argparse
import json
import os
import sys

from . import chi_analysis, contfrac, counting, enumeration, oracle, orbits

_GENERATORS = {
    "omega": orbits.act_omega, "w": orbits.act_omega, "ω": orbits.act_omega,
    "tau": orbits.act_tau, "t": orbits.act_tau, "τ": orbits.act_tau,
    "s": orbits.act_S, "S": orbits.act_S,
}


# enumerate builds about 18 microseconds' worth per essential number
# (list_essential(720): 75624 numbers in 1.4 s); past this many it refuses
_ENUMERATE_BUDGET = 100_000


class UsageError(Exception):
    pass


def _emit(obj):
    print(json.dumps(obj))


def _check_scan_size(value: int, token: str, limit_bits: int):
    if value.bit_length() > limit_bits:
        raise UsageError(
            "%s: scan size %d exceeds the --limit-bits cap of %d bits"
            % (token, value, limit_bits))


def _check_fib_index(r: int, limit_bits: int):
    """Refuse R when f_{R+1} is wider than the cap, without building it."""
    a, b = 1, 1                    # f_{i-1}, f_i
    for _ in range(r):
        a, b = b, a + b
        if b.bit_length() > limit_bits:
            raise UsageError("R=%d: f_(R+1) is wider than the --limit-bits cap of %d bits"
                             % (r, limit_bits))


def _record(n: int, with_poly: bool) -> dict:
    indices, blocks = counting.decompose(n)
    rec = {
        "n": n,
        "zeckendorf": list(indices),
        "word": contfrac.format_word(contfrac._word_of(blocks)),
        "F": counting._count_of(blocks),
        "chi": counting._chi_of(blocks),
        "essential": orbits._is_essential(indices),
    }
    if with_poly:
        rec["poly"] = counting._poly_of(blocks)
    return rec


def _cmd_info(args):
    _emit(_record(args.n, args.poly))
    return 0


def _cmd_poly(args):
    _emit(counting.fib_poly(args.n))
    return 0


def _cmd_chi(args):
    print(counting.chi(args.n))
    return 0


def _cmd_word(args):
    print(contfrac.format_word(contfrac.word_of(args.n)))
    return 0


def _cmd_theta(args):
    try:
        word = contfrac.parse_word(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(orbits.theta(word))
    return 0


def _cmd_essential(args):
    ess = orbits.is_essential(args.n)
    _emit({"n": args.n, "essential": ess,
           "m": orbits.m_from_essential(args.n) if ess else None})
    return 0


def _cmd_orbit(args):
    n = args.n
    names = [tok.strip() for tok in args.apply.split(",") if tok.strip()]
    if not names:
        raise UsageError("--apply needs at least one of omega, tau, S")
    for name in names:
        gen = _GENERATORS.get(name) or _GENERATORS.get(name.lower())
        if gen is None:
            raise UsageError("unknown generator %r (use omega, tau or S)" % (name,))
        n = gen(n)
    _emit({"n": args.n, "apply": ",".join(names), "result": n})
    return 0


def _cmd_psi(args):
    print(enumeration.psi(args.k))
    return 0


def _cmd_psi_sigma(args):
    print(enumeration.psi_sigma(args.k))
    return 0


def _cmd_enumerate(args):
    # psi(K) >= phi(K) >= sqrt(K/2): past 2 * budget^2 the count itself,
    # which factors K by trial division, need not be run
    if args.k > 2 * _ENUMERATE_BUDGET ** 2:
        raise UsageError("K=%d: psi(K) >= sqrt(K/2) exceeds the enumerate budget of %d numbers"
                         % (args.k, _ENUMERATE_BUDGET))
    count = enumeration.psi(args.k)
    if count > _ENUMERATE_BUDGET:
        raise UsageError("K=%d: psi(K) = %d essential numbers exceed the enumerate budget of %d"
                         % (args.k, count, _ENUMERATE_BUDGET))
    print(" ".join(str(n) for n in enumeration.list_essential(args.k)))
    return 0


def _cmd_minimal(args):
    m = enumeration.minimal_essential(args.k)
    _emit({"k": args.k, "M": m, "word": contfrac.format_word(contfrac.word_of(m))})
    return 0


def _cmd_stability(args):
    _check_fib_index(args.r, args.limit_bits)
    print(enumeration.stability_count(args.r, args.k))
    return 0


def _cmd_zeros(args):
    zeros = chi_analysis.count_zero_chi(args.n)
    _emit({"N": args.n, "zeros": zeros, "X": args.n - zeros})
    return 0


def _cmd_runs(args):
    _check_scan_size(args.hi, "HI", args.limit_bits)
    out = []
    for rep in chi_analysis._runs(args.lo, args.hi):
        d = {"start": rep.start, "length": rep.length, "kind": rep.kind}
        if rep.kind == "nonzero":
            d["values"] = list(rep.values)
        out.append(d)
    _emit(out)
    return 0


def _cmd_hull(args):
    _check_fib_index(args.r, args.limit_bits)
    pred = chi_analysis.hull_points(args.r)
    comp = chi_analysis.computed_hull_points(args.r)
    _emit({"r": args.r,
           "predicted": [list(p) for p in pred],
           "computed": [list(p) for p in comp],
           "match": pred == comp})
    return 0


def _cmd_plot(args):
    if args.lo > args.hi:
        raise UsageError("LO must not exceed HI")
    _check_scan_size(args.hi, "HI", args.limit_bits)
    out = sys.stdout
    out.write("n,F,chi\n")
    for n in range(args.lo, args.hi + 1):
        blocks = counting.decompose(n)[1]
        out.write("%d,%d,%d\n" % (n, counting._count_of(blocks), counting._chi_of(blocks)))
    return 0


def _cmd_oracle_check(args):
    _check_scan_size(args.n, "N", args.limit_bits)
    for n in range(args.n + 1):
        got = counting.fib_poly(n)
        want = oracle.brute_poly(n, bound=max(args.n, oracle.DEFAULT_BOUND))
        if got != want:
            raise ValueError(
                "counting polynomial mismatch at n=%d: closed form %r, brute force %r"
                % (n, got, want))
    print("oracle-check: fib_poly == brute_poly for all n <= %d (%d values)"
          % (args.n, args.n + 1))
    return 0


def _nonneg(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % (text,))
    if v < 0:
        raise argparse.ArgumentTypeError("%r must be nonnegative" % (text,))
    return v


def _positive(text):
    v = _nonneg(text)
    if v < 1:
        raise argparse.ArgumentTypeError("%r must be positive" % (text,))
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibpart",
        description="Count and dissect partitions into distinct Fibonacci numbers.")
    parser.add_argument("--limit-bits", type=int, default=128, metavar="BITS",
                        help="refuse scan inputs wider than this many bits (default 128)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("info", _cmd_info, "JSON record for one number")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--poly", action="store_true", help="include the counting polynomial")
    add("poly", _cmd_poly, "counting polynomial coefficients").add_argument("n", type=_nonneg)
    add("chi", _cmd_chi, "signed count, 0 or +-1").add_argument("n", type=_nonneg)
    add("word", _cmd_word, "fraction word of n").add_argument("n", type=_nonneg)
    add("theta", _cmd_theta, "least n with the given word").add_argument("word")
    add("essential", _cmd_essential, "essential test and position").add_argument("n", type=_nonneg)
    p = add("orbit", _cmd_orbit, "apply generators omega, tau, S")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--apply", required=True, metavar="GENS",
                   help="comma-separated generators, applied left to right")
    add("psi", _cmd_psi, "number of essential k-numbers").add_argument("k", type=_positive)
    add("psi-sigma", _cmd_psi_sigma, "number of commutative essential k-numbers"
        ).add_argument("k", type=_positive)
    add("enumerate", _cmd_enumerate, "all essential k-numbers").add_argument("k", type=_positive)
    add("minimal", _cmd_minimal, "minimal essential k-number and its word"
        ).add_argument("k", type=_positive)
    p = add("stability", _cmd_stability, "how many n in [f_R, f_R+1) have count K")
    p.add_argument("r", type=_positive, metavar="R")
    p.add_argument("k", type=_positive, metavar="K")
    add("zeros", _cmd_zeros, "zero count and nonzero count of chi up to N"
        ).add_argument("n", type=_nonneg, metavar="N")
    p = add("runs", _cmd_runs, "runs of zero / nonzero chi in (LO, HI)")
    p.add_argument("lo", type=_nonneg, metavar="LO")
    p.add_argument("hi", type=_nonneg, metavar="HI")
    add("hull", _cmd_hull, "predicted vs computed hull vertices"
        ).add_argument("r", type=_positive, metavar="R")
    p = add("plot", _cmd_plot, "CSV n,F,chi over [LO, HI]")
    p.add_argument("lo", type=_nonneg, metavar="LO")
    p.add_argument("hi", type=_nonneg, metavar="HI")
    add("oracle-check", _cmd_oracle_check, "compare closed form against brute force"
        ).add_argument("n", type=_nonneg, metavar="N")
    return parser


def main(argv=None) -> int:
    # arguments and answers are exact integers of any length: lift
    # Python's int<->str digit limit, where it has one, for this call
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print("usage error: %s" % (exc,), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): stop quietly, and point
        # stdout at devnull so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if get_limit:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
