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
from math import isqrt

from . import chi_analysis, contfrac, counting, enumeration, oracle, orbits

_GENERATORS = {
    "omega": orbits.act_omega, "w": orbits.act_omega, "ω": orbits.act_omega,
    "tau": orbits.act_tau, "t": orbits.act_tau, "τ": orbits.act_tau,
    "s": orbits.act_S, "S": orbits.act_S,
}


class UsageError(Exception):
    pass


def _emit(obj):
    print(json.dumps(obj))


# ---------------------------------------------------------------------------
# the work budget: a command whose work grows with an argument computes its cost
# from the arguments and is refused (exit 2) past it.  Times on CPython 3.11.

# numbers scanned or built: plot ~12 us, runs ~10 us, hull ~7.5 us and
# enumerate ~18 us a number, minimal ~17 us a letter (plot 0 199999: 2.3 s).
# plot and runs count each number words(HI) times, once per 64 bits, as its
# chi and count grow about so with its width (~18 us per 64 bits at 1000 bits)
_NUMBERS = 200_000
# oracle-check brute-forces every n <= N, 0.1-0.3 ms each: 4.7 s at N = 20000
_BRUTE_FORCED = 25_000
# stability's digit DP, 0.3-0.45 us per unit of R*K^2 (stability 200 100:
# 0.63 s); R^2/64 more bounds its table out to f_(R+1), ~R^2/3 bits
_DP_UNITS = 8_000_000
# psi and psi-sigma factor K by isqrt(K) trial divisions, ~0.2 us each, then
# take d(K)^2/2 divisor steps: 2.1 / 2.8 s at the 6720 divisors of 963761198400
_TRIAL_DIVISIONS = 1_200_000
# poly and info --poly print top index + 1 coefficients, none above count_F(N):
# ~0.1 us a digit of that bound, product and JSON (poly 3**6000: 1.7e7, 1.9 s)
_OUTPUT_DIGITS = 20_000_000


def _shown(v):
    """An integer for a message: its digits up to 40 of them, else its bit length."""
    return str(v) if -10 ** 40 < v < 10 ** 40 else "<%d bits>" % v.bit_length()


def _guard(args, cost, budget, what):
    """Refuse, before any work, a command whose cost passes its budget."""
    if cost > budget:
        named = " ".join("%s=%s" % (key.upper(), _shown(v)) for key, v in vars(args).items()
                         if type(v) is int)
        raise UsageError("%s %s: %s, over the budget of %d"
                         % (args.command, named, what % _shown(cost), budget))


def _words(n):
    return n.bit_length() // 64 + 1


def _poly(args, indices, blocks, count):
    """N's counting polynomial, refused before any product when its top index
    + 1 coefficients, none above count = count_F(N), pass the output budget."""
    _guard(args, (indices[-1] + 1 if indices else 1) * len(str(count)), _OUTPUT_DIGITS,
           "(top index + 1) * digits(count_F(N)) = %s digits")
    return counting._poly_of(blocks)


def _record(args) -> dict:
    indices, blocks = counting.decompose(args.n)
    rec = {
        "n": args.n,
        "zeckendorf": list(indices),
        "word": contfrac.format_word(contfrac._word_of(blocks)),
        "F": counting._count_of(blocks),
        "chi": counting._chi_of(blocks),
        "essential": orbits._is_essential(indices),
    }
    if args.poly:
        rec["poly"] = _poly(args, indices, blocks, rec["F"])
    return rec


def _cmd_info(args):
    _emit(_record(args))
    return 0


def _cmd_poly(args):
    indices, blocks = counting.decompose(args.n)
    _emit(_poly(args, indices, blocks, counting._count_of(blocks)))
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
    _guard(args, isqrt(args.k), _TRIAL_DIVISIONS, "isqrt(K) = %s trial divisions")
    print((enumeration.psi if args.command == "psi" else enumeration.psi_sigma)(args.k))
    return 0


def _cmd_enumerate(args):
    # psi(K) >= phi(K) >= sqrt(K/2): a K this large need not be factored
    _guard(args, isqrt(args.k // 2), _NUMBERS, "psi(K) >= sqrt(K/2) >= %s numbers")
    _guard(args, enumeration.psi(args.k), _NUMBERS, "psi(K) = %s numbers")
    print(" ".join(str(n) for n in enumeration.list_essential(args.k)))
    return 0


def _cmd_minimal(args):
    _guard(args, args.k - 1, _NUMBERS, "K - 1 = %s letters")
    m = enumeration.minimal_essential(args.k)
    _emit({"k": args.k, "M": m, "word": contfrac.format_word(contfrac.word_of(m))})
    return 0


def _cmd_stability(args):
    r, k = args.r, args.k
    _guard(args, r * k * k + r * r // 64, _DP_UNITS, "R*K^2 + R^2/64 = %s DP units")
    print(enumeration.stability_count(r, k))
    return 0


def _cmd_zeros(args):
    zeros = chi_analysis.count_zero_chi(args.n)
    _emit({"N": args.n, "zeros": zeros, "X": args.n - zeros})
    return 0


def _cmd_runs(args):
    _guard(args, (args.hi - args.lo - 1) * _words(args.hi), _NUMBERS,
           "(HI - LO - 1) * words(HI) = %s numbers")
    out = []
    for rep in chi_analysis._runs(args.lo, args.hi):
        d = {"start": rep.start, "length": rep.length, "kind": rep.kind}
        if rep.kind == "nonzero":
            d["values"] = list(rep.values)
        out.append(d)
    _emit(out)
    return 0


def _cmd_hull(args):
    # f_(R-1) + 1 numbers; f steps only until it passes the budget, so no
    # R is refused by building f_R
    f, g, i = 1, 1, 0              # f_i, f_(i+1)
    while i < args.r - 1 and f < _NUMBERS:
        f, g, i = g, f + g, i + 1
    _guard(args, f + 1, _NUMBERS, "f_(R-1) + 1 >= %s numbers")
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
    _guard(args, (args.hi - args.lo + 1) * _words(args.hi), _NUMBERS,
           "(HI - LO + 1) * words(HI) = %s numbers")
    out = sys.stdout
    out.write("n,F,chi\n")
    for n in range(args.lo, args.hi + 1):
        blocks = counting.decompose(n)[1]
        out.write("%d,%d,%d\n" % (n, counting._count_of(blocks), counting._chi_of(blocks)))
    return 0


def _cmd_oracle_check(args):
    _guard(args, args.n + 1, _BRUTE_FORCED, "N + 1 = %s brute-forced numbers")
    for n in range(args.n + 1):
        got = counting.fib_poly(n)
        want = oracle.brute_poly(n)
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
    add("psi-sigma", _cmd_psi, "number of commutative essential k-numbers"
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
