"""Command-line surface: fit, net, demo, bench, and oracle commands.

Exit codes are a stable contract: 0 for success, 1 for a verification or
verdict failure, 2 for usage and input errors.  Outputs are deterministic
given --seed, apart from wall-clock times: `wall_time_s` in fit's stats and
the mean times of the bench CSV lines.

Each `cmd_*` takes the argparse namespace.  Checks that argparse cannot make
(epsilon, --sizes, --reps) raise ValueError, which `main` turns into one
`error:` line and exit code 2.
"""

import argparse
import functools
import io
import json
import math
import sys
import time

import numpy as np

from .geometry import HPolytope, VPolytope
from .jsonio import BodyFormatError, load_body, load_container, read_json
from .lab import _demo_run
from .nets import build_net_2d, build_net_sufficient, verify_net
from .solver import alpha_reference, beta_brute, beta_direct, beta_msw
from .svg import render_demo_svg, render_fit_svg

OK, VERDICT_FAIL, USAGE_ERROR = 0, 1, 2

def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _mirror(K):
    """K reflected in the first coordinate, in any dimension."""
    flip = np.ones(K.dim)
    flip[0] = -1.0
    return VPolytope(K.vertices * flip)


def _build_net(K, epsilon):
    if K.dim == 2:
        return build_net_2d(K, epsilon)
    return build_net_sufficient(K, epsilon)


_SOLVERS = {"direct": beta_direct, "msw": beta_msw, "brute": beta_brute}


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")


def _load_instance(args):
    """Body and container; both files are read before either is parsed."""
    body_doc, container_doc = read_json(args.body), read_json(args.container)
    K = load_body(body_doc)
    P = load_container(container_doc)
    if K.dim != P.normals.shape[1]:
        raise BodyFormatError("body and container disagree on dimension")
    return K, P


def cmd_fit(args) -> int:
    _check_epsilon(args.epsilon)
    K, P = _load_instance(args)
    if args.svg is not None and K.dim != 2:
        raise BodyFormatError("SVG output needs a planar instance")
    solve = _SOLVERS[args.method]

    def run(body):
        net = _build_net(body, args.epsilon)
        if args.method == "brute":
            return body, net, solve(body, net, P)
        return body, net, solve(body, net, P, seed=args.seed)

    body, net, result = run(K)
    if args.with_reflection:
        m_body, m_net, mirrored = run(_mirror(K))
        if mirrored.beta > result.beta:
            body, net, result = m_body, m_net, mirrored
            result.stats.note = (result.stats.note + "; " if result.stats.note
                                 else "") + "reflected copy wins"
    _emit(json.dumps(result.to_json(), indent=2), args.out)
    if args.svg is not None:
        render_fit_svg(body, P, result, path=args.svg)
    return OK


def cmd_net(args) -> int:
    _check_epsilon(args.epsilon)
    K = load_body(read_json(args.body))
    net = _build_net(K, args.epsilon)
    report = verify_net(net, K, trials=64, seed=args.seed)
    _emit(json.dumps(net.to_json(), indent=2), args.out)
    if not report.ok:
        sys.stderr.write(
            f"net verification failed {report.failures}/{report.trials}"
            f" trials (worst margin {report.worst_margin})\n")
        return VERDICT_FAIL
    return OK


def cmd_demo(args) -> int:
    samples = 4 * args.n if args.samples is None else args.samples
    K, family, verdict, placement = _demo_run(args.n, samples, args.seed)
    _emit(json.dumps(verdict, indent=2), args.out)
    if args.svg is not None:
        render_demo_svg(K, family, placement, path=args.svg)
    return OK if verdict["verdict"] == "pass" else VERDICT_FAIL


def _bench_instance(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed % (2 ** 63), n]))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return HPolytope(normals, np.ones(n))


def _sizes(text):
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --sizes value {text!r}") from exc
    if any(n < 1 for n in sizes):
        raise ValueError(f"--sizes entries must be at least 1, got {text!r}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    return sizes


def cmd_bench(args) -> int:
    sizes = _sizes(args.sizes)
    _check_epsilon(args.epsilon)
    if args.reps < 1:
        raise ValueError("reps must be at least 1")
    K = VPolytope(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
                            [1.0, -1.0]]) * 0.5)
    net = _build_net(K, args.epsilon)
    solve = _SOLVERS[args.method]
    lines = io.StringIO()
    lines.write("n,method,mean_time_s,lp_calls,violation_tests\n")
    for n in sizes:
        P = _bench_instance(n, args.seed)
        times, result = [], None
        for _ in range(args.reps):
            t0 = time.perf_counter()
            if args.method == "brute":
                result = solve(K, net, P)
            else:
                result = solve(K, net, P, seed=args.seed)
            times.append(time.perf_counter() - t0)
        lines.write(f"{n},{args.method},{np.mean(times):.6f},"
                    f"{result.stats.lp_calls},{result.stats.violation_tests}\n")
    _emit(lines.getvalue(), args.out)
    return OK


def cmd_oracle(args) -> int:
    K, P = _load_instance(args)
    alpha = alpha_reference(K, P, args.fine_eps, seed=args.seed)
    if args.with_reflection:
        alpha = max(alpha, alpha_reference(_mirror(K), P, args.fine_eps,
                                           seed=args.seed))
    _emit(json.dumps({"alpha": alpha, "fine_eps": args.fine_eps}), args.out)
    return OK


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for later `main` calls."""
    top = argparse.ArgumentParser(
        prog="hellyfit",
        description="Largest rotated copies of a convex body inside an "
                    "intersection of half-spaces.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    fit = sub.add_parser("fit", help="fit a body into a container")
    fit.add_argument("body")
    fit.add_argument("container")
    fit.add_argument("--epsilon", type=float, default=0.1)
    fit.add_argument("--method", choices=sorted(_SOLVERS), default="msw")
    fit.add_argument("--svg", default=None)
    fit.add_argument("--with-reflection", action="store_true")
    common(fit)

    net = sub.add_parser("net", help="build and verify a rotation net")
    net.add_argument("body")
    net.add_argument("--epsilon", type=float, default=0.1)
    common(net)

    demo = sub.add_parser("demo", help="run the few-constraints demonstration")
    demo.add_argument("--n", type=int, default=3)
    demo.add_argument("--samples", type=int, default=None)
    demo.add_argument("--svg", default=None)
    common(demo)

    bench = sub.add_parser("bench", help="time the solvers on growing families")
    bench.add_argument("--sizes", default="1000,10000")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--method", choices=sorted(_SOLVERS), default="msw")
    # the coarse square net keeps every common size in the sampling regime
    bench.add_argument("--epsilon", type=float, default=1.0 - 1.0 / math.sqrt(2.0))
    common(bench)

    oracle = sub.add_parser("oracle", help="fine-net reference value")
    oracle.add_argument("body")
    oracle.add_argument("container")
    oracle.add_argument("--fine-eps", type=float, default=0.005)
    oracle.add_argument("--with-reflection", action="store_true")
    common(oracle)
    return top


_RUNNERS = {"fit": cmd_fit, "net": cmd_net, "demo": cmd_demo,
            "bench": cmd_bench, "oracle": cmd_oracle}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except ValueError as exc:  # BodyFormatError, DimensionMismatchError among them
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
