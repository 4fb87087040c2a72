"""Command-line surface.

Subcommands: bderiv, ball, triangulate, simulate, verify.  Float
output uses the shortest decimal form that round-trips the binary value
exactly; JSON key order and CSV row order are deterministic for a fixed seed.  Exit codes: 0 success,
1 runtime error, 2 validation/configuration failure, 3 verification failure.
The environment variable NSFLOW_SEED, read on every call, sets the seed
when --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import apps, oracle
from .bderiv import b_evaluate, b_evaluate_block, build_triangulation
from .core import corner_model_from_json
from .errors import (
    CapExceeded,
    InvalidDelta,
    NotEventSelected,
    NsflowError,
    RankDeficient,
)
from .flow import integrate

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
# flags that only some models read; each defaults to None, meaning not given
_MODEL_FLAGS = ("dim", "delta", "psi", "beta")


def _fmt(x: float) -> str:
    # shortest representation that round-trips the binary value exactly
    return repr(float(x))


def _env_seed(raw: str | None) -> int:
    """The default seed for an NSFLOW_SEED value (None when unset)."""
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NSFLOW_SEED must be an integer, got {raw!r}") from None


def _load_model(args: argparse.Namespace, dim: int | None = None):
    """Resolve --model/--preset into (field_or_None, CornerModel).

    ``dim`` is the dimension a command fixes by itself (bderiv: the length of
    --dir).  A model flag that the chosen model does not read is refused.
    """
    given = {f: v for f in _MODEL_FLAGS if (v := getattr(args, f)) is not None}
    if args.model and args.preset:
        raise ValueError("give --model FILE or --preset NAME, not both")
    if args.model:
        if given:
            raise ValueError(f"--{next(iter(given))} does not apply to --model")
        with open(args.model, "r", encoding="utf-8") as fh:
            return None, corner_model_from_json(fh.read())
    name = args.preset
    if not name:
        raise ValueError("provide --model FILE or --preset NAME")
    # an unknown preset reads every flag here, and apps.preset names it
    unread = [f for f in given if f not in apps._PRESET_FLAGS.get(name, given)]
    if unread:
        raise ValueError(f"preset {name} does not read --{unread[0]}")
    if dim is not None:
        if given.get("dim", dim) != dim:
            raise ValueError(f"--dim {given['dim']} differs from the length {dim} of --dir")
        given["dim"] = dim
    d = given.pop("dim", 2)
    return apps.preset(name, d=d, seed=args.seed, **given)


def _write(path: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_bderiv(args: argparse.Namespace) -> int:
    direction = [float(v) for v in args.dir.split(",")]
    _, corner = _load_model(args, dim=len(direction))
    res = b_evaluate(corner, direction)  # validates the model first
    pieces = oracle.enumerate_saltations(corner) if args.all_pieces else {}
    if args.json:
        payload = res.to_json_dict()
        if args.all_pieces:
            payload["pieces"] = {
                "-".join(map(str, s.order)): mat.tolist() for s, mat in pieces.items()
            }
        _write(args.out, json.dumps(payload, indent=2))
    else:
        lines = [
            ",".join(_fmt(v) for v in res.delta_rho_plus),
            "sigma " + ",".join(map(str, res.sigma.order)),
            "delta_t " + _fmt(res.delta_t),
        ]
        for sigma, mat in pieces.items():
            lines.append("piece " + "-".join(map(str, sigma.order)))
            lines.extend("  " + ",".join(_fmt(v) for v in row) for row in mat)
        _write(args.out, "\n".join(lines))
    return EXIT_OK


def cmd_ball(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ValueError(f"ball needs --points >= 1, got {args.points}")
    _, corner = _load_model(args)
    d = corner.d
    if d == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        rng = np.random.default_rng(args.seed)
        dirs = rng.normal(size=(args.points, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    res = b_evaluate_block(corner, dirs)  # validates first: an invalid model gets no warning
    if d != 2:
        print(f"warning: ball is intended for d = 2, got d = {d}; sampling a sphere", file=sys.stderr)
    header = (
        [f"in_{i + 1}" for i in range(d)] + [f"out_{i + 1}" for i in range(d)] + ["sigma"]
    )
    rows = [",".join(header)]
    for v, out, order in zip(dirs.tolist(), res.delta_rho_plus.tolist(), res.orders.tolist()):
        rows.append(",".join(map(repr, v + out)) + "," + "-".join(map(str, order)))
    _write(args.out, "\n".join(rows))
    return EXIT_OK


def cmd_triangulate(args: argparse.Namespace) -> int:
    _, corner = _load_model(args)
    tri = build_triangulation(corner)
    _write(args.out, json.dumps(tri.to_json_dict(), indent=2))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    field, corner = _load_model(args)
    if field is None:
        raise ValueError("simulate needs a field preset, not a bare corner model")
    x0 = np.array([float(v) for v in args.x0.split(",")])
    result = integrate(field, x0, args.t, steps=args.steps)
    rows = [",".join(["t"] + [f"x_{i + 1}" for i in range(field.d)] + ["orthant"])]
    for seg in result.segments:
        for k in range(len(seg.times)):
            rows.append(
                ",".join([_fmt(seg.times[k])] + [_fmt(v) for v in seg.states[k]])
                + ","
                + seg.active_orthant.key()
            )
    _write(args.out, "\n".join(rows))
    events = [ev.to_json_dict() for ev in result.events]
    _write(args.events_out, json.dumps(events, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.models < 1 or args.samples < 1:
        raise ValueError(
            f"verify needs --models >= 1 and --samples >= 1, got {args.models} and {args.samples}"
        )
    rng = np.random.default_rng(args.seed)
    reports = []
    per_model = {
        "sampled-oracle": oracle.verify_b_against_sampled,
        "cone-partition": oracle.verify_cone_partition,
    }
    if args.suite in per_model:
        for _ in range(args.models):
            n = int(rng.integers(1, 7))
            d = n + int(rng.integers(0, 5))
            m = oracle.random_corner_model(rng, n, d)
            reports.append(per_model[args.suite](m, args.samples, rng))
    else:  # fd-convergence, the one other choice argparse lets through
        reports.append(
            oracle.verify_fd_convergence(
                rng, num_fields=args.models, num_directions=args.samples
            )
        )
    merged = {
        "suite": args.suite,
        "seed": args.seed,
        "reports": [r.to_json_dict() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _write(args.out, json.dumps(merged, indent=2))
    return EXIT_OK if merged["ok"] else EXIT_VERIFICATION


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call.

    Sharing it is safe because ``parse_args`` leaves a parser unchanged and
    every default is immutable.  ``--seed`` defaults to None, which
    :func:`main` replaces with the NSFLOW_SEED seed of the call.
    """
    parser = argparse.ArgumentParser(
        prog="nsflow",
        description="Corner derivatives of event-selected nonsmooth flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", help="corner model JSON file")
        p.add_argument("--preset", help=" | ".join(apps._PRESET_FLAGS))
        p.add_argument("--dim", type=int, help="dimension for pwc presets (default 2)")
        p.add_argument("--delta", type=float, help="pwc-linear offset scale (default 0.5)")
        p.add_argument("--psi", type=float, help="biped splay angle (default 0.1)")
        p.add_argument("--beta", type=float, help="biped damping (default 0.5)")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("bderiv", help="evaluate the corner derivative on a direction")
    add_model_flags(p)
    p.add_argument("--dir", required=True, help="comma-separated tangent vector")
    p.add_argument("--json", action="store_true")
    p.add_argument("--all-pieces", action="store_true", help="also print every piece matrix")
    p.set_defaults(fn=cmd_bderiv)

    p = sub.add_parser("ball", help="map a ball of directions through the derivative")
    add_model_flags(p)
    p.add_argument("--points", type=int, default=360)
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("triangulate", help="export the exponential representation")
    add_model_flags(p)
    p.set_defaults(fn=cmd_triangulate)

    p = sub.add_parser("simulate", help="integrate a preset field, logging events")
    add_model_flags(p)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--events-out", default=None, help="event JSON path (default stdout)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run a randomized oracle suite")
    p.add_argument("suite", choices=["sampled-oracle", "cone-partition", "fd-convergence"])
    p.add_argument("--seed", type=int)
    p.add_argument("--models", type=int, default=25)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        seed = _env_seed(os.environ.get("NSFLOW_SEED"))  # a bad value exits 2 even with --seed
        args = _parser().parse_args(argv)
        if args.seed is None:
            args.seed = seed
        return args.fn(args)
    except (NotEventSelected, RankDeficient, CapExceeded, InvalidDelta, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NsflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
