"""Batch front-end: build and cache enumeration tables, query them, and
run the audit batteries.

Exit codes: 0 success, 1 usage or input error, 2 audit regression. Every
command works from a cold cache (tables auto-build with a warning on
stderr) and all outputs are deterministic for a given configuration,
whatever the cache holds.

A command is a short process whose objects nearly all live until it exits,
so the cyclic garbage collector only ever walks them to free nothing.
``main`` therefore pauses the collector for the parse and the command and
restores the state it found, so callers in the same process keep theirs.
It also registers ``gc.freeze`` as an exit hook, once per process: the
collections that interpreter shutdown runs then skip every object still
alive, which cuts about 4 ms from each process. The process still exits
normally, so the standard streams are flushed and other exit handlers run.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from pathlib import Path

from . import constants, distlang, infolaws, models_prob, models_set, setlang, skstats
from .bits import _fmt_real, bits_to_text, pair, text_to_bits
from .cache import ENV_CACHE_DIR, TableSource, load_or_build
from .complexity import Absent, mutual_info, require_k
from .enumeration import (
    DEFAULT_COND_MAX_LEN,
    DEFAULT_MAX_LEN,
    LEVEL_MAX_LEN,
    TableError,
    _gc_paused,
    export_table,
)
from .condition import DEFAULT_MAX_OUTPUT, DEFAULT_MAX_STEPS, MACHINE_VERSION, Budgets, Condition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGRESSION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, but 2 is reserved for audit
    regressions here, so usage failures are forced to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _warn(message: str) -> None:
    print(f"algstat: {message}", file=sys.stderr)


def _source(args: argparse.Namespace) -> TableSource:
    """The table source a command's flags give. Every setting flag is
    checked here, so that a bad one fails before any table is built."""
    if getattr(args, "workers", 1) <= 0:
        raise ValueError("--workers must be positive")
    source = TableSource(
        budgets=Budgets(
            max_steps=getattr(args, "steps", DEFAULT_MAX_STEPS),
            max_output=getattr(args, "max_out", DEFAULT_MAX_OUTPUT),
        ),
        cache_dir=getattr(args, "cache_dir", None),
        warn=_warn,
        max_len=getattr(args, "max_len", None),
    )
    if source.max_len is not None and source.max_len <= 0:
        raise ValueError("--max-len must be positive")
    if source.budgets.max_output <= 0:
        raise ValueError("--max-out must be positive")
    if getattr(args, "beta", 0) < 0:
        raise ValueError("--beta must be >= 0")
    return source


def _model_opts(args: argparse.Namespace) -> models_set.ModelOpts:
    """The model-search options of a command that takes ``--union-width`` and
    ``--list-cap``; a flag left out keeps ``ModelOpts``' own default."""
    given = {"union_width": args.union_width, "list_cap": args.list_cap}
    for name, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0")
    return models_set.ModelOpts(**{k: v for k, v in given.items() if v is not None})


def _condition(args: argparse.Namespace) -> Condition | None:
    if getattr(args, "cond", None) is not None:
        return Condition.string(text_to_bits(args.cond))
    if getattr(args, "cond_set", None) is not None:
        return distlang.uniform_condition(setlang.parse_setlang(args.cond_set))
    return None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")
        _warn(f"wrote {out}")


# -- commands ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    source = _source(args)
    cond = _condition(args)
    L = source.program_cap(DEFAULT_MAX_LEN if cond is None else DEFAULT_COND_MAX_LEN)
    table, built = load_or_build(L, cond, source.budgets, source.cache_dir, _warn)
    if args.out:
        export_table(table, args.out)
        _warn(f"wrote {args.out}")
    print(
        f"machine={MACHINE_VERSION} L={table.L} "
        f"condition={table.cond_fingerprint} entries={len(table)} "
        f"{'built' if built else 'cached'}"
    )
    return EXIT_OK


def cmd_k(args: argparse.Namespace) -> int:
    source = _source(args)
    cond = _condition(args)
    x = text_to_bits(args.x)
    # Only programs that print at most |x| bits decide K(x) (see ``cache``).
    [table] = source.tables(
        [cond if cond is not None else Condition.none()],
        n=len(x),
        L=DEFAULT_MAX_LEN if cond is None else DEFAULT_COND_MAX_LEN,
    )
    k = require_k(table, x)
    print(f"K={k} witness={table.witness_of(x)}")
    return EXIT_OK


def cmd_mi(args: argparse.Namespace) -> int:
    source = _source(args)
    x, y = text_to_bits(args.x), text_to_bits(args.y)
    [table] = source.tables(n=max(len(x), len(y), len(pair(x, y))), L=DEFAULT_MAX_LEN)
    rec = mutual_info(table, x, y)
    print(f"I={rec.i} K(x)={rec.kx} K(y)={rec.ky} K(pair)={rec.kxy}")
    return EXIT_OK


def cmd_structfn(args: argparse.Namespace) -> int:
    source = _source(args)
    opts = _model_opts(args)
    x = text_to_bits(args.x)
    alpha_max = args.alpha_max
    if alpha_max is None:
        alpha_max = models_set.alpha_cap(x, 0, opts)
    curve = models_set.structfn(
        x,
        alpha_max,
        opts,
        include_deficiency=not args.no_deficiency,
        source=source,
    )
    _emit(curve.to_csv(), args.out)
    return EXIT_OK


def cmd_suffstat(args: argparse.Namespace) -> int:
    _source(args)  # reads no table, but checks --beta as every command does
    x = text_to_bits(args.x)
    rep = models_set.suffstat(x, args.beta, _model_opts(args))
    lines = [
        f"x={bits_to_text(x)}",
        f"beta={rep.beta}",
        f"lambda_min={rep.lambda_min}",
        f"minimal={setlang.format_setlang(rep.minimal)}",
        "optimal=" + ";".join(setlang.format_setlang(d) for d in rep.optimal),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sk(args: argparse.Namespace) -> int:
    source = _source(args)
    # S^k is exactly the set of outputs of programs of at most k bits. No
    # program is shorter than HALT's 3 bits, and a k above LEVEL_MAX_LEN is
    # refused by ``sk`` against that table's cap.
    [table] = source.tables(L=min(max(args.k, 3), LEVEL_MAX_LEN))
    _emit(skstats.sk_csv(table, args.k), args.out)
    return EXIT_OK


def cmd_xr(args: argparse.Namespace) -> int:
    source = _source(args)
    [table] = source.tables(L=LEVEL_MAX_LEN)
    _emit(skstats.xr_csv(table), args.out)
    return EXIT_OK


def cmd_bernoulli(args: argparse.Namespace) -> int:
    source = _source(args)
    opts = _model_opts(args)
    # Checked before the table is fetched, so that a bad n builds nothing.
    models_prob.check_demo_n(args.n)
    [table] = source.tables(n=args.n)
    rep = models_prob.bernoulli_demo(table, args.n, args.beta, opts)
    _emit(rep.to_csv(), args.out)
    return EXIT_OK


def cmd_probstat(args: argparse.Namespace) -> int:
    source = _source(args)
    opts = _model_opts(args)
    x = text_to_bits(args.x)
    dist = distlang.parse_distlang(args.dist)
    rec = models_prob.deficiency_p(x, dist, source=source)
    rep = models_prob.suffstat_p(x, args.beta, opts)
    lines = [
        f"x={bits_to_text(x)}",
        f"dist={distlang.format_distlang(dist)}",
        f"neglog={_fmt_real(rec.neglog)}",
        f"K_cond={rec.k_cond}",
        f"delta_norm={_fmt_real(rec.delta_norm)}",
        f"two_part={models_prob.two_part_p(x, dist)}",
        f"lambda_min={rep.lambda_min}",
        f"minimal={distlang.format_distlang(rep.minimal)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- the laws command ----------------------------------------------------------


def _laws_joint(args: argparse.Namespace, source: TableSource) -> int:
    """Audit a user-supplied joint model file; the report is CSV."""
    joint, statistic = infolaws.parse_joint_text(Path(args.joint).read_text(encoding="ascii"))
    audit = args.audit if args.audit != "all" else "theta"
    if audit not in ("expected-mi", "theta", "identity"):
        raise ValueError(f"--joint supports the expected-mi/theta/identity audits, not {audit!r}")
    # Checked before the table lookup, so that a file these audits reject
    # costs no table build.
    if audit != "expected-mi" and statistic is None:
        raise ValueError("the joint-model file has no statistic line")
    if audit == "identity":
        if statistic.kind != "weight":
            raise ValueError("the identity audit needs the weight statistic")
        if len({len(x) for x in joint.x_domain()}) != 1:
            raise ValueError("the identity audit needs a fixed-length data domain")
    # Built for the longest string any audit of this file reads, so that
    # the audits of one file share a table, as the default battery does.
    reach = infolaws.expected_mi_reach(joint)
    if statistic is not None:
        reach = max(reach, infolaws.theta_reach(joint, statistic))
    [table] = source.tables(n=reach)
    if audit == "expected-mi":
        rep = infolaws.expected_mi_audit(joint, table)
        _warn(f"expected={float(rep.expected):.9f} classical={_fmt_real(rep.prob_i)} k_p={rep.k_p}")
        _emit(rep.to_csv(), args.out)
        return EXIT_OK
    if audit == "theta":
        rep = infolaws.theta_suff_audit(joint, statistic, table, source=source)
        _warn(f"prob_sufficient={rep.prob_sufficient} minimal_tau={rep.minimal_tau()}")
        _emit(rep.to_csv(), args.out)
        return EXIT_OK
    n = len(joint.x_domain()[0])
    rep = infolaws.suff_identity_audit(
        joint, statistic, table, infolaws.weight_models(n), source=source
    )
    _warn(f"max_gap={rep.max_gap}")
    _emit(rep.to_csv(), args.out)
    return EXIT_OK


def cmd_laws(args: argparse.Namespace) -> int:
    """Run the audits ``--audit`` selects from the battery's registry
    (``infolaws.AUDITS``) and check the constants they measure against the
    frozen file; with ``--freeze``, write that file instead. Builds the
    level table if a selected audit reads it, then the deep table if one
    reads that; ``--joint FILE`` audits a joint-model file instead."""
    source = _source(args)
    if args.freeze:
        # Checked before any table is built.
        if args.joint:
            raise ValueError("--freeze freezes the default battery; it does not take --joint")
        if args.audit != "all":
            raise ValueError("--freeze requires --audit all (a full battery)")
        if not args.constants:
            raise ValueError("--freeze needs --constants PATH to write to")
    if args.joint:
        return _laws_joint(args, source)
    reads = {a.reads for a in infolaws.selected_audits(args.audit)}
    # --max-len caps the level table only: the deep table and the audits'
    # conditional tables keep their derived caps.
    battery = source._replace(max_len=None)
    level = deep = None
    if "level" in reads:
        [level] = source.tables(L=LEVEL_MAX_LEN)
    if "deep" in reads:
        # Every selection reads the one deep table the whole battery needs.
        [deep] = battery.tables(n=infolaws.laws_reach())
    runs = infolaws.laws_audit(deep, level, source=battery, audit=args.audit).values()
    checks = [check for run in runs for check in run.checks]
    measured = {name: value for run in runs for name, value in run.measured.items()}
    if args.freeze:
        constants.save_constants(measured, args.constants)
    elif measured:
        frozen = constants.load_constants(args.constants)
        for c in constants.regression_check(measured, frozen):
            have = "-" if c.frozen is None else c.frozen
            checks.append((f"{c.name} measured={c.measured} frozen={have}", c.ok))
    lines = [f"{line} {'PASS' if ok else 'FAIL'}" for line, ok in checks]
    if args.freeze:
        lines.extend(f"{name} measured={measured[name]} frozen" for name in sorted(measured))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if args.freeze or all(ok for _, ok in checks) else EXIT_REGRESSION


# -- parser --------------------------------------------------------------------


def _add_table_flags(
    p: argparse.ArgumentParser, cond: bool = False, workers: bool = False
) -> None:
    p.add_argument("--max-len", type=int, metavar="L", help="program-length cap")
    p.add_argument("--steps", type=int, default=DEFAULT_MAX_STEPS, metavar="T")
    p.add_argument("--max-out", type=int, default=DEFAULT_MAX_OUTPUT, metavar="O")
    if workers:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="accepted for compatibility; has no effect",
        )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"table cache directory (default ${ENV_CACHE_DIR} or a user cache dir)",
    )
    if cond:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--cond", metavar="BITS", help="condition string ('-' for empty)")
        g.add_argument(
            "--cond-set",
            metavar="SET",
            help="condition on the uniform distribution over this set description",
        )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    # No defaults here: building the parser must not run models_set.
    p.add_argument("--union-width", type=int)
    p.add_argument("--list-cap", type=int)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    _add_table_flags(p, cond=True)
    p.add_argument("--out", metavar="FILE", help="export the table file")


def _k_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x", help="bit string ('-' for empty)")
    _add_table_flags(p, cond=True)


def _mi_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x")
    p.add_argument("y")
    _add_table_flags(p)


def _structfn_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x")
    p.add_argument("--alpha-max", type=int, metavar="A")
    p.add_argument("--no-deficiency", action="store_true", help="skip the beta columns")
    _add_model_flags(p)
    _add_table_flags(p, workers=True)
    p.add_argument("--out", metavar="FILE")


def _suffstat_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x")
    p.add_argument("--beta", type=int, default=0)
    _add_model_flags(p)
    p.add_argument("--out", metavar="FILE")


def _sk_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("k", type=int)
    _add_table_flags(p)
    p.add_argument("--out", metavar="FILE")


def _xr_args(p: argparse.ArgumentParser) -> None:
    _add_table_flags(p)
    p.add_argument("--out", metavar="FILE")


def _laws_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--audit", default="all", help="the audit to run, or all (default)")
    p.add_argument("--constants", metavar="FILE", help="constants file (default: packaged)")
    p.add_argument("--freeze", action="store_true", help="write measured constants and exit")
    p.add_argument("--joint", metavar="FILE", help="audit a joint-model file instead")
    _add_table_flags(p, workers=True)
    p.add_argument("--out", metavar="FILE")


def _bernoulli_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--beta", type=int, default=3)
    _add_model_flags(p)
    _add_table_flags(p)
    p.add_argument("--out", metavar="FILE")


def _probstat_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x")
    p.add_argument("dist", help="distribution description, e.g. bern:8,1/4")
    p.add_argument("--beta", type=int, default=0)
    _add_model_flags(p)
    _add_table_flags(p)
    p.add_argument("--out", metavar="FILE")


# name -> (help, handler, adds the command's arguments to its subparser)
COMMANDS = {
    "enumerate": ("build (and cache) an enumeration table", cmd_enumerate, _enumerate_args),
    "k": ("exact complexity of a string", cmd_k, _k_args),
    "mi": ("table mutual information between two strings", cmd_mi, _mi_args),
    "structfn": ("structure-function curves as CSV", cmd_structfn, _structfn_args),
    "suffstat": ("optimal and minimal sufficient set models", cmd_suffstat, _suffstat_args),
    "sk": ("complexity-level index CSV", cmd_sk, _sk_args),
    "xr": ("rareness classes and their mass bounds as CSV", cmd_xr, _xr_args),
    "laws": ("information-law audits against frozen constants", cmd_laws, _laws_args),
    "bernoulli": ("weight-class sufficiency demo as CSV", cmd_bernoulli, _bernoulli_args),
    "probstat": ("distribution-level deficiency and sufficiency", cmd_probstat, _probstat_args),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command: each subparser is registered with its
    name, help and handler. Arguments are added to the subparser of the
    command ``only`` alone, or to every subparser when ``only`` is None.

    A parse runs only the subparser of the command its arguments name, and
    the top-level usage lists commands, not flags, so a parser built for
    that command gives the same Namespace, usage, help and errors as one
    built with every command's arguments."""
    parser = _Parser(prog="algstat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, fn, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if only is None or only == name:
            add_args(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Once per process, however often main runs: see the module docstring.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else argv
    with _gc_paused():
        # The top level takes no option with a value, so the command is the
        # first argument that is not an option; a parse that reaches no
        # command by it ends in an error that reads no command's arguments.
        command = next((a for a in argv if not a.startswith("-")), "")
        args = build_parser(only=command).parse_args(argv)
        try:
            return args.fn(args)
        # Every input error of the analysis modules (a cap exceeded, a bad
        # model, joint or constants file) is a ValueError, so an error exit
        # runs no module that its command did not.
        except (Absent, TableError, ValueError, OSError) as exc:
            print(f"algstat: error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
