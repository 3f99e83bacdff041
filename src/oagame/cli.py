"""Command-line driver.

Subcommands: validate, enumerate, top, payoffs, project, nash, mixed,
expected, reproduce.  Exit status 0 on success, 1 when diagnostics or a
reproduce drift were reported, 2 on usage errors (including unreadable files).
Output is deterministic: no timestamps, stable key order.
"""

import gc
import os
import sys
from types import SimpleNamespace

from . import report as rp
from ._table import GameError
from .commands import (_ONE_OF, _SUBCOMMANDS, DIAG_ERROR, USAGE_ERROR,
                       _CliError, _options)

# Each command compiles and runs only its own code.
# ``oagame.commands._SUBCOMMANDS`` defines the command line once.
# ``_read_args`` reads a well-formed one straight off it; anything else
# (help, usage errors, abbreviations, ``--opt=value``, ``-o``, ``--``) goes
# to the argparse parser that ``oagame._argparser`` makes of it, so only
# those load that module and argparse.  ``run_cli`` then imports the
# handler ``oagame.commands.<name>``, which imports the layers it calls
# inside its functions and returns (status, report) having written nothing.
# ``run_cli`` alone writes the report, so a failing command leaves --output
# alone; it reports a failed write to --output, and ``main`` one to stdout.


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv``, read without it, or
    None unless ``argv`` is a subcommand then exact long flags, each but
    --dump followed by a value that does not start with ``-``, with every
    value among its choices, every required option given, and a format,
    given or from $OAGAME_FORMAT, among the subcommand's."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, formats, options = _options(argv[0])
    by_flag = {flags[0]: (flags[0][2:].replace("-", "_"), kwargs)
               for flags, kwargs in options}
    args = {dest: kwargs.get("default") for dest, kwargs in by_flag.values()}
    given, rest = set(), iter(argv[1:])
    for flag in rest:
        if flag not in by_flag:
            return None
        dest, kwargs = by_flag[flag]
        given.add(flag)
        action = kwargs.get("action")
        # A flag with no value left reads "-", and is refused.
        value = True if action == "store_true" else next(rest, "-")
        if value is not True and (value.startswith("-") or (
                "choices" in kwargs and value not in kwargs["choices"])):
            return None
        # A new list: the default one is the table's own.
        args[dest] = [*args[dest], value] if action == "append" else value
    required = {f for f, (_, kw) in by_flag.items() if kw.get("required")}
    one_of = _ONE_OF.get(argv[0])
    if (not required <= given or args["format"] not in formats
            or one_of and len(given.intersection(one_of)) != 1):
        return None
    return SimpleNamespace(command=argv[0], formats=formats, **args)


def run_cli(argv: list[str]) -> int:
    args = _read_args(argv)
    if args is None:
        from ._argparser import parse_args
        args = parse_args(argv)
        if isinstance(args, int):  # help shown or a usage error reported
            return args
    # ``__import__``, unlike ``importlib.import_module``, shows in the
    # import times that ``python -X importtime`` reports.
    handler = __import__(f"{__package__}.commands.{args.command}",
                         fromlist=["run"])
    try:
        status, report = handler.run(args)
        out = sys.stdout
        if args.output:
            try:
                out = open(args.output, "w", encoding="utf-8")
            except OSError as exc:
                raise _CliError(f"cannot write {args.output}: "
                                f"{exc.strerror}", USAGE_ERROR)
        try:
            try:
                if isinstance(report, str):  # ``project --format bmx``
                    out.write(report)
                else:
                    rp.emit_report(report, args.format, out)
                out.flush()
            finally:
                if args.output:
                    out.close()
        except OSError as exc:  # a full disk, say
            if not args.output:
                raise  # ``main`` reports a failed write to stdout
            raise _CliError(f"cannot write {args.output}: {exc.strerror}",
                            DIAG_ERROR)
        return status
    except _CliError as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return exc.status
    except (GameError, ValueError) as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return DIAG_ERROR
    except MemoryError:
        print("oagame: out of memory", file=sys.stderr)
        return DIAG_ERROR


def main() -> None:
    # ``gc.freeze()`` moves every live object into the permanent
    # generation, which the collections at interpreter shutdown skip, so
    # the heap goes back to the OS with the process instead of being walked
    # and freed cycle by cycle (several ms a command).  ``atexit`` handlers
    # still run and the std streams are still flushed; ``--output`` was
    # closed before ``run_cli`` returned.
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        if exc.filename is not None:  # a failed open, not a failed write
            raise
        # Python flushes stdout again at exit, and that flush must not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed reader is quiet
            print(f"oagame: cannot write stdout: {exc.strerror}",
                  file=sys.stderr)
        status = DIAG_ERROR
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
