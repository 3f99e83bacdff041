"""The argparse parser of the command line, built from
``oagame.commands._SUBCOMMANDS``.  ``oagame.cli`` loads this module only
for what its direct reader leaves: help, usage errors and unusual
spellings (abbreviations, ``--opt=value``, ``-o``, ``--``).  Like every
module, it does not import ``oagame.cli``, which runs as ``__main__``
under ``python -m``."""

import argparse
import sys

from .commands import _ONE_OF, _SUBCOMMANDS, USAGE_ERROR, _options


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse's drops OSError
        if file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)  # help that stdout cannot take fails the run


def build_parser():
    """The argparse parser of every subcommand."""
    parser = _Parser(
        prog="oagame",
        description="Declarative stakeholder-game workbench: scenario "
                    "enumeration, payoff derivation, equilibrium analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        help_text, formats, options = _options(name)
        p = sub.add_parser(name, help=help_text)
        one_of = _ONE_OF.get(name, ())
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for flags, kwargs in options:
            (group if flags[0] in one_of else p).add_argument(*flags, **kwargs)
        p.set_defaults(formats=formats)
    return parser


def parse_args(argv: list[str]):
    """The namespace argparse reads from ``argv``; or, once argparse has
    shown help or a usage error, or a default format from $OAGAME_FORMAT
    that the subcommand does not take has been reported, the exit
    status."""
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # argparse would show the top-level usage
            top, = parser._subparsers._group_actions
            top.choices.get(argv[0], parser).error(
                f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.format not in args.formats:  # a default from $OAGAME_FORMAT
        print(f"oagame: {args.command} takes no format {args.format!r} "
              f"(from $OAGAME_FORMAT); choose from "
              f"{', '.join(args.formats)}", file=sys.stderr)
        return USAGE_ERROR
    return args
