"""The argparse parser of the CLI: the independent reference for `cli.parse_args`.

Production reads the command line in one pass against the option table
`cli.OPTIONS`.  This is the `argparse` parser that read it before, kept as
it was so `tests/test_parser.py` can check that both read every command line
of its corpus alike.  No module in `src/` imports it.
"""

from __future__ import annotations

import argparse

from orbitwalk.cli import COMMANDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitwalk",
        description="Lattice walk kernels on quotient spaces: evolve states, "
        "compute resolvents, thermal states, densities of states, coined steps, "
        "and run the self-check suite.",
        usage="%(prog)s COMMAND [options]",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of " + ", ".join(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field (dotted path, JSON value)")
    parser.add_argument("--max-shell", type=int, default=None, help="accepted, unused")
    parser.add_argument("--window", default=None, metavar="LO:HI",
                        help="site window for infinite spaces")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--precision", type=int, default=None, help="significant digits")
    return parser
