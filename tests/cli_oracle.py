"""The retired CLI entry route of `polyafreq.cli`, kept as an oracle.

`main` built a fresh parser with `build_parser()` on every call.
`polyafreq.cli.main` builds it once per process and reuses it, so every
exit code and every byte written to stdout and stderr must match this route
call by call.
"""

import sys

from polyafreq import cli


def main(argv=None) -> int:
    parser = cli.build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        if hasattr(args, "polys"):
            args.polys += [token for token in rest if not token.startswith("-")]
            rest = [token for token in rest if token.startswith("-")]
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (cli.UsageError, cli.PreconditionError, cli.ZeroPolynomialError,
            cli.NotRealRootedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except cli.PolyafreqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
