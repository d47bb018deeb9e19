"""Command-line front door for every decider and certificate converter.

Exit codes are the machine-readable verdict channel:

* 0 - property holds / certificate produced
* 1 - property refuted
* 2 - node budget exceeded
* 3 - input or usage error

stdout carries reports, certificate files carry proofs.  All randomness
flows from --seed (default 0); identical invocations produce identical
bytes.
"""

import argparse
import dataclasses
import functools
import json
import random
import sys
from itertools import chain, islice
from pathlib import Path

from . import certificates, collapse, harness, shelling, wsat
from .complexes import (
    SATURATION,
    SHELLING,
    Complex,
    certificate_kind,
    parse_sc_with_warnings,
)
from .errors import MalformedCertificateError, ParameterError, ShellsatError
from .harness import GeneratorSpec, sample_pure2
from .outcomes import BudgetExceeded, Impossible, NotCollapsible, NotSaturated, Unshellable

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

DEFAULT_BUDGET = 10**7


def _read_complex(path: str) -> Complex:
    text = Path(path).read_text(encoding="utf-8")
    complex_, warnings = parse_sc_with_warnings(text)
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return complex_


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


_ENCODE = json.encoder.encode_basestring_ascii
# The bytes that the encoder writes as themselves: printable ASCII but '"' and '\\'.
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _plain(texts) -> bool:
    """True iff no string in texts holds a character that the encoder escapes."""
    joined = "".join(texts)
    return joined.isascii() and not joined.encode("ascii").translate(None, _PLAIN)


def to_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, at C speed where the
    reports are long.

    With ``indent`` set, ``json.dumps`` always takes its pure-Python
    encoder.  Here a dict with string keys and a list of values are laid
    out as it lays them out, and a ``str``, ``None``, ``bool`` or ``int``
    is written as it writes one: the C string encoder, ``null``,
    ``true``/``false`` and ``int.__repr__``.  A list of strings (a
    certificate's faces) and a list of nonempty string lists (the collapse
    steps) are joined raw, the quotes in the separators, once one C-level
    pass over all their strings finds only printable ASCII other than
    ``"`` and ``\\``.  That is sound because the encoder escapes character
    by character and writes each of those characters as itself, so such a
    string is its own encoding between quotes.  Any other list of strings
    goes through the C string encoder one string at a time.  What is left
    goes through ``json.dumps``: a float as it is, and an empty or unusual
    container indented, each of its newlines followed by the enclosing
    indent (a nested value is the top-level one shifted right, and JSON
    strings hold no raw newline).
    """
    kind, inner = type(value), indent + "  "
    if kind is str:
        return _ENCODE(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is dict and value and set(map(type, value)) == {str}:
        return "{\n" + ",\n".join([f"{inner}{_ENCODE(key)}: {to_json(item, inner)}"
                                   for key, item in value.items()]) + f"\n{indent}}}"
    if kind is list and value:
        kinds = set(map(type, value))
        if kinds == {str} and _plain(value):
            return f'[\n{inner}"' + f'",\n{inner}"'.join(value) + f'"\n{indent}]'
        if (kinds == {list} and all(value)
                and set(map(type, chain.from_iterable(value))) == {str}
                and _plain(chain.from_iterable(value))):
            deeper = inner + "  "
            return (f'[\n{inner}[\n{deeper}"'
                    + f'"\n{inner}],\n{inner}[\n{deeper}"'.join(
                        map(f'",\n{deeper}"'.join, value))
                    + f'"\n{inner}]\n{indent}]')
        items = map(_ENCODE, value) if kinds == {str} else [to_json(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, indent=2).replace("\n", "\n" + indent)
    return json.dumps(value)


def _report(data: dict, text: str, as_json: bool) -> None:
    _emit(to_json(data) + "\n" if as_json else text, None)


# -- subcommands ---------------------------------------------------------------

def _info_text(value) -> str:
    """An info value as text: lists space-joined, booleans lower-case, None n/a."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _cmd_info(args) -> int:
    K = _read_complex(args.infile)
    try:
        flag = K.is_flag2()
    except ShellsatError:
        flag = None
    data = {
        "file": args.infile,
        "fingerprint": K.fingerprint,
        "dimension": K.dim,
        "f_vector": list(K.f_vector()),
        "reduced_euler_characteristic": K.reduced_euler_characteristic(),
        "pure": K.is_pure(),
        "connected": K.is_connected(),
        "flag": flag,
        "facets": len(K.facets),
    }
    text = "".join(f"{key.replace('_', '-')}: {_info_text(value)}\n"
                   for key, value in data.items())
    _report(data, text, args.json)
    return EXIT_OK


def _cmd_sd(args) -> int:
    if args.depth < 0:
        raise ParameterError("subdivision depth must be >= 0")
    K = _read_complex(args.infile)
    L = K
    for _ in range(args.depth):
        L = L.barycentric_subdivision()
    text = f"# sd depth={args.depth} of {K.fingerprint}\n" + L.to_sc()
    _emit(text, args.out)
    return EXIT_OK


# What each search outcome reports: JSON verdict, text line, exit code.  An
# outcome type is a search's negative answer ("{k}" is the --k value); a
# subcommand name is its row for a certificate found.
VERDICTS = {
    BudgetExceeded: ("budget-exceeded", "budget exceeded", EXIT_BUDGET),
    Unshellable: ("unshellable", "unshellable", EXIT_REFUTED),
    NotCollapsible: ("not-collapsible", "not collapsible", EXIT_REFUTED),
    Impossible: ("impossible", "not collapsible after removing {k} triangles",
                 EXIT_REFUTED),
    NotSaturated: ("no", "no spanning tree is weakly K3-saturated", EXIT_REFUTED),
    "shell": ("shellable", "shellable", EXIT_OK),
    "collapse": ("collapsible", "collapsible", EXIT_OK),
    "wsat": ("yes", "wsat equals tree size", EXIT_OK),
}


def _conclude(args, result, subject=None, format_cert=None) -> int:
    """Report a search result; a certificate goes to --cert or to stdout."""
    if type(result) in VERDICTS:
        verdict, line, code = VERDICTS[type(result)]
        _report({"verdict": verdict}, line.format_map(vars(args)) + "\n", args.json)
        return code
    verdict, line, code = VERDICTS[args.command]
    cert_text = format_cert(subject, result)
    if args.cert:
        Path(args.cert).write_text(cert_text, encoding="utf-8")
        _report({"verdict": verdict, "certificate_file": args.cert},
                f"{line}; certificate written to {args.cert}\n", args.json)
    else:
        _report({"verdict": verdict, "certificate": cert_text}, cert_text, args.json)
    return code


def _verify(args, subject, parse, violation, name: str,
            field: str = "reason", detail: str = "{}") -> int:
    """Replay the --cert certificate: exit 0 when valid, 1 when not."""
    if not args.cert:
        raise ParameterError("--verify requires --cert")
    cert = parse(Path(args.cert).read_text(encoding="utf-8"), subject)
    found = violation(subject, cert)
    text = (f"valid {name}\n" if found is None
            else f"invalid {name}: {detail.format(found)}\n")
    _report({"verdict": "valid" if found is None else "invalid", field: found},
            text, args.json)
    return EXIT_OK if found is None else EXIT_REFUTED


def _cmd_shell(args) -> int:
    K = _read_complex(args.infile)
    if args.verify:
        return _verify(args, K, shelling.parse_shelling,
                       shelling.first_shelling_violation, "shelling",
                       "violation_index", "condition fails at index {}")
    return _conclude(args, shelling.find_shelling(K, args.budget), K,
                     shelling.format_shelling)


def _cmd_collapse(args) -> int:
    if args.k is not None and args.verify:
        raise ParameterError("--k does not take --verify")
    K = _read_complex(args.infile)
    if args.verify:
        return _verify(args, K, collapse.parse_collapse, collapse.collapse_violation,
                       "collapse")
    if args.k is None:
        result = collapse.is_collapsible(K, args.budget)
    else:
        result = collapse.collapsible_after_removing(K, args.k, args.budget)
    return _conclude(args, result, K, collapse.format_collapse)


def _cmd_wsat(args) -> int:
    if args.number and (args.cert or args.verify):
        raise ParameterError("--number takes neither --cert nor --verify")
    F = _read_complex(args.infile)
    if F.dim == 2:
        # The saturation statements concern the 1-skeleton of a 2-complex.
        print(f"note: {args.infile}: using the 1-skeleton as the host graph",
              file=sys.stderr)
        F = F.skeleton(1)
    if args.verify:
        return _verify(args, F, wsat.parse_saturation, wsat.saturation_violation,
                       "saturation")
    if not args.number:
        return _conclude(args, wsat.decide_wsat_eq_treesize(F, args.budget), F,
                         wsat.format_saturation)
    result = wsat.wsat_number(F, args.budget)
    if isinstance(result, BudgetExceeded):
        return _conclude(args, result)
    _report({"verdict": "computed", "wsat_number": result},
            f"wsat number: {result}\n", args.json)
    return EXIT_OK


def _cmd_convert(args) -> int:
    K = _read_complex(args.infile)
    cert_text = Path(args.cert).read_text(encoding="utf-8")
    kind = certificate_kind(cert_text)
    if kind == SHELLING:
        cert = shelling.parse_shelling(cert_text, K)
        sat = certificates.shelling_to_saturated_tree(K, cert)
        out_text = wsat.format_saturation(K.skeleton(1), sat)
    elif kind == SATURATION:
        host = K.skeleton(1)
        cert = wsat.parse_saturation(cert_text, host)
        col = certificates.saturation_to_collapse(K, cert)
        out_text = collapse.format_collapse(K, col)
    else:
        raise MalformedCertificateError("unrecognized certificate kind")
    _emit(out_text, args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    K = _read_complex(args.infile)
    report = certificates.run_chain(K, args.budget)
    text = (to_json(certificates.chain_report_json(report)) + "\n"
            if args.json else certificates.format_chain_report(report))
    _emit(text, args.out)
    if report.status.startswith("budget-exceeded"):
        return EXIT_BUDGET
    if not report.complete or not all(report.verdicts.values()):
        return EXIT_REFUTED
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(seed=args.seed, n_vertices=args.n, n_triangles=args.t,
                         mode=args.mode, depth=args.depth)
    spec.validate()
    if args.count is not None and args.count < 0:
        raise ParameterError("instance count must be >= 0")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if spec.mode == "random-pure-2":
        rng = random.Random(spec.seed)
        samples = (sample_pure2(rng, spec.n_vertices, spec.n_triangles)
                   for _ in range(10 if args.count is None else args.count))
        entries = [(instance, {"retries": retries}) for instance, retries in samples]
    else:
        entries = [(instance, {}) for instance in islice(harness.generate(spec), args.count)]

    manifest = {"spec": dataclasses.asdict(spec), "instances": []}
    for i, (instance, extra) in enumerate(entries):
        name = f"inst_{i:04d}.sc"
        (out_dir / name).write_text(instance.to_sc(), encoding="utf-8")
        manifest["instances"].append(
            {"file": name, "fingerprint": instance.fingerprint, **extra})
    (out_dir / "manifest.json").write_text(
        to_json(manifest) + "\n", encoding="utf-8")
    message = f"wrote {len(entries)} instances to {out_dir}\n"
    _report({"count": len(entries), "directory": str(out_dir)}, message, args.json)
    return EXIT_OK


# -- argument wiring -------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged.
    Its ``commands`` map each subcommand's name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="shellsat",
        description="shellability / collapsibility / weak K3-saturation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_common(p, cert=False, budget=False):
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help="input complex in .sc format")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        if cert:
            p.add_argument("--cert", metavar="FILE",
                           help="certificate file to write (or read with --verify)")
            p.add_argument("--verify", action="store_true",
                           help="verify an existing certificate instead of searching")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                           help=f"search-node budget (default {DEFAULT_BUDGET})")

    p_info = sub.add_parser("info", help="print structural facts")
    add_common(p_info)
    p_info.set_defaults(handler=_cmd_info)

    p_sd = sub.add_parser("sd", help="barycentric subdivision")
    add_common(p_sd)
    p_sd.add_argument("--out", metavar="FILE", help="output .sc file (default stdout)")
    p_sd.add_argument("--depth", type=int, default=1, metavar="K",
                      help="number of subdivision rounds (default 1)")
    p_sd.set_defaults(handler=_cmd_sd)

    p_shell = sub.add_parser("shell", help="decide shellability")
    add_common(p_shell, cert=True, budget=True)
    p_shell.set_defaults(handler=_cmd_shell)

    p_col = sub.add_parser("collapse", help="decide collapsibility")
    add_common(p_col, cert=True, budget=True)
    p_col.add_argument("--k", type=int, default=None, metavar="N",
                       help="decide collapsibility after removing N triangles")
    p_col.set_defaults(handler=_cmd_collapse)

    p_wsat = sub.add_parser("wsat", help="weak K3-saturation decisions")
    add_common(p_wsat, cert=True, budget=True)
    p_wsat.add_argument("--number", action="store_true",
                        help="compute the exact wsat number instead of the "
                             "tree-size decision")
    p_wsat.set_defaults(handler=_cmd_wsat)

    p_conv = sub.add_parser("convert", help="run a certificate translation")
    add_common(p_conv)
    p_conv.add_argument("--cert", required=True, metavar="FILE",
                        help="input certificate (shelling or saturation)")
    p_conv.add_argument("--out", metavar="FILE",
                        help="output certificate file (default stdout)")
    p_conv.set_defaults(handler=_cmd_convert)

    p_chain = sub.add_parser("chain", help="run the full certificate pipeline")
    add_common(p_chain, budget=True)
    p_chain.add_argument("--out", metavar="FILE",
                         help="report file (default stdout)")
    p_chain.set_defaults(handler=_cmd_chain)

    p_gen = sub.add_parser("gen", help="materialize an instance corpus")
    p_gen.add_argument("--out", required=True, metavar="DIR",
                       help="corpus directory")
    p_gen.add_argument("--mode", required=True, choices=harness.MODES)
    p_gen.add_argument("--n", type=int, required=True, help="vertex bound")
    p_gen.add_argument("--t", type=int, required=True, help="triangle bound")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0, never entropy)")
    p_gen.add_argument("--count", type=int, default=None,
                       help="instance cap (default: 10 for random-pure-2, all otherwise)")
    p_gen.add_argument("--depth", type=int, default=1, metavar="K",
                       help="subdivision depth for subdivide-depth-k")
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one pass where it can be.

    The full parser hands everything after the command to that command's
    parser and copies its namespace into its own, which holds only
    ``command``; it then refuses what the command's parser left over.  So
    when argv starts with a command, that parser alone, parsing the rest
    into a namespace holding ``command``, gives the same namespace, or
    fails with the same message and exit.  When there is no command (no
    argument, an option first, ``-h``, an unknown name) or something is
    left over, the full parser runs, so its messages are its own.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command: argv (``sys.argv[1:]`` by default) is parsed once,
    by the command's own parser where it can be (see :func:`_parse`), and
    the exit code is the verdict."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ShellsatError, OSError, UnicodeDecodeError, RecursionError,
            MemoryError) as exc:
        # Exit 1 means "refuted"; a failure that is no verdict must not say so.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
