"""Command-line front end.

Subcommands wrap the library one-to-one: validation, Poincare series,
graded image bases, membership checks, localization sums and Euler
classes, plus the x-ray variants.  All JSON output is canonical (sorted
keys, two-space indent, strings ASCII-escaped, rationals as strings), the
bytes ``json.dumps(payload, indent=2, sort_keys=True)`` would give, so
identical inputs yield byte-identical bytes across runs.  Exit codes: 0
success or member, 1 semantic failure (invalid input, non-member), 2 usage,
I/O or parse failure, undecodable bytes and over-long numbers included.
One table, :data:`_ERRORS`, gives every error its code and status, for a
single file and for each file of a batch alike.  A basis is rendered
straight from the sparse kernel vectors of its image, JSON and text alike,
at a cost that follows their nonzero coordinates; no class is built, and
the bytes are those of every basis class written out in full.  In JSON
each record is written from its coordinates (a rational, or a polynomial's
terms in the descending order its slots come in) into a template cut from
:func:`_write`'s text of the ``class_to_dict`` form, with no dict between.

:func:`main` may be called repeatedly in one process.  The argument parser
is built on the first call and reused; the library functions behind each
subcommand are looked up in this module's globals on every call, so
rebinding one of them (as a tracer does) takes effect on the next call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Callable

from .core import SurfaceClass
from .errors import (
    EquicohError,
    InputError,
    InternalInconsistencyError,
    ParseError,
    SchemaError,
)
from .graph import (
    _decode_json,
    format_rational,
    parse_graph,
    report_to_json,
    validate_graph,
)
from .s1 import (
    DEFAULT_MAX_DEGREE,
    _entry_to_dict,
    _image_vectors,
    check_membership,
    equivariant_series,
    euler_class,
    localize,
    parse_class,
    poincare_manifold,
)
from .xray import (
    DEFAULT_XRAY_MAX_DEGREE,
    check_membership_xray,
    parse_class_torus,
    parse_xray,
    validate_xray,
)

MAX_DEGREE_ENV = "EQUICOH_MAX_DEGREE"


class UsageError(EquicohError):
    """Bad flag/environment values that argparse cannot catch itself."""


# (exception type, error code, exit status); the first type an error is an
# instance of decides, so subclasses come before their bases.
_ERRORS = (
    (ParseError, "parse", 2),
    (SchemaError, "schema", 2),
    (UsageError, "usage", 2),
    (OSError, "io", 2),
    (InternalInconsistencyError, "inconsistency", 1),
    (InputError, "input", 1),
)
_ERROR_TYPES = tuple(kind for kind, _, _ in _ERRORS)


def _code_and_status(exc: Exception) -> tuple[str, int]:
    return next((code, status) for kind, code, status in _ERRORS if isinstance(exc, kind))


@dataclass(frozen=True)
class _DocumentKind:
    """The library functions behind one kind of document: graphs or x-rays."""

    default_max_degree: int
    parse: Callable
    validate: Callable
    parse_class: Callable
    check: Callable


def _document_kind(name: str) -> _DocumentKind:
    """The library functions for ``name`` ("graph" or "xray"), read from the
    module globals at call time rather than captured when the parser is built."""
    if name == "xray":
        return _DocumentKind(
            DEFAULT_XRAY_MAX_DEGREE, parse_xray, validate_xray, parse_class_torus,
            check_membership_xray,
        )
    return _DocumentKind(
        DEFAULT_MAX_DEGREE, parse_graph, validate_graph, parse_class, check_membership
    )


def _max_degree(args) -> int:
    """``--max-degree`` if given, else ``EQUICOH_MAX_DEGREE`` (read on every
    call), else the document kind's default."""
    max_degree = args.max_degree
    if max_degree is None:
        raw = os.environ.get(MAX_DEGREE_ENV)
        if raw is None:
            return args.kind.default_max_degree
        try:
            max_degree = int(raw)
        except ValueError:
            raise UsageError(f"{MAX_DEGREE_ENV} must be an integer, got {raw!r}") from None
    if max_degree < 0:
        raise UsageError("max degree must be nonnegative")
    return max_degree


def _read(path: str) -> str:
    """The file's bytes decoded as UTF-8 once, with the newlines text mode
    reads: ``\\r\\n`` and a lone ``\\r`` become ``\\n``."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, written directly.

    Only str, int, bool, None, lists, tuples and dicts with str keys are
    accepted; anything else, floats included, raises TypeError."""
    parts: list[str] = []
    _write(payload, parts, "\n")
    return "".join(parts)


def _write(value, parts: list[str], newline: str) -> None:
    """Append the JSON text of ``value`` to ``parts``; ``newline`` is the line
    break plus the indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _write(value[key], parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _report_lines(report) -> list[str]:
    if not report:
        return ["ok"]
    return [f"{v.code}: {v.message}" for v in report]


def _emit_report(report, fmt: str) -> int:
    if fmt == "json":
        print(_dump(report_to_json(report)))
    else:
        print("\n".join(_report_lines(report)))
    return 0 if not report else 1


def _laurent_text(element) -> str:
    if not element.terms:
        return "0"
    bits = []
    for power in sorted(element.terms, reverse=True):
        coeff = element.terms[power]
        if isinstance(coeff, SurfaceClass):
            coeff = f"({coeff!r})"
        bits.append(f"{coeff} * u^{power}" if power else f"{coeff}")
    return " + ".join(bits)


def _basis_json(document, degree: int, slots, vectors, graph_ref: str) -> str:
    """``_dump([class_to_dict(b, graph_ref) for b in basis])`` for the
    degree-k classes of ``document`` with coordinates ``vectors`` at
    ``slots``, written from the vectors.

    Its texts are cut from the ``class_to_dict`` form (:func:`_basis_frame`).
    The absent-component fragments of every addressed component are encoded
    once per call into one string.  A class slices out each run of
    components it has no coordinate on and writes the record of each one it
    has through :func:`_write_record`, so the work follows the nonzero
    coordinates, not classes times components, and builds no class, dict or
    list for a record."""
    if not vectors:
        return "[]"
    kinds = document._kinds
    ids = list(kinds)
    position = {cid: i for i, cid in enumerate(ids)}
    frame = _basis_frame(frozenset(kinds.values()), degree, document.rank is not None)
    opening, later, before, empty, tail, ending, layouts = frame
    tail = encode_basestring_ascii(graph_ref).join(tail)
    fragments = [before + encode_basestring_ascii(cid) + empty for cid in ids]
    absent = "".join(fragments)
    # fragments[i] is absent[offsets[i]:offsets[i + 1]]
    offsets = [0, *accumulate(map(len, fragments))]
    # the slots come component by component in id order, so owner ascends
    owner = [position[slot.component] for slot in slots]
    # components of one kind and genus have the same slots, so one template
    # (texts, where) serves them all, read at a slot's offset from its
    # component's first
    templates: dict[tuple[str, int], tuple] = {}
    # by component: its kind's template, its first slot and (its end,),
    # the bound of its cells in a sorted vector
    records: dict[int, tuple] = {}
    first = 0
    while first < len(owner):
        i = owner[first]
        end = bisect_left(owner, i + 1, first)
        kind_genus = kinds[ids[i]]
        if kind_genus not in templates:
            texts, holes = layouts[kind_genus]
            where = []
            for slot in slots[first:end]:
                hole, head, exponents, middle, after, newline = holes[slot.part, slot.index]
                exps = exponents.join(map(str, slot.exps))
                where.append((hole, f"{head}{exps}{middle}", after, newline))
            templates[kind_genus] = texts, where
        records[i] = templates[kind_genus], first, (end,)
        first = end
    parts: list[str] = []
    for vec in vectors:
        parts.append(opening)
        opening = later
        cells = sorted(vec.items())
        cursor = 1  # the first component goes without a comma
        start = 0
        while start < len(cells):
            i = owner[cells[start][0]]
            template, first, bound = records[i]
            end = bisect_left(cells, bound, start)
            # the absent run before component i, then its fragment up to its id
            parts.append(absent[cursor:offsets[i + 1] - len(empty)])
            _write_record(template, first, cells[start:end], parts)
            cursor = offsets[i + 1]
            start = end
        parts.append(absent[cursor:])
        parts.append(tail)
    parts.append(ending)
    return "".join(parts)


@functools.lru_cache(maxsize=256)
def _basis_frame(kind_genera: frozenset, degree: int, torus: bool) -> tuple:
    """The layout of the degree-k class documents of a graph (an x-ray if
    ``torus``) whose components have the ``(kind, genus)`` in ``kind_genera``,
    cut at the markers (a NUL and a name) of :func:`_write`'s text of one
    ``class_to_dict`` form: two absent components, between them a record per
    ``(kind, genus)`` with a marker for each part, through ``_entry_to_dict``
    (a genus-0 surface has ``"c1": []``), and a marker for the graph ref.

    Returns ``(opening, later, before, empty, tail, ending, layouts)``: the
    first and a later class up to its components, the text before an id and
    after an absent one's, a class after its components split at the graph
    ref, the list's end, and by ``(kind, genus)`` the record after its id
    with every part zero, as ``texts``, and by ``(part, index)`` ``(hole,
    head, exponents, middle, after, newline)``: a value in ``texts[hole]`` is
    written as ``head``, a torus slot's exponents joined by ``exponents``,
    ``middle``, the value and ``after``, and a torus part's pairs are closed
    by ``newline``.  The lists are shared and not to be changed."""
    components: dict[str, dict] = {"\0": {}, "\0~": {}}
    for kind, genus in kind_genera:
        c1 = [("c1", j) for j in range(2 * genus)]
        entry = ("c", 0) if kind == "point" else SurfaceClass(genus, ("c0", 0), c1, ("c2", 0))
        components[f"\0{kind} {genus}"] = {str(degree): _entry_to_dict(entry, "\0%s.%d".__mod__)}
    text = _dump([{"kind": "class", "graph": "\0", "components": components}])
    # text and marker name in turn: the first absent id "", the records'
    # ids and parts, the last absent id "~" (sorted after them), the ref ""
    pieces = re.split(r'"\\u0000([^"]*)"', text)
    empty, comma, indent = pieces[2].partition(",")
    layouts: dict[tuple[str, int], tuple] = {}
    for name, piece in zip(pieces[3:-4:2], pieces[4:-4:2]):
        kind, space, genus = name.partition(" ")
        if space:  # a record's id
            texts, holes = layouts[kind, int(genus)] = [piece], {}
            continue
        part, _, index = name.partition(".")
        newline = re.findall(r"\n *", texts[-1])[-1]  # the part's line
        holes[part, int(index)] = len(texts), '"', "", "", '"', None
        if torus:
            pair: list[str] = []
            _write([[["\0", "\0"], "\0"]], pair, newline)
            head, exponents, middle, closing = "".join(pair).split(encode_basestring_ascii("\0"))
            after = '"' + closing[: closing.rindex("\n")]  # up to the part's own line
            holes[part, int(index)] = len(texts), head[1:], exponents, middle + '"', after, newline
        # only a record's last text ends where the next id begins
        texts += ["[]" if torus else '"0"', piece.removesuffix(comma + indent)]
    head = pieces[0][1:].removesuffix(indent)
    end = pieces[-1].rindex("\n")  # the list's last line
    tail = pieces[-3].removeprefix(empty), pieces[-1][:end]
    return pieces[0][0] + head, comma + head, comma + indent, empty, tail, pieces[-1][end:], layouts


def _write_record(template: tuple, first: int, cells, parts: list[str]) -> None:
    """Append one component's record: the ``template`` of its kind
    (:func:`_basis_json`) with the part of each nonzero ``(slot
    position, value)`` cell filled in, the component's slots starting at
    position ``first``.  A torus part's pairs come in the descending
    exponent order of its slots."""
    texts, where = template
    texts = texts.copy()
    pairs: dict[tuple[int, str], list[str]] = {}
    for i, value in cells:
        hole, head, after, newline = where[i - first]
        if newline is None:
            texts[hole] = f"{head}{value!s}{after}"
        else:
            pairs.setdefault((hole, newline), []).append(f"{head}{value!s}{after}")
    for (hole, newline), found in pairs.items():
        texts[hole] = f"[{','.join(found)}{newline}]"
    parts += texts


def _basis_table(slots, vectors) -> str:
    """The basis as a text table: one column per slot, labelled, and one row
    per vector, cells left-justified to the column's widest and joined by
    two spaces, trailing blanks stripped.

    A row starts as a copy of the all-"0" row and its nonzero cells,
    ``format_rational`` of each coordinate, are written over it."""
    labels = [slot.label for slot in slots]
    widths = [len(label) for label in labels]
    rows = []
    for vec in vectors:
        cells = [(i, format_rational(value)) for i, value in vec.items()]
        for i, text in cells:
            if len(text) > widths[i]:
                widths[i] = len(text)
        rows.append(cells)
    lines = ["  ".join(label.ljust(w) for label, w in zip(labels, widths)).rstrip()]
    zero = ["0".ljust(w) for w in widths]
    for cells in rows:
        row = zero.copy()
        for i, text in cells:
            row[i] = text.ljust(widths[i])
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)


def _load_valid(args):
    """Parse and validate the main document; on violations print the report
    and return None."""
    document = args.kind.parse(_read(args.path))
    report = args.kind.validate(document)
    if report:
        _emit_report(report, args.format)
        return None
    return document


def _validate_document(path: str, strictly_xray: bool):
    """Parse and validate one file, dispatching on its "kind" field."""
    doc = _decode_json(_read(path))
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    kind = _document_kind("xray" if strictly_xray or doc.get("kind") == "xray" else "graph")
    return kind.validate(kind.parse(doc))


def _validate_one(path: str, strictly_xray: bool) -> tuple[int, object]:
    """(status, report-or-error-dict) for one batch file, exceptions captured."""
    try:
        report = _validate_document(path, strictly_xray)
        return (0 if not report else 1, report)
    except json.JSONDecodeError as exc:
        return (2, {"code": "parse", "message": str(exc)})
    except _ERROR_TYPES as exc:
        code, status = _code_and_status(exc)
        return (status, {"code": code, "message": str(exc)})


def cmd_validate(args) -> int:
    strictly_xray = args.subcommand == "xray-validate"
    if not os.path.isdir(args.path):
        try:
            report = _validate_document(args.path, strictly_xray)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from None
        return _emit_report(report, args.format)

    names = sorted(n for n in os.listdir(args.path) if n.endswith(".json"))
    results: list[tuple[str, int, object]] = []
    for name in names:
        status, payload = _validate_one(os.path.join(args.path, name), strictly_xray)
        results.append((name, status, payload))
        if status and args.fail_fast:
            break

    if args.format == "json":
        entries = []
        for name, status, payload in results:
            entry: dict = {"path": name, "status": status}
            if isinstance(payload, dict):
                entry["error"] = payload
            else:
                entry["report"] = report_to_json(payload)
            entries.append(entry)
        print(_dump({"kind": "batch", "results": entries}))
    else:
        for name, status, payload in results:
            if isinstance(payload, dict):
                print(f"{name}: error: {payload['message']}")
            else:
                for line in _report_lines(payload):
                    print(f"{name}: {line}")
    return max((status for _, status, _ in results), default=0)


def cmd_poincare(args) -> int:
    graph = _load_valid(args)
    if graph is None:
        return 1
    if args.equivariant:
        series = equivariant_series(graph, "manifold")
        upper = args.max_degree
    else:
        series = poincare_manifold(graph)
        upper = min(args.max_degree, max(len(series.numerator) - 1, 0))
    coefficients = [series.coefficient(k) for k in range(upper + 1)]
    if args.format == "json":
        print(
            _dump(
                {
                    "kind": "poincare",
                    "equivariant": bool(args.equivariant),
                    "coefficients": coefficients,
                    "numerator": list(series.numerator),
                    "denominator_power": series.denominator_power,
                }
            )
        )
    else:
        print(" ".join(str(c) for c in coefficients))
        print("numerator: " + " ".join(str(n) for n in series.numerator))
        if series.denominator_power:
            print(f"denominator: (1 - t^2)^{series.denominator_power}")
    return 0


def cmd_basis(args) -> int:
    document = _load_valid(args)
    if document is None:
        return 1
    slots, vectors = _image_vectors(document, args.degree, args.max_degree)
    if args.format == "json":
        print(_basis_json(document, args.degree, slots, vectors, args.path))
    elif not slots:
        print(f"no classes in degree {args.degree}")
    else:
        print(_basis_table(slots, vectors))
    return 0


def cmd_check(args) -> int:
    document = _load_valid(args)
    if document is None:
        return 1
    alpha = args.kind.parse_class(_read(args.class_path), document)
    decision = args.kind.check(document, alpha)
    if args.format == "json":
        print(_dump(decision.to_dict()))
    elif decision.member:
        print("member")
    else:
        for violation in decision.violations:
            print(f"{violation.kind}: {violation.detail}")
    return 0 if decision.member else 1


def cmd_localize(args) -> int:
    graph = _load_valid(args)
    if graph is None:
        return 1
    alpha = parse_class(_read(args.class_path), graph)
    total = localize(graph, alpha)
    if args.format == "json":
        print(
            _dump(
                {
                    "kind": "localization",
                    "terms": {
                        str(k): format_rational(c) for k, c in total.terms.items()
                    },
                    "polynomial": total.is_polynomial(),
                }
            )
        )
    else:
        print(_laurent_text(total))
        print("polynomial: " + ("yes" if total.is_polynomial() else "no"))
    return 0


def cmd_euler(args) -> int:
    graph = _load_valid(args)
    if graph is None:
        return 1
    euler = euler_class(graph, args.component)
    if args.format == "json":
        terms = {
            str(power): _entry_to_dict(coeff, format_rational)
            for power, coeff in euler.laurent.terms.items()
        }
        print(
            _dump(
                {
                    "kind": "euler",
                    "component": euler.component,
                    "component_kind": euler.kind,
                    "terms": terms,
                }
            )
        )
    else:
        print(_laurent_text(euler.laurent))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it).

    Each subcommand's defaults name its handler and the kind of document it
    reads ("graph" or "xray"), never a library function: see
    :func:`_document_kind`."""
    parser = argparse.ArgumentParser(
        prog="equicoh",
        description="Equivariant cohomology of circle and complexity-one torus "
        "actions from decorated graphs and x-rays.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def add(name: str, handler, metavars: list[str], kind="graph", **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        for dest, metavar in zip(("path", "class_path"), metavars):
            p.add_argument(dest, metavar=metavar)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler, kind=kind)
        return p

    p = add("validate", cmd_validate, ["path"], help="validate a graph or x-ray file, or a directory of them")
    p.add_argument("--fail-fast", action="store_true")

    p = add("poincare", cmd_poincare, ["path"], help="Poincare series of the manifold behind a graph")
    p.add_argument("--equivariant", action="store_true")
    p.add_argument("--max-degree", type=int)

    p = add("basis", cmd_basis, ["path"], help="canonical basis of the degree-k image")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int)

    add("check", cmd_check, ["graph", "class_path"], help="membership of a class document")
    add("localize", cmd_localize, ["graph", "class_path"], help="localization sum of a class document")

    p = add("euler", cmd_euler, ["path"], help="equivariant Euler class of one fixed component")
    p.add_argument("--component", required=True)

    p = add("xray-validate", cmd_validate, ["path"], help="validate an x-ray file or directory")
    p.add_argument("--fail-fast", action="store_true")

    add("xray-check", cmd_check, ["xray", "class_path"], kind="xray", help="membership for a complexity-one x-ray")

    p = add("xray-basis", cmd_basis, ["path"], kind="xray", help="canonical basis of the degree-k x-ray image")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int)

    return parser


def _error(args, exc: Exception) -> int:
    code, status = _code_and_status(exc)
    if args.format == "json":
        print(_dump({"kind": "error", "code": code, "message": str(exc)}))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    args.kind = _document_kind(args.kind)
    try:
        if hasattr(args, "max_degree"):
            args.max_degree = _max_degree(args)
        return args.handler(args)
    except _ERROR_TYPES as exc:
        return _error(args, exc)


if __name__ == "__main__":
    sys.exit(main())
