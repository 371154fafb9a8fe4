"""Command-line interface.

Subcommands: ``metrics`` (evaluate interdependence metrics on a distribution
CSV), ``conjugate`` / ``basis`` / ``classify`` (symbolic queries on
expression JSON), ``pid`` (decomposition-lattice queries), and ``spinlab``
(the spin-ensemble experiment, which writes files instead of JSON).

Exit codes: 0 on success, 2 on malformed input, 3 on domain errors such as
an expression outside the u-basis span.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from contextlib import contextmanager
from itertools import compress
from pathlib import Path

import click

from . import __version__, _numpy as np
from .algebra import (
    MAX_JSON_VARIABLES,
    classify as classify_vector,
    conjugate as conjugate_expression,
    expression_from_json,
    expression_to_json,
    mask_members,
    to_u_basis,
)
from .distributions import JointDistribution, load_csv
from .metrics import METRIC_NAMES, metric_expression
from .pid import (
    _bit_matrix,
    _checked_tables,
    _cmi_tables,
    _minimal_sets,
    _packed,
    _theorem1_sweep,
    antichain_to_bf,
    bf_to_antichain,
    dual,
    reference_pid,
    verify_theorem1_sets,
)
from .spins import SpinEnsembleConfig, emit_results, run_experiment

EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3
# reference_pid rebuilds each I(X^a ; Y) to about 1e-15, so a larger gap is a fault
_DECOMPOSE_TOLERANCE = 1e-9
# the published run; spinlab's option defaults are read from it
_PUBLISHED_RUN = SpinEnsembleConfig()


# Every echo names its stream: without file=, click caches the current
# sys.stdout/sys.stderr in a WeakKeyDictionary whose value is the stream
# itself, so each redirected stream of an in-process run would live forever.
def _echo(text: str) -> None:
    """Print a report on stdout. No report holds an ANSI code (json.dumps
    escapes ESC; the writers print digits, signs and JSON punctuation), so
    color=True only spares click's strip_ansi scan of the text."""
    click.echo(text, file=sys.stdout, color=True)


@contextmanager
def _refusing(code: int = EXIT_INPUT_ERROR, errors: type[Exception] = ValueError, prefix: str = ""):
    """Refuse the job when the block raises one of ``errors``: print
    ``error: {prefix}{exc}`` and exit with ``code``.  The CLI's one exit path."""
    try:
        yield
    except errors as exc:
        click.echo(f"error: {prefix}{exc}", file=sys.stderr)
        sys.exit(code)


def _echo_json(obj) -> None:
    _echo(json.dumps(obj, indent=2))


# line i is member i of a subset as both renderers print it, 8 spaces deep;
# no printed subset has a member above MAX_JSON_VARIABLES
_MEMBER_LINES = tuple(f"        {i}" for i in range(MAX_JSON_VARIABLES + 1))


def _expression_text(obj: dict) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj = expression_to_json(e)``, faster.

    Only that shape is written: an integer "n" and terms whose "subset"
    lists members in 1..MAX_JSON_VARIABLES and whose "coeff" is the text of
    a Fraction, which needs no escaping.
    """
    head = f'{{\n  "n": {obj["n"]},\n  "terms": ['
    if not obj["terms"]:
        return head + "]\n}"
    # each term is {"subset": [...], "coeff": "..."} at depth 2
    before = '    {\n      "subset": [\n'
    between = '\n      ],\n      "coeff": "'
    after = '"\n    }'
    join, line = ",\n".join, _MEMBER_LINES.__getitem__
    body = f"{after},\n{before}".join(
        [join(map(line, term["subset"])) + between + term["coeff"] for term in obj["terms"]]
    )
    return f"{head}\n{before}{body}{after}\n  ]\n}}"


def _load_distribution(handle) -> JointDistribution:
    with _refusing():
        return load_csv(handle)


def _load_json(text: str):
    """``json.loads(text)``, refusing nesting too deep for the parser as
    malformed input (a ValueError) instead of ending in a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply to parse") from None


def _read_expression(handle):
    with _refusing(prefix="bad expression JSON: "):
        return expression_from_json(_load_json(handle.read()))


def _parse_index_list(text: str, what: str) -> list:
    try:
        value = _load_json(text)
    except ValueError:
        value = None
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list of integers, got {text!r}")
    return value


def _echo_atoms(n: int, tables: np.ndarray, values=None) -> None:
    """Print the atoms of a nonempty uint64 array of packed tables exactly as
    ``_echo_json`` prints {"antichain": bf_to_antichain(f), "table": f.table()}
    for each, plus "value" from ``values`` when given, faster."""
    # every nonempty source set's member list, rendered once, in the order
    # bf_to_antichain sorts them, then each again with the separator
    order = sorted(range(1, 1 << n), key=mask_members)
    line = _MEMBER_LINES.__getitem__
    lists = ["      [\n" + ",\n".join(map(line, mask_members(m))) + "\n      ]" for m in order]
    lists = np.array(lists + [",\n" + text for text in lists], dtype=object)
    rows, cols = np.nonzero(_bit_matrix(_minimal_sets(tables, n), n)[:, order])  # atom by atom
    later = np.append(False, rows[1:] == rows[:-1])  # not its atom's first pick
    # per atom: a head (closing the one before), its picks, the "table" key, table() and the rest
    ends = np.arange(3, 4 * len(tables), 4) + np.cumsum(np.bincount(rows))
    texts = np.empty(ends[-1] + 2, dtype=object)
    texts[:] = '\n  },\n  {\n    "antichain": [\n'  # one shared str; np.full would copy it per slot
    texts[0], texts[-1] = '[\n  {\n    "antichain": [\n', "\n  }\n]"
    texts[4 * rows + 1 + np.arange(len(rows))] = lists[cols + later * len(order)]
    texts[ends - 2] = '\n    ],\n    "table": "'
    # table() puts the bit of position m at index m
    digits = _bit_matrix(tables, n) + ord("0")
    texts[ends - 1] = digits.view(f"S{1 << n}").ravel().astype(str)
    texts[ends] = '"' if values is None else [f'",\n    "value": {json.dumps(v)}' for v in values]
    _echo("".join(texts))


@click.group()
@click.option(
    "--log-base",
    type=click.Choice(["2", "e"]),
    default="2",
    show_default=True,
    help="Logarithm base for numeric outputs (bits or nats).",
)
@click.version_option(__version__)
@click.pass_context
def main(ctx, log_base):
    """High-order interdependence toolkit."""
    # no parse tree or report holds a cycle, so a collection would only walk
    # them; closing the context gives the caller its collector back on every exit
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)
    ctx.ensure_object(dict)
    # the library computes in bits; this converts every reported value
    ctx.obj["scale"] = 1.0 if log_base == "2" else math.log(2.0)


@main.command()
@click.argument("dist_file", type=click.File("r"))
@click.option(
    "--metric",
    "selected",
    multiple=True,
    type=click.Choice(METRIC_NAMES),
    help="Restrict the report to these metrics (repeatable; default all).",
)
@click.pass_context
def metrics(ctx, dist_file, selected):
    """Evaluate interdependence metrics on a distribution CSV."""
    dist = _load_distribution(dist_file)
    scale = ctx.obj["scale"]
    names = selected or METRIC_NAMES
    with _refusing():
        u = dist.u_values()  # fills the entropy table every metric then reads
        report = {name: dist.evaluate(metric_expression(name, dist.n)) * scale for name in names}
        report["u"] = [x * scale for x in u]
    report["n"] = dist.n
    _echo_json(report)


@main.command("conjugate")
@click.argument("expr_file", type=click.File("r"))
def conjugate_cmd(expr_file):
    """Entropic conjugate of an expression (JSON in, JSON out)."""
    expr = _read_expression(expr_file)
    with _refusing(EXIT_DOMAIN_ERROR):  # a summed coefficient past the int -> str digit limit
        text = _expression_text(expression_to_json(conjugate_expression(expr)))
    _echo(text)


@main.command("basis")
@click.argument("expr_file", type=click.File("r"))
def basis_cmd(expr_file):
    """u-basis coordinates of a label-symmetric in-span expression."""
    expr = _read_expression(expr_file)
    with _refusing(EXIT_DOMAIN_ERROR):  # outside the span, or past the int -> str digit limit
        vector = to_u_basis(expr)
        out = {"n": vector.n, "c": [str(x) for x in vector.c]}
    _echo_json(out)


@main.command("classify")
@click.argument("expr_file", type=click.File("r"))
def classify_cmd(expr_file):
    """Symmetry class of an expression under entropic conjugation."""
    expr = _read_expression(expr_file)
    with _refusing(EXIT_DOMAIN_ERROR):  # outside the span, or past the int -> str digit limit
        vector = to_u_basis(expr)
    _echo_json(classify_vector(vector).value)


@main.group()
def pid():
    """Queries on the source-target decomposition lattice."""


@pid.command("list-atoms")
@click.option("--n", type=int, required=True, help="Number of sources (1..5).")
def pid_list_atoms(n):
    """List every atom over n sources."""
    with _refusing():
        tables = _checked_tables(n)
    _echo_atoms(n, tables)


@pid.command("dual")
@click.option("--n", type=int, required=True)
@click.option("--antichain", "antichain_text", required=True, help="JSON, e.g. [[1,2],[1,3]]")
def pid_dual(n, antichain_text):
    """Dual of an atom given as an antichain of source sets."""
    with _refusing(prefix="bad antichain: "):
        atom = antichain_to_bf(_load_json(antichain_text), n)
    f = dual(atom)
    _echo_json({"antichain": bf_to_antichain(f), "table": f.table()})


@pid.command("cmi-set")
@click.option("--n", type=int, required=True)
@click.option("--a", "a_text", required=True, help="JSON list of source indices.")
@click.option("--b", "b_text", default="[]", show_default=True)
def pid_cmi_set(n, a_text, b_text):
    """Atoms that add up to I(X^a ; Y | X^b)."""
    with _refusing():
        tables = _checked_tables(n)  # checks n before the lists
        a = _parse_index_list(a_text, "--a")
        b = _parse_index_list(b_text, "--b")
        tables = _cmi_tables(tables, n, a, b)
    _echo_atoms(n, tables)


@pid.command("verify-theorem1")
@click.option("--n", type=int, required=True)
@click.option("--a", "a_text", default=None, help="JSON list; omit to sweep all pairs.")
# None, not "[]": the sweep refuses a --b it would not read; the pair path reads none as []
@click.option("--b", "b_text", default=None, help="[default: []]")
def pid_verify_theorem1(n, a_text, b_text):
    """Check the dual-atom identity for one (a, b) pair or all of them."""
    with _refusing():
        tables = _checked_tables(n)  # checks n before the lists
        if a_text is not None:
            a = _parse_index_list(a_text, "--a")
            b = _parse_index_list("[]" if b_text is None else b_text, "--b")
            _echo_json({"n": n, "a": a, "b": b, "holds": verify_theorem1_sets(n, a, b)})
            return
        if b_text is not None:
            raise ValueError("--b needs --a; omit both to check every pair")
    pairs, holds = _theorem1_sweep(tables, n)
    _echo_json({"n": n, "pairs_checked": pairs, "all_hold": holds})


@pid.command("decompose")
@click.argument("dist_file", type=click.File("r"))
@click.pass_context
def pid_decompose(ctx, dist_file):
    """Reference decomposition of a distribution (last variable = target)."""
    dist = _load_distribution(dist_file)
    scale = ctx.obj["scale"]
    with _refusing():
        values = reference_pid(dist)
    nsources = dist.n - 1
    tables, atom_values = _packed(values), list(values.values())
    bits = _bit_matrix(tables, nsources)
    dist.u_values()  # fills the entropy table: the guard reads every source set
    # consistency guard: cumulative sums must rebuild every I(X^a ; Y)
    with _refusing(EXIT_DOMAIN_ERROR):
        for mask in range(1, 1 << nsources):
            members = list(mask_members(mask))
            total = sum(compress(atom_values, bits[:, mask].tolist()))
            expected = dist.conditional_mutual_information(members, (dist.n,))
            if abs(total - expected) > _DECOMPOSE_TOLERANCE:
                raise ValueError(f"decomposition inconsistent on {members}: {total} vs {expected}")
    _echo_atoms(nsources, tables, [v * scale for v in atom_values])


@main.command()
@click.option("--n", type=int, default=_PUBLISHED_RUN.n, show_default=True, help="Number of spins.")
@click.option("--beta", type=float, default=_PUBLISHED_RUN.beta, show_default=True)
@click.option("--mu", type=float, default=_PUBLISHED_RUN.mu, show_default=True)
@click.option("--sigma2", type=float, default=_PUBLISHED_RUN.sigma2, show_default=True)
@click.option(
    "--count",
    "systems_per_condition",
    type=int,
    default=_PUBLISHED_RUN.systems_per_condition,
    show_default=True,
    help="Systems per condition.",
)
@click.option("--seed", type=int, default=_PUBLISHED_RUN.seed, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def spinlab(out, **fields):
    """Run the spin-ensemble experiment and write its data files."""
    with _refusing():
        config = SpinEnsembleConfig(**fields)
    # refused when beta * energy overflows
    with _refusing(EXIT_DOMAIN_ERROR, prefix="cannot build the Boltzmann distributions: "):
        ensemble, pca_result = run_experiment(config)
    with _refusing(errors=OSError):
        emit_results(ensemble, pca_result, out, config)


if __name__ == "__main__":
    main()
