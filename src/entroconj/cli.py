"""Command-line interface.

Subcommands: ``metrics`` (evaluate interdependence metrics on a distribution
CSV), ``conjugate`` / ``basis`` / ``classify`` (symbolic queries on
expression JSON), ``pid`` (decomposition-lattice queries), and ``spinlab``
(the spin-ensemble experiment, which writes files instead of JSON).

Exit codes: 0 on success, 2 on malformed input, 3 on domain errors such as
an expression outside the u-basis span.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .algebra import (
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
    MAX_ENUM_SOURCES,
    antichain_to_bf,
    bf_to_antichain,
    cmi_atom_set,
    dual,
    enumerate_atoms,
    reference_pid,
    verify_theorem1_sets,
)
from .spins import SpinEnsembleConfig, emit_results, run_experiment

EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3


# Every echo names its stream: without file=, click caches the current
# sys.stdout/sys.stderr in a WeakKeyDictionary whose value is the stream
# itself, so each redirected stream of an in-process run would live forever.
def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _echo_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2), file=sys.stdout)


def _load_distribution(handle) -> JointDistribution:
    try:
        return load_csv(handle)
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _read_expression(handle):
    try:
        obj = json.loads(handle.read())
        return expression_from_json(obj)
    except (json.JSONDecodeError, ValueError) as exc:
        _fail(EXIT_INPUT_ERROR, f"bad expression JSON: {exc}")


def _parse_index_list(text: str, what: str) -> list:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = None
    if not isinstance(value, list):
        _fail(EXIT_INPUT_ERROR, f"{what} must be a JSON list of integers, got {text!r}")
    return value


def _atom_json(f, value: float | None = None) -> dict:
    obj = {
        "antichain": [list(member) for member in bf_to_antichain(f)],
        "table": f.table(),
    }
    if value is not None:
        obj["value"] = value
    return obj


@click.group()
@click.option(
    "--log-base",
    type=click.Choice(["2", "e"]),
    default="2",
    show_default=True,
    help="Logarithm base for numeric outputs (bits or nats).",
)
@click.version_option()
@click.pass_context
def main(ctx, log_base):
    """High-order interdependence toolkit."""
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
    try:
        u = dist.u_values()  # fills the entropy table every metric then reads
        report = {name: dist.evaluate(metric_expression(name, dist.n)) * scale for name in names}
        report["u"] = [x * scale for x in u]
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    report["n"] = dist.n
    _echo_json(report)


@main.command("conjugate")
@click.argument("expr_file", type=click.File("r"))
def conjugate_cmd(expr_file):
    """Entropic conjugate of an expression (JSON in, JSON out)."""
    expr = _read_expression(expr_file)
    try:
        out = expression_to_json(conjugate_expression(expr))
    except ValueError as exc:  # a summed coefficient past the int -> str digit limit
        _fail(EXIT_DOMAIN_ERROR, str(exc))
    _echo_json(out)


@main.command("basis")
@click.argument("expr_file", type=click.File("r"))
def basis_cmd(expr_file):
    """u-basis coordinates of a label-symmetric in-span expression."""
    expr = _read_expression(expr_file)
    try:
        vector = to_u_basis(expr)
        out = {"n": vector.n, "c": [str(x) for x in vector.c]}
    except ValueError as exc:  # outside the span, or past the int -> str digit limit
        _fail(EXIT_DOMAIN_ERROR, str(exc))
    _echo_json(out)


@main.command("classify")
@click.argument("expr_file", type=click.File("r"))
def classify_cmd(expr_file):
    """Symmetry class of an expression under entropic conjugation."""
    expr = _read_expression(expr_file)
    try:
        vector = to_u_basis(expr)
    except ValueError as exc:  # outside the span, or past the int -> str digit limit
        _fail(EXIT_DOMAIN_ERROR, str(exc))
    _echo_json(classify_vector(vector).value)


@main.group()
def pid():
    """Queries on the source-target decomposition lattice."""


@pid.command("list-atoms")
@click.option("--n", type=int, required=True, help="Number of sources (1..5).")
def pid_list_atoms(n):
    """List every atom over n sources."""
    try:
        atoms = enumerate_atoms(n)
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    _echo_json([_atom_json(f) for f in atoms])


@pid.command("dual")
@click.option("--n", type=int, required=True)
@click.option("--antichain", "antichain_text", required=True, help="JSON, e.g. [[1,2],[1,3]]")
def pid_dual(n, antichain_text):
    """Dual of an atom given as an antichain of source sets."""
    try:
        sets = json.loads(antichain_text)
        atom = antichain_to_bf(sets, n)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        _fail(EXIT_INPUT_ERROR, f"bad antichain: {exc}")
    _echo_json(_atom_json(dual(atom)))


@pid.command("cmi-set")
@click.option("--n", type=int, required=True)
@click.option("--a", "a_text", required=True, help="JSON list of source indices.")
@click.option("--b", "b_text", default="[]", show_default=True)
def pid_cmi_set(n, a_text, b_text):
    """Atoms that add up to I(X^a ; Y | X^b)."""
    a = _parse_index_list(a_text, "--a")
    b = _parse_index_list(b_text, "--b")
    try:
        atoms = cmi_atom_set(n, a, b)
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    _echo_json([_atom_json(f) for f in atoms])


@pid.command("verify-theorem1")
@click.option("--n", type=int, required=True)
@click.option("--a", "a_text", default=None, help="JSON list; omit to sweep all pairs.")
@click.option("--b", "b_text", default="[]", show_default=True)
def pid_verify_theorem1(n, a_text, b_text):
    """Check the dual-atom identity for one (a, b) pair or all of them."""
    if not 1 <= n <= MAX_ENUM_SOURCES:
        _fail(EXIT_INPUT_ERROR, f"source count {n} outside 1..{MAX_ENUM_SOURCES}")
    try:
        if a_text is not None:
            a = _parse_index_list(a_text, "--a")
            b = _parse_index_list(b_text, "--b")
            _echo_json({"n": n, "a": a, "b": b, "holds": verify_theorem1_sets(n, a, b)})
            return
        # every nonempty a with every b disjoint from it (b may be empty)
        holds = [
            verify_theorem1_sets(n, mask_members(ma), mask_members(mb))
            for ma in range(1, 1 << n)
            for mb in range(1 << n)
            if not ma & mb
        ]
        _echo_json({"n": n, "pairs_checked": len(holds), "all_hold": all(holds)})
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


@pid.command("decompose")
@click.argument("dist_file", type=click.File("r"))
@click.option(
    "--tolerance",
    type=float,
    default=1e-9,
    show_default=True,
    help="Numeric tolerance for internal consistency checks.",
)
@click.pass_context
def pid_decompose(ctx, dist_file, tolerance):
    """Reference decomposition of a distribution (last variable = target)."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        _fail(EXIT_INPUT_ERROR, f"--tolerance must be finite and >= 0, got {tolerance}")
    dist = _load_distribution(dist_file)
    scale = ctx.obj["scale"]
    try:
        values = reference_pid(dist)
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    nsources = dist.n - 1
    # consistency guard: cumulative sums must rebuild every I(X^a ; Y)
    for mask in range(1, 1 << nsources):
        members = list(mask_members(mask))
        total = sum(v for f, v in values.items() if f.value(mask))
        expected = dist.conditional_mutual_information(members, (dist.n,))
        if abs(total - expected) > tolerance:
            _fail(
                EXIT_DOMAIN_ERROR,
                f"decomposition inconsistent on {members}: {total} vs {expected}",
            )
    atoms = sorted(values, key=lambda f: f.table())
    _echo_json([_atom_json(f, values[f] * scale) for f in atoms])


@main.command()
@click.option("--n", type=int, default=8, show_default=True, help="Number of spins.")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--mu", type=float, default=5.0, show_default=True)
@click.option("--sigma2", type=float, default=2.0, show_default=True)
@click.option("--count", type=int, default=10, show_default=True, help="Systems per condition.")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def spinlab(n, beta, mu, sigma2, count, seed, out):
    """Run the spin-ensemble experiment and write its data files."""
    try:
        config = SpinEnsembleConfig(
            n=n,
            beta=beta,
            mu=mu,
            sigma2=sigma2,
            systems_per_condition=count,
            seed=seed,
        )
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    try:
        ensemble, pca_result = run_experiment(config)
    except ValueError as exc:  # beta * energy overflows
        _fail(EXIT_DOMAIN_ERROR, f"cannot build the Boltzmann distributions: {exc}")
    try:
        emit_results(ensemble, pca_result, out, config)
    except OSError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


if __name__ == "__main__":
    main()
