"""CNF ingestion, the SAT-to-coverage-game construction, and the
restart-doubling graph transform.

The SAT construction turns a CNF with n variables and m nonempty clauses
into a coverage game with m + 3n + 1 nodes whose value is m + 2n + 1
exactly when the formula is satisfiable (and strictly larger otherwise):
the SUT walks a chain of decision nodes picking one polarity node per
variable, the tester then forces clause nodes one by one, and each clause
node escapes into one of its literals' polarity nodes.  Node names are
stable and parse back: ``dx<i>`` (decision), ``x<i>``/``nx<i>`` (polarity),
``y`` (clause dispatcher), ``c<j>`` (clause).

The restart transform doubles every node into an entry half and an exit
half so that games with a tester restart option reduce to plain games:
the plain value of the doubled graph is exactly twice the restart value
of the original.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ParseError
from .graph import SUT, TESTER, GameGraph, NodeInfo, ensure_valid


@dataclass(frozen=True)
class Cnf:
    """CNF formula: clauses are sets of signed variable indices (1-based)."""

    variable_count: int
    clauses: tuple[frozenset[int], ...]


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF (``p cnf n m`` header, 0-terminated clauses).

    Comment lines start with ``c``.  A line starting with ``%`` ends the
    input, so the SATLIB trailer (``%`` then ``0``) is ignored.  Empty
    clauses are rejected: they have no game-node counterpart and make the
    formula trivially unsatisfiable.
    Duplicate literals within a clause collapse.
    """
    header: tuple[int, int] | None = None
    clauses: list[frozenset[int]] = []
    current: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError("expected `p cnf <vars> <clauses>`", lineno)
            try:
                header = (int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            continue
        if header is None:
            raise ParseError("clause data before `p cnf` header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal `{token}`", lineno) from None
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", lineno)
                clauses.append(frozenset(current))
                current = set()
            else:
                if abs(lit) > header[0]:
                    raise ParseError(
                        f"literal {lit} outside variable range 1..{header[0]}", lineno
                    )
                current.add(lit)
    if header is None:
        raise ParseError("missing `p cnf` header", None)
    if current:
        raise ParseError("unterminated clause at end of input", None)
    if len(clauses) != header[1]:
        raise ParseError(
            f"header declares {header[1]} clauses, found {len(clauses)}", None
        )
    return Cnf(header[0], tuple(clauses))


def brute_force_sat(f: Cnf, max_vars: int = 20) -> bool:
    """Exhaustive satisfiability check (oracle; up to `max_vars` variables)."""
    n = f.variable_count
    if n > max_vars:
        raise CapacityError(f"{n} variables exceed brute-force cap {max_vars}")
    for assignment in range(1 << n):
        ok = True
        for clause in f.clauses:
            if not any(
                (assignment >> (lit - 1)) & 1 if lit > 0 else not ((assignment >> (-lit - 1)) & 1)
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def _literal_node(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def sat_to_ncgame(f: Cnf) -> tuple[GameGraph, int]:
    """Coverage game whose value compares against m + 2n + 1 exactly when
    the formula is satisfiable.  Returns (graph, threshold).

    Requires at least one clause: with none, the clause dispatcher would
    be a sink and the game would not be strict (an empty conjunction is
    trivially satisfiable anyway).
    """
    n = f.variable_count
    m = len(f.clauses)
    if n < 1:
        raise ValueError("formula must have at least one variable")
    if m < 1:
        raise ValueError("formula must have at least one clause")

    nodes: dict[str, NodeInfo] = {}
    edges: dict[str, list[str]] = {}
    for i in range(1, n + 1):
        nodes[f"dx{i}"] = NodeInfo(SUT, 1)
        nodes[f"x{i}"] = NodeInfo(TESTER, 1)
        nodes[f"nx{i}"] = NodeInfo(TESTER, 1)
        edges[f"dx{i}"] = [f"x{i}", f"nx{i}"]
        after = f"dx{i + 1}" if i < n else "y"
        edges[f"x{i}"] = [after]
        edges[f"nx{i}"] = [after]
    nodes["y"] = NodeInfo(TESTER, 1)
    edges["y"] = [f"c{j}" for j in range(1, m + 1)]
    for j, clause in enumerate(f.clauses, start=1):
        nodes[f"c{j}"] = NodeInfo(SUT, 1)
        edges[f"c{j}"] = sorted({_literal_node(lit) for lit in clause})

    g = GameGraph(nodes, {v: tuple(dsts) for v, dsts in edges.items()}, "dx1")
    return g, m + 2 * n + 1


def restart_double(g: GameGraph) -> GameGraph:
    """Double every node into an entry half and an exit half.

    Arriving at ``v__in`` (always tester-owned) offers a restart to the
    initial entry node or continuing to ``v__out``, which keeps v's owner
    and carries v's original edges (retargeted to entry halves).  Exit
    halves of sinks get an edge back to the initial entry node, so the
    output is always strict even when the input has sinks.  Both halves
    keep v's gain, so total gain doubles.
    """
    ensure_valid(g, strict=False)
    root_in = f"{g.init}__in"
    nodes: dict[str, NodeInfo] = {}
    edges: dict[str, tuple[str, ...]] = {}
    for v, info in g.nodes.items():
        v_in, v_out = f"{v}__in", f"{v}__out"
        nodes[v_in] = NodeInfo(TESTER, info.gain)
        nodes[v_out] = NodeInfo(info.owner, info.gain)
        edges[v_in] = (root_in, v_out)
        outs = tuple(f"{w}__in" for w in g.edges[v])
        if not outs:
            outs = (root_in,)
        edges[v_out] = outs
    return GameGraph(nodes, edges, root_in)
