"""Seeded well-typed random program generator over ``repro.lang``.

Programs are built directly in the *parser normal form* so that
``parse_program(pp_program(p)) == p`` holds by construction (and is
enforced by the round-trip oracle on every campaign iteration):

* ``And``/``Or`` nodes are n-ary with at least two arguments;
* integer literals are non-negative (negative constants are spelled
  ``NegExpr(IntLit(k))``, exactly what the parser builds for ``-k``);
* no surface ``StoreExpr``/``IteExpr``/``PredAppExpr`` (those are
  produced only by lowering passes and have no concrete syntax);
* statement blocks are assembled with :func:`repro.lang.ast.seq`, which
  flattens nested sequences and drops skips the way the parser does.

``GenConfig.deterministic`` removes every source of non-determinism
(``havoc``, ``if (*)``, ``while (*)``), which the execution-based
oracles require; ``GenConfig.domain_bound`` prepends
``assume -B <= v && v <= B`` for every integer variable so brute-force
input enumeration over the same box is *exact* against the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..lang.ast import (
    AndExpr, AssertStmt, AssignStmt, AssumeStmt, BinExpr, BoolLit, Expr,
    Formula, FunAppExpr, HavocStmt, IfStmt, IffExpr, ImpliesExpr, IntLit,
    MapAssignStmt, NegExpr, NotExpr, OrExpr, Procedure, Program, RelExpr,
    SelectExpr, SkipStmt, Stmt, Type, VarExpr, WhileStmt, seq,
)

INT_POOL = ("a", "b", "c", "d", "e")
MAP_POOL = ("m", "n")
FUN_POOL = ("f", "g")

#: Box half-width shared by the generator's domain prelude and the
#: brute-force oracle's input enumeration (see ``oracles.DOMAIN_BOUND``).
DEFAULT_DOMAIN_BOUND = 2

_REL_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generated program."""

    n_int_vars: int = 3
    n_map_vars: int = 1
    n_funs: int = 1
    n_procs: int = 1
    max_depth: int = 3        # expression / formula nesting
    max_block: int = 5        # statements per block
    stmt_depth: int = 2       # if/while nesting
    deterministic: bool = False
    maps: bool = True
    funs: bool = True
    loops: bool = True
    domain_bound: int | None = None
    #: also emit scenario-family assertions — labeled asserts in the
    #: shapes the mini-C lowering inserts (``uaf$n``/``bound$n``/
    #: ``div$n``/``uninit$n``, see `repro.scenarios.classes`) — so the
    #: differential oracles exercise labeled multi-family procedures
    scenario_families: bool = False


class ProgramGen:
    """One generator instance; fully determined by the ``random.Random``
    it is given (same seed, same config => identical program)."""

    def __init__(self, rng: random.Random, config: GenConfig | None = None):
        self.rng = rng
        self.cfg = config if config is not None else GenConfig()
        self.int_vars: tuple[str, ...] = ()
        self.map_vars: tuple[str, ...] = ()
        self.funs: dict[str, int] = {}
        self._scn_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # weighted choice
    # ------------------------------------------------------------------

    def _pick(self, weighted):
        total = sum(w for w, _ in weighted)
        x = self.rng.random() * total
        for w, thunk in weighted:
            x -= w
            if x <= 0:
                return thunk()
        return weighted[-1][1]()

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def int_expr(self, depth: int | None = None) -> Expr:
        d = self.cfg.max_depth if depth is None else depth
        choices = [
            (3.0, lambda: VarExpr(self.rng.choice(self.int_vars))),
            (2.0, lambda: IntLit(self.rng.randint(0, 3))),
        ]
        if d > 0:
            choices.append((2.0, lambda: self._bin_expr(d)))
            choices.append((1.0, lambda: NegExpr(self.int_expr(d - 1))))
            if self.map_vars:
                choices.append((1.0, lambda: SelectExpr(
                    VarExpr(self.rng.choice(self.map_vars)),
                    self.int_expr(d - 1))))
            if self.funs:
                choices.append((1.0, lambda: self._fun_app(d)))
        return self._pick(choices)

    def _bin_expr(self, d: int) -> Expr:
        op = self.rng.choice(("+", "-", "*"))
        if op == "*":
            # keep the fragment linear: one factor is a constant
            const = IntLit(self.rng.randint(0, 3))
            other = self.int_expr(d - 1)
            return BinExpr("*", const, other) if self.rng.random() < 0.5 \
                else BinExpr("*", other, const)
        return BinExpr(op, self.int_expr(d - 1), self.int_expr(d - 1))

    def _fun_app(self, d: int) -> Expr:
        name = self.rng.choice(sorted(self.funs))
        arity = self.funs[name]
        return FunAppExpr(name, tuple(self.int_expr(d - 1)
                                      for _ in range(arity)))

    # ------------------------------------------------------------------
    # formulas
    # ------------------------------------------------------------------

    def formula(self, depth: int | None = None) -> Formula:
        d = self.cfg.max_depth if depth is None else depth
        choices = [
            (4.0, lambda: RelExpr(self.rng.choice(_REL_OPS),
                                  self.int_expr(max(0, d - 1)),
                                  self.int_expr(max(0, d - 1)))),
            (0.3, lambda: BoolLit(self.rng.random() < 0.7)),
        ]
        if d > 0:
            choices.extend([
                (1.0, lambda: NotExpr(self.formula(d - 1))),
                (1.0, lambda: AndExpr(self._sub_formulas(d))),
                (1.0, lambda: OrExpr(self._sub_formulas(d))),
                (0.8, lambda: ImpliesExpr(self.formula(d - 1),
                                          self.formula(d - 1))),
                (0.4, lambda: IffExpr(self.formula(d - 1),
                                      self.formula(d - 1))),
            ])
        return self._pick(choices)

    def _sub_formulas(self, d: int) -> tuple[Formula, ...]:
        return tuple(self.formula(d - 1)
                     for _ in range(self.rng.randint(2, 3)))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def stmt(self, depth: int) -> Stmt:
        cfg = self.cfg
        choices = [
            (3.0, lambda: AssignStmt(self.rng.choice(self.int_vars),
                                     self.int_expr())),
            (2.0, lambda: AssertStmt(self.formula(2))),
            (1.0, lambda: AssumeStmt(self.formula(1))),
        ]
        if self.map_vars:
            choices.append((1.5, lambda: MapAssignStmt(
                self.rng.choice(self.map_vars),
                self.int_expr(1), self.int_expr(1))))
        if not cfg.deterministic:
            choices.append((1.0, lambda: HavocStmt(
                (self.rng.choice(self.int_vars + self.map_vars),))))
        if cfg.scenario_families:
            choices.append((1.5, self._scenario_assert))
        if depth > 0:
            choices.append((2.0, lambda: self._if_stmt(depth)))
            if cfg.loops:
                choices.append((0.8, lambda: self._while_stmt(depth)))
        return self._pick(choices)

    def _if_stmt(self, depth: int) -> Stmt:
        nondet = not self.cfg.deterministic and self.rng.random() < 0.3
        cond = None if nondet else self.formula(2)
        els = self.block(depth - 1) if self.rng.random() < 0.5 else SkipStmt()
        return IfStmt(cond, self.block(depth - 1), els)

    def _while_stmt(self, depth: int) -> Stmt:
        nondet = not self.cfg.deterministic and self.rng.random() < 0.3
        cond = None if nondet else self.formula(1)
        return WhileStmt(cond, self.block(depth - 1))

    def _scenario_assert(self) -> Stmt:
        """A labeled assert in one of the mini-C lowering's scenario
        shapes: ``Freed[p] == 0`` (uaf), ``0 <= i && i < AllocSize[b]``
        (bound), ``d != 0`` (div), ``Init[s] != 0`` (uninit) — with
        generator variables standing in for the typestate maps."""
        families = ["div", "uninit"]
        if self.map_vars:
            families += ["uaf", "bound"]
        fam = self.rng.choice(families)
        n = self._scn_counts.get(fam, 0) + 1
        self._scn_counts[fam] = n
        cell = lambda: SelectExpr(VarExpr(self.rng.choice(self.map_vars)),
                                  self.int_expr(1))
        if fam == "div":
            f: Formula = RelExpr("!=", self.int_expr(1), IntLit(0))
        elif fam == "uninit":
            tracked = cell() if self.map_vars \
                else VarExpr(self.rng.choice(self.int_vars))
            f = RelExpr("!=", tracked, IntLit(0))
        elif fam == "uaf":
            f = RelExpr("==", cell(), IntLit(0))
        else:  # bound
            idx = self.int_expr(1)
            f = AndExpr((RelExpr("<=", IntLit(0), idx),
                         RelExpr("<", idx, cell())))
        return AssertStmt(f, label=f"{fam}${n}")

    def block(self, depth: int) -> Stmt:
        n = self.rng.randint(1, self.cfg.max_block)
        return seq(*(self.stmt(depth) for _ in range(n)))

    # ------------------------------------------------------------------
    # procedures / programs
    # ------------------------------------------------------------------

    def procedure(self, name: str) -> Procedure:
        cfg = self.cfg
        self._scn_counts = {}
        self.int_vars = INT_POOL[:self.rng.randint(1, max(1, cfg.n_int_vars))]
        self.map_vars = MAP_POOL[:self.rng.randint(0, cfg.n_map_vars)] \
            if cfg.maps else ()
        body = self.block(cfg.stmt_depth)
        if not any(isinstance(s, AssertStmt) for s in _walk(body)):
            body = seq(body, AssertStmt(self.formula(2)))
        if cfg.domain_bound is not None:
            body = seq(*self._domain_prelude(cfg.domain_bound), body)
        params = self.int_vars + self.map_vars
        var_types = {v: Type.INT for v in self.int_vars}
        var_types.update({v: Type.MAP for v in self.map_vars})
        return Procedure(name=name, params=params, returns=(),
                         var_types=var_types, body=body)

    def _domain_prelude(self, bound: int) -> list[Stmt]:
        out = []
        for v in self.int_vars:
            out.append(AssumeStmt(AndExpr((
                RelExpr("<=", NegExpr(IntLit(bound)), VarExpr(v)),
                RelExpr("<=", VarExpr(v), IntLit(bound))))))
        return out

    def program(self) -> Program:
        cfg = self.cfg
        self.funs = {FUN_POOL[i]: self.rng.randint(1, 2)
                     for i in range(self.rng.randint(0, cfg.n_funs))} \
            if cfg.funs else {}
        procs = {}
        for i in range(cfg.n_procs):
            name = "main" if cfg.n_procs == 1 else f"p{i}"
            procs[name] = self.procedure(name)
        return Program(globals={}, functions=dict(self.funs),
                       procedures=procs)


def _walk(s: Stmt):
    yield s
    from ..lang.ast import stmt_children
    for c in stmt_children(s):
        yield from _walk(c)


def generate_program(seed: int, config: GenConfig | None = None) -> Program:
    """One-shot convenience wrapper: seed in, well-typed program out."""
    return ProgramGen(random.Random(seed), config).program()


# Generator presets for the oracles (see ``oracles`` for why each oracle
# needs its fragment).
GENERAL = GenConfig()
DETERMINISTIC = replace(GENERAL, deterministic=True)
BRUTE = GenConfig(deterministic=True, maps=False, funs=False, loops=False,
                  n_int_vars=3, max_block=4,
                  domain_bound=DEFAULT_DOMAIN_BOUND)
# Solver-heavy oracles (incremental/cache) pay for every generated
# statement many times over — once per Dead/Fail query, each with model
# extraction under --self-check — so they fuzz a smaller fragment.
SOLVER = GenConfig(n_int_vars=2, max_depth=2, max_block=3, stmt_depth=2)
MULTIPROC = replace(SOLVER, n_procs=3)
# Scenario-family fuzzing: the SOLVER fragment plus labeled asserts in
# the lowering's uaf/bound/div/uninit shapes (two map vars so the
# typestate-map shapes actually fire).
SCENARIOS = replace(SOLVER, scenario_families=True, n_map_vars=2)
