"""Differential oracle for the fraction-free LIA solver.

``RationalLia`` below is the solver as it was before elimination went
fraction-free: the same pipeline over exact ``Fraction`` rows, with a
rational ``_tighten``, a rational Gaussian ``_presolve_raw`` /
``_push_eq`` and a rational ``_fm_raw``.  Fraction-free elimination only
multiplies rows by positive integers before they are tightened, and
tightening, the gcd test and the pivot choice are invariant under
positive scaling, so the integer solver must return the same verdict and
the *identical* premise set as this reference on every query: ``check``,
``entails_eq`` and the trail API (``push`` / ``pop_to`` /
``context().feasible()`` / ``diseq_conflict()`` / ``entails_eq``).

The generated systems use coefficients in ``[-3, 3]``, so they include
pivots that are neither unit nor lossless (``2x + 3y + 1 = 0``),
disequalities and single-variable bounds."""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from hypothesis import given, settings, strategies as st

from repro.smt.theories.lia import LiaBudgetExceeded, LiaSolver

# ----------------------------------------------------------------------
# the rational reference
# ----------------------------------------------------------------------


def lin_add(a, b):
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def lin_scale(a, s):
    if not s:
        return {}
    return {k: v * s for k, v in a.items()}


def rational_tighten(coeffs, const):
    if not coeffs:
        return coeffs, const
    denom = 1
    for v in coeffs.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    denom = denom * const.denominator // gcd(denom, const.denominator)
    ints = {k: int(v * denom) for k, v in coeffs.items()}
    c = const * denom
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    if g == 0:
        return {}, const
    rhs = Fraction(floor(-c / g))
    return {k: Fraction(v, g) for k, v in ints.items()}, -rhs


def _gcd_and_pivot(coeffs, const):
    """The rational solver's gcd test and pivot choice: None on a gcd
    conflict, else the pivot."""
    denom = 1
    for v in list(coeffs.values()) + [const]:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    int_coeffs = {k: int(v * denom) for k, v in coeffs.items()}
    int_const = int(const * denom)
    g = 0
    for v in int_coeffs.values():
        g = gcd(g, abs(v))
    if g and int_const % g != 0:
        return None
    var = LiaSolver._lossless_pivot(int_coeffs, int_const)
    return next(iter(coeffs)) if var is None else var


def _subst(subs, coeffs, const, prem):
    for var, sub_coeffs, sub_const, sub_prem in subs:
        c = coeffs.get(var)
        if not c:
            continue
        coeffs = dict(coeffs)
        del coeffs[var]
        coeffs = lin_add(coeffs, lin_scale(sub_coeffs, c))
        const = const + c * sub_const
        prem = prem | sub_prem
    return coeffs, const, prem


class _Presolved:
    def __init__(self, conflict=None, reduced=(), subs=()):
        self.conflict = conflict
        self.reduced = reduced
        self.subs = subs

    def apply(self, coeffs, const, prem):
        return _subst(self.subs, coeffs, const, prem)


class _Context:
    def __init__(self, lia, pre, rows, conflict):
        self.lia, self.pre, self.rows, self.conflict = lia, pre, rows, conflict

    def _apply(self, coeffs, const, prem):
        c = _subst(self.lia._subs, coeffs, const, prem)
        return self.pre.apply(*c) if self.pre is not None else c

    def feasible(self):
        if self.conflict is not None:
            return set(self.conflict)
        core = self.lia._fm(self.rows)
        return set(core) if core is not None else None

    def entails_eq(self, coeffs, const):
        if self.conflict is not None:
            return set(self.conflict)
        return self.lia._both(self.rows, self._apply, coeffs, const)

    def diseq_conflict(self):
        for dcoeffs, dconst, dprem in self.lia._dis:
            core = self.lia._both(self.rows, self._apply, dcoeffs, dconst)
            if core is not None:
                return core | dprem
        return None


class RationalLia:
    """The ``Fraction``-row solver (memos included, since a memo hit can
    pick which equal-keyed computation a core comes from)."""

    def __init__(self, budget=20000):
        self.budget = budget
        self._memo, self._presolve_memo = {}, {}
        self._trail, self._snaps, self._subs, self._dis = [], [], [], []
        self._rows, self._bounds, self._conflict = (), {}, None

    # -- trail ---------------------------------------------------------

    def trail_mark(self):
        return len(self._trail)

    def pop_to(self, n):
        while len(self._trail) > n:
            self._trail.pop()
            subs_len, rows, dis_len, conflict, undo = self._snaps.pop()
            for k, old in reversed(undo):
                if old is None:
                    self._bounds.pop(k, None)
                else:
                    self._bounds[k] = old
            del self._subs[subs_len:]
            self._rows = rows
            del self._dis[dis_len:]
            self._conflict = conflict

    def push(self, kind, coeffs, const, prem):
        snap = [len(self._subs), self._rows, len(self._dis),
                self._conflict, []]
        self._snaps.append(snap)
        self._trail.append(kind)
        if self._conflict is not None:
            return set(self._conflict)
        prem = frozenset(prem)
        if kind == "ne":
            self._dis.append((coeffs, const, prem))
            return None
        coeffs, const, prem = _subst(self._subs, coeffs, const, prem)
        if kind == "eq":
            return self._push_eq(coeffs, const, prem)
        return self._push_ineq(coeffs, const, prem, snap)

    def context(self, extra_eqs=()):
        if self._conflict is not None:
            return _Context(self, None, None, self._conflict)
        if extra_eqs:
            applied = [_subst(self._subs, c, k, frozenset(p))
                       for c, k, p in extra_eqs]
            pre = self._presolve(applied, self._rows)
            if pre.conflict is not None:
                return _Context(self, None, None, frozenset(pre.conflict))
            return _Context(self, pre, pre.reduced, None)
        return _Context(self, None, self._rows, None)

    def _fail(self, prem):
        self._conflict = frozenset(prem)
        return set(prem)

    def _push_eq(self, coeffs, const, prem):
        if not coeffs:
            return self._fail(prem) if const != 0 else None
        var = _gcd_and_pivot(coeffs, const)
        if var is None:
            return self._fail(prem)
        cv = coeffs[var]
        rest = {k: v for k, v in coeffs.items() if k != var}
        sub_coeffs = lin_scale(rest, Fraction(-1) / cv)
        sub_const = -const / cv
        if not rest:
            lo, lop, hi, hip = self._bounds.get(var, (None,) * 4)
            if lo is not None and sub_const < lo:
                return self._fail(prem | lop)
            if hi is not None and sub_const > hi:
                return self._fail(prem | hip)
        self._subs.append((var, sub_coeffs, sub_const, prem))
        rows = []
        for rc, rk, rp in self._rows:
            if var not in rc:
                rows.append((rc, rk, rp))
                continue
            nc, nk, np_ = _subst(((var, sub_coeffs, sub_const, prem),),
                                 rc, rk, rp)
            nc, nk = rational_tighten(nc, nk)
            if not nc:
                if nk > 0:
                    self._rows = tuple(rows)
                    return self._fail(np_)
                continue
            rows.append((nc, nk, np_))
        self._rows = tuple(rows)
        return None

    def _push_ineq(self, coeffs, const, prem, snap):
        coeffs, const = rational_tighten(coeffs, const)
        if not coeffs:
            return self._fail(prem) if const > 0 else None
        if len(coeffs) == 1:
            ((k, a),) = coeffs.items()
            lo, lop, hi, hip = self._bounds.get(k, (None,) * 4)
            snap[4].append((k, self._bounds.get(k)))
            if a > 0:
                if hi is None or -const < hi:
                    hi, hip = -const, prem
            elif lo is None or const > lo:
                lo, lop = const, prem
            self._bounds[k] = (lo, lop, hi, hip)
            if lo is not None and hi is not None and lo > hi:
                self._rows = self._rows + ((coeffs, const, prem),)
                return self._fail(lop | hip)
        self._rows = self._rows + ((coeffs, const, prem),)
        return None

    # -- stateless -----------------------------------------------------

    def check(self, eqs, ineqs, diseqs):
        pre = self._presolve(eqs, ineqs)
        if pre.conflict is not None:
            return set(pre.conflict)
        core = self._fm(pre.reduced)
        if core is not None:
            return set(core)
        for dcoeffs, dconst, dprem in diseqs:
            core = self._both(pre.reduced, pre.apply, dcoeffs, dconst)
            if core is not None:
                return core | dprem
        return None

    def entails_eq(self, eqs, ineqs, coeffs, const):
        pre = self._presolve(eqs, ineqs)
        if pre.conflict is not None:
            return set(pre.conflict)
        return self._both(pre.reduced, pre.apply, coeffs, const)

    def _both(self, reduced, apply, coeffs, const):
        lo = apply(coeffs, const + 1, frozenset())
        core_lo = self._fm_with(reduced, lo)
        if core_lo is None:
            return None
        hi = apply(lin_scale(coeffs, Fraction(-1)), -const + 1, frozenset())
        core_hi = self._fm_with(reduced, hi)
        if core_hi is None:
            return None
        return set(core_lo) | set(core_hi)

    _canon = staticmethod(LiaSolver._canon)

    def _presolve(self, eqs, ineqs):
        key = (self._canon(eqs, "eq"), self._canon(ineqs, "le"))
        if key not in self._presolve_memo:
            self._presolve_memo[key] = self._presolve_raw(eqs, ineqs)
        return self._presolve_memo[key]

    def _presolve_raw(self, eqs, ineqs):
        work_eqs = [(dict(c), k, frozenset(p)) for c, k, p in eqs]
        work_ineqs = [(dict(c), k, frozenset(p)) for c, k, p in ineqs]
        subs = []
        while work_eqs:
            coeffs, const, prem = work_eqs.pop()
            if not coeffs:
                if const != 0:
                    return _Presolved(conflict=frozenset(prem))
                continue
            var = _gcd_and_pivot(coeffs, const)
            if var is None:
                return _Presolved(conflict=frozenset(prem))
            cv = coeffs[var]
            rest = {k: v for k, v in coeffs.items() if k != var}
            sub = (var, lin_scale(rest, Fraction(-1) / cv), -const / cv,
                   frozenset(prem))
            work_eqs = [_subst((sub,), *e) for e in work_eqs]
            work_ineqs = [_subst((sub,), *i) for i in work_ineqs]
            subs.append(sub)
        tight = []
        for coeffs, const, prem in work_ineqs:
            coeffs, const = rational_tighten(coeffs, Fraction(const))
            if not coeffs:
                if const > 0:
                    return _Presolved(conflict=frozenset(prem))
                continue
            tight.append((coeffs, const, prem))
        return _Presolved(reduced=tuple(tight), subs=tuple(subs))

    def _fm_with(self, reduced, extra):
        coeffs, const, prem = extra
        coeffs, const = rational_tighten(dict(coeffs), Fraction(const))
        if not coeffs:
            return frozenset(prem) if const > 0 else None
        return self._fm(tuple(reduced) + ((coeffs, const, frozenset(prem)),))

    def _fm(self, reduced):
        key = self._canon(reduced, "le")
        if key not in self._memo:
            self._memo[key] = self._fm_raw(list(reduced))
        return self._memo[key]

    def _fm_raw(self, tight):
        budget = self.budget
        current = tight
        while True:
            vars_here = {}
            for coeffs, _, _ in current:
                for k, v in coeffs.items():
                    pos, neg = vars_here.get(k, (0, 0))
                    vars_here[k] = (pos + 1, neg) if v > 0 else (pos, neg + 1)
            if not vars_here:
                return None
            var = min(vars_here,
                      key=lambda k: vars_here[k][0] * vars_here[k][1])
            pos_cs = [c for c in current if c[0].get(var, 0) > 0]
            neg_cs = [c for c in current if c[0].get(var, 0) < 0]
            new = [c for c in current if not c[0].get(var, 0)]
            for pc, pk, pp in pos_cs:
                for nc, nk, np_ in neg_cs:
                    a, b = pc[var], -nc[var]
                    coeffs = lin_add(lin_scale(pc, b), lin_scale(nc, a))
                    coeffs.pop(var, None)
                    coeffs, const = rational_tighten(coeffs, b * pk + a * nk)
                    if not coeffs:
                        if const > 0:
                            return frozenset(pp | np_)
                        continue
                    new.append((coeffs, const, pp | np_))
                    budget -= 1
                    if budget <= 0:
                        raise LiaBudgetExceeded()
            current = LiaSolver._prune(new)


# ----------------------------------------------------------------------
# generated systems
# ----------------------------------------------------------------------

VARS = ("x", "y", "z")


def as_fraction(row):
    coeffs, const, prem = row
    return ({k: Fraction(v) for k, v in coeffs.items()}, Fraction(const),
            prem)


@st.composite
def rows(draw, tag):
    """A row over one to three variables with coefficients in [-3, 3]:
    single-variable bounds and non-unit, non-lossless equations such as
    ``2x + 3y + 1 = 0`` both occur."""
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                          unique=True))
    coeffs = {v: draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for v in names}
    return coeffs, draw(st.integers(-5, 5)), frozenset({tag})


@st.composite
def systems(draw):
    def some(kind, lo, hi):
        n = draw(st.integers(lo, hi))
        return [draw(rows(f"{kind}{i}")) for i in range(n)]
    return some("e", 0, 3), some("i", 0, 5), some("d", 0, 2)


@st.composite
def trails(draw):
    """Facts to push, a pop point, facts to push after it, side
    equations for the context and an entailment probe."""
    def facts(prefix, hi):
        n = draw(st.integers(0, hi))
        return [(draw(st.sampled_from(("eq", "le", "le", "ne"))),
                 draw(rows(f"{prefix}{i}"))) for i in range(n)]
    first = facts("a", 6)
    mark = draw(st.integers(0, len(first)))
    extra = [draw(rows(f"s{i}")) for i in range(draw(st.integers(0, 2)))]
    return first, mark, facts("b", 4), extra, draw(rows("probe"))


def outcome(fn, *args):
    """A query's answer, or the budget exception it raised."""
    try:
        return fn(*args)
    except LiaBudgetExceeded:
        return "budget"


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


class TestMatchesRationalReference:
    @given(systems())
    @settings(max_examples=300, deadline=None)
    def test_check(self, system):
        eqs, ineqs, diseqs = system
        ref = [[as_fraction(r) for r in part] for part in system]
        assert outcome(LiaSolver().check, eqs, ineqs, diseqs) == \
            outcome(RationalLia().check, *ref)

    @given(systems(), rows("goal"))
    @settings(max_examples=300, deadline=None)
    def test_entails_eq(self, system, goal):
        eqs, ineqs, _ = system
        coeffs, const, _ = goal
        fcoeffs, fconst, _ = as_fraction(goal)
        got = outcome(LiaSolver().entails_eq, eqs, ineqs, coeffs, const)
        want = outcome(RationalLia().entails_eq,
                       [as_fraction(r) for r in eqs],
                       [as_fraction(r) for r in ineqs], fcoeffs, fconst)
        assert got == want

    @given(trails())
    @settings(max_examples=300, deadline=None)
    def test_trail(self, trail):
        first, mark, second, extra, probe = trail
        lia, ref = LiaSolver(), RationalLia()

        def push(facts):
            for kind, row in facts:
                assert lia.push(kind, *row) == \
                    ref.push(kind, *as_fraction(row))

        def views(solver, extra, probe):
            # the DPLL(T) order: disequalities only on a feasible context
            ctx = solver.context(extra)
            feasible = outcome(ctx.feasible)
            diseq = outcome(ctx.diseq_conflict) if feasible is None else None
            return feasible, diseq, outcome(ctx.entails_eq, *probe[:2])

        push(first)
        assert views(lia, extra, probe) == \
            views(ref, [as_fraction(r) for r in extra], as_fraction(probe))
        lia.pop_to(mark)
        ref.pop_to(mark)
        push(second)
        for side in ([], extra):
            assert views(lia, side, probe) == \
                views(ref, [as_fraction(r) for r in side],
                      as_fraction(probe))
