"""A DPLL SAT solver with unit propagation, watched literals and VSIDS-lite.

The solver is small but complete; interlock-verification formulas have at
most a few hundred variables after Tseitin encoding, well inside its
comfortable range.  It implements:

* two-watched-literal unit propagation,
* conflict-driven clause learning with first-UIP analysis,
* non-chronological backjumping,
* an exponentially decayed activity heuristic for branching,
* restarts on a Luby sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Clause = Tuple[int, ...]


@dataclass
class SatResult:
    """Outcome of a SAT call."""

    satisfiable: bool
    assignment: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    def __bool__(self) -> bool:
        return self.satisfiable


class CdclSolver:
    """Conflict-driven clause learning solver over integer literals."""

    def __init__(self, num_vars: int, clauses: Iterable[Clause]):
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        # assignment[v] is None (unassigned), True or False for variable v (1-based).
        self.assignment: List[Optional[bool]] = [None] * (num_vars + 1)
        self.level: List[int] = [0] * (num_vars + 1)
        self.reason: List[Optional[int]] = [None] * (num_vars + 1)
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.watches: Dict[int, List[int]] = {}
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._empty_clause = False
        for clause in clauses:
            self._add_clause(list(clause), learned=False)

    # -- clause management ---------------------------------------------------

    def _add_clause(self, literals: List[int], learned: bool) -> Optional[int]:
        literals = self._normalise(literals)
        if literals is None:
            return None  # tautological clause, skip
        if not literals:
            self._empty_clause = True
            return None
        index = len(self.clauses)
        self.clauses.append(literals)
        if len(literals) == 1:
            # Unit clause: enqueue at the root level.
            lit = literals[0]
            if not self._enqueue(lit, None):
                self._empty_clause = True
            return index
        for lit in literals[:2]:
            self.watches.setdefault(-lit, []).append(index)
        return index

    @staticmethod
    def _normalise(literals: List[int]) -> Optional[List[int]]:
        seen = set()
        out = []
        for lit in literals:
            if -lit in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        return out

    # -- assignment/trail ------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        value = self.assignment[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        current = self._value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self.assignment[var] = lit > 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation -------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        head = len(self.trail) - 1 if self.trail else 0
        queue_index = getattr(self, "_queue_index", 0)
        while queue_index < len(self.trail):
            lit = self.trail[queue_index]
            queue_index += 1
            self.propagations += 1
            watching = self.watches.get(lit, [])
            index = 0
            while index < len(watching):
                clause_index = watching[index]
                clause = self.clauses[clause_index]
                # Ensure the falsified literal is in position 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    index += 1
                    continue
                # Look for a new literal to watch.
                moved = False
                for position in range(2, len(clause)):
                    if self._value(clause[position]) is not False:
                        clause[1], clause[position] = clause[position], clause[1]
                        self.watches.setdefault(-clause[1], []).append(clause_index)
                        watching[index] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if self._value(first) is False:
                    self._queue_index = len(self.trail)
                    return clause_index
                self._enqueue(first, clause_index)
                index += 1
        self._queue_index = queue_index
        _ = head
        return None

    # -- conflict analysis ----------------------------------------------------------

    def _analyse(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: List[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause = list(self.clauses[conflict_index])
        trail_index = len(self.trail) - 1
        current_level = self._decision_level()

        while True:
            for reason_lit in clause:
                var = abs(reason_lit)
                if seen[var] or self.level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self.level[var] == current_level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            # Find the next literal on the trail at the current level.
            while True:
                lit = self.trail[trail_index]
                trail_index -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self.reason[abs(lit)]
            clause = [l for l in self.clauses[reason_index] if l != lit]
        learned.insert(0, -lit)
        if len(learned) == 1:
            return learned, 0
        backjump = max(self.level[abs(l)] for l in learned[1:])
        return learned, backjump

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100

    def _decay(self) -> None:
        self.var_inc /= self.var_decay

    # -- backtracking -----------------------------------------------------------------

    def _backjump(self, target_level: int) -> None:
        while self._decision_level() > target_level:
            boundary = self.trail_lim.pop()
            while len(self.trail) > boundary:
                lit = self.trail.pop()
                var = abs(lit)
                self.assignment[var] = None
                self.reason[var] = None
        self._queue_index = len(self.trail)

    # -- branching ---------------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assignment[var] is None and self.activity[var] > best_activity:
                best_activity = self.activity[var]
                best_var = var
        if best_var is None:
            return None
        return best_var  # branch positive first

    # -- main loop -------------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide satisfiability under optional assumption literals."""
        if self._empty_clause:
            return SatResult(False, conflicts=self.conflicts)
        self._queue_index = 0
        conflict = self._propagate()
        if conflict is not None:
            return SatResult(False, conflicts=self.conflicts)

        for lit in assumptions:
            if self._value(lit) is True:
                continue
            if self._value(lit) is False:
                self._restart()
                return SatResult(False, conflicts=self.conflicts)
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
            conflict = self._propagate()
            if conflict is not None:
                self._restart()
                return SatResult(False, conflicts=self.conflicts)

        luby_base = 64
        restart_count = 0
        conflicts_until_restart = luby_base * _luby(restart_count + 1)
        conflicts_since_restart = 0
        assumption_level = self._decision_level()

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() <= assumption_level:
                    self._restart()
                    return SatResult(False, conflicts=self.conflicts)
                learned, backjump = self._analyse(conflict)
                self._backjump(max(backjump, assumption_level))
                index = self._add_clause(learned, learned=True)
                if index is not None and len(self.clauses[index]) > 1:
                    self._enqueue(learned[0], index)
                elif index is not None:
                    self._enqueue(learned[0], None)
                self._decay()
                if conflicts_since_restart >= conflicts_until_restart:
                    restart_count += 1
                    conflicts_until_restart = luby_base * _luby(restart_count + 1)
                    conflicts_since_restart = 0
                    self._backjump(assumption_level)
                continue
            branch_var = self._pick_branch()
            if branch_var is None:
                assignment = {
                    var: bool(self.assignment[var])
                    for var in range(1, self.num_vars + 1)
                    if self.assignment[var] is not None
                }
                result = SatResult(
                    True,
                    assignment=assignment,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                )
                self._restart()
                return result
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(branch_var, None)

    def _restart(self) -> None:
        self._backjump(0)


def _luby(index: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    if index < 1:
        raise ValueError("Luby index is 1-based")
    while True:
        # Smallest k such that the complete subsequence of length 2^k - 1
        # covers the requested index.
        k = 1
        while (1 << k) - 1 < index:
            k += 1
        if (1 << k) - 1 == index:
            return 1 << (k - 1)
        # Recurse into the trailing repetition of the previous subsequence.
        index -= (1 << (k - 1)) - 1
