"""The composition with a pruning machine as it was before the first
machine was augmented by the second machine's classes of child numbers,
kept as a reference: ``_chi_augment`` pairs every state with each child
number 0..max rank, and ``compose_with_pruning`` composes over all of
those copies whether or not the pruner tells the numbers apart."""

from artifact.constructions import (
    _assemble, _domain_oracle, _guard_initial, _identity_on, _rules_by,
    intersect_tests, productive_configs_nondet,
)
from artifact.core import Tree, navigate
from artifact.regular import OracleTest
from artifact.transducer import (
    ContractError, Rule, Transducer, call, normalize_general,
)


def chi_augment_reference(M):
    """Pair every state with the child number its computation's next
    output node will take; output rules pass position k to their k-th
    call."""
    width = M.output_alphabet.max_rank
    rules = []
    for r in M.rules:
        if r.kind == "general":
            raise ContractError(
                "child-index augmentation needs move and output rules only")
        for i in range(width + 1):
            if r.kind == "move":
                c = r.rhs.label
                rhs = call((c.state, i), c.instr)
            else:
                rhs = Tree(r.rhs.label,
                           [call((c.label.state, k), c.label.instr)
                            for k, c in enumerate(r.rhs.children, 1)])
            rules.append(Rule((r.state, i), r.symbol, r.child_no, r.test,
                              rhs))
    states = [(q, i) for q in M.states for i in range(width + 1)]
    return Transducer(M.input_alphabet, M.output_alphabet, states,
                      [(q0, 0) for q0 in M.initials], rules)


def compose_with_pruning_reference(M1, M2):
    """Compose M1 with the local pruning machine M2 over the full
    child-number augmentation of M1."""
    M1a = chi_augment_reference(normalize_general(M1))
    prod = productive_configs_nondet(M1a)

    def deletion_test(calls1, deleted):
        if not deleted:
            return None

        def fn(t, u, calls1=calls1, deleted=tuple(deleted)):
            p = prod(t)
            return all((calls1[l - 1].state,
                        navigate(t, u, calls1[l - 1].instr)) in p
                       for l in deleted)
        return OracleTest(fn, "kept-siblings-productive")

    by_state = _rules_by(M1a, lambda r: r.state)

    def rules_for(state):
        _, pa, q = state
        made = []
        for r in by_state.get(pa, ()):
            if r.kind == "move":
                c = r.rhs.label
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("pq", c.state, q), c.instr)))
                continue
            delta_sym = r.rhs.label
            calls1 = [c.label for c in r.rhs.children]
            k = len(calls1)
            for r2 in M2.rules_at(q, delta_sym, pa[1]):
                if r2.kind == "move":
                    l = r2.rhs.label.instr.index
                    rhs = call(("pq", calls1[l - 1].state,
                                r2.rhs.label.state), calls1[l - 1].instr)
                    used = {l}
                else:
                    kids = []
                    used = set()
                    for c2 in r2.rhs.children:
                        l = c2.label.instr.index
                        used.add(l)
                        kids.append(call(("pq", calls1[l - 1].state,
                                          c2.label.state),
                                         calls1[l - 1].instr))
                    rhs = Tree(r2.rhs.label, kids)
                deleted = [l for l in range(1, k + 1) if l not in used]
                made.append(Rule(state, r.symbol, r.child_no,
                                 intersect_tests(
                                     r.test, deletion_test(calls1, deleted)),
                                 rhs))
        return made

    initials = [("pq", p0, q0) for p0 in M1a.initials
                for q0 in M2.initials]
    return _assemble(M1.input_alphabet, M2.output_alphabet, initials,
                     rules_for)


def restrict_range_reference(M, L):
    """``restrict_range`` over the reference composition."""
    ident = _identity_on(L)
    if not ident.rules:
        return Transducer(M.input_alphabet, M.output_alphabet, ["q0"],
                          ["q0"], [])
    return compose_with_pruning_reference(M, ident)


def compose_det_topdown_pruning_reference(M1, M2):
    """``compose_det_topdown`` for a pruning M2, guarded on the domain of
    the augmented first machine."""
    return _guard_initial(
        compose_with_pruning_reference(M1, M2),
        _domain_oracle(chi_augment_reference(normalize_general(M1))))
