"""Property tests over small random grammars, drawn with hypothesis."""

from hypothesis import given, strategies as st

from artifact.core import Tree, all_trees, leaf
from artifact.fixtures import OUT3
from artifact.regular import RegularTreeGrammar, enumerate_grammar, \
    grammar_member

NONTERMINALS = ("S", "A", "B")


def _rhs(nts):
    """Right-hand sides over OUT3 whose leaves may be nonterminals, and
    chain rules: a bare nonterminal."""
    leaves = st.sampled_from(("e", "e") + nts).map(leaf)
    return st.one_of(st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(lambda c: Tree("tau", [c])),
            st.tuples(kids, kids).map(lambda cs: Tree("sigma", cs))),
        max_leaves=4), st.sampled_from(nts).map(leaf))


@st.composite
def grammars(draw):
    """One to three nonterminals with one to three rules each."""
    nts = NONTERMINALS[:draw(st.integers(1, len(NONTERMINALS)))]
    rules = [(nt, rhs) for nt in nts
             for rhs in draw(st.lists(_rhs(nts), min_size=1, max_size=3))]
    return RegularTreeGrammar(nts, OUT3, ["S"], rules)


@given(grammars(), st.integers(1, 7))
def test_enumeration_and_parsing_agree(g, n):
    lang = enumerate_grammar(g, n)
    for t in all_trees(g.terminals, n):
        assert (t in lang) == grammar_member(g, t), (g.format(), t)
