"""Exact probabilistic and non-monotonic propositional entailment.

Propositional formulas are interpreted against an exact rational
probability distribution over all truth assignments. On top of that sit
four entailment engines (classical, threshold, maximum-a-posteriori and
preferential), an auditor that mechanically checks consequence-relation
properties, and a temporal extension that filters the distribution
through a transition model step by step.
"""

from .formula import (
    And,
    Atom,
    Bottom,
    Formula,
    FormulaError,
    Iff,
    Implies,
    Not,
    Or,
    SymbolTable,
    SyntaxError_,
    Top,
    UnknownAtomError,
    Valuation,
    atoms,
    evaluate,
    parse_formula,
    render,
)
from .worlds import (
    UNDEFINED,
    WorldError,
    WorldModel,
    parse_premises,
    parse_rational,
    uniform_world,
    world_from_dict,
    world_from_text,
    world_to_dict,
)
from .entail import (
    EXISTENTIAL,
    UNIVERSAL,
    Verdict,
    bayes_entails,
    classical_entails,
    map_entails,
    map_set,
)
from .preferential import (
    PreferentialStructure,
    StructureError,
    structure_from_dict,
)
from .audit import (
    AuditReport,
    ConsequenceOracle,
    FormulaPool,
    OMEGA_GRID,
    PROPERTIES,
    bayes_oracle,
    check_property,
    classical_oracle,
    cut_counterexample_world,
    enumerate_pool,
    map_oracle,
    monotony_counterexample_world,
    pref_oracle,
    random_world,
    theorem_suite,
)
from .temporal import (
    BeliefState,
    TemporalError,
    TemporalModel,
    filter_step,
    identity_transition,
    run_filter,
    scenario_from_dict,
    sticky_transition,
    temporal_entails,
)

__version__ = "0.1.0"
