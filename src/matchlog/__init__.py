"""Horn-clause logic programming with two resolution modes and semantic checkers.

The package splits into first-order syntax (`syntax`), substitutions and
matching (`substitution`), truncated and-or derivation trees (`cotree`), the
term-matching prover (`engine_tm`), SLD resolution (`engine_sld`), the
ground and first-order semantic structures (`coalgebra`), and a command line
front end (`cli`).
"""

from .syntax import (
    ArityMismatchError,
    Atom,
    Clause,
    Fn,
    Goal,
    ParseError,
    Program,
    Signature,
    Term,
    Var,
    classify_program,
    parse_atom,
    parse_goal,
    parse_program,
    print_term,
    rename,
)
from .substitution import (
    ArrowSubstitution,
    Substitution,
    apply,
    arrow_apply,
    compose_arrows,
    instances,
    mgm,
    mgu,
    unify,
)
from .cotree import (
    AndNode,
    CoTree,
    OrNode,
    ProofTree,
    Status,
    TreeOutcome,
    build_tree,
    map_tree,
    render,
    success_subtree,
    tree_equal_upto_renaming,
    tree_leq,
    truncate_tree,
)
from .engine_tm import tm_prove, tm_status
from .engine_sld import (
    Answer,
    BridgeReport,
    SldLimits,
    SldResult,
    check_bridge,
    sld_solve,
)
from .coalgebra import (
    Approximant,
    GroundCoalgebra,
    LaxSquare,
    LaxSweepReport,
    PffElement,
    approximant_matches_tree,
    default_check_atoms,
    encode_tree,
    enumerate_terms,
    ground_coalgebra,
    ground_lfp,
    lax_square,
    lax_sweep,
    pff_map,
    pff_step,
    pff_leq,
    pp_leq,
    project_approximant,
    rebase,
    saturate,
    unfold,
)

__version__ = "0.1.0"
