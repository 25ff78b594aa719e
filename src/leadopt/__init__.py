"""Budget-aware multi-tool orchestration for constrained lead optimization."""

from .buffer import (
    SchemaError,
    StepOutcome,
    ToolAction,
    TrajectoryBuffer,
    TrajectoryRecord,
    prefix_match,
)
# NB: the evaluate() entry point stays namespaced (leadopt.evaluate.evaluate)
# so the submodule name is not shadowed.
from .evaluate import (
    EvaluatorUnavailableError,
    ExternalEvaluator,
    Improvement,
    PropertySpec,
    PropertyValue,
    builtin_property,
    is_improvement,
    relative_improvement,
)
from .fingerprint import (
    Fingerprint,
    InvalidMoleculeError,
    ShapeMismatchError,
    meets_constraint,
    morgan_fp,
    tanimoto,
)
from .metrics import (
    MetricReport,
    SampleOutcome,
    compile_report,
    outcome_from_record,
)
from .molgraph import (
    Atom,
    Bond,
    FragmentError,
    KekulizeError,
    MolGraph,
    ParseError,
    RingError,
    SmilesSyntaxError,
    ValenceError,
    ValidityReport,
    canonical_form,
    parse_smiles,
    validate,
    write_smiles,
)
from .orchestrate import (
    CampaignResult,
    ConfigError,
    PlanCommand,
    PlannerProtocolError,
    RunConfig,
    StepRecord,
    invocation_budget_check,
    run_campaign,
    trajectory_from_campaign,
)
from .tools import (
    ExternalTool,
    Instruction,
    ToolProfile,
    ToolResult,
    ToolSpec,
    ToolUnavailableError,
    build_instruction,
    builtin_toolset,
    invoke,
    simulated_tool_step,
)

__version__ = "0.1.0"
