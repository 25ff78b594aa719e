"""Budget-aware multi-tool orchestration for constrained lead optimization."""
