"""Simulated JBoss Application Server components and workloads (Section 7)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "reference": (
            "CONNECTION_SET_UP",
            "FIGURE4_PATTERN",
            "FIGURE5_CONSEQUENT",
            "FIGURE5_PREMISE",
            "FIGURE5_RULE",
            "JTA_COMMIT_PATTERN",
            "JTA_ROLLBACK_PATTERN",
            "TRANSACTION_COMMIT",
            "TRANSACTION_DISPOSE",
            "TRANSACTION_ROLLBACK",
            "TRANSACTION_SET_UP",
            "TX_MANAGER_SET_UP",
        ),
        "security": ("AuthenticationOutcome", "JaasSecurityService"),
        "transaction": ("TransactionClient", "TransactionManagerLocator", "TxManager"),
        "workloads": (
            "CLIENT_WORK_EVENTS",
            "SECURITY_NOISE_EVENTS",
            "SERVER_NOISE_EVENTS",
            "SecurityWorkloadConfig",
            "TransactionWorkloadConfig",
            "generate_case_study_traces",
            "generate_security_traces",
            "generate_transaction_traces",
        ),
    },
)
