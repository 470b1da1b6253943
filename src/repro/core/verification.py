"""The Fig. 3 verification protocol.

When the ResultStore answers a GET positively, DedupRuntime must check —
*inside the application enclave* — that it can actually recover the
result: it recomputes ``h' = Hash(func, m, r)``, unwraps ``k' = [k] ⊕ h'``
and attempts the authenticated decryption.  ``⊥`` (a failed authenticity
check) means either the application does not really own ``(func, m)`` or
the stored data was poisoned; in both cases the protocol "Ret false" and
the caller falls back to fresh computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheme import Opening, ProtectedResult, ResultScheme, open_all
from ..errors import IntegrityError
from ..sgx.cost_model import ChargeLog, SimClock


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of running the protocol on one GET response."""

    ok: bool
    result_bytes: bytes = b""
    reason: str = ""


def verify_many(
    scheme: ResultScheme,
    func_identity: bytes,
    claims: list[tuple[bytes, bytes, ProtectedResult]],
) -> list[tuple[VerificationOutcome, ChargeLog]]:
    """Run Fig. 3 on many ``(input_bytes, tag, protected)`` GET answers:
    each item's key recovery, then one AEAD pass over them all.

    The clock is not touched: each verdict comes with the charges its item
    made, for the caller to replay where that item's cost is accounted.
    Never raises on authenticity failure — the protocol's contract is a
    boolean verdict, and the runtime treats ``false`` as a miss.
    """
    steps, logs = [], [ChargeLog() for _ in claims]
    for (input_bytes, tag, protected), charges in zip(claims, logs):
        try:
            steps.append(scheme.prepare_recover(func_identity, input_bytes, tag, protected, charges))
        except Exception as exc:  # malformed challenge/wrapped key shapes
            steps.append(VerificationOutcome(ok=False, reason=f"malformed stored entry: {exc}"))
    opened = iter(open_all([step for step in steps if isinstance(step, Opening)]))
    return [
        (_verdict(next(opened)) if isinstance(step, Opening) else step, charges)
        for step, charges in zip(steps, logs)
    ]


def _verdict(result) -> VerificationOutcome:
    if isinstance(result, IntegrityError):
        return VerificationOutcome(ok=False, reason=f"decryption rejected: {result}")
    return VerificationOutcome(ok=True, result_bytes=result)


def verify_and_recover(
    scheme: ResultScheme,
    func_identity: bytes,
    input_bytes: bytes,
    tag: bytes,
    protected: ProtectedResult,
    clock: SimClock | None = None,
) -> VerificationOutcome:
    """Run Fig. 3 on one GET answer: returns ``(true, res)`` or ``(false, ·)``."""
    ((outcome, charges),) = verify_many(scheme, func_identity, [(input_bytes, tag, protected)])
    charges.replay(clock)
    return outcome
